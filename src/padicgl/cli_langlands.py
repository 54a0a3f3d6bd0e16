"""The Langlands half of the CLI: the handlers of the twelve subcommands
that read classification data or Weil-Deligne representations.

Each handler builds the local field context, then the label registry, then
reads the payload, and returns the JSON document that ``cli.main`` prints.
``cli`` imports this module only when one of these subcommands is chosen.
"""

from __future__ import annotations

import json

from .bzclass import RegistryError, gl_predicates, involution_t, load_registry
from .common import PayloadError, array, field, fraction_to_json, read_json, read_payload
from .factors import conductor, gl_pair_l_inductive, wd_eps, wd_l_factor, wd_pair_l
from .jsonio import (
    DEFAULT_REGISTRY_DOC,
    atom_from_json,
    class_data_from_json,
    class_data_to_json,
    eps_to_json,
    lfactor_to_json,
    scalar_from_json,
    scalar_to_json,
    wdrep_from_json,
    wdrep_to_json,
)
from .langlands import (
    dictionary_report,
    rec_forward,
    rec_inverse,
    satake_class_data,
    satake_parameters,
    verify_rec_axioms,
)
from .qexact import LocalFieldContext, lfactors_equal, render_lfactor
from .weildeligne import wd_dual


def _registry(args, ctx):
    if args.registry is None:
        return load_registry(DEFAULT_REGISTRY_DOC, ctx)
    with open(args.registry, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = read_json(text, args.registry)
    except json.JSONDecodeError as exc:
        raise RegistryError(f"{args.registry}: not a JSON document: {exc}") from None
    except PayloadError as exc:
        raise RegistryError(str(exc)) from None
    return load_registry(doc, ctx)


def _langlands(handler):
    """A Langlands subcommand: handler(args, payload, registry, ctx), given
    the local field context, then the label registry, then the payload."""

    def run(args):
        ctx = LocalFieldContext(args.p, args.f, args.d, args.npsi)
        registry = _registry(args, ctx)
        return handler(args, read_payload(args.input), registry, ctx)

    return run


@_langlands
def run_rec(args, payload, registry, ctx):
    return wdrep_to_json(rec_forward(class_data_from_json(payload, registry, ctx)))


@_langlands
def run_rec_inverse(args, payload, registry, ctx):
    return class_data_to_json(rec_inverse(wdrep_from_json(payload, registry, ctx)))


@_langlands
def run_satake(args, payload, registry, ctx):
    direction = field(payload, "direction", default=None)
    if direction == "toWD":
        values = array(field(payload, "values", default=[]), "values", scalar_from_json)
        return class_data_to_json(satake_class_data(values, ctx))
    if direction == "fromRep":
        c = class_data_from_json(field(payload, "data"), registry, ctx, "data")
        return {"values": [scalar_to_json(v, ctx) for v in satake_parameters(c, ctx)]}
    raise PayloadError("direction: must be 'toWD' or 'fromRep'")


@_langlands
def run_lfactor(args, payload, registry, ctx):
    l = wd_l_factor(wdrep_from_json(payload, registry, ctx), ctx)
    return {"factors": lfactor_to_json(l, ctx), "rendered": render_lfactor(l, ctx)}


@_langlands
def run_lfactor_pair(args, payload, registry, ctx):
    left = class_data_from_json(field(payload, "left"), registry, ctx, "left")
    right = class_data_from_json(field(payload, "right"), registry, ctx, "right")
    wd = wd_pair_l(rec_forward(left), rec_forward(right), ctx)
    inductive = gl_pair_l_inductive(left, right, ctx)
    return {
        "factors": lfactor_to_json(wd, ctx),
        "rendered": render_lfactor(wd, ctx),
        "inductive_matches_wd": lfactors_equal(wd, inductive, ctx),
    }


@_langlands
def run_eps(args, payload, registry, ctx):
    return eps_to_json(wd_eps(wdrep_from_json(payload, registry, ctx), ctx), ctx)


@_langlands
def run_conductor(args, payload, registry, ctx):
    value = conductor(wdrep_from_json(payload, registry, ctx), ctx, args.mode)
    return {"mode": args.mode, "value": fraction_to_json(value)}


@_langlands
def run_dictionary(args, payload, registry, ctx):
    return {"rows": dictionary_report(class_data_from_json(payload, registry, ctx), ctx)}


@_langlands
def run_involution(args, payload, registry, ctx):
    c = class_data_from_json(payload, registry, ctx)
    return class_data_to_json(involution_t(c, resolve=args.resolve))


@_langlands
def run_dual(args, payload, registry, ctx):
    if isinstance(payload, dict) and "blocks" in payload:
        return wdrep_to_json(wd_dual(wdrep_from_json(payload, registry, ctx)))
    return class_data_to_json(class_data_from_json(payload, registry, ctx).dual())


@_langlands
def run_classify_predicates(args, payload, registry, ctx):
    return gl_predicates(class_data_from_json(payload, registry, ctx), ctx)


@_langlands
def run_verify(args, payload, registry, ctx):
    c = class_data_from_json(field(payload, "data"), registry, ctx, "data")
    chi_atom, m = atom_from_json(field(payload, "chi"), registry, ctx, "chi")
    if m != 1:
        raise PayloadError(f"chi.m: expected 1 (chi is a character), got {m}")
    return verify_rec_axioms(c, chi_atom, ctx, registry)
