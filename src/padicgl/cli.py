"""Command-line driver with deterministic JSON output.

Each subcommand is declared once, in ``_SUBCOMMANDS``: its handler and the
flags that handler reads.  Exit codes: 0 on success, 1 on module errors
(structured {error, detail}), 2 on argparse usage errors and on a payload
that is not JSON or has a field that does not fit (the detail starts with
the field's JSON path).  Two runs on identical input are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .bzclass import gl_predicates, involution_t, load_registry
from .cyclicalg import (
    CyclicAlgebra,
    UnramifiedContext,
    _is_scalar_matrix,
    brauer_invariant,
    dieudonne_standard,
    etale_inf_height,
    v_power_matrix,
)
from .factors import conductor, gl_pair_l_inductive, wd_eps, wd_l_factor, wd_pair_l
from .weildeligne import wd_dual
from .jsonio import (
    DEFAULT_REGISTRY_DOC,
    PayloadError,
    array,
    atom_from_json,
    class_data_from_json,
    class_data_to_json,
    digits,
    eps_to_json,
    field,
    fraction_to_json,
    integer,
    lfactor_to_json,
    scalar_from_json,
    scalar_to_json,
    string,
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
from .wittring import (
    GFRing,
    IntegerRing,
    ModRing,
    RationalField,
    WittContext,
    frobenius,
    ghost,
    ghost_inverse,
    verschiebung,
    witt_polynomial,
)


def _read_payload(args):
    if args.input == "-":
        text = sys.stdin.read()
    else:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    if not text.strip():
        raise PayloadError("empty payload")
    return json.loads(text)


def _registry(args, ctx):
    if args.registry is None:
        return load_registry(DEFAULT_REGISTRY_DOC, ctx)
    with open(args.registry, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return load_registry(doc, ctx)


def _langlands(handler):
    """A Langlands subcommand: handler(args, payload, registry, ctx), given
    the local field context, then the label registry, then the payload."""

    def run(args):
        ctx = LocalFieldContext(args.p, args.f, args.d, args.npsi)
        registry = _registry(args, ctx)
        return handler(args, _read_payload(args), registry, ctx)

    return run


def _rec(args, payload, registry, ctx):
    return wdrep_to_json(rec_forward(class_data_from_json(payload, registry, ctx)))


def _rec_inverse(args, payload, registry, ctx):
    return class_data_to_json(rec_inverse(wdrep_from_json(payload, registry, ctx)))


def _satake(args, payload, registry, ctx):
    direction = field(payload, "direction", default=None)
    if direction == "toWD":
        values = array(field(payload, "values", default=[]), "values", scalar_from_json)
        return class_data_to_json(satake_class_data(values, ctx))
    if direction == "fromRep":
        c = class_data_from_json(field(payload, "data"), registry, ctx, "data")
        return {"values": [scalar_to_json(v, ctx) for v in satake_parameters(c, ctx)]}
    raise PayloadError("direction: must be 'toWD' or 'fromRep'")


def _lfactor(args, payload, registry, ctx):
    l = wd_l_factor(wdrep_from_json(payload, registry, ctx), ctx)
    return {"factors": lfactor_to_json(l, ctx), "rendered": render_lfactor(l, ctx)}


def _lfactor_pair(args, payload, registry, ctx):
    left = class_data_from_json(field(payload, "left"), registry, ctx, "left")
    right = class_data_from_json(field(payload, "right"), registry, ctx, "right")
    wd = wd_pair_l(rec_forward(left), rec_forward(right), ctx)
    inductive = gl_pair_l_inductive(left, right, ctx)
    return {
        "factors": lfactor_to_json(wd, ctx),
        "rendered": render_lfactor(wd, ctx),
        "inductive_matches_wd": lfactors_equal(wd, inductive, ctx),
    }


def _eps(args, payload, registry, ctx):
    return eps_to_json(wd_eps(wdrep_from_json(payload, registry, ctx), ctx), ctx)


def _conductor(args, payload, registry, ctx):
    value = conductor(wdrep_from_json(payload, registry, ctx), ctx, args.mode)
    return {"mode": args.mode, "value": fraction_to_json(value)}


def _dictionary(args, payload, registry, ctx):
    return {"rows": dictionary_report(class_data_from_json(payload, registry, ctx), ctx)}


def _involution(args, payload, registry, ctx):
    c = class_data_from_json(payload, registry, ctx)
    return class_data_to_json(involution_t(c, resolve=args.resolve))


def _dual(args, payload, registry, ctx):
    if isinstance(payload, dict) and "blocks" in payload:
        return wdrep_to_json(wd_dual(wdrep_from_json(payload, registry, ctx)))
    return class_data_to_json(class_data_from_json(payload, registry, ctx).dual())


def _classify_predicates(args, payload, registry, ctx):
    return gl_predicates(class_data_from_json(payload, registry, ctx), ctx)


def _verify(args, payload, registry, ctx):
    c = class_data_from_json(field(payload, "data"), registry, ctx, "data")
    chi_atom, _ = atom_from_json(field(payload, "chi"), registry, ctx, "chi")
    return verify_rec_axioms(c, chi_atom, ctx, registry)


def _witt_ring(spec: str, p: int):
    if spec == "Q":
        return RationalField()
    if spec == "Z":
        return IntegerRing()
    if spec == "Fp":
        return ModRing(p)
    if spec.startswith("Zmod:"):
        return ModRing(int(spec.split(":", 1)[1]))
    if spec.startswith("Fq:"):
        return GFRing(p, int(spec.split(":", 1)[1]))
    raise PayloadError(f"unknown coefficient ring {spec!r}")


def _witt_coord(ring, c, path):
    if isinstance(c, list):
        c = digits(c, path)
    elif isinstance(c, str):
        try:
            c = Fraction(c)
        except (ValueError, ZeroDivisionError):
            raise PayloadError(f"{path}: expected a rational number, got {c!r}") from None
    try:
        return ring.coerce(c)
    except TypeError as exc:  # the ring's "cannot coerce"
        raise PayloadError(f"{path}: {exc}") from None


def _witt_coords_out(coords):
    return [str(c) if isinstance(c, Fraction) else list(c) if isinstance(c, tuple) else c
            for c in coords]


def _carrier_matrix_out(mat):
    return [[list(e) for e in row] for row in mat]


_WITT_UNARY = {
    "neg": lambda x: (-x).coords,
    "frobenius": lambda x: frobenius(x).coords,
    "verschiebung": lambda x: verschiebung(x).coords,
    "ghost": ghost,
}
_WITT_BINARY = {
    "add": lambda x, y: (x + y).coords,
    "mul": lambda x, y: (x * y).coords,
}


def _witt(args):
    payload = _read_payload(args)
    ring = _witt_ring(args.ring, args.p)
    wctx = WittContext(ring, args.p, args.length)
    op = string(field(payload, "op", default=""), "op")

    def coords(key):
        return array(field(payload, key), key, lambda c, path: _witt_coord(ring, c, path))

    if op in _WITT_BINARY:
        out = _WITT_BINARY[op](wctx.vector(coords("x")), wctx.vector(coords("y")))
    elif op in _WITT_UNARY:
        out = _WITT_UNARY[op](wctx.vector(coords("x")))
    elif op == "ghost-inverse":
        out = ghost_inverse(wctx, coords("x")).coords
    elif op == "witt-polynomial":
        values = coords("x")
        n = integer(field(payload, "n", default=len(values) - 1), "n")
        return {"result": _witt_coords_out((witt_polynomial(args.p, n, values, ring),))[0]}
    else:
        raise PayloadError(f"op: unknown witt op {op!r}")
    return {"result": _witt_coords_out(out)}


def _skewfield(args):
    payload = _read_payload(args)
    ctx = UnramifiedContext(args.p, args.f, args.s, args.precision)
    algebra = CyclicAlgebra(ctx, args.r)
    op = field(payload, "op", default=None)

    def element(key):
        return algebra.element(array(field(payload, key), key, digits))

    if op == "mul":
        out = algebra.mul(element("x"), element("y"))
        return {"coeffs": [list(c) for c in out.coeffs]}
    if op == "pi-power":
        out = algebra.power(algebra.pi(), integer(field(payload, "e", default=1), "e"))
        return {"coeffs": [list(c) for c in out.coeffs]}
    if op == "norm":
        nrd, v = algebra.reduced_norm_val(element("x"))
        return {"nrd": list(nrd), "vD": fraction_to_json(v)}
    if op == "invariant":
        return {"invariant": fraction_to_json(brauer_invariant(args.r, args.s, ctx))}
    if op == "embed":
        return {"matrix": _carrier_matrix_out(algebra.embed_matrix(element("x")))}
    raise PayloadError(f"op: unknown skewfield op {op!r}")


def _dieudonne(args):
    ctx = UnramifiedContext(args.p, args.f, args.residue_degree, args.precision)
    mod = dieudonne_standard(args.rank, args.etale_height, ctx)
    etale, formal = etale_inf_height(mod)
    nf = args.rank - args.etale_height
    out = {
        "V": _carrier_matrix_out(mod.v_matrix),
        "F": _carrier_matrix_out(mod.f_matrix),
        "etale": etale,
        "formal": formal,
    }
    if nf > 0:
        block = [row[args.etale_height:] for row in v_power_matrix(mod, nf)[args.etale_height:]]
        out["v_power_is_pi_on_formal"] = _is_scalar_matrix(ctx, block, ctx.p)
    return out


_FLAGS = {
    "--registry": dict(default=None, help="label registry JSON path"),
    "--p": dict(type=int, default=3),
    "--f": dict(type=int, default=1),
    "--d": dict(type=int, default=0),
    "--npsi": dict(type=int, default=0),
    "--precision": dict(type=int, default=4),
    "--input": dict(default="-", help="payload JSON path or - for stdin"),
    "--output": dict(default="-", help="output path or - for stdout"),
    "--mode": dict(choices=["artin", "epsDegree"], default="artin"),
    "--resolve": dict(action="store_true"),
    "--ring": dict(default="Q", help="Q, Z, Zmod:m, Fp or Fq:r"),
    "--length": dict(type=int, default=3),
    "--r": dict(type=int, required=True),
    "--s": dict(type=int, required=True),
    "--rank": dict(type=int, required=True),
    "--etale-height": dict(type=int, required=True),
    "--residue-degree": dict(type=int, default=1),
}
_LANGLANDS = ("--registry", "--p", "--f", "--d", "--npsi", "--input", "--output")

# name, handler, the flags the handler reads
_SUBCOMMANDS = (
    ("rec", _langlands(_rec), _LANGLANDS),
    ("rec-inverse", _langlands(_rec_inverse), _LANGLANDS),
    ("satake", _langlands(_satake), _LANGLANDS),
    ("lfactor", _langlands(_lfactor), _LANGLANDS),
    ("lfactor-pair", _langlands(_lfactor_pair), _LANGLANDS),
    ("eps", _langlands(_eps), _LANGLANDS),
    ("conductor", _langlands(_conductor), _LANGLANDS + ("--mode",)),
    ("dictionary", _langlands(_dictionary), _LANGLANDS),
    ("involution", _langlands(_involution), _LANGLANDS + ("--resolve",)),
    ("dual", _langlands(_dual), _LANGLANDS),
    ("classify-predicates", _langlands(_classify_predicates), _LANGLANDS),
    ("verify", _langlands(_verify), _LANGLANDS),
    ("witt", _witt, ("--p", "--ring", "--length", "--input", "--output")),
    ("skewfield", _skewfield, ("--p", "--f", "--r", "--s", "--precision", "--input", "--output")),
    ("dieudonne", _dieudonne,
     ("--p", "--f", "--rank", "--etale-height", "--residue-degree", "--precision", "--output")),
)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="padicgl")
    sub = top.add_subparsers(dest="command", required=True)
    for name, handler, flags in _SUBCOMMANDS:
        sp = sub.add_parser(name)
        for flag in flags:
            sp.add_argument(flag, **_FLAGS[flag])
        sp.set_defaults(run=handler)
    return top


def _dump(result) -> str:
    return json.dumps(result, sort_keys=True, indent=2) + "\n"


def main(argv=None) -> int:
    args = build_parser().parse_args(sys.argv[1:] if argv is None else argv)
    try:
        # serialising inside the try: json.dumps itself can fail, e.g. on an
        # integer longer than Python's int-to-str digit limit
        text = _dump(args.run(args))
        status = 0
    except (json.JSONDecodeError, PayloadError) as exc:
        text = _dump({"error": "parse", "detail": str(exc)})
        status = 2
    except (ValueError, ArithmeticError, OSError) as exc:
        text = _dump({"error": type(exc).__name__, "detail": str(exc)})
        status = 1
    except Exception as exc:  # never leak a stack trace
        text = _dump({"error": "internal", "detail": f"{type(exc).__name__}: {exc}"})
        status = 1

    if args.output != "-":
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
            return status
        except OSError as exc:
            text = _dump({"error": type(exc).__name__, "detail": str(exc)})
            status = 1
    sys.stdout.write(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
