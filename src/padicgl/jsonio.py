"""JSON schemas shared by the CLI and the golden tests.

All emission is deterministic: scalars are canonicalized, multisets are
sorted by canonical key, and dictionaries rely on sort_keys at dump time.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Tuple

from .bzclass import (
    Atom,
    ClassData,
    LabelRegistry,
    Segment,
    scalar_from_json,  # noqa: F401  the scalar schema, shared with label records
    unramified_atom,
)
from .common import PayloadError, array, child_path, field, fraction_to_json, integer, pair, string
from .factors import EpsValue
from .qexact import ExactScalar, LFactor, LocalFieldContext, canonical_scalar
from .weildeligne import WDBlock, WDRep


def scalar_to_json(x: ExactScalar, ctx: LocalFieldContext) -> Dict:
    y = canonical_scalar(x, ctx)
    return {"re": fraction_to_json(y.c.re), "im": fraction_to_json(y.c.im), "k": y.k}


def twist_to_json(x: Fraction) -> List[int]:
    return [int(2 * x), 2]


def twist_from_json(doc, path: str = "") -> Fraction:
    num, den = pair(doc, path)
    if den not in (1, 2):
        raise PayloadError(f"{path or 'payload'}: twists are serialized in integer or half units")
    return Fraction(num, den)


def atom_from_json(doc, registry: LabelRegistry, ctx: LocalFieldContext,
                   path: str = "") -> Tuple[Atom, int]:
    label = registry.resolve(string(field(doc, "label", path), child_path(path, "label")))
    x = twist_from_json(field(doc, "x", path, [0, 1]), child_path(path, "x"))
    m = integer(field(doc, "m", path, 1), child_path(path, "m"))
    if label.is_unramified_char():
        atom = unramified_atom(label.omega.shift(-x), ctx)
    else:
        atom = Atom(label, x)
    return atom, m


def _atom_doc(atom: Atom, m: int) -> Dict:
    return {"label": atom.label.name, "x": twist_to_json(atom.x), "m": m}


def _atoms_from_json(doc, key: str, registry: LabelRegistry, ctx: LocalFieldContext, path: str):
    return array(field(doc, key, path), child_path(path, key),
                 lambda rec, where: atom_from_json(rec, registry, ctx, where))


def class_data_to_json(c: ClassData) -> Dict:
    segs = sorted(c.segments, key=lambda s: (s.start.label.name, s.start.x, s.m))
    return {"form": c.form, "segments": [_atom_doc(s.start, s.m) for s in segs]}


def class_data_from_json(doc, registry: LabelRegistry, ctx: LocalFieldContext,
                         path: str = "") -> ClassData:
    segs = [Segment(atom, m) for atom, m in _atoms_from_json(doc, "segments", registry, ctx, path)]
    return ClassData(field(doc, "form", path, "Q"), tuple(segs))


def wdrep_to_json(rho: WDRep) -> Dict:
    blocks = sorted(rho.blocks, key=lambda b: (b.atom.label.name, b.atom.x, b.m))
    return {"blocks": [_atom_doc(b.atom, b.m) for b in blocks]}


def wdrep_from_json(doc, registry: LabelRegistry, ctx: LocalFieldContext,
                    path: str = "") -> WDRep:
    blocks = [WDBlock(atom, m) for atom, m in _atoms_from_json(doc, "blocks", registry, ctx, path)]
    return WDRep(tuple(blocks))


def lfactor_to_json(l: LFactor, ctx: LocalFieldContext) -> List[Dict]:
    return [{"a": scalar_to_json(a, ctx), "t": t} for _, a, t in l.canonical_order(ctx)]


def eps_to_json(e: EpsValue, ctx: LocalFieldContext) -> Dict:
    return {
        "units": [{"sym": sym, "exp": exp} for sym, exp in e.units],
        "mono": scalar_to_json(e.mono, ctx),
        "sSlope": fraction_to_json(e.s_slope),
        "num": lfactor_to_json(e.num, ctx),
        "den": lfactor_to_json(e.den, ctx),
    }


DEFAULT_REGISTRY_DOC = [
    {
        "name": "1",
        "kind": "unramified-char",
        "degree": 1,
        "torsion": 1,
        "conductor": 0,
        "dual": "1",
        "omegaAtUniformizer": {"re": [1, 1], "im": [0, 1], "k": 0},
        "unitClass": "1",
    }
]
