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
    unramified_atom,
)
from .factors import EpsValue
from .qexact import (
    ExactScalar,
    GaussianRational,
    LFactor,
    LocalFieldContext,
    canonical_scalar,
)
from .weildeligne import WDBlock, WDRep


class PayloadError(ValueError):
    """Malformed payload document (schema level, exit code 2)."""


def _pair(x) -> Tuple[int, int]:
    if not (isinstance(x, (list, tuple)) and len(x) == 2):
        raise PayloadError(f"expected [num, den] pair, got {x!r}")
    return int(x[0]), int(x[1])


def fraction_to_json(x: Fraction) -> List[int]:
    return [x.numerator, x.denominator]


def fraction_from_json(doc) -> Fraction:
    num, den = _pair(doc)
    if den == 0:
        raise PayloadError("zero denominator")
    return Fraction(num, den)


def scalar_to_json(x: ExactScalar, ctx: LocalFieldContext) -> Dict:
    y = canonical_scalar(x, ctx)
    return {"re": fraction_to_json(y.c.re), "im": fraction_to_json(y.c.im), "k": y.k}


def scalar_from_json(doc) -> ExactScalar:
    if not isinstance(doc, dict):
        raise PayloadError(f"expected scalar object, got {doc!r}")
    re_part = fraction_from_json(doc.get("re", [0, 1]))
    im_part = fraction_from_json(doc.get("im", [0, 1]))
    return ExactScalar(GaussianRational(re_part, im_part), int(doc.get("k", 0)))


def twist_to_json(x: Fraction) -> List[int]:
    return [int(2 * x), 2]


def twist_from_json(doc) -> Fraction:
    num, den = _pair(doc)
    if den not in (1, 2):
        raise PayloadError("twists are serialized in integer or half units")
    return Fraction(num, den)


def atom_from_json(doc, registry: LabelRegistry, ctx: LocalFieldContext) -> Tuple[Atom, int]:
    if not isinstance(doc, dict) or "label" not in doc:
        raise PayloadError(f"expected an atom object with a label, got {doc!r}")
    label = registry.resolve(doc["label"])
    x = twist_from_json(doc.get("x", [0, 1]))
    m = int(doc.get("m", 1))
    if label.is_unramified_char():
        atom = unramified_atom(label.omega.shift(-x), ctx)
    else:
        atom = Atom(label, x)
    return atom, m


def _atom_doc(atom: Atom, m: int) -> Dict:
    return {"label": atom.label.name, "x": twist_to_json(atom.x), "m": m}


def class_data_to_json(c: ClassData) -> Dict:
    segs = sorted(c.segments, key=lambda s: (s.start.label.name, s.start.x, s.m))
    return {"form": c.form, "segments": [_atom_doc(s.start, s.m) for s in segs]}


def class_data_from_json(doc, registry: LabelRegistry, ctx: LocalFieldContext) -> ClassData:
    if not isinstance(doc, dict) or "segments" not in doc:
        raise PayloadError("expected classification data with a segments array")
    segs = []
    for rec in doc["segments"]:
        atom, m = atom_from_json(rec, registry, ctx)
        segs.append(Segment(atom, m))
    return ClassData(doc.get("form", "Q"), tuple(segs))


def wdrep_to_json(rho: WDRep) -> Dict:
    blocks = sorted(rho.blocks, key=lambda b: (b.atom.label.name, b.atom.x, b.m))
    return {"blocks": [_atom_doc(b.atom, b.m) for b in blocks]}


def wdrep_from_json(doc, registry: LabelRegistry, ctx: LocalFieldContext) -> WDRep:
    if not isinstance(doc, dict) or "blocks" not in doc:
        raise PayloadError("expected a Weil-Deligne representation with a blocks array")
    blocks = []
    for rec in doc["blocks"]:
        atom, m = atom_from_json(rec, registry, ctx)
        blocks.append(WDBlock(atom, m))
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
