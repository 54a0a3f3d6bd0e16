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
    """Malformed payload document (schema level, exit code 2).  Raised by
    the readers below with the JSON path of the bad field first, as in
    ``segments[1].m: expected an integer, got an object``."""


# -- payload readers: each names the JSON path it reads ("" is the payload)

_REQUIRED = object()


def _kind(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "a boolean"
    if isinstance(v, (int, float)):
        return "a number"
    if isinstance(v, str):
        return "a string"
    return "an array" if isinstance(v, list) else "an object"


def _bad(path: str, what: str, v) -> PayloadError:
    return PayloadError(f"{path or 'payload'}: expected {what}, got {_kind(v)}")


def _child_path(path: str, key) -> str:
    if isinstance(key, int):
        return f"{path}[{key}]"
    return f"{path}.{key}" if path else key


def field(doc, key: str, path: str = "", default=_REQUIRED):
    """doc[key] of the JSON object at path; default when the key is absent."""
    if not isinstance(doc, dict):
        raise _bad(path, "an object", doc)
    if key in doc:
        return doc[key]
    if default is _REQUIRED:
        raise PayloadError(f"{_child_path(path, key)}: missing")
    return default


def array(v, path: str, item=None) -> list:
    """The JSON array at path, each entry read by item(entry, entry_path)."""
    if not isinstance(v, list):
        raise _bad(path, "an array", v)
    return v if item is None else [item(e, _child_path(path, i)) for i, e in enumerate(v)]


def integer(v, path: str) -> int:
    """int(v): what the payload always accepted where it reads an integer."""
    try:
        return int(v)
    except (TypeError, ValueError, OverflowError):
        raise _bad(path, "an integer", v) from None


def string(v, path: str) -> str:
    if not isinstance(v, str):
        raise _bad(path, "a string", v)
    return v


def digits(v, path: str) -> list:
    """A JSON array of integers: the coefficients of a carrier element."""
    for i, c in enumerate(array(v, path)):
        if not isinstance(c, int):
            raise _bad(_child_path(path, i), "an integer", c)
    return v


def _pair(x, path: str) -> Tuple[int, int]:
    if not (isinstance(x, (list, tuple)) and len(x) == 2):
        raise _bad(path, "a [num, den] pair", x)
    return integer(x[0], _child_path(path, 0)), integer(x[1], _child_path(path, 1))


def fraction_to_json(x: Fraction) -> List[int]:
    return [x.numerator, x.denominator]


def fraction_from_json(doc, path: str = "") -> Fraction:
    num, den = _pair(doc, path)
    if den == 0:
        raise PayloadError(f"{path or 'payload'}: zero denominator")
    return Fraction(num, den)


def scalar_to_json(x: ExactScalar, ctx: LocalFieldContext) -> Dict:
    y = canonical_scalar(x, ctx)
    return {"re": fraction_to_json(y.c.re), "im": fraction_to_json(y.c.im), "k": y.k}


def scalar_from_json(doc, path: str = "") -> ExactScalar:
    re_part = fraction_from_json(field(doc, "re", path, [0, 1]), _child_path(path, "re"))
    im_part = fraction_from_json(field(doc, "im", path, [0, 1]), _child_path(path, "im"))
    k = integer(field(doc, "k", path, 0), _child_path(path, "k"))
    return ExactScalar(GaussianRational(re_part, im_part), k)


def twist_to_json(x: Fraction) -> List[int]:
    return [int(2 * x), 2]


def twist_from_json(doc, path: str = "") -> Fraction:
    num, den = _pair(doc, path)
    if den not in (1, 2):
        raise PayloadError(f"{path or 'payload'}: twists are serialized in integer or half units")
    return Fraction(num, den)


def atom_from_json(doc, registry: LabelRegistry, ctx: LocalFieldContext,
                   path: str = "") -> Tuple[Atom, int]:
    label = registry.resolve(string(field(doc, "label", path), _child_path(path, "label")))
    x = twist_from_json(field(doc, "x", path, [0, 1]), _child_path(path, "x"))
    m = integer(field(doc, "m", path, 1), _child_path(path, "m"))
    if label.is_unramified_char():
        atom = unramified_atom(label.omega.shift(-x), ctx)
    else:
        atom = Atom(label, x)
    return atom, m


def _atom_doc(atom: Atom, m: int) -> Dict:
    return {"label": atom.label.name, "x": twist_to_json(atom.x), "m": m}


def _atoms_from_json(doc, key: str, registry: LabelRegistry, ctx: LocalFieldContext, path: str):
    return array(field(doc, key, path), _child_path(path, key),
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
