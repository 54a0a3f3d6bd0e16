"""Supercuspidal atoms, segments, and classification data for GL(n).

An atom is an inertial label together with a half-integer twist x and
stands for pi_0 tensor |det|^x.  Labels come in three kinds:

* ``symbolic`` -- an abstract supercuspidal of degree n >= 1, known only
  through its declared invariants (torsion, conductor, dual partner,
  unitary central-character value at the uniformizer);
* ``unramified-char`` -- an unramified quasi-character of K^*, pinned down
  by its value alpha at the uniformizer;
* ``ramified-char`` -- a ramified quasi-character, symbolic apart from its
  conductor and its value at the uniformizer.

Unramified-char labels are value-canonical: every unramified character is
rewritten (given a context) as a canonical base value times a |.|^x twist,
so that label-name equality is exactly isomorphism-up-to-integral-twists
for data built through :func:`unramified_atom`.  Labels produced by
``dualize`` stay in the image of that convention by construction.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .common import (
    PayloadError,
    Value,
    array,
    child_path,
    field,
    fraction_from_json,
    integer,
    record,
    setfield,
    string,
)
from .qexact import (
    ExactScalar,
    GaussianRational,
    LocalFieldContext,
    _half_integer,
    _p_valuation,
    as_q_power,
    canonical_scalar,
    norm_is_one,
)

KIND_SYMBOLIC = "symbolic"
KIND_UNRAMIFIED = "unramified-char"
KIND_RAMIFIED = "ramified-char"
_KINDS = (KIND_SYMBOLIC, KIND_UNRAMIFIED, KIND_RAMIFIED)


class RegistryError(ValueError):
    pass


class InertialLabel(Value):
    """A supercuspidal up to unramified twist (module docstring).  _dual,
    the label of the contragredient, is wired once the partner exists and
    is not a field."""

    __slots__ = ("name", "kind", "degree", "torsion", "conductor", "dual_name", "omega", "unit_class",
                 "_dual")

    def __init__(self, name: str, kind: str, degree: int, torsion: int, conductor: int,
                 dual_name: str, omega: ExactScalar, unit_class: str,
                 _dual: Optional["InertialLabel"] = None):
        if kind not in _KINDS:
            raise RegistryError(f"unknown label kind {kind!r}")
        if degree < 1:
            raise RegistryError(f"label {name}: degree must be positive")
        if torsion < 1 or degree % torsion != 0:
            raise RegistryError(
                f"label {name}: torsion {torsion} does not divide degree {degree}"
            )
        if conductor < 0:
            raise RegistryError(f"label {name}: conductor must be non-negative")
        if kind != KIND_SYMBOLIC and degree != 1:
            raise RegistryError(f"label {name}: character labels have degree 1")
        if kind == KIND_UNRAMIFIED and (torsion != 1 or conductor != 0):
            raise RegistryError(
                f"label {name}: unramified characters have torsion 1 and conductor 0"
            )
        if kind == KIND_RAMIFIED and conductor < 1:
            raise RegistryError(f"label {name}: ramified characters have conductor >= 1")
        if omega.is_zero():
            raise RegistryError(f"label {name}: omega at the uniformizer must be nonzero")
        setfield(self, "name", name)
        setfield(self, "kind", kind)
        setfield(self, "degree", degree)
        setfield(self, "torsion", torsion)
        setfield(self, "conductor", conductor)
        setfield(self, "dual_name", dual_name)
        setfield(self, "omega", omega)
        setfield(self, "unit_class", unit_class)
        setfield(self, "_dual", _dual)

    @property
    def dual(self) -> "InertialLabel":
        if self._dual is None:
            raise RegistryError(f"label {self.name} has no wired dual")
        return self._dual

    def is_unramified_char(self) -> bool:
        return self.kind == KIND_UNRAMIFIED


def _wire_duals(a: InertialLabel, b: InertialLabel):
    setfield(a, "_dual", b)
    setfield(b, "_dual", a)


# a denominator of only zeros is no number, so such a name is an unknown label
_UR_NAME = _re.compile(r"^ur\((-?\d+(?:/0*[1-9]\d*)?),(-?\d+(?:/0*[1-9]\d*)?),(-?\d+)\)$")


def _ur_name(c: GaussianRational, k: int) -> str:
    return f"ur({c.re},{c.im},{k})"


def unramified_label(value: ExactScalar, ctx: LocalFieldContext) -> InertialLabel:
    """The canonical label for the unramified character with the given value
    at the uniformizer.  The dual partner (value^(-1)) is wired eagerly."""
    if value.is_zero():
        raise RegistryError("unramified character value must be nonzero")
    base = canonical_scalar(value, ctx)
    inv = canonical_scalar(value.inverse(), ctx)
    name = _ur_name(base.c, base.k)
    dual_name = _ur_name(inv.c, inv.k)
    lab = InertialLabel(name, KIND_UNRAMIFIED, 1, 1, 0, dual_name, base, "1")
    if dual_name == name:
        _wire_duals(lab, lab)
    else:
        lab_dual = InertialLabel(dual_name, KIND_UNRAMIFIED, 1, 1, 0, name, inv, "1")
        _wire_duals(lab, lab_dual)
    return lab


def parse_unramified_name(name: str, ctx: LocalFieldContext) -> Optional[InertialLabel]:
    m = _UR_NAME.match(name)
    if m is None:
        return None
    c = GaussianRational(Fraction(m.group(1)), Fraction(m.group(2)))
    return unramified_label(ExactScalar(c, int(m.group(3))), ctx)


class Atom(Value):
    """label tensor |det|^x; x is a half-integer."""

    __slots__ = ("label", "x")

    def __init__(self, label: InertialLabel, x: Fraction = Fraction(0)):
        setfield(self, "label", label)
        setfield(self, "x", _half_integer(x, "twist"))

    @property
    def degree(self) -> int:
        return self.label.degree

    def twist(self, y) -> "Atom":
        return Atom(self.label, self.x + _half_integer(y, "twist"))

    def dual(self) -> "Atom":
        return Atom(self.label.dual, -self.x)

    def key(self):
        return (self.label.name, self.x)

    def value_at_uniformizer(self) -> ExactScalar:
        """omega_{pi0(x)}(pi_K) = omega(pi_K) * q^(-n*x)."""
        return self.label.omega.shift(-self.label.degree * self.x)


def unramified_atom(value: ExactScalar, ctx: LocalFieldContext) -> Atom:
    """The atom of an unramified character with the given uniformizer value,
    split canonically into base label and twist.

    The base value is chosen inside one window of the p-valuation lattice,
    so any two characters differing by an integral power of |.| receive the
    same label and comparable twists.
    """
    if value.is_zero():
        raise RegistryError("unramified character value must be nonzero")
    n = value.c.norm_sq()
    e = _p_valuation(n.numerator, n.denominator, ctx.p)[0] + value.k * ctx.f
    # pick 2x so that the base value's norm-square valuation lands in [0, f)
    shift2 = (e % ctx.f) - e
    x = Fraction(shift2, 2 * ctx.f)
    base_value = value.shift(x)
    return Atom(unramified_label(base_value, ctx), x)


class Segment(Value):
    """Delta(pi, m) = [pi, pi(1), ..., pi(m-1)]."""

    __slots__ = ("start", "m")

    def __init__(self, start: Atom, m: int):
        if m < 1:
            raise ValueError("segment length m must be >= 1")
        setfield(self, "start", start)
        setfield(self, "m", m)

    @property
    def degree(self) -> int:
        return self.start.degree * self.m

    @property
    def center_exponent(self) -> Fraction:
        return self.start.x + Fraction(self.m - 1, 2)

    def twist(self, y) -> "Segment":
        return Segment(self.start.twist(y), self.m)

    def dual(self) -> "Segment":
        # Delta^vee = [pi(m-1)^vee, ..., pi^vee] starts at pi^vee(1-m)
        return Segment(self.start.dual().twist(1 - self.m), self.m)

    def atoms(self) -> List[Atom]:
        return [self.start.twist(j) for j in range(self.m)]

    def key(self):
        return (self.start.label.name, -self.start.x, -self.m)


FORM_Q = "Q"
FORM_Z = "Z"


class ClassData(Value):
    """A multiset of segments with a Q/Z form tag; order is irrelevant."""

    __slots__ = ("form", "segments")

    def __init__(self, form: str, segments: Tuple[Segment, ...]):
        if form not in (FORM_Q, FORM_Z):
            raise ValueError(f"form must be 'Q' or 'Z', got {form!r}")
        if not segments:
            raise ValueError("classification data needs at least one segment")
        setfield(self, "form", form)
        setfield(self, "segments", segments)

    @property
    def degree(self) -> int:
        return sum(s.degree for s in self.segments)

    def twist(self, y) -> "ClassData":
        return ClassData(self.form, tuple(s.twist(y) for s in self.segments))

    def dual(self) -> "ClassData":
        return ClassData(self.form, tuple(s.dual() for s in self.segments))

    def key(self):
        return (self.form, tuple(sorted(((s.key(), s.m) for s in self.segments))))

    def require_q_form(self, op: str):
        if self.form != FORM_Q:
            raise ValueError(f"{op} is defined on Q-form data; apply involution_t first")


class CentralCharData(Value):
    __slots__ = ("unit_classes", "value_at_uniformizer")

    def __init__(self, unit_classes: Tuple[str, ...], value_at_uniformizer: ExactScalar):
        if value_at_uniformizer.is_zero():
            raise ValueError("central character value must be nonzero")
        setfield(self, "unit_classes", unit_classes)
        setfield(self, "value_at_uniformizer", value_at_uniformizer)


def dualize(x):
    """Contragredient of an Atom, Segment or ClassData; an involution."""
    return x.dual()


def atom_leq(a: Atom, b: Atom) -> bool:
    """pi <= pi' iff pi' = pi(n) for an integer n >= 0."""
    if a.label.name != b.label.name:
        return False
    off = b.x - a.x
    return off.denominator == 1 and off >= 0


def _interval(seg: Segment) -> Optional[Tuple[Fraction, Fraction]]:
    return seg.start.x, seg.start.x + seg.m - 1


def linked(d1: Segment, d2: Segment) -> bool:
    """Linked: same label, integral offset, neither contains the other, and
    the union of the index intervals is again an interval."""
    if d1.start.label.name != d2.start.label.name:
        return False
    if (d2.start.x - d1.start.x).denominator != 1:
        return False
    a1, b1 = _interval(d1)
    a2, b2 = _interval(d2)
    if a1 <= a2 and b2 <= b1:
        return False
    if a2 <= a1 and b1 <= b2:
        return False
    return max(a1, a2) <= min(b1, b2) + 1


def precedes(d1: Segment, d2: Segment) -> bool:
    return linked(d1, d2) and d1.start.x < d2.start.x


def standard_order(segs: Iterable[Segment]) -> List[Segment]:
    """An ordering in which no earlier segment precedes a later one.

    Sorting by descending start twist within a label suffices: precedes
    demands a strictly smaller minimum.  Ties are broken deterministically
    by label name, then descending twist, then descending length.
    """
    return sorted(segs, key=Segment.key)


def involution_t(c: ClassData, resolve: bool = False) -> ClassData:
    """Swap the Q/Z form tag.  With resolve=True a single-segment Z-form is
    rewritten as the Q-form on the segment's singletons; the multi-segment
    resolution is not computable from the data this library carries."""
    if not resolve:
        return ClassData(FORM_Z if c.form == FORM_Q else FORM_Q, c.segments)
    if c.form != FORM_Z:
        raise ValueError("resolution applies to Z-form data")
    if len(c.segments) != 1:
        raise ValueError(
            "resolving a multi-segment Z-form to Q-form is not computable from the available data"
        )
    seg = c.segments[0]
    return ClassData(FORM_Q, tuple(Segment(a, 1) for a in seg.atoms()))


def supercuspidal_support(c: ClassData) -> List[Atom]:
    """The multiset of twists pi(j) over all segments, unrolled."""
    out: List[Atom] = []
    for seg in c.segments:
        out.extend(seg.atoms())
    return sorted(out, key=Atom.key)


def central_character(c: ClassData) -> CentralCharData:
    """Product of the central characters over the supercuspidal support."""
    units: List[str] = []
    value = ExactScalar.one()
    for atom in supercuspidal_support(c):
        units.append(atom.label.unit_class)
        value = value * atom.value_at_uniformizer()
    return CentralCharData(tuple(sorted(units)), value)


def _segment_center_unitary(seg: Segment, ctx: LocalFieldContext) -> bool:
    """Whether the central character of the segment's center twist is unitary.

    For symbolic labels the declared base point is unitary, so this is the
    exponent test x + (m-1)/2 = 0; for character labels the norm of the
    actual value decides (an alpha with |alpha| != 1 is never unitary)."""
    center = seg.start.twist(Fraction(seg.m - 1, 2))
    return norm_is_one(center.value_at_uniformizer(), ctx)


def product_irreducible(segs: Sequence[Segment]) -> bool:
    segs = list(segs)
    for i in range(len(segs)):
        for j in range(i + 1, len(segs)):
            if linked(segs[i], segs[j]):
                return False
    return True


def gl_predicates(c: ClassData, ctx: LocalFieldContext) -> Dict[str, bool]:
    """The GL-side predicate record of Q-form classification data."""
    c.require_q_form("gl_predicates")
    segs = c.segments
    single = len(segs) == 1
    supercuspidal = single and segs[0].m == 1
    ess_sq = single
    square_integrable = single and _segment_center_unitary(segs[0], ctx)
    tempered = all(_segment_center_unitary(s, ctx) for s in segs)
    generic = product_irreducible(segs)
    unramified = all(s.m == 1 and s.start.label.is_unramified_char() for s in segs)
    iwahori = all(s.start.label.is_unramified_char() for s in segs)
    return {
        "supercuspidal": supercuspidal,
        "essentially_square_integrable": ess_sq,
        "square_integrable": square_integrable,
        "tempered": tempered,
        "generic": generic,
        "unramified": unramified,
        "iwahori_spherical": iwahori,
    }


def langlands_quotient_data(c: ClassData) -> List[Tuple[ClassData, Fraction]]:
    """Langlands data: group segments by center exponent, sorted strictly
    decreasing, each group recentred to exponent zero.  Twisting group j by
    its exponent and taking the union recovers the input."""
    c.require_q_form("langlands_quotient_data")
    groups: Dict[Fraction, List[Segment]] = {}
    for seg in c.segments:
        groups.setdefault(seg.center_exponent, []).append(seg)
    out = []
    for y in sorted(groups, reverse=True):
        shifted = tuple(s.twist(-y) for s in standard_order(groups[y]))
        out.append((ClassData(FORM_Q, shifted), y))
    return out


class LabelRegistry:
    """Immutable collection of inertial labels with wired dual involution
    and optional declared tensor-product labels."""

    def __init__(self, labels: Sequence[InertialLabel], products: Dict[Tuple[str, str], str],
                 ctx: LocalFieldContext):
        self._labels: Dict[str, InertialLabel] = {}
        self._ctx = ctx
        for lab in labels:
            if lab.name in self._labels:
                raise RegistryError(f"duplicate label {lab.name!r}")
            self._labels[lab.name] = lab
        for lab in self._labels.values():
            partner = self._labels.get(lab.dual_name)
            if partner is None:
                raise RegistryError(f"label {lab.name}: unknown dual {lab.dual_name!r}")
            if partner.dual_name != lab.name:
                raise RegistryError(
                    f"dual involution violated: dual({lab.name}) = {lab.dual_name} "
                    f"but dual({lab.dual_name}) = {partner.dual_name}"
                )
            for field_name in ("kind", "degree", "torsion", "conductor"):
                if getattr(partner, field_name) != getattr(lab, field_name):
                    raise RegistryError(
                        f"label {lab.name}: dual {partner.name} differs in {field_name}"
                    )
            setfield(lab, "_dual", partner)
        for lab in self._labels.values():
            if lab.kind == KIND_SYMBOLIC and not norm_is_one(lab.omega, ctx):
                raise RegistryError(
                    f"label {lab.name}: symbolic base point must be unitary at the uniformizer"
                )
        self._products: Dict[Tuple[str, str], str] = {}
        for (left, right), result in products.items():
            for nm in (left, right, result):
                if nm not in self._labels:
                    raise RegistryError(f"product table references unknown label {nm!r}")
            if self._labels[right].degree != 1:
                raise RegistryError("product table: right factor must be a character label")
            self._products[(left, right)] = result

    def names(self) -> List[str]:
        return sorted(self._labels)

    def __contains__(self, name: str) -> bool:
        return name in self._labels

    def resolve(self, name: str) -> InertialLabel:
        lab = self._labels.get(name) or parse_unramified_name(name, self._ctx)
        if lab is None:
            raise RegistryError(f"unknown label {name!r}")
        return lab

    def product(self, left: InertialLabel, right: InertialLabel) -> InertialLabel:
        result = self._products.get((left.name, right.name))
        if result is None:
            raise RegistryError(
                f"label registry incomplete: no declared product for {left.name} x {right.name}"
            )
        return self._labels[result]


def scalar_from_json(doc, path: str = "") -> ExactScalar:
    """The scalar {"re": [num, den], "im": [num, den], "k": k} at path, which
    is c * q^(k/2); absent fields are zero.  Label records and payloads share
    this form."""
    doc = record(doc, path)
    re_part = fraction_from_json(doc.get("re", [0, 1]), child_path(path, "re"))
    im_part = fraction_from_json(doc.get("im", [0, 1]), child_path(path, "im"))
    k = integer(doc.get("k", 0), child_path(path, "k"))
    return ExactScalar(GaussianRational(re_part, im_part), k)


def _label_from_json(rec, path: str) -> InertialLabel:
    def read(key, reader, *default):
        return reader(field(rec, key, path, *default), child_path(path, key))

    name = read("name", string)
    return InertialLabel(
        name=name,
        kind=field(rec, "kind", path),
        degree=read("degree", integer),
        torsion=read("torsion", integer, 1),
        conductor=read("conductor", integer, 0),
        dual_name=read("dual", string, name),
        omega=read("omegaAtUniformizer", scalar_from_json, {"re": [1, 1]}),
        unit_class=read("unitClass", string, "1"),
    )


def _product_from_json(rec, path: str) -> Tuple[Tuple[str, str], str]:
    left, right, result = (string(field(rec, key, path), child_path(path, key))
                           for key in ("left", "right", "result"))
    return (left, right), result


def load_registry(doc, ctx: LocalFieldContext) -> LabelRegistry:
    """Build a registry from its JSON document (a list of label records or
    an object with "labels" and optional "products").  A record that does
    not fit raises RegistryError naming its JSON path."""
    if isinstance(doc, dict):
        label_docs, label_path = doc.get("labels", []), "labels"
        product_docs = doc.get("products", [])
    else:
        label_docs, label_path, product_docs = doc, "registry", []
    try:
        labels = array(label_docs, label_path, _label_from_json)
        products = dict(array(product_docs, "products", _product_from_json))
    except PayloadError as exc:
        raise RegistryError(str(exc)) from None
    return LabelRegistry(labels, products, ctx)


def class_tensor_char(c: ClassData, chi: Atom, ctx: LocalFieldContext,
                      registry: Optional[LabelRegistry] = None) -> ClassData:
    """pi tensor chi on classification data, chi a degree-1 atom.

    An unramified chi acts as a global twist; a ramified chi replaces each
    label by its declared product label (twists add)."""
    if chi.degree != 1:
        raise ValueError("tensor character must have degree 1")
    if chi.label.is_unramified_char():
        w = as_q_power(chi.label.omega, ctx)
        if w is not None:
            # chi = |.|^(x - w): pure twist
            return c.twist(chi.x - w)
        segs = []
        for seg in c.segments:
            if not seg.start.label.is_unramified_char():
                raise RegistryError(
                    "label registry incomplete: unramified twist with non-lattice unit part "
                    "needs declared product labels for symbolic blocks"
                )
            value = seg.start.value_at_uniformizer() * chi.value_at_uniformizer()
            segs.append(Segment(unramified_atom(value, ctx), seg.m))
        return ClassData(c.form, tuple(segs))
    if registry is None:
        raise RegistryError("label registry incomplete: ramified twist needs a registry")
    segs = []
    for seg in c.segments:
        lab = registry.product(seg.start.label, chi.label)
        segs.append(Segment(Atom(lab, seg.start.x + chi.x), seg.m))
    return ClassData(c.form, tuple(segs))
