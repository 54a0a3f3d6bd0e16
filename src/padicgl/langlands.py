"""The combinatorial reciprocity map and its verified axioms.

On classification data the map is the block-for-segment rebracketing
Q(Delta_1, ..., Delta_r) -> sum_i rec(pi_i) tensor Sp(m_i); the registry
itself *is* the supercuspidal correspondence.  What remains checkable --
and is checked here and in the test suite -- are the compatibility axioms
(twists, central character versus determinant, duals), the unramified
Satake normalization with uniformizer -> geometric Frobenius, and the
two-sided dictionary of properties.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from .bzclass import (
    Atom,
    CentralCharData,
    ClassData,
    FORM_Q,
    LabelRegistry,
    RegistryError,
    Segment,
    central_character,
    class_tensor_char,
    gl_predicates,
    standard_order,
    unramified_atom,
)
from .factors import adjoint_no_pole_at_one
from .qexact import ExactScalar, LocalFieldContext, canonical_scalar_key, scalars_equal
from .weildeligne import (
    WDBlock,
    WDRep,
    wd_dual,
    wd_predicates,
    wd_tensor_char,
)


def rec_forward(c: ClassData) -> WDRep:
    """Each segment (start a, length m) becomes the block (a, m)."""
    c.require_q_form("rec_forward")
    return WDRep(tuple(WDBlock(s.start, s.m) for s in c.segments))


def rec_inverse(rho: WDRep) -> ClassData:
    """Inverse of rec_forward: one segment per block, Q-form."""
    return ClassData(FORM_Q, tuple(Segment(b.atom, b.m) for b in rho.blocks))


def satake_class_data(values: Sequence[ExactScalar], ctx: LocalFieldContext) -> ClassData:
    """Unramified representation with the given Satake parameters
    {chi_i(pi_K)}, as standard-ordered singleton segments."""
    if not values:
        raise ValueError("satake needs at least one parameter")
    segs = []
    for v in values:
        if v.is_zero():
            raise ValueError("Satake parameters must be nonzero")
        segs.append(Segment(unramified_atom(v, ctx), 1))
    return ClassData(FORM_Q, tuple(standard_order(segs)))


def satake_parameters(c: ClassData, ctx: LocalFieldContext) -> List[ExactScalar]:
    """Extract the multiset {chi_i(pi_K)} of an unramified representation."""
    c.require_q_form("satake_parameters")
    preds = gl_predicates(c, ctx)
    if not preds["unramified"]:
        raise ValueError("satake parameters are defined for unramified data only")
    values = [s.start.value_at_uniformizer() for s in c.segments]
    return sorted(values, key=lambda v: canonical_scalar_key(v, ctx))


def wd_determinant_data(rho: WDRep) -> CentralCharData:
    """det of the Weil-Deligne representation as central-character data:
    each block contributes its unit class m times and the value
    (atom value)^m * q^(-n*m*(m-1)/2) from the Sp(m) weights."""
    units: List[str] = []
    value = ExactScalar.one()
    for b in rho.blocks:
        n = b.atom.degree
        units.extend([b.atom.label.unit_class] * b.m)
        value = value * (b.atom.value_at_uniformizer() ** b.m)
        value = value * ExactScalar.of(1, 0, -n * b.m * (b.m - 1))
    return CentralCharData(tuple(sorted(units)), value)


def verify_rec_axioms(c: ClassData, chi: Atom, ctx: LocalFieldContext,
                      registry: Optional[LabelRegistry] = None) -> Dict[str, object]:
    """Check axioms (3), (4), (5) of the reciprocity theorem on concrete
    data, by exact equality of both sides.  Failures are reported."""
    rho = rec_forward(c)

    twist_ok = True
    twist_detail = ""
    try:
        gl_side = rec_forward(class_tensor_char(c, chi, ctx, registry))
        wd_side = wd_tensor_char(rho, chi, ctx, registry)
        twist_ok = gl_side.key() == wd_side.key()
        if not twist_ok:
            twist_detail = "twist axiom mismatch"
    except RegistryError as exc:  # registry gaps are reported, not raised
        twist_ok = False
        twist_detail = str(exc)

    omega = central_character(c)
    det = wd_determinant_data(rho)
    det_ok = (
        omega.unit_classes == det.unit_classes
        and scalars_equal(omega.value_at_uniformizer, det.value_at_uniformizer, ctx)
    )

    dual_ok = rec_forward(c.dual()).key() == wd_dual(rho).key()

    return {
        "twist": twist_ok,
        "twist_detail": twist_detail,
        "central_character": det_ok,
        "dual": dual_ok,
        "all": twist_ok and det_ok and dual_ok,
    }


_DICTIONARY_ROWS = (
    "supercuspidal",
    "essentially_square_integrable",
    "tempered",
    "generic",
    "unramified",
    "iwahori_spherical",
)


def dictionary_report(c: ClassData, ctx: LocalFieldContext) -> List[Dict[str, object]]:
    """Six rows of the property dictionary, each computed independently on
    the two sides of the correspondence."""
    gl = gl_predicates(c, ctx)
    rho = rec_forward(c)
    wd = wd_predicates(rho, ctx)
    wd_side = {
        "supercuspidal": wd["irreducible"],
        "essentially_square_integrable": wd["indecomposable"],
        "tempered": wd["bounded_frobenius"],
        "generic": adjoint_no_pole_at_one(rho, ctx),
        "unramified": wd["unramified"],
        "iwahori_spherical": wd["ik_spherical"],
    }
    rows = []
    for prop in _DICTIONARY_ROWS:
        g, w = gl[prop], wd_side[prop]
        rows.append({"property": prop, "gl_side": g, "wd_side": w, "agree": g == w})
    return rows
