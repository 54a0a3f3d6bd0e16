"""Local L-factors, epsilon-factors and conductors.

The GL side and the Weil-Deligne side are implemented as genuinely
different recursions (classification-data induction versus Clebsch-Gordan
expansion of block tensors); that they agree is a theorem the test suite
exercises, not something shared code makes true by construction.

Epsilon values are monomials c * q^(-s*slope) decorated with opaque
Gauss-sum units g(label) for ramified data, plus a numerator/denominator
pair of L-factor multisets so the verbatim inductive relation of the
classification side can be evaluated and compared against the
Weil-Deligne definition.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Tuple

from .bzclass import (
    Atom,
    ClassData,
    KIND_UNRAMIFIED,
    Segment,
    unramified_atom,
)
from .common import Value, setfield
from .qexact import (
    ExactScalar,
    LFactor,
    LocalFieldContext,
    canonical_scalar_key,
    scalars_equal,
)
from .weildeligne import WDBlock, WDRep, clebsch_gordan, wd_dual


class EpsValue(Value):
    """(product of units g^e) * mono * q^(-s*sSlope) * num/den."""

    __slots__ = ("units", "mono", "s_slope", "num", "den")

    def __init__(self, units: Tuple[Tuple[str, int], ...] = (), mono: ExactScalar = ExactScalar.one(),
                 s_slope: Fraction = Fraction(0), num: LFactor = LFactor.one(),
                 den: LFactor = LFactor.one()):
        setfield(self, "units", units)
        setfield(self, "mono", mono)
        setfield(self, "s_slope", s_slope)
        setfield(self, "num", num)
        setfield(self, "den", den)

    @staticmethod
    def one() -> "EpsValue":
        return EpsValue()

    def __mul__(self, other: "EpsValue") -> "EpsValue":
        merged: Dict[str, int] = {}
        for sym, e in self.units + other.units:
            merged[sym] = merged.get(sym, 0) + e
        units = tuple(sorted((s, e) for s, e in merged.items() if e != 0))
        return EpsValue(
            units,
            self.mono * other.mono,
            self.s_slope + other.s_slope,
            self.num * other.num,
            self.den * other.den,
        )

    def canonical_key(self, ctx: LocalFieldContext):
        return (
            self.units,
            canonical_scalar_key(self.mono, ctx),
            self.s_slope,
            self.num.canonical_key(ctx),
            self.den.canonical_key(ctx),
        )


def eps_equal(e1: EpsValue, e2: EpsValue, ctx: LocalFieldContext) -> bool:
    return e1.canonical_key(ctx) == e2.canonical_key(ctx)


def eps_normalize(e: EpsValue, ctx: LocalFieldContext) -> EpsValue:
    """Cancel the rational part exactly; errors if num and den do not match
    as multisets of inverse factors."""
    if e.num.canonical_key(ctx) != e.den.canonical_key(ctx):
        raise ValueError("epsilon not monomial with given data")
    return EpsValue(e.units, e.mono, e.s_slope, LFactor.one(), LFactor.one())


def _gauss_unit(label_name: str) -> Tuple[Tuple[str, int], ...]:
    return ((f"g({label_name})", 1),)


def tate_char(chi: Atom, ctx: LocalFieldContext) -> Tuple[LFactor, EpsValue]:
    """Tate's L- and epsilon-factor of a quasi-character (as an atom of
    degree 1), with the self-dual measure vol(O_K) = q^(-d/2)."""
    lab = chi.label
    if lab.degree != 1 or lab.kind == "symbolic":
        raise ValueError("tate_char needs a character-kind atom")
    if lab.kind == KIND_UNRAMIFIED:
        beta = chi.value_at_uniformizer()
        lfac = LFactor.of([(beta, 1)])
        mono = (beta ** ctx.n_psi) * ExactScalar.of(1, 0, 2 * ctx.n_psi - ctx.d)
        eps = EpsValue((), mono, Fraction(ctx.n_psi))
        return lfac, eps
    slope = lab.conductor + ctx.n_psi
    shift2 = -2 * chi.x * slope
    mono = ExactScalar.of(1, 0, int(shift2))
    return LFactor.one(), EpsValue(_gauss_unit(lab.name), mono, Fraction(slope))


def pair_l_supercuspidal(pi: Atom, pi2: Atom, ctx: LocalFieldContext) -> LFactor:
    """L(pi x pi', s) for supercuspidal atoms: the product of Tate factors
    over the unramified characters chi with chi * pi'^vee = pi.

    The chi-set is empty unless the degrees agree and the labels are dual;
    when non-empty it is |.|^(x+x') times the torsion group, so the product
    telescopes into a single inverse factor (a, t).
    """
    if pi.degree != pi2.degree:
        return LFactor.one()
    lab, lab2 = pi.label, pi2.label
    if lab.is_unramified_char() and lab2.is_unramified_char():
        a = pi.value_at_uniformizer() * pi2.value_at_uniformizer()
        return LFactor.of([(a, 1)])
    if lab2.dual.name != lab.name:
        return LFactor.one()
    if lab.degree == 1 and lab.kind != "symbolic":
        a = pi.value_at_uniformizer() * pi2.value_at_uniformizer()
        return LFactor.of([(a, 1)])
    t = lab.torsion
    shift2 = -2 * t * (pi.x + pi2.x)
    return LFactor.of([(ExactScalar.of(1, 0, int(shift2)), t)])


def wd_l_factor(rho: WDRep, ctx: LocalFieldContext) -> LFactor:
    """det(1 - q^(-s) Phi | V^{I_K}_N)^(-1): only unramified-character
    blocks have inertia invariants, and each contributes one factor with
    coefficient alpha * q^(1-m)."""
    return LFactor.of((b.atom.value_at_uniformizer().shift(-(b.m - 1)), 1)
                      for b in rho.blocks if b.atom.label.is_unramified_char())


def wd_pair_l(rho1: WDRep, rho2: WDRep, ctx: LocalFieldContext) -> LFactor:
    """L of the tensor product, through the Clebsch-Gordan expansion of
    Sp(m1) tensor Sp(m2)."""
    bases = ((pair_l_supercuspidal(b1.atom, b2.atom, ctx), b1.m, b2.m)
             for b1 in rho1.blocks for b2 in rho2.blocks)
    return LFactor.of(f for base, m1, m2 in bases for j, mm in clebsch_gordan(m1, m2)
                      for f in base.shift(j + mm - 1).factors)


def _segment_pair_l(d1: Segment, d2: Segment, ctx: LocalFieldContext) -> LFactor:
    r, rp = d1.m, d2.m
    if r > rp:
        d1, d2 = d2, d1
        r, rp = rp, r
    base = pair_l_supercuspidal(d1.start, d2.start, ctx)
    # an i-independent shift would evaluate the base case r = r' = 1 at s+1
    # instead of s; the -i term is forced by that case and by agreement with
    # the tensor-side expansion
    return LFactor.of(f for i in range(1, r + 1) for f in base.shift(r + rp - 1 - i).factors)


def gl_pair_l_inductive(c1: ClassData, c2: ClassData, ctx: LocalFieldContext) -> LFactor:
    """Classification-side pair L-factor by the inductive relations:
    symmetry, additivity over segments, and the segment-pair base case."""
    c1.require_q_form("gl_pair_l_inductive")
    c2.require_q_form("gl_pair_l_inductive")
    return LFactor.of(f for d1 in c1.segments for d2 in c2.segments
                      for f in _segment_pair_l(d1, d2, ctx).factors)


def _block_eps(b: WDBlock, ctx: LocalFieldContext) -> EpsValue:
    lab = b.atom.label
    n = lab.degree
    m = b.m
    if lab.is_unramified_char():
        beta = b.atom.value_at_uniformizer()
        npsi = ctx.n_psi
        mono = (beta ** (m * npsi)) * ExactScalar.of(
            1, 0, -2 * npsi * (m * (m - 1) // 2) + m * (2 * npsi - ctx.d)
        )
        eps = EpsValue((), mono, Fraction(m * npsi))
        if m >= 2:
            # det(-Phi | V^I / V^I_N) = prod_{i<m-1} (-beta q^(-i))
            det = (-beta) ** (m - 1) * ExactScalar.of(1, 0, -(m - 1) * (m - 2))
            eps = eps * EpsValue((), det, Fraction(0))
        return eps
    slope = lab.conductor + n * ctx.n_psi
    shift2 = -2 * slope * (m * b.atom.x + Fraction(m * (m - 1), 2))
    mono = ExactScalar.of(1, 0, int(shift2))
    units = tuple((sym, e * m) for sym, e in _gauss_unit(lab.name))
    return EpsValue(units, mono, Fraction(m * slope))


def wd_eps(rho: WDRep, ctx: LocalFieldContext) -> EpsValue:
    """epsilon(rho, psi, s) = epsilon(|.|^s r, psi, dx) * det(-Phi | V^I/V^I_N)
    with the self-dual measure; the determinant correction carries no
    s-dependence in this normalization."""
    out = EpsValue.one()
    for b in rho.blocks:
        out = out * _block_eps(b, ctx)
    return out


def wd_pair_eps(rho1: WDRep, rho2: WDRep, ctx: LocalFieldContext) -> EpsValue:
    """epsilon of the tensor product for I_K-spherical data, via the
    Clebsch-Gordan expansion into character blocks."""
    out = EpsValue.one()
    for b1 in rho1.blocks:
        for b2 in rho2.blocks:
            if not (b1.atom.label.is_unramified_char() and b2.atom.label.is_unramified_char()):
                raise ValueError("pair epsilon is only explicit for I_K-spherical data")
            beta = b1.atom.value_at_uniformizer() * b2.atom.value_at_uniformizer()
            for j, mm in clebsch_gordan(b1.m, b2.m):
                piece = WDBlock(unramified_atom(beta.shift(-j), ctx), mm)
                out = out * _block_eps(piece, ctx)
    return out


def conductor(rho: WDRep, ctx: LocalFieldContext, mode: str = "artin") -> Fraction:
    """Conductor of a Weil-Deligne representation.

    ``artin`` sums m*f0 + (m-1)*dim V_0^{I_K} over blocks; ``epsDegree``
    reads the s-degree of the epsilon factor and subtracts dim * n(psi).
    The two agree exactly when every block has m = 1; the Sp(m) discrepancy
    (m-1 versus 0) reflects the s-independent determinant correction in the
    epsilon normalization and is reported, not hidden.
    """
    key = mode.replace("_", "").lower()
    if key == "artin":
        total = Fraction(0)
        for b in rho.blocks:
            d_inertia = 1 if b.atom.label.is_unramified_char() else 0
            total += b.m * b.atom.label.conductor + (b.m - 1) * d_inertia
        return total
    if key == "epsdegree":
        return wd_eps(rho, ctx).s_slope - rho.dimension * ctx.n_psi
    raise ValueError(f"unknown conductor mode {mode!r}")


def adjoint_no_pole_at_one(rho: WDRep, ctx: LocalFieldContext) -> bool:
    """Whether L(s, Ad rho) = L(rho tensor rho^vee, s) is pole-free at s=1."""
    l = wd_pair_l(rho, wd_dual(rho), ctx)
    has_pole, _ = l.pole_at(1, ctx)
    return not has_pole


# ---------------------------------------------------------------------------
# the classical inductive epsilon relation, evaluated verbatim as a diagnostic


def _eps_pair_char(a1: Atom, a2: Atom, shift: int, ctx: LocalFieldContext) -> EpsValue:
    """epsilon(sigma x sigma', psi, s + shift) for unramified characters:
    the Tate epsilon of the product character, shifted."""
    beta = a1.value_at_uniformizer() * a2.value_at_uniformizer()
    _, eps = tate_char(unramified_atom(beta, ctx), ctx)
    shifted_mono = eps.mono * ExactScalar.of(1, 0, int(-2 * shift * eps.s_slope))
    return EpsValue(eps.units, shifted_mono, eps.s_slope, eps.num, eps.den)


def inductive_pair_eps_diagnostic(d1: Segment, d2: Segment,
                                  ctx: LocalFieldContext) -> Dict[str, object]:
    """Evaluate the classification-side inductive epsilon relation verbatim
    (including its L-ratio part) on a pair of unramified-character segments,
    and compare with the Weil-Deligne epsilon of the tensor.

    The two normalizations need not share an s-slope (the Weil-Deligne
    determinant correction is s-independent), so agreement is a finding the
    report records, not an assertion.
    """
    if not (d1.start.label.is_unramified_char() and d2.start.label.is_unramified_char()):
        raise ValueError("the inductive-relation diagnostic is explicit only for unramified data")
    if d1.m > d2.m:
        d1, d2 = d2, d1
    r, rp = d1.m, d2.m
    sigma, sigma2 = d1.start, d2.start
    acc = EpsValue.one()
    l_dual = pair_l_supercuspidal(sigma.dual(), sigma2.dual(), ctx)
    l_pair = pair_l_supercuspidal(sigma, sigma2, ctx)
    for i in range(1, r + 1):
        for j in range(0, r + rp - 2 * i + 1):
            acc = acc * _eps_pair_char(sigma, sigma2, i + j - 1, ctx)
        for j in range(0, r + rp - 2 * i):
            c = i + j
            # L(sigma^vee x sigma'^vee, 1 - s - c): rewrite the positive
            # T-powers as monomial * T^t * standard inverse factor
            for a, t in l_dual.factors:
                u = a.shift(-t * (1 - c))
                acc = acc * EpsValue((), -(u.inverse()), Fraction(t),
                                     LFactor.of([(u.inverse(), t)]), LFactor.one())
            for a, t in l_pair.factors:
                acc = acc * EpsValue((), ExactScalar.one(), Fraction(0),
                                     LFactor.one(), LFactor.of([(a.shift(-t * (c - 1)), t)]))
    report: Dict[str, object] = {"relation": acc}
    try:
        relation_monomial = eps_normalize(acc, ctx)
        report["relation_monomial"] = relation_monomial
        report["rational_part_cancels"] = True
    except ValueError:
        report["rational_part_cancels"] = False
        return report
    wd = wd_pair_eps(WDRep((WDBlock(sigma, r),)), WDRep((WDBlock(sigma2, rp),)), ctx)
    report["wd"] = wd
    report["mono_agrees"] = scalars_equal(relation_monomial.mono, wd.mono, ctx)
    report["slope_agrees"] = relation_monomial.s_slope == wd.s_slope
    report["agrees"] = bool(report["mono_agrees"] and report["slope_agrees"] and relation_monomial.units == wd.units)
    return report
