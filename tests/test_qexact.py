import operator
import random
from fractions import Fraction
from math import gcd, log2

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    FractionPairGaussian,
    as_q_power_by_fraction,
    canonical_key_by_fractions,
    equals_one_by_fraction,
    equals_one_by_square,
    lfactor_shift_by_fraction,
    names_reached,
    norm_is_one_by_comparison,
    pole_at_by_fraction,
    q_pow,
    q_power_by_fraction,
    random_nonzero_scalar,
    scalars_equal_by_key,
    scale,
    shift_by_fraction,
    trivial_atom,
)
from padicgl.bzclass import Atom
from padicgl.qexact import (
    POWER_BITS_CAP,
    ExactScalar,
    GaussianRational,
    LFactor,
    LocalFieldContext,
    as_q_power,
    canonical_scalar,
    canonical_scalar_key,
    equals_one,
    norm_is_one,
    render_scalar,
    scalars_equal,
)
from padicgl.weildeligne import sp_rep, wd_twist


def test_scalar_arithmetic_examples():
    ctx = LocalFieldContext(3, 1)
    q = ExactScalar.of(1, 0, 2)
    qinv = ExactScalar.of(1, 0, -2)
    assert equals_one(q * qinv, ctx)
    i = ExactScalar.of(0, 1)
    assert scalars_equal(i ** 2, ExactScalar.of(-1), ctx)
    x = ExactScalar.of(Fraction(1, 2), 0, 1)
    assert equals_one(x / x, ctx)


def test_division_by_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        ExactScalar.one() / ExactScalar.of(0)


def test_equals_one_examples():
    ctx3 = LocalFieldContext(3, 1)
    assert equals_one(ExactScalar.of(Fraction(1, 3), 0, 2), ctx3)
    assert not equals_one(ExactScalar.of(1, 0, 1), ctx3)
    assert not equals_one(ExactScalar.of(0, 1, 0), LocalFieldContext(5, 1))


def test_scalar_group_laws_randomized():
    ctx = LocalFieldContext(5, 1)
    rng = random.Random(11)
    one = ExactScalar.one()
    for _ in range(100):
        x = random_nonzero_scalar(rng)
        y = random_nonzero_scalar(rng)
        z = random_nonzero_scalar(rng)
        assert scalars_equal(x * y, y * x, ctx)
        assert scalars_equal((x * y) * z, x * (y * z), ctx)
        assert scalars_equal(x * one, x, ctx)
        assert equals_one(x * x.inverse(), ctx)


def test_equals_one_cancellation():
    # equalsOne(x*y) and equalsOne(x) imply equalsOne(y)
    ctx = LocalFieldContext(2, 1)
    rng = random.Random(7)
    for a in range(-3, 4):
        x = ExactScalar.of(q_pow(ctx, a), 0, -2 * a)  # a representation of 1
        assert equals_one(x, ctx)
        for _ in range(10):
            y = random_nonzero_scalar(rng)
            assert equals_one(x * y, ctx) == equals_one(y, ctx)


def test_lfactor_multiset_and_poles():
    ctx = LocalFieldContext(3, 1)
    one = LFactor.one()
    assert (one * one).is_one()
    f = LFactor.of([(ExactScalar.one(), 1)])
    assert len((f * f).factors) == 2
    assert f.pole_at(0, ctx) == (True, 1)
    assert f.pole_at(1, ctx) == (False, 0)
    g = LFactor.of([(ExactScalar.of(1, 0, 2), 1)])
    # oracle: the coefficient is q, and q * q^(-1) = 1
    assert equals_one(ExactScalar.of(1, 0, 2) * ExactScalar.of(1, 0, -2), ctx)
    assert g.pole_at(1, ctx) == (True, 1)


def test_pole_order_additive_under_product():
    ctx = LocalFieldContext(3, 1)
    rng = random.Random(5)
    for _ in range(50):
        f1 = LFactor.of([(random_nonzero_scalar(rng), rng.randint(1, 3)) for _ in range(rng.randint(0, 3))])
        f2 = LFactor.of([(random_nonzero_scalar(rng), rng.randint(1, 3)) for _ in range(rng.randint(0, 3))])
        s0 = Fraction(rng.randint(-2, 2), rng.choice((1, 2)))
        _, o1 = f1.pole_at(s0, ctx)
        _, o2 = f2.pole_at(s0, ctx)
        assert (f1 * f2).pole_at(s0, ctx)[1] == o1 + o2


def test_lfactor_validation():
    with pytest.raises(ValueError):
        LFactor.of([(ExactScalar.of(0), 1)])
    with pytest.raises(ValueError):
        LFactor.of([(ExactScalar.one(), 0)])


def test_render_half_powers():
    ctx = LocalFieldContext(3, 1)
    assert render_scalar(ExactScalar.of(1, 0, -3), ctx) == "q^(-3/2)"
    assert render_scalar(ExactScalar.of(2, 0, 0), ctx) == "2"
    assert render_scalar(ExactScalar.of(0, 1, 0), ctx) == "i"
    ctx4 = LocalFieldContext(2, 2)
    # for square q the value 2 = q^(1/2) still renders as a q-power
    assert render_scalar(ExactScalar.of(1, 0, 1), ctx4) == "q^(1/2)"
    assert render_scalar(ExactScalar.of(2, 0, 0), ctx4) == "q^(1/2)"


# q in {2, 3, 4, 9, 25, 27} as (p, f)
Q_CONTEXTS = [LocalFieldContext(p, f) for p, f in ((2, 1), (3, 1), (2, 2), (3, 2), (5, 2), (3, 3))]
UNITS = [GaussianRational.of(1), GaussianRational.of(-1), GaussianRational.of(0, 1),
         GaussianRational.of(1, 1), GaussianRational.of(Fraction(3, 5), Fraction(4, 5)),
         GaussianRational.of(0)]


# |k| <= K keeps every reference below the power cap: norm_is_one_by_comparison
# forms q^(2k), 2 * 1500 * log2(27) < 14284 bits
K = 1500


@st.composite
def scalar_in_context(draw):
    """(x, y, ctx) with x = u p^e q^(k/2): u is 0, a unit, 1 + i or 3/5 + 4/5 i,
    and e is small or cancels q^(k/2) up to a small p-power, so that x is
    often exactly 1 or of norm 1.  y is drawn the same way, or is x written
    with its q-power moved into the coefficient."""
    ctx = draw(st.sampled_from(Q_CONTEXTS))

    def scalar():
        k = draw(st.integers(-K, K))
        e = draw(st.integers(-9, 9)) - draw(st.sampled_from((0, k * ctx.f // 2)))
        return ExactScalar(scale(draw(st.sampled_from(UNITS)), Fraction(ctx.p) ** e), k)

    x = scalar()
    a = draw(st.integers(-K // 2, K // 2))
    y = draw(st.sampled_from((scalar(), ExactScalar(scale(x.c, Fraction(ctx.q) ** a), x.k - 2 * a))))
    return x, y, ctx


@settings(max_examples=600, deadline=None, derandomize=True)
@given(scalar_in_context())
def test_equality_through_canonical_forms_matches_the_formulas(case):
    x, y, ctx = case
    assert equals_one(x, ctx) == equals_one_by_square(x, ctx)
    if x.is_zero():
        with pytest.raises(ValueError):
            norm_is_one(x, ctx)
    else:
        assert norm_is_one(x, ctx) == norm_is_one_by_comparison(x, ctx)
    if x.is_zero() or y.is_zero():
        assert scalars_equal(x, y, ctx) == (x.is_zero() and y.is_zero())
    else:
        assert scalars_equal(x, y, ctx) == scalars_equal_by_key(x, y, ctx)


def test_a_zero_scalar_equals_every_zero_scalar():
    # the canonical forms of 0 and 0 * q^(1/2) differ when q is not a square
    ctx = LocalFieldContext(3, 1)
    assert scalars_equal(ExactScalar.of(0, 0, 1), ExactScalar.of(0), ctx)
    assert not scalars_equal(ExactScalar.of(0, 0, 1), ExactScalar.of(1, 0, 1), ctx)
    assert not scalars_equal(ExactScalar.one(), ExactScalar.of(0), ctx)


def test_equality_forms_no_power_of_q():
    forbidden = {"q", "q_pow", "canonical_scalar", "canonical_scalar_key", "sqrt_q"}
    touched = [(fn, name) for fn, name in names_reached(equals_one, norm_is_one, scalars_equal)
               if name in forbidden]
    assert not touched, touched


def test_power_cap_refuses_before_forming_and_spares_units():
    # 14284 bits is the most that prints in 4300 digits
    assert LocalFieldContext(2, 14284).q == 2 ** 14284
    with pytest.raises(ValueError, match="q = 2\\^14285 would pass the cap of 14284 bits"):
        LocalFieldContext(2, 14285)
    ctx = LocalFieldContext(3, 1)
    assert canonical_scalar(ExactScalar.q_power(-9012), ctx).c == GaussianRational(Fraction(1, 3 ** 9012))
    with pytest.raises(ValueError, match="q\\^-9013 would pass"):
        canonical_scalar(ExactScalar.q_power(-9013), ctx)
    # |1 + i|^2 = 2, so (1 + i)^n has about n/2 bits
    assert GaussianRational.of(1, 1) ** 28568 == GaussianRational.of(2 ** 14284)
    with pytest.raises(ValueError, match="would pass the cap"):
        GaussianRational.of(1, 1) ** 28572
    e = 10 ** 12 + 2
    for unit, value in [((-1, 0), 1), ((0, 1), -1), ((0, -1), -1)]:
        assert GaussianRational.of(*unit) ** e == GaussianRational.of(value)
        assert (ExactScalar.of(*unit) ** -e).c == GaussianRational.of(value)


# GaussianRational keeps (a + b i) / d as integers; FractionPairGaussian in
# helpers is the reference with the same public behaviour.
small_fractions = st.builds(
    Fraction,
    st.integers(-60, 60),
    st.sampled_from((1, 2, 3, 4, 5, 6, 9, 10, 12, 15, 25, 27, 30, 49)),
)


@st.composite
def gaussian_pairs(draw):
    """(new, reference) for the same drawn element of Q(i)."""
    re, im = draw(small_fractions), draw(small_fractions)
    return GaussianRational(re, im), FractionPairGaussian(re, im)


def _same(new, ref):
    assert (new.re, new.im) == (ref.re, ref.im)
    assert str(new) == str(ref)
    a, b, d = new._a, new._b, new._d
    assert d > 0 and gcd(a, b, d) == 1  # the normal form
    assert new == GaussianRational(ref.re, ref.im)
    assert hash(new) == hash(GaussianRational(ref.re, ref.im))


def _outcome(op, *args):
    try:
        return op(*args)
    except ZeroDivisionError:
        return ZeroDivisionError


@settings(max_examples=300, deadline=None, derandomize=True)
@given(gaussian_pairs(), gaussian_pairs(), small_fractions, st.integers(-6, 6))
def test_integer_triple_matches_the_fraction_pair(x, y, r, n):
    (xn, xr), (yn, yr) = x, y
    _same(xn, xr)
    for op in (operator.add, operator.sub, operator.mul):
        _same(op(xn, yn), op(xr, yr))
    _same(-xn, -xr)
    _same(scale(xn, r), xr.scale(r))
    assert xn.norm_sq() == xr.norm_sq()
    assert xn.is_zero() == xr.is_zero()
    assert (xn == yn) == (xr == yr)
    for op, args_new, args_ref in ((operator.truediv, (xn, yn), (xr, yr)),
                                   (lambda z: z.inverse(), (xn,), (xr,)),
                                   (operator.pow, (xn, n), (xr, n))):
        got, want = _outcome(op, *args_new), _outcome(op, *args_ref)
        if want is ZeroDivisionError:
            assert got is ZeroDivisionError
        else:
            _same(got, want)
    # equal values reached two ways are one dict key
    assert len({xn * yn: 0, yn * xn: 1, (xn + yn) * yn - yn * yn: 2}) == 1


@settings(max_examples=150, deadline=None, derandomize=True)
@given(gaussian_pairs(), st.sampled_from(Q_CONTEXTS), st.integers(-40, 40))
def test_canonical_key_matches_the_fraction_pair(x, ctx, k):
    xn, xr = x
    assert canonical_scalar_key(ExactScalar(xn, k), ctx) == canonical_key_by_fractions(xr, k, ctx)


def _refused(x, n):
    try:
        x ** n
    except ValueError:
        return True
    return False


@settings(max_examples=40, deadline=None, derandomize=True)
@given(gaussian_pairs())
def test_power_cap_refuses_at_the_same_exponent(x):
    xn, xr = x
    if xr.is_zero() or xr.power_height() == 0:
        return  # 0 and the units are never refused
    n0 = int(POWER_BITS_CAP // xr.power_height())
    for n in (n0, n0 + 1, -n0, -n0 - 1):
        assert _refused(xn, n) == _refused(xr, n)


def test_power_cap_reads_the_reduced_denominators():
    # 1/10 + 2i/15 = (3 + 4i)/30: the denominators are 10 and 15, not 30,
    # and the norm 1/36 charges only log2(6) bits
    x = GaussianRational(Fraction(1, 10), Fraction(2, 15))
    assert (x._a, x._b, x._d) == (3, 4, 30)
    n0 = int(POWER_BITS_CAP // log2(15))
    assert x ** n0 == GaussianRational(Fraction(1, 10), Fraction(2, 15)) ** (n0 - 1) * x
    with pytest.raises(ValueError, match="would pass the cap"):
        x ** (n0 + 1)
    # at 1/2 + i/3 the norm 13/36 charges more than either denominator
    y = GaussianRational(Fraction(1, 2), Fraction(1, 3))
    n1 = int(POWER_BITS_CAP // (log2(36) / 2))
    assert not _refused(y, n1) and _refused(y, n1 + 1)


def test_a_third_is_refused_wherever_a_half_integer_is_read():
    ctx = LocalFieldContext(3, 1)
    atom, third = trivial_atom(ctx), Fraction(1, 3)
    l_factor = LFactor.of([(ExactScalar.one(), 1)])
    for call, what in [
        (lambda: Atom(atom.label, third), "twist"),
        (lambda: atom.twist(third), "twist"),
        (lambda: ExactScalar.one().shift(third), "exponent"),
        (lambda: ExactScalar.q_power(third), "exponent"),
        (lambda: l_factor.shift(third), "shift"),
        (lambda: l_factor.pole_at(third, ctx), "s0"),
        (lambda: wd_twist(sp_rep(atom, 2), third), "twist"),
    ]:
        with pytest.raises(ValueError, match=rf"^{what} must lie in \(1/2\)Z, got 1/3$"):
            call()


def _result(call):
    """call()'s value, or the type and text of the error it raised."""
    try:
        return call()
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


@st.composite
def exponent_cases(draw):
    """(x, y, ctx, w, L): x and y as in scalar_in_context; w an integer, a
    Fraction of denominator 1 or 2, or a refused third or quarter; L a few
    factors (a, t), a often p^e q^(k/2) = q^(t s0) for s0 = w or near it,
    so that pole_at finds poles."""
    x, y, ctx = draw(scalar_in_context())
    w = draw(st.one_of(
        st.integers(-40, 40),
        st.builds(Fraction, st.integers(-40, 40), st.sampled_from((1, 2))),
        st.builds(Fraction, st.integers(-40, 40), st.sampled_from((3, 4))),
    ))
    half = ctx.f // 2 if ctx.f % 2 == 0 else ctx.f  # p^half is a power of q^(1/2)
    factors = []
    for _ in range(draw(st.integers(0, 3))):
        t = draw(st.integers(1, 3))
        s0 = draw(st.sampled_from((0, Fraction(1, 2), -1))) + (w if w.denominator <= 2 else 0)
        j = draw(st.integers(-2, 2))
        pole = ExactScalar(GaussianRational(Fraction(ctx.p) ** (j * half)),
                           int(2 * t * s0) - 2 * j * half // ctx.f)
        a = draw(st.sampled_from((pole, x)))
        if not a.is_zero():
            factors.append((a, t))
    return x, y, ctx, w, LFactor.of(factors)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(exponent_cases())
def test_exponents_in_half_units_match_the_fraction_formulas(case):
    x, y, ctx, w, l_factor = case
    assert _result(lambda: x.shift(w)) == _result(lambda: shift_by_fraction(x, w))
    assert _result(lambda: ExactScalar.q_power(w)) == _result(lambda: q_power_by_fraction(w))
    assert _result(lambda: l_factor.shift(w)) == _result(lambda: lfactor_shift_by_fraction(l_factor, w))
    assert _result(lambda: l_factor.pole_at(w, ctx)) == _result(lambda: pole_at_by_fraction(l_factor, w, ctx))
    for z in (x, y, x / y if not y.is_zero() else y):
        assert equals_one(z, ctx) == equals_one_by_fraction(z, ctx)
        got, want = as_q_power(z, ctx), as_q_power_by_fraction(z, ctx)
        assert got == want and type(got) is type(want)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(*[st.one_of(st.integers(-10 ** 30, 10 ** 30), small_fractions)] * 2)
def test_a_gaussian_rational_from_integers_is_the_one_from_fractions(re, im):
    x = GaussianRational(re, im)
    _same(x, FractionPairGaussian(Fraction(re), Fraction(im)))
    if type(re) is int and type(im) is int:
        assert (x._a, x._b, x._d) == (re, im, 1)


def test_exponent_refusals_name_their_argument():
    ctx = LocalFieldContext(3, 1)
    l_factor = LFactor.of([(ExactScalar.one(), 1)])
    calls = [
        (lambda w: ExactScalar.one().shift(w), "exponent"),
        (lambda w: ExactScalar.q_power(w), "exponent"),
        (lambda w: l_factor.shift(w), "shift"),
        (lambda w: l_factor.pole_at(w, ctx), "s0"),
    ]
    for call, what in calls:
        for w in (Fraction(1, 3), Fraction(5, 4)):
            with pytest.raises(ValueError, match=rf"^{what} must lie in \(1/2\)Z, got {w}$"):
                call(w)
        for w in (0.5, "1/2", None):
            with pytest.raises(TypeError, match="as an exact rational$"):
                call(w)
