import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from padicgl import wittring
from padicgl.wittring import (
    GFRing,
    IntegerRing,
    ModRing,
    RationalField,
    WITT_BITS_CAP,
    WITT_MODULUS_BITS_CAP,
    UnramWittCarrier,
    WittContext,
    find_irreducible,
    frobenius,
    ghost,
    ghost_inverse,
    verschiebung,
    witt_polynomial,
)

from helpers import (
    any_coefficients, carriers_under_any_modulus, from_int_by_doubling, inverse_at_full_precision,
    schoolbook_dot, teichmuller_by_iteration, trial_division_irreducible, universal_laws,
)

QQ = RationalField()
ZZ = IntegerRing()
F2 = GFRing(2, 1)
F4 = GFRing(2, 2)
F8 = GFRing(2, 3)
F9 = GFRing(3, 2)


def rand_elem(ring, rng):
    if isinstance(ring, RationalField):
        return Fraction(rng.randint(-9, 9), rng.randint(1, 7))
    if isinstance(ring, IntegerRing):
        return rng.randint(-9, 9)
    if isinstance(ring, ModRing):
        return rng.randint(0, ring.m - 1)
    return ring.element([rng.randint(0, ring.p - 1) for _ in range(ring.r)])


def rand_vec(ctx, rng):
    return ctx.vector([rand_elem(ctx.ring, rng) for _ in range(ctx.n)])


def test_witt_polynomial_examples():
    assert witt_polynomial(2, 0, [7], ZZ) == 7
    assert witt_polynomial(2, 1, [1, 1], ZZ) == 3
    assert witt_polynomial(2, 2, [1, 0, 1], ZZ) == 5


def test_ghost_of_verschiebung_one():
    ctx = WittContext(QQ, 2, 3)
    tau1 = verschiebung(ctx.one())
    assert ghost(tau1) == [Fraction(0), Fraction(2), Fraction(2)]


def test_ghost_inverse_round_trip():
    ctx = WittContext(QQ, 3, 4)
    rng = random.Random(5)
    for _ in range(50):
        x = rand_vec(ctx, rng)
        assert ghost_inverse(ctx, ghost(x)) == x


def test_ghost_inverse_needs_p_invertible():
    ctx = WittContext(F2, 2, 3)
    with pytest.raises(ValueError):
        ghost_inverse(ctx, [F2.one()] * 3)


def test_addition_examples():
    ctxZ = WittContext(ZZ, 2, 2)
    x = ctxZ.vector([1, 0])
    assert (x + x).coords == (2, -1)
    ctx2 = WittContext(F2, 2, 2)
    y = ctx2.vector([1, 0])
    assert (y + y).coords == ((0,), (1,))
    assert (x + ctxZ.zero()) == x
    assert (x * ctxZ.zero()) == ctxZ.zero()


def test_universal_matches_ghost_over_q():
    # both runtime routes (the integral lift, the Teichmuller bridge) against
    # the universal polynomials, which neither of them evaluates
    rng = random.Random(9)
    for p, n in ((2, 3), (2, 4), (3, 3)):
        polys = universal_laws(p, n)
        fields = (F2, F4, F8) if p == 2 else (F9,)
        for ring in (QQ, ZZ, ModRing(4), ModRing(8), ModRing(9), ModRing(15), ModRing(12)) + fields:
            ctx = WittContext(ring, p, n)

            def law(name, values):
                return tuple(poly.evaluate(ring, values) for poly in polys[name])

            for _ in range(5):
                x, y = rand_vec(ctx, rng), rand_vec(ctx, rng)
                assert law("sum", x.coords + y.coords) == (x + y).coords
                assert law("prod", x.coords + y.coords) == (x * y).coords
                assert law("neg", x.coords + (ring.zero(),) * n) == (-x).coords
                assert law("frob", x.coords + (ring.zero(),)) == frobenius(x).coords


@st.composite
def _lift_route_case(draw):
    """(ring, p, n, x, y) over Q, Z or Z/m, m in 2..60: moduli prime to p,
    powers of p and mixed ones.  n stops at 3 for p = 5, whose universal
    laws at n = 4 take about 40 s to solve."""
    p = draw(st.sampled_from((2, 3, 5)))
    n = draw(st.integers(1, 3 if p == 5 else 4))
    ring = draw(st.sampled_from((QQ, ZZ)) | st.integers(2, 60).map(ModRing))
    if ring is QQ:
        coord = st.fractions(min_value=-9, max_value=9, max_denominator=9)
    elif ring is ZZ:
        coord = st.integers(-20, 20)
    else:
        coord = st.integers(0, ring.m - 1)
    x, y = (draw(st.lists(coord, min_size=n, max_size=n)) for _ in range(2))
    return ring, p, n, x, y


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_lift_route_case())
def test_lift_route_matches_universal_laws(case):
    ring, p, n, x, y = case
    ctx = WittContext(ring, p, n)
    x, y = ctx.vector(x), ctx.vector(y)
    polys = universal_laws(p, n)

    def law(name, values):
        return tuple(poly.evaluate(ring, values) for poly in polys[name])

    assert (x + y).coords == law("sum", x.coords + y.coords)
    assert (x * y).coords == law("prod", x.coords + y.coords)
    assert (-x).coords == law("neg", x.coords + (ring.zero(),) * n)
    assert frobenius(x).coords == law("frob", x.coords + (ring.zero(),))
    if ring is QQ or (ring is not ZZ and ring.m % p):
        assert ghost_inverse(ctx, ghost(x)) == x


def test_runtime_ops_never_reach_the_universal_laws(monkeypatch):
    def refuse(*args):
        raise AssertionError("a runtime Witt operation used the universal polynomials")

    monkeypatch.setattr(wittring, "universal_polynomials", refuse)
    monkeypatch.setattr(wittring.MPoly, "evaluate", refuse)
    rng = random.Random(43)
    for ring in (QQ, ZZ, ModRing(8), ModRing(15), F4):
        ctx = WittContext(ring, 2, 6)
        x, y = rand_vec(ctx, rng), rand_vec(ctx, rng)
        for value in (x + y, x * y, -x, frobenius(x), verschiebung(x), ctx.from_int(-37)):
            assert len(value.coords) == 6
        assert len(ghost(x)) == 6


@st.composite
def _dot_case(draw):
    carrier = draw(carriers_under_any_modulus())
    count = draw(st.sampled_from((0, 40)) | st.integers(0, 40))
    element = st.sampled_from(draw(st.lists(any_coefficients(carrier), min_size=1, max_size=4)))
    return carrier, [(draw(element), draw(element)) for _ in range(count)]


_WIDEST = UnramWittCarrier(2, 40, 500)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(_dot_case())
@example((_WIDEST, [((2 ** 500 - 1,) * 40,) * 2] * 40))
def test_packed_dot_matches_the_schoolbook_product(case):
    # the example fills every slot of 40 products to its bound
    carrier, pairs = case
    assert carrier.dot(iter(pairs)) == schoolbook_dot(carrier, pairs)


@pytest.mark.parametrize("dense", [True, False])
@pytest.mark.parametrize("p,m,precision", [(2, 1, 1), (2, 2, 2), (3, 3, 2), (5, 2, 3), (2, 3, 64)])
def test_packed_dot_at_its_widest_slots(p, m, precision, dense):
    # every coefficient at p^N - 1, for 0 to 40 pairs: the largest slot,
    # 40 m (p^N - 1)^2, passes many powers of 2; F has every digit p - 1
    # (m - 1 reduction rounds) or is x^m + 1 (one round)
    carrier = UnramWittCarrier(p, m, precision, ((p - 1,) * m if dense else (1,) + (0,) * (m - 1)) + (1,))
    top = (carrier.pN - 1,) * m
    for count in range(41):
        pairs = [(top, top)] * count
        assert carrier.dot(pairs) == schoolbook_dot(carrier, pairs)


@pytest.mark.parametrize("p,m,n", [(2, 2, 3), (3, 2, 2), (2, 3, 2)])
def test_teichmuller_bridge_round_trip(p, m, n):
    # exhaustive over W_3(F_4), W_2(F_9) and W_2(F_8) (where a p-th root is
    # not a p-th power): the bridge is a bijection onto
    # the carrier and to_witt_coords inverts it
    carrier = UnramWittCarrier(p, m, n)
    field = carrier.residue
    elements = [field.element(c) for c in product(range(p), repeat=m)]
    images = set()
    for coords in product(elements, repeat=n):
        image = carrier.from_witt_coords(coords)
        images.add(image)
        assert carrier.to_witt_coords(image) == coords
    assert len(images) == len(elements) ** n


LIFT_GRID = [UnramWittCarrier(p, m, n) for p in (2, 3, 5, 101) for m in (1, 2, 3, 7) for n in (1, 2, 3, 11)]


@given(st.data())
@settings(max_examples=12, derandomize=True, deadline=None)
def test_lifts_from_the_residue_field_match_the_full_precision_loops(data):
    # the Teichmuller lift and the unit inverse start in F_{p^m}; the
    # references run the earlier loops at full precision
    for carrier in LIFT_GRID:
        digits = st.lists(st.integers(0, carrier.pN - 1), min_size=carrier.m, max_size=carrier.m)
        res = carrier.reduce_mod_p(carrier.element(data.draw(digits)))
        lift = carrier.teichmuller(res)
        assert carrier.pow(lift, carrier.p ** carrier.m) == lift
        assert carrier.reduce_mod_p(lift) == res
        assert lift == teichmuller_by_iteration(carrier, res)
        unit = carrier.element(data.draw(digits))
        if not carrier.is_unit(unit):
            unit = carrier.add(unit, carrier.one())
        inverse = carrier.inv_unit(unit)
        assert carrier.mul(unit, inverse) == carrier.one()
        assert inverse == inverse_at_full_precision(carrier, unit)


def test_inverse_at_a_large_p():
    carrier = UnramWittCarrier(1000003, 40, 25)
    rng = random.Random(16)
    a = carrier.element([rng.randrange(carrier.pN) for _ in range(40)])
    assert carrier.mul(a, carrier.inv_unit(a)) == carrier.one()


@pytest.mark.parametrize("p,m,n", [(2, 1, 1), (3, 2, 4), (5, 3, 2)])
def test_inverse_of_a_non_unit_is_refused(p, m, n):
    carrier = UnramWittCarrier(p, m, n)
    for a in (carrier.zero(), carrier.from_int(p), carrier.scalar_mul(p, carrier.gen())):
        with pytest.raises(ZeroDivisionError, match="not a unit"):
            carrier.inv_unit(a)


RINGS = [(QQ, 4), (ZZ, 4), (F2, 4), (F9, 3)]


def _p_for(ring):
    return ring.characteristic() if ring.characteristic() else 2


@pytest.mark.parametrize("ring,n", RINGS)
def test_ring_axioms(ring, n):
    ctx = WittContext(ring, _p_for(ring), n)
    rng = random.Random(13)
    zero, one = ctx.zero(), ctx.one()
    for _ in range(40):
        x, y, z = rand_vec(ctx, rng), rand_vec(ctx, rng), rand_vec(ctx, rng)
        assert x + y == y + x
        assert (x + y) + z == x + (y + z)
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + zero == x and x * one == x
        assert x + (-x) == zero


@pytest.mark.parametrize("ring,n", RINGS)
def test_relations(ring, n):
    p = _p_for(ring)
    ctx = WittContext(ring, p, n)
    rng = random.Random(29)
    char_p = ring.characteristic() == p

    def times_p(v):
        out = ctx.zero()
        for _ in range(p):
            out = out + v
        return out

    for _ in range(40):
        x, y = rand_vec(ctx, rng), rand_vec(ctx, rng)
        # (i) sigma tau = p id: exact in char p, exact on the first n-1
        # coordinates otherwise (the top coordinate of sigma uses the
        # zero-extension convention)
        st = frobenius(verschiebung(x))
        px = times_p(x)
        if char_p:
            assert st == px
        else:
            assert st.coords[: n - 1] == px.coords[: n - 1]
        # (ii) tau(x sigma y) = tau(x) y
        assert verschiebung(x * frobenius(y)) == verschiebung(x) * y
        # (iii) tau(x) tau(y) = p tau(xy)
        assert verschiebung(x) * verschiebung(y) == times_p(verschiebung(x * y))
        # (iv) tau(sigma x) = tau(1) x
        assert verschiebung(frobenius(x)) == verschiebung(ctx.one()) * x
    if char_p:
        # tau(1) = p in characteristic p
        assert verschiebung(ctx.one()) == times_p(ctx.one())


@pytest.mark.parametrize("ring,n", RINGS)
def test_ghost_is_ring_homomorphism(ring, n):
    p = _p_for(ring)
    ctx = WittContext(ring, p, n)
    rng = random.Random(31)
    for _ in range(30):
        x, y = rand_vec(ctx, rng), rand_vec(ctx, rng)
        gx, gy = ghost(x), ghost(y)
        assert ghost(x + y) == [ring.add(a, b) for a, b in zip(gx, gy)]
        assert ghost(x * y) == [ring.mul(a, b) for a, b in zip(gx, gy)]


def test_w0_kernel_is_verschiebung_image():
    ctx = WittContext(QQ, 2, 3)
    rng = random.Random(37)
    for _ in range(30):
        x = rand_vec(ctx, rng)
        assert ghost(verschiebung(x))[0] == 0
        y = ctx.vector([Fraction(0)] + [rand_elem(QQ, rng) for _ in range(2)])
        z = ctx.vector(list(y.coords[1:]) + [Fraction(0)])
        assert verschiebung(z) == y


def test_w3_f2_is_z8():
    ctx = WittContext(F2, 2, 3)
    images = [ctx.from_int(k) for k in range(8)]
    assert len({im.coords for im in images}) == 8
    assert ctx.from_int(8) == ctx.zero()
    # ring map: n*1 + m*1 = (n+m)*1 exhaustively
    for a in range(8):
        for b in range(8):
            assert images[a] + images[b] == ctx.from_int((a + b) % 8)
            assert images[a] * images[b] == ctx.from_int((a * b) % 8)


def test_from_int_is_the_ring_map():
    over_z = WittContext(ZZ, 2, 3)
    assert ghost(over_z.from_int(10 ** 6)) == [10 ** 6] * 3
    w3f2 = WittContext(F2, 2, 3)
    for n in range(-20, 21):
        assert w3f2.from_int(n) == w3f2.from_int(n % 8)
    # reference: |n| additions of 1 or -1
    for ctx in (w3f2, WittContext(ZZ, 3, 3), WittContext(ModRing(10), 3, 3)):
        one = ctx.one()
        for n in range(-30, 31):
            step = one if n >= 0 else -one
            expected = ctx.zero()
            for _ in range(abs(n)):
                expected = expected + step
            assert ctx.from_int(n) == expected


@st.composite
def _from_int_case(draw):
    """(ring, p, n, value) over Q, Z, Z/m (m in 2..60) or F_{p^r} (r <= 3)."""
    p = draw(st.sampled_from((2, 3, 5)))
    n = draw(st.integers(1, 4))
    ring = draw(st.sampled_from((QQ, ZZ)) | st.integers(2, 60).map(ModRing)
                | st.integers(1, 3).map(lambda r: GFRing(p, r)))
    return ring, p, n, draw(st.integers(-10 ** 6, 10 ** 6))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_from_int_case())
def test_from_int_matches_double_and_add(case):
    ring, p, n, value = case
    ctx = WittContext(ring, p, n)
    image = ctx.from_int(value)
    assert image == from_int_by_doubling(ctx, value)
    if not isinstance(ring, GFRing):
        assert ghost(image) == [ring.from_int(value)] * n


_CAP_OPS = {
    "add": (lambda ctx, x: x + x, 0),
    "mul": (lambda ctx, x: x * x, 0),
    "neg": (lambda ctx, x: -x, 0),
    "frobenius": (lambda ctx, x: frobenius(x), 1),
    "ghost": (lambda ctx, x: ghost(x), 0),
    "ghost-inverse": (lambda ctx, x: ghost_inverse(ctx, x.coords), 0),
    "witt-polynomial": (lambda ctx, x: witt_polynomial(ctx.p, ctx.n - 1, x.coords, ctx.ring), 0),
    "from_int": (lambda ctx, x: ctx.from_int(x.coords[0]), 0),
}


@pytest.mark.parametrize("op,ring", [(op, ring) for op in sorted(_CAP_OPS) for ring in ("Z", "Q")
                                     if (op, ring) != ("ghost-inverse", "Z")])  # p is not a unit in Z
def test_size_cap_over_z_and_q(op, ring):
    # x_0 is raised to p^(n-1) (p^n for Frobenius): at 2^(b-1), b bits, the
    # largest integer formed has p^e * b bits; one more bit passes the cap
    ring = {"Z": ZZ, "Q": QQ}[ring]
    fn, extra = _CAP_OPS[op]
    p, n = 2, 5
    bits = WITT_BITS_CAP // p ** (n - 1 + extra)
    ctx = WittContext(ring, p, n)
    below = ctx.vector([2 ** (bits - 1), 1, 0, 3, 0])
    fn(ctx, below)
    above = ctx.vector([2 ** bits, 1, 0, 3, 0])
    with pytest.raises(ValueError, match=f"passes the cap of {WITT_BITS_CAP} bits"):
        fn(ctx, above)


def test_size_cap_counts_the_scaling_over_q():
    # [D]x forms D^(p^(n-1)): a denominator alone can pass the cap
    ctx = WittContext(QQ, 6007, 3)
    assert (ctx.vector([0, 0, 5]) + ctx.vector([0, 0, 7])).coords == (0, 0, 12)
    with pytest.raises(ValueError, match="passes the cap"):
        ctx.vector([0, 0, Fraction(1, 3)]) + ctx.one()


@pytest.mark.parametrize("ring,p,n", [
    (ZZ, 2, 1025), (QQ, 3, 647), (ModRing(2 ** 1000), 2, 25), (ModRing(5), 2, 1022),
    (GFRing(2, 40), 2, 25), (GFRing(3, 2), 3, 323),
])
def test_modulus_cap_on_the_length(ring, p, n):
    # m p^(n-1) (m = 1 over Z and Q) or p^(nr) has at most 1024 bits at n,
    # and more at n + 1; the cap refuses before any work
    assert WITT_MODULUS_BITS_CAP == 1024
    ctx = WittContext(ring, p, n)
    assert verschiebung(ctx.one()).coords == (ring.zero(), ring.one()) + (ring.zero(),) * (n - 2)
    with pytest.raises(ValueError, match=f"W_{n + 1} at p = {p}: .* past the cap of 1024"):
        WittContext(ring, p, n + 1)


def test_carrier_degree_cap():
    assert GFRing(2, 40).m == 40
    for make in (lambda: GFRing(2, 41), lambda: UnramWittCarrier(3, 41, 2)):
        with pytest.raises(ValueError, match="extension degree 41 passes the cap of 40"):
            make()


def test_frobenius_char_p_is_pth_powers():
    ctx = WittContext(F9, 3, 3)
    rng = random.Random(41)
    for _ in range(20):
        x = rand_vec(ctx, rng)
        assert frobenius(x).coords == tuple(F9.pow(c, 3) for c in x.coords)


def test_frobenius_mixed_characteristic():
    # p | m with m not a power of p: the value of the universal Frobenius
    # polynomials in Z/m, which is also Frobenius over Z reduced mod m
    rng = random.Random(12)
    for m, p, n in ((12, 2, 2), (12, 2, 4), (12, 3, 3), (10, 5, 3), (15, 3, 4)):
        ring, ctxZ = ModRing(m), WittContext(ZZ, p, n)
        ctx = WittContext(ring, p, n)
        frob = universal_laws(p, n)["frob"]
        for _ in range(20):
            a = ctxZ.vector([rng.randint(-20, 20) for _ in range(n)])
            x = ctx.vector(a.coords)
            assert frobenius(x).coords == tuple(poly.evaluate(ring, x.coords + (0,)) for poly in frob)
            assert ctx.vector(frobenius(a).coords) == frobenius(x)


@pytest.mark.parametrize("ring,p", [(F9, 2), (F4, 3), (UnramWittCarrier(3, 1, 2), 2), (UnramWittCarrier(2, 2, 2), 2)])
def test_carrier_of_another_characteristic_is_refused(ring, p):
    with pytest.raises(ValueError, match="no Witt vector arithmetic over"):
        WittContext(ring, p, 3)


@pytest.mark.parametrize("m,p", [(25, 2), (4, 2), (15, 2), (27, 3)])
def test_mod_rings(m, p):
    # every m, prime to p, a power of p or neither: the lift to Z/(m p^2)
    ring = ModRing(m)
    ctx = WittContext(ring, p, 3)
    rng = random.Random(m)

    def times_p(v):
        out = ctx.zero()
        for _ in range(p):
            out = out + v
        return out

    for _ in range(25):
        x, y, z = (ctx.vector([rng.randint(0, m - 1) for _ in range(3)]) for _ in range(3))
        assert x + y == y + x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + (-x) == ctx.zero()
        assert verschiebung(x) * verschiebung(y) == times_p(verschiebung(x * y))
    # reduction from Z commutes with the ring laws
    ctxZ = WittContext(IntegerRing(), p, 3)
    for _ in range(25):
        a = ctxZ.vector([rng.randint(-20, 20) for _ in range(3)])
        b = ctxZ.vector([rng.randint(-20, 20) for _ in range(3)])
        red = lambda v: ctx.vector([c % m for c in v.coords])
        assert red(a + b) == red(a) + red(b)
        assert red(a * b) == red(a) * red(b)


@pytest.mark.parametrize("m,p,n", [(8, 2, 9), (12, 2, 8), (9, 3, 6), (15, 3, 6)])
def test_mod_rings_match_reduction_from_z(m, p, n):
    # the laws work in Z/(m p^(n-1)); the reference is the same law over Z,
    # reduced mod m, at lengths the universal laws cannot reach
    ctx, ctxZ = WittContext(ModRing(m), p, n), WittContext(ZZ, p, n)
    rng = random.Random(m * n)
    for _ in range(5):
        a, b = (ctxZ.vector([rng.randint(-20, 20) for _ in range(n)]) for _ in range(2))
        ra, rb = ctx.vector(a.coords), ctx.vector(b.coords)
        assert ctx.vector((a + b).coords) == ra + rb
        assert ctx.vector((a * b).coords) == ra * rb
        assert ctx.vector((-a).coords) == -ra
        assert ctx.vector(frobenius(a).coords) == frobenius(ra)


def test_find_irreducible_deterministic():
    assert find_irreducible(3, 2) == (1, 0, 1)
    assert find_irreducible(2, 1) == (0, 1)
    # the first lexicographic irreducible cubic over F_2 is x^3 + x + 1
    assert find_irreducible(2, 3) == (1, 1, 0, 1)
    # a binomial x^r + c is irreducible although r does not divide p - 1
    assert find_irreducible(5, 8) == (2,) + (0,) * 7 + (1,)
    assert find_irreducible(7, 9) == (2,) + (0,) * 8 + (1,)
    # Serret: no binomial is irreducible when 4 | r and p = 3 mod 4, or when
    # a prime factor of r (31 here) does not divide p - 1; the search starts
    # past them
    assert find_irreducible(3, 4) == (2, 1, 0, 0, 1)
    assert find_irreducible(1000003, 16) == (13, 1) + (0,) * 14 + (1,)
    assert find_irreducible(1000003, 31) == (7, 1) + (0,) * 29 + (1,)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_find_irreducible_is_first_by_trial_division(p):
    for r in range(2, 21):
        if p ** (r // 2) > 10 ** 4:
            break
        first = next(f for f in wittring._monic_polys(p, r) if f[0] and trial_division_irreducible(f, p))
        assert find_irreducible(p, r) == tuple(first), r


def test_find_irreducible_tests_binomials_only_when_serret_allows_one(monkeypatch):
    tested = []
    is_irreducible = wittring._is_irreducible
    monkeypatch.setattr(wittring, "_is_irreducible", lambda f, p: tested.append(f) or is_irreducible(f, p))
    for p in [2, 3, 5, 7, 11, 13, 1000003]:
        for r in range(2, 13):
            tested.clear()
            find_irreducible(p, r)
            primes = [l for l in range(2, r + 1) if r % l == 0 and all(l % k for k in range(2, l))]
            allowed = all((p - 1) % l == 0 for l in primes) and (r % 4 != 0 or p % 4 == 1)
            assert any(not any(f[1:r]) for f in tested) == allowed, (p, r)


@pytest.mark.parametrize("p,max_degree", [(2, 8), (3, 5), (5, 4)])
def test_ben_or_irreducibility_matches_trial_division(p, max_degree):
    for degree in range(1, max_degree + 1):
        for poly in wittring._monic_polys(p, degree):
            assert wittring._is_irreducible(poly, p) == trial_division_irreducible(poly, p), poly
