import functools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from padicgl import cyclicalg
from padicgl.cyclicalg import (
    CyclicAlgebra,
    DieudonneModule,
    PrecisionError,
    UnramifiedContext,
    _det,
    _mat_mul,
    brauer_invariant,
    dieudonne_standard,
    etale_inf_height,
    v_power_matrix,
)
from padicgl.wittring import GFRing, UnramWittCarrier, WittContext, _is_irreducible, frobenius

from helpers import (
    any_coefficients, bird_det, carriers_under_any_modulus, etale_height_by_iteration, frobenius_root_by_full_inversions,
    leibniz_det, mat_mul_by_triple_loop, sigma_by_power_matrices, v_power_by_iteration,
)


def rand_alg_elem(alg, rng):
    carrier = alg.ctx.carrier
    return alg.element(
        [[rng.randint(0, carrier.pN - 1) for _ in range(carrier.m)] for _ in range(alg.s)]
    )


def sparse_alg_elems(alg, rng):
    """Zero, a constant, Pi^k for k < s, one term c x^t Pi^i, and an element
    whose Pi-coefficients are all constants."""
    m, pN, s = alg.ctx.carrier.m, alg.ctx.carrier.pN, alg.s
    single = [[0]] * s
    single[rng.randrange(s)] = [0] * rng.randrange(m) + [rng.randrange(1, pN)]
    return ([alg.element([]), alg.element([[rng.randrange(1, pN)]])]
            + [alg.element([[0]] * k + [[1]]) for k in range(s)]
            + [alg.element(single), alg.element([[rng.randrange(pN)] for _ in range(s)])])


# ---------------------------------------------------------------------------
# contexts


def test_context_trivial():
    ctx = UnramifiedContext(2, 1, 1, 3)
    assert ctx.q == 2 and ctx.carrier.pN == 8
    assert ctx.sigma(ctx.carrier.from_int(5)) == ctx.carrier.from_int(5)


def test_context_sigma_order_exhaustive():
    # (3,1,2,2): sigma^2 = id on all 81 carrier elements, sigma != id
    ctx = UnramifiedContext(3, 1, 2, 2)
    carrier = ctx.carrier
    moved = False
    for a0 in range(9):
        for a1 in range(9):
            e = carrier.element([a0, a1])
            assert ctx.sigma(ctx.sigma(e)) == e
            if ctx.sigma(e) != e:
                moved = True
    assert moved


def test_context_square_base_field():
    ctx = UnramifiedContext(2, 2, 1, 2)
    assert ctx.q == 4
    assert ctx.carrier.m == 2


def test_sigma_fixes_prime_subring():
    ctx = UnramifiedContext(3, 1, 3, 4)
    for n in (0, 1, 5, 77):
        e = ctx.carrier.from_int(n)
        assert ctx.sigma(e) == e


@functools.lru_cache(maxsize=None)
def _context(p, f, s, n):
    return UnramifiedContext(p, f, s, n)


@st.composite
def _sigma_case(draw):
    # zero, constants, units, non-units, single terms and dense elements
    ctx = _context(draw(st.sampled_from((2, 3))), draw(st.sampled_from((1, 2))),
                   draw(st.sampled_from((1, 2, 5))), draw(st.sampled_from((1, 3))))
    carrier = ctx.carrier
    digit = st.integers(0, carrier.pN - 1)
    dense = st.lists(digit, min_size=carrier.m, max_size=carrier.m).map(carrier.element)
    single = st.tuples(st.integers(0, carrier.m - 1), digit).map(lambda t: carrier.element([0] * t[0] + [t[1]]))
    a = draw(st.one_of(st.just(carrier.zero()), digit.map(carrier.from_int), dense.filter(carrier.is_unit),
                       dense.map(lambda b: carrier.scalar_mul(ctx.p, b)), single, dense))
    return ctx, a, draw(st.integers(-2 * ctx.s, 2 * ctx.s))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_sigma_case())
def test_sigma_matches_the_matrix_of_each_power(case):
    ctx, a, power = case
    assert ctx.sigma(a, power) == sigma_by_power_matrices(ctx, a, power)


# ---------------------------------------------------------------------------
# cyclic algebras


def test_pi_relations():
    ctx = UnramifiedContext(2, 1, 2, 6)
    alg = CyclicAlgebra(ctx, 1)
    pi = alg.pi()
    assert alg.equal(alg.power(pi, 2), alg.from_carrier(ctx.carrier.from_int(2)))
    rng = random.Random(3)
    for _ in range(20):
        a = ctx.carrier.element([rng.randint(0, 63), rng.randint(0, 63)])
        lhs = alg.mul(pi, alg.from_carrier(a))
        rhs = alg.mul(alg.from_carrier(ctx.sigma(a)), pi)
        assert alg.equal(lhs, rhs)
    one = alg.one()
    x = rand_alg_elem(alg, rng)
    assert alg.equal(alg.mul(one, x), x) and alg.equal(alg.mul(x, one), x)


@pytest.mark.parametrize("p,s,r", [(2, 3, 1), (3, 4, 3)])
def test_power_matches_repeated_multiplication(p, s, r):
    ctx = UnramifiedContext(p, 1, s, 4)
    alg = CyclicAlgebra(ctx, r)
    x = rand_alg_elem(alg, random.Random(p * s))
    expected = alg.one()
    for e in range(21):
        assert alg.equal(alg.power(x, e), expected)
        expected = alg.mul(expected, x)
    with pytest.raises(ValueError):
        alg.power(x, -1)


@pytest.mark.parametrize("p,f,s,r", [(2, 1, 3, 1), (3, 2, 2, 1), (5, 1, 5, 2)])
def test_multiplication_distributes_over_addition(p, f, s, r):
    alg = CyclicAlgebra(UnramifiedContext(p, f, s, 4), r)
    rng = random.Random(p * s + r)
    cases = [[rand_alg_elem(alg, rng) for _ in range(3)] for _ in range(8)]
    sparse = sparse_alg_elems(alg, rng)
    for x, y, z in cases + [(x, rand_alg_elem(alg, rng), y) for x in sparse for y in sparse]:
        assert alg.equal(alg.mul(x, alg.add(y, z)), alg.add(alg.mul(x, y), alg.mul(x, z)))
        assert alg.equal(alg.mul(alg.add(y, z), x), alg.add(alg.mul(y, x), alg.mul(z, x)))


def test_coprimality_enforced():
    ctx = UnramifiedContext(2, 1, 2, 3)
    with pytest.raises(ValueError):
        CyclicAlgebra(ctx, 2)


def test_embed_matrix_pi():
    ctx = UnramifiedContext(2, 1, 2, 4)
    alg = CyclicAlgebra(ctx, 1)
    m = alg.embed_matrix(alg.pi())
    carrier = ctx.carrier
    assert m[0][0] == carrier.zero() and m[1][1] == carrier.zero()
    assert m[0][1] == carrier.from_int(2) and m[1][0] == carrier.one()
    ident = alg.embed_matrix(alg.one())
    assert ident[0][0] == carrier.one() and ident[1][1] == carrier.one()
    assert ident[0][1] == carrier.zero()


def test_embed_matrix_of_carrier_is_sigma_diagonal():
    ctx = UnramifiedContext(3, 1, 2, 3)
    alg = CyclicAlgebra(ctx, 1)
    a = ctx.carrier.element([2, 5])
    m = alg.embed_matrix(alg.from_carrier(a))
    assert m[0][1] == ctx.carrier.zero() and m[1][0] == ctx.carrier.zero()
    assert m[0][0] == ctx.sigma(a, -1)
    assert m[1][1] == a


def test_embed_matrix_u_relations():
    # the four u_ij relations from the column model, on random elements
    ctx = UnramifiedContext(2, 1, 3, 5)
    alg = CyclicAlgebra(ctx, 1)
    carrier = ctx.carrier
    rng = random.Random(7)
    p_r = carrier.from_int(2)
    for x in [rand_alg_elem(alg, rng) for _ in range(20)] + sparse_alg_elems(alg, rng):
        u = alg.embed_matrix(x)
        s = alg.s
        assert u[0][0] == ctx.sigma(u[s - 1][s - 1], -1)
        for i in range(s - 1):
            for j in range(s - 1):
                assert u[i + 1][j + 1] == ctx.sigma(u[i][j], -1)
        for j in range(s - 1):
            assert u[0][j + 1] == carrier.mul(p_r, ctx.sigma(u[s - 1][j], -1))
        for i in range(s - 1):
            # u_{i+1,0} * p^r = sigma^(-1)(u_{i,s-1}) without division
            assert carrier.mul(u[i + 1][0], p_r) == ctx.sigma(u[i][s - 1], -1)


def test_embed_multiplicative_random():
    rng = random.Random(11)
    for p, s, r, reps in ((3, 2, 1, 40), (2, 5, 2, 10), (3, 6, 5, 6), (2, 7, 3, 6)):
        ctx = UnramifiedContext(p, 1, s, 4)
        alg = CyclicAlgebra(ctx, r)
        pairs = [(rand_alg_elem(alg, rng), rand_alg_elem(alg, rng)) for _ in range(reps)]
        # sparse factors, each also against a dense one, from their own
        # generator so that rng draws the random pairs it always drew
        sparse = sparse_alg_elems(alg, random.Random(s))
        for x, y in pairs + [(x, y) for x in sparse for y in sparse + [pairs[0][0]]]:
            prod = _mat_mul(ctx, alg.embed_matrix(x), alg.embed_matrix(y))
            assert prod == alg.embed_matrix(alg.mul(x, y))


def test_reduced_norm_examples():
    ctx = UnramifiedContext(2, 1, 2, 6)
    alg = CyclicAlgebra(ctx, 1)
    carrier = ctx.carrier
    nrd, v = alg.reduced_norm_val(alg.pi())
    assert nrd == carrier.from_int(-2) and v == Fraction(1, 2)
    _, v = alg.reduced_norm_val(alg.from_carrier(carrier.from_int(2)))
    assert v == 1
    _, v = alg.reduced_norm_val(alg.from_carrier(carrier.from_int(3)))
    assert v == 0


def test_insufficient_precision():
    ctx = UnramifiedContext(2, 1, 2, 3)
    alg = CyclicAlgebra(ctx, 1)
    with pytest.raises(PrecisionError):
        alg.reduced_norm_val(alg.from_carrier(ctx.carrier.from_int(8)))


def test_vd_additive():
    ctx = UnramifiedContext(2, 1, 2, 6)
    alg = CyclicAlgebra(ctx, 1)
    rng = random.Random(13)
    checked = 0
    while checked < 25:
        x, y = rand_alg_elem(alg, rng), rand_alg_elem(alg, rng)
        try:
            _, vx = alg.reduced_norm_val(x)
            _, vy = alg.reduced_norm_val(y)
            if vx + vy >= 2:
                continue
            _, vxy = alg.reduced_norm_val(alg.mul(x, y))
        except PrecisionError:
            continue
        assert vxy == vx + vy
        checked += 1


def test_vd_hits_every_s_fraction():
    ctx = UnramifiedContext(3, 1, 3, 6)
    alg = CyclicAlgebra(ctx, 1)
    values = set()
    x = alg.one()
    for k in range(4):
        _, v = alg.reduced_norm_val(x)
        values.add(v)
        x = alg.mul(x, alg.pi())
    assert values == {Fraction(0), Fraction(1, 3), Fraction(2, 3), Fraction(1)}


def test_brauer_invariants():
    assert brauer_invariant(1, 2, UnramifiedContext(2, 1, 2, 4)) == Fraction(1, 2)
    assert brauer_invariant(1, 1, UnramifiedContext(2, 1, 1, 4)) == 0
    assert brauer_invariant(2, 3, UnramifiedContext(3, 1, 3, 6)) == Fraction(2, 3)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("s", range(1, 7))
def test_det_matches_leibniz(p, s):
    ctx = UnramifiedContext(p, 1, s, 3)
    carrier = ctx.carrier
    rng = random.Random(10 * p + s)
    for r in [r for r in range(1, 2 * s + 1) if gcd(r, s) == 1][:3]:
        alg = CyclicAlgebra(ctx, r)
        for _ in range(2):
            mat = alg.embed_matrix(rand_alg_elem(alg, rng))
            assert _det(carrier, mat) == leibniz_det(carrier, mat)
    # arbitrary matrices, some entries zero
    for _ in range(3):
        mat = tuple(
            tuple(
                carrier.zero() if rng.random() < 0.3
                else carrier.element([rng.randrange(carrier.pN) for _ in range(carrier.m)])
                for _ in range(s)
            )
            for _ in range(s)
        )
        assert _det(carrier, mat) == leibniz_det(carrier, mat)


@st.composite
def _det_case(draw):
    carrier = draw(carriers_under_any_modulus())
    n = draw(st.integers(1, 4))
    element = any_coefficients(carrier)
    zero_rows = draw(st.sets(st.integers(0, n - 1), max_size=1))
    return carrier, tuple(tuple(carrier.zero() if i in zero_rows else draw(element) for _ in range(n))
                          for i in range(n))


def _assert_det_is_leibniz_or_refused(carrier, mat):
    # _det's contract: exact where the modulus is irreducible mod p (every
    # carrier UnramifiedContext builds), and elsewhere the Leibniz
    # determinant or an ArithmeticError, never a wrong value
    want = leibniz_det(carrier, mat)
    if _is_irreducible(list(carrier.modulus_fp), carrier.p):
        assert _det(carrier, mat) == want
        return
    try:
        assert _det(carrier, mat) == want
    except ArithmeticError:
        pass


@settings(derandomize=True, max_examples=20, deadline=None)
@given(_det_case())
@example((UnramWittCarrier(2, 40, 500), (((2 ** 500 - 1,) * 40,) * 4,) * 4))
def test_packed_det_matches_leibniz(case):
    # the example puts every slot of every entry at p^N - 1
    _assert_det_is_leibniz_or_refused(*case)


@pytest.mark.parametrize("dense", [True, False])
@pytest.mark.parametrize("p,m,precision", [(2, 1, 1), (2, 2, 2), (3, 3, 2), (5, 2, 3), (2, 3, 64)])
def test_packed_det_at_its_widest_slots(p, m, precision, dense):
    # p^N - 1 everywhere but the diagonal, 1 there: the widest slots a
    # packed Bird determinant forms (its mu(A) diagonal near n p^N, its
    # first products near 2 n m p^(2N)); F as in
    # test_packed_dot_at_its_widest_slots, reducible for some (p, m)
    carrier = UnramWittCarrier(p, m, precision, ((p - 1,) * m if dense else (1,) + (0,) * (m - 1)) + (1,))
    top = (carrier.pN - 1,) * m
    for n in range(1, 6):
        mat = tuple(tuple(carrier.one() if i == j else top for j in range(n)) for i in range(n))
        _assert_det_is_leibniz_or_refused(carrier, mat)


def test_det_under_a_reducible_modulus_raises_rather_than_err():
    # x^2 + 1 = (x - 2)(x + 2) mod 5: x - 2 passes for a unit, and the
    # product of the units the rows were scaled by has no inverse
    carrier = UnramWittCarrier(5, 2, 2, (1, 0, 1))
    mat = ((carrier.element([-2, 1]), carrier.one()), (carrier.element([2, 1]), carrier.zero()))
    assert leibniz_det(carrier, mat) == (23, 24)  # -(x + 2)
    with pytest.raises(ArithmeticError):
        _det(carrier, mat)


def _ints(carrier, rows):
    return tuple(tuple(carrier.from_int(e) for e in row) for row in rows)


@pytest.mark.parametrize("p,f,s,n", [(2, 1, 1, 4), (3, 1, 2, 3), (5, 2, 2, 2), (7, 1, 3, 5)])
def test_det_of_singular_matrices(p, f, s, n):
    carrier = UnramifiedContext(p, f, s, n).carrier
    rng = random.Random(p + 10 * s)

    def entry():
        return carrier.element([rng.randrange(carrier.pN) for _ in range(carrier.m)])

    for _ in range(3):
        a, b, c = ([entry() for _ in range(3)] for _ in "abc")
        a[0] = carrier.add(carrier.scalar_mul(p, a[0]), carrier.one())  # a unit pivot, scaled rows
        equal_rows = (tuple(a), tuple(a), tuple(b))
        k = entry()  # column 1 is k times column 0, so it is zero after one step
        dependent = tuple((row[0], carrier.mul(k, row[0]), row[2]) for row in (a, b, c))
        for mat in (equal_rows, dependent):
            assert _det(carrier, mat) == leibniz_det(carrier, mat) == carrier.zero()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_det_when_every_pivot_has_positive_valuation(p):
    carrier = UnramifiedContext(p, 1, 2, 7).carrier
    assert _det(carrier, _ints(carrier, [[p, 0, 0], [0, p, 0], [0, 0, p]])) == carrier.from_int(p ** 3)
    mat = _ints(carrier, [[p, p ** 2], [p ** 3, p]])
    assert _det(carrier, mat) == carrier.from_int(p ** 2 - p ** 5) == leibniz_det(carrier, mat)


@pytest.mark.parametrize("p", [2, 3, 7])
def test_det_pivots_on_the_least_valuation_not_the_first_entry(p):
    # the column's first nonzero entry is p; the pivot must be the unit 1
    carrier = UnramifiedContext(p, 1, 1, 3).carrier
    assert _det(carrier, _ints(carrier, [[p, 1], [1, 0]])) == carrier.from_int(-1)


def test_reduced_norm_still_checks_sigma_invariance(monkeypatch):
    ctx = UnramifiedContext(3, 1, 2, 3)
    alg = CyclicAlgebra(ctx, 1)
    monkeypatch.setattr(cyclicalg, "_det", lambda carrier, mat: carrier.gen())
    with pytest.raises(ArithmeticError, match="not sigma_K-invariant"):
        alg.reduced_norm_val(alg.one())


_context = functools.cache(UnramifiedContext)


@st.composite
def _embedded_case(draw):
    # an element of D_{r/s} embedded as an s x s matrix, s <= 12: random,
    # p times random (every pivot of positive valuation), or sparse
    p = draw(st.sampled_from((2, 3, 5, 7)))
    s = draw(st.integers(1, 12))
    f = draw(st.sampled_from((1, 2))) if s <= 6 else 1
    ctx = _context(p, f, s, draw(st.integers(1, 4)))
    alg = CyclicAlgebra(ctx, draw(st.sampled_from([r for r in range(1, 2 * s + 1) if gcd(r, s) == 1])))
    carrier = ctx.carrier
    coeff = st.integers(0, carrier.pN - 1)
    scale = draw(st.sampled_from((1, 1, p)))
    coeffs = [[scale * c for c in draw(st.lists(coeff, min_size=carrier.m, max_size=carrier.m))]
              if draw(st.integers(0, 3)) else [0] for _ in range(s)]
    return carrier, alg.embed_matrix(alg.element(coeffs))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(_embedded_case())
def test_det_matches_bird_on_embedded_elements(case):
    carrier, mat = case
    assert _det(carrier, mat) == bird_det(carrier, mat)


@pytest.mark.parametrize("p,s,r", [(2, 8, 3), (3, 8, 5), (2, 9, 2), (3, 9, 4)])
def test_reduced_norm_large_degree(p, s, r):
    # beyond the reach of a permutation-sum norm (8! and 9! terms)
    ctx = UnramifiedContext(p, 1, s, r + 1)  # v_K(Nrd) = r for y
    alg = CyclicAlgebra(ctx, r)
    carrier = ctx.carrier
    rng = random.Random(s + r)

    def unit():  # a unit of D: its constant Pi-coefficient is a unit
        x = rand_alg_elem(alg, rng)
        return x if carrier.is_unit(x.coeffs[0]) else alg.add(x, alg.one())

    for _ in range(3):
        x, y = unit(), alg.mul(alg.pi(), unit())
        nx, vx = alg.reduced_norm_val(x)
        ny, vy = alg.reduced_norm_val(y)
        nxy, vxy = alg.reduced_norm_val(alg.mul(x, y))
        assert all(ctx.sigma(n) == n for n in (nx, ny, nxy))
        assert nxy == carrier.mul(nx, ny)
        assert (vx, vy, vxy) == (0, Fraction(r, s), Fraction(r, s))


def test_brauer_invariant_degree_11():
    for r in (1, 4, 10):
        assert brauer_invariant(r, 11, UnramifiedContext(2, 1, 11, r + 1)) == Fraction(r, 11)


# ---------------------------------------------------------------------------
# Dieudonne modules


def test_dieudonne_examples():
    ctx = UnramifiedContext(2, 1, 1, 4)
    one_line = dieudonne_standard(1, 1, ctx)
    assert one_line.v_matrix == ((ctx.carrier.one(),),)
    assert etale_inf_height(one_line) == (1, 0)

    mod = dieudonne_standard(3, 1, ctx)
    assert etale_inf_height(mod) == (1, 2)
    power = v_power_matrix(mod, 2)
    p_el = ctx.carrier.from_int(2)
    for i in range(1, 3):
        for j in range(1, 3):
            assert power[i][j] == (p_el if i == j else ctx.carrier.zero())

    assert etale_inf_height(dieudonne_standard(4, 4, ctx)) == (4, 0)
    assert etale_inf_height(dieudonne_standard(4, 0, ctx)) == (0, 4)


def test_dieudonne_all_heights():
    for p, u in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)):
        ctx = UnramifiedContext(p, 1, u, 3)
        for n in range(1, 7):
            for h in range(0, n + 1):
                mod = dieudonne_standard(n, h, ctx)
                assert etale_inf_height(mod) == etale_height_by_iteration(mod) == (h, n - h)
                for k in range(n + 2):
                    assert v_power_matrix(mod, k) == v_power_by_iteration(mod, k)


def test_dieudonne_height_of_random_v_matrices():
    # V need not come from a standard module here: a random matrix with
    # unit, non-unit and zero entries, so every residue rank occurs
    rng = random.Random(360)
    ranks = set()
    for _ in range(120):
        n = rng.randint(1, 5)
        ctx = UnramifiedContext(rng.choice((2, 3)), 1, rng.choice((1, 2)), 3)
        carrier = ctx.carrier

        def entry():
            a = carrier.element([rng.randrange(carrier.pN) for _ in range(carrier.m)])
            return rng.choice((carrier.zero(), a, carrier.scalar_mul(ctx.p, a)))

        v = tuple(tuple(entry() for _ in range(n)) for _ in range(n))
        mod = DieudonneModule(ctx, n, v, v)  # F is not read
        etale, formal = etale_inf_height(mod)
        assert (etale, formal) == etale_height_by_iteration(mod)
        ranks.add((n, etale))
        for k in range(n + 2):
            assert v_power_matrix(mod, k) == v_power_by_iteration(mod, k)
    assert {etale for n, etale in ranks if n == 4} == {0, 1, 2, 3, 4}


def test_dieudonne_base_change_invariance():
    for u in (1, 2):
        for v in (1, 2, 3):
            ctx = UnramifiedContext(2, 1, u * v, 3)
            assert etale_inf_height(dieudonne_standard(4, 1, ctx)) == (1, 3)


def test_dieudonne_lie_algebra_rank():
    # rank(M/VM) = 1 when h < n: exactly one basis vector outside V(M) mod p
    ctx = UnramifiedContext(2, 1, 1, 3)
    for n, h in ((2, 0), (3, 1), (4, 2)):
        mod = dieudonne_standard(n, h, ctx)
        field = ctx.carrier.residue
        # rank of V mod p is n-1, so M/VM has length 1
        rows = [[ctx.carrier.reduce_mod_p(e) for e in row] for row in mod.v_matrix]
        rank = 0
        ncols = len(rows[0])
        used = [False] * len(rows)
        for col in range(ncols):
            for i in range(len(rows)):
                if not used[i] and any(rows[i][col]):
                    used[i] = True
                    rank += 1
                    pivot = rows[i]
                    inv = field.inv_unit(pivot[col])
                    for k in range(len(rows)):
                        if k != i and any(rows[k][col]):
                            c = field.mul(rows[k][col], inv)
                            rows[k] = [field.sub(a, field.mul(c, b)) for a, b in zip(rows[k], pivot)]
                    break
        assert rank == n - 1


@st.composite
def _mat_mul_case(draw):
    # entries anything, p times anything (never a unit) or zero; some rows
    # of a and columns of b all zero, and sometimes every entry
    ctx = UnramifiedContext(draw(st.sampled_from((2, 3))), 1, draw(st.sampled_from((1, 2, 7))),
                            draw(st.integers(1, 3)))
    carrier, n = ctx.carrier, draw(st.integers(1, 6))
    coeffs = st.lists(st.integers(0, carrier.pN - 1), min_size=carrier.m, max_size=carrier.m)
    entry = st.one_of(coeffs.map(carrier.element), coeffs.map(lambda c: carrier.scalar_mul(ctx.p, c)),
                      st.just(carrier.zero()))
    zero_rows, zero_cols = (draw(st.sets(st.integers(0, n - 1), max_size=n)) for _ in "ab")
    a = tuple(tuple(carrier.zero() if i in zero_rows else draw(entry) for _ in range(n)) for i in range(n))
    b = tuple(tuple(carrier.zero() if j in zero_cols else draw(entry) for j in range(n)) for _ in range(n))
    return ctx, a, b


@settings(derandomize=True, max_examples=40, deadline=None)
@given(_mat_mul_case())
def test_mat_mul_matches_the_triple_loop(case):
    ctx, a, b = case
    assert _mat_mul(ctx, a, b) == mat_mul_by_triple_loop(ctx, a, b)


# ---------------------------------------------------------------------------
# cross-validation against the coordinate Witt vectors


@st.composite
def _lift_case(draw):
    degree = draw(st.sampled_from((1, 2, 7)))
    f = draw(st.sampled_from([f for f in (1, 2, 7) if degree % f == 0]))
    return draw(st.sampled_from((2, 3, 5, 101))), f, degree // f, draw(st.sampled_from((1, 2, 3, 25)))


def _assert_sigma_of_x_is_the_reference_root(p, f, s, n):
    ctx = UnramifiedContext(p, f, s, n)
    carrier = ctx.carrier
    assert ctx.sigma(carrier.gen()) == frobenius_root_by_full_inversions(carrier, ctx.q)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(_lift_case())
def test_sigma_of_x_is_the_newton_root_by_full_inversions(case):
    _assert_sigma_of_x_is_the_reference_root(*case)


def test_sigma_of_x_at_the_large_p_carrier_edge():
    _assert_sigma_of_x_is_the_reference_root(1000003, 1, 40, 25)


@pytest.mark.parametrize("p,f,s,n", [(2, 1, 3, 4), (3, 2, 2, 3), (2, 3, 2, 4), (5, 2, 3, 3), (2, 2, 4, 5), (3, 3, 2, 2)])
def test_sigma_is_the_lift_of_the_q_power_frobenius(p, f, s, n):
    # a ring endomorphism of the carrier that fixes Z/p^N is determined by
    # the image of x, a root of F; reducing to a -> a^q makes that root the
    # unique one congruent to x^q, so these properties pin sigma_K
    ctx = UnramifiedContext(p, f, s, n)
    carrier = ctx.carrier
    rng = random.Random(p * 1000 + f * 100 + s * 10 + n)

    def rand():
        return carrier.element([rng.randrange(carrier.pN) for _ in range(carrier.m)])

    seven = carrier.from_int(7)
    assert ctx.sigma(seven) == seven
    for _ in range(20):
        a, b = rand(), rand()
        assert ctx.sigma(carrier.add(a, b)) == carrier.add(ctx.sigma(a), ctx.sigma(b))
        assert ctx.sigma(carrier.mul(a, b)) == carrier.mul(ctx.sigma(a), ctx.sigma(b))
        assert carrier.reduce_mod_p(ctx.sigma(a)) == carrier.residue.pow(carrier.reduce_mod_p(a), ctx.q)
        image = a
        for _ in range(s):
            image = ctx.sigma(image)
        assert image == a


@pytest.mark.parametrize("p,m,n", [(2, 1, 3), (2, 2, 2), (3, 2, 2), (2, 3, 4), (3, 3, 3), (5, 2, 3)])
def test_carrier_is_isomorphic_to_witt_vectors(p, m, n):
    carrier_ctx = UnramifiedContext(p, 1, m, n)
    carrier = carrier_ctx.carrier
    gf = GFRing(p, m, carrier.modulus_fp)
    wctx = WittContext(gf, p, n)

    def iso(wv):
        return carrier.from_witt_coords(wv.coords)

    rng = random.Random(17)
    vectors = [
        wctx.vector([gf.element([rng.randint(0, p - 1) for _ in range(m)]) for _ in range(n)])
        for _ in range(20)
    ]
    seen = set()
    for x in vectors:
        seen.add(iso(x))
    for x in vectors[:10]:
        for y in vectors[:10]:
            assert iso(x + y) == carrier.add(iso(x), iso(y))
            assert iso(x * y) == carrier.mul(iso(x), iso(y))
    # sigma_K (q = p) on the carrier matches the Witt Frobenius through the
    # bridge, in every degree m
    for x in vectors:
        assert iso(frobenius(x)) == carrier_ctx.sigma(iso(x))
