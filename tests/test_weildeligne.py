import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_ctx, names_reached, random_class_data, rational_rank_by_fractions, steinberg, trivial_atom
from padicgl.bzclass import Atom, unramified_atom
from padicgl.langlands import rec_forward
from padicgl.qexact import ExactScalar, LFactor, equals_one, lfactors_equal, scalars_equal
from padicgl.weildeligne import (
    _rational_rank,
    UnramMatrixRep,
    WDBlock,
    dual_matrix_rep,
    WDRep,
    clebsch_gordan,
    direct_sum,
    explicit_unramified,
    matrix_eps_det,
    matrix_l,
    nilpotent_partition,
    sp_block,
    sp_rep,
    tensor_matrix_rep,
    wd_dual,
    wd_predicates,
    wd_tensor_char,
    wd_twist,
)
from padicgl.factors import eps_normalize, tate_char, wd_eps, wd_l_factor, wd_pair_l

HALF = Fraction(1, 2)


def test_sp_block_examples(ctx, registry):
    one = trivial_atom(ctx)
    assert sp_block(one, 1).dimension == 1
    assert sp_block(one, 4).dimension == 4
    st_n = sp_block(one.twist(Fraction(1 - 5, 2)), 5)
    assert rec_forward(steinberg(5, ctx)).blocks == (st_n,)
    with pytest.raises(ValueError):
        sp_block(one, 0)


def test_combine_twist_tensor(ctx, registry):
    one = trivial_atom(ctx)
    s23 = direct_sum(sp_rep(one, 2), sp_rep(one, 3))
    assert sorted(b.m for b in s23.blocks) == [2, 3]
    assert wd_twist(sp_rep(one, 3), Fraction(-1)).blocks[0].atom.x == -1
    # tensor by the trivial character is the identity
    assert wd_tensor_char(s23, one, ctx).key() == s23.key()
    # rec(St(n)) = twist of Sp(n)
    n = 4
    assert wd_twist(sp_rep(one, n), Fraction(1 - n, 2)).key() == rec_forward(steinberg(n, ctx)).key()


def test_dual_examples(ctx, registry):
    st3 = rec_forward(steinberg(3, ctx))
    assert wd_dual(st3).key() == st3.key()
    alpha = ExactScalar.of(Fraction(2), 0, 1)
    a = unramified_atom(alpha, ctx)
    d = wd_dual(WDRep((WDBlock(a, 1),)))
    assert equals_one(d.blocks[0].atom.value_at_uniformizer() * alpha, ctx)


def test_dual_involution_and_sum(ctx, registry):
    rng = random.Random(5)
    for _ in range(100):
        r1 = rec_forward(random_class_data(rng, registry, ctx))
        r2 = rec_forward(random_class_data(rng, registry, ctx))
        assert wd_dual(wd_dual(r1)).key() == r1.key()
        assert wd_dual(direct_sum(r1, r2)).key() == direct_sum(wd_dual(r1), wd_dual(r2)).key()
        assert direct_sum(r1, r2).dimension == r1.dimension + r2.dimension


def test_nilpotent_partition(ctx, registry):
    one = trivial_atom(ctx)
    assert nilpotent_partition(sp_rep(one, 4)) == [4]
    tau = Atom(registry.resolve("tau2"), Fraction(0))
    assert nilpotent_partition(WDRep((WDBlock(tau, 3),))) == [3, 3]
    flat = WDRep(tuple(WDBlock(one.twist(j), 1) for j in range(3)))
    assert nilpotent_partition(flat) == [1, 1, 1]


def test_partition_invariant_under_twist(ctx, registry):
    rng = random.Random(11)
    chi = trivial_atom(ctx).twist(Fraction(3, 2))
    for _ in range(50):
        rho = rec_forward(random_class_data(rng, registry, ctx))
        assert nilpotent_partition(rho) == nilpotent_partition(wd_twist(rho, HALF))
        assert nilpotent_partition(rho) == nilpotent_partition(wd_tensor_char(rho, chi, ctx))


def test_wd_predicates(ctx, registry):
    st2 = rec_forward(steinberg(2, ctx))
    p = wd_predicates(st2, ctx)
    assert p["indecomposable"] and p["bounded_frobenius"] and p["ik_spherical"]
    assert not p["unramified"] and not p["irreducible"]

    tau = Atom(registry.resolve("tau2"), Fraction(0))
    assert wd_predicates(WDRep((WDBlock(tau, 1),)), ctx)["irreducible"]

    big = unramified_atom(ExactScalar.of(1, 0, 2), ctx)  # alpha = q
    assert not wd_predicates(WDRep((WDBlock(big, 1),)), ctx)["bounded_frobenius"]


def test_clebsch_gordan_table():
    assert clebsch_gordan(1, 5) == [(0, 5)]
    assert clebsch_gordan(2, 2) == [(0, 3), (1, 1)]
    assert clebsch_gordan(2, 3) == [(0, 4), (1, 2)]
    for m1 in range(1, 6):
        for m2 in range(1, 6):
            assert sum(m for _, m in clebsch_gordan(m1, m2)) == m1 * m2


def test_explicit_matrices_sp(ctx):
    one = trivial_atom(ctx)
    for m in range(1, 5):
        rep = explicit_unramified(sp_rep(one, m), ctx)
        l = matrix_l(rep)
        assert len(l.factors) == 1
        a, t = l.factors[0]
        assert t == 1 and scalars_equal(a, ExactScalar.of(1, 0, 2 * (1 - m)), ctx)
    # Sp(2) epsilon determinant is -1, dimension-1 case is the empty det
    assert scalars_equal(matrix_eps_det(explicit_unramified(sp_rep(one, 2), ctx)), ExactScalar.of(-1), ctx)
    assert scalars_equal(matrix_eps_det(explicit_unramified(sp_rep(one, 1), ctx)), ExactScalar.one(), ctx)


def test_matrix_oracle_matches_structural_l(ctx, registry):
    rng = random.Random(13)
    values = [ExactScalar.one(), ExactScalar.of(2), ExactScalar.of(0, 1), ExactScalar.of(1, 0, -2)]
    for _ in range(40):
        blocks = []
        total = 0
        while total < 6 and (not blocks or rng.random() < 0.6):
            m = rng.randint(1, 4)
            a = unramified_atom(rng.choice(values).shift(Fraction(rng.randint(-2, 2), 2)), ctx)
            blocks.append(WDBlock(a, m))
            total += m
        rho = WDRep(tuple(blocks))
        assert lfactors_equal(
            wd_l_factor(rho, ctx), matrix_l(explicit_unramified(rho, ctx)), ctx
        )


def test_matrix_oracle_rejects_symbolic(ctx, registry):
    tau = Atom(registry.resolve("tau2"), Fraction(0))
    with pytest.raises(ValueError):
        explicit_unramified(WDRep((WDBlock(tau, 1),)), ctx)


def test_wd_relation_enforced(ctx):
    # Phi N Phi^(-1) = q^(-1) N fails if N shifts against the weights
    frob = (ExactScalar.one(), ExactScalar.q_power(-1))
    bad_nil = ((0, 1), (0, 0))  # e_1 -> e_0 raises the weight
    with pytest.raises(ValueError):
        UnramMatrixRep(ctx, frob, bad_nil)
    good_nil = ((0, 0), (1, 0))
    UnramMatrixRep(ctx, frob, good_nil)


def test_dual_oracle_validates_sp_contragredient(ctx):
    # Sp(m)^vee = |.|^(1-m) Sp(m) is a closed form the matrices can check:
    # the structural dual's L-factor must match the transposed-inverse model
    values = [ExactScalar.one(), ExactScalar.of(2), ExactScalar.of(0, 1)]
    for value in values:
        for m in range(1, 5):
            rho = sp_rep(unramified_atom(value, ctx), m)
            oracle = matrix_l(dual_matrix_rep(explicit_unramified(rho, ctx)))
            structural = wd_l_factor(wd_dual(rho), ctx)
            assert lfactors_equal(oracle, structural, ctx)


def test_tensor_oracle_validates_clebsch_gordan(ctx):
    one = trivial_atom(ctx)
    for m1 in range(1, 5):
        for m2 in range(1, 5):
            r1 = explicit_unramified(sp_rep(one, m1), ctx)
            r2 = explicit_unramified(sp_rep(one, m2), ctx)
            oracle = matrix_l(tensor_matrix_rep(r1, r2))
            structural = wd_pair_l(sp_rep(one, m1), sp_rep(one, m2), ctx)
            assert lfactors_equal(oracle, structural, ctx)


def test_hand_built_rep_reads_kernel_per_eigenvalue(ctx):
    # Phi = diag(1, q^-1, q^-1), N e_0 = e_1 + e_2: not a sum of Sp blocks in
    # this basis, so ker N meets the q^-1 eigenspace in two dimensions and
    # ker N^T meets the q eigenspace of the dual in e_1 - e_2 only
    qinv = ExactScalar.q_power(-1)
    rep = UnramMatrixRep(ctx, (ExactScalar.one(), qinv, qinv), ((0, 0, 0), (1, 0, 0), (1, 0, 0)))
    assert lfactors_equal(matrix_l(rep), LFactor.of([(qinv, 1), (qinv, 1)]), ctx)
    assert scalars_equal(matrix_eps_det(rep), ExactScalar.of(-1), ctx)
    dual = dual_matrix_rep(rep)
    q = ExactScalar.q_power(1)
    assert lfactors_equal(matrix_l(dual), LFactor.of([(ExactScalar.one(), 1), (q, 1)]), ctx)
    assert scalars_equal(matrix_eps_det(dual), -q, ctx)


@pytest.mark.parametrize(
    "p, f, lam, same",
    [
        (2, 2, ExactScalar.of(2), ExactScalar.q_power(HALF)),
        (3, 1, ExactScalar.of(3), ExactScalar.q_power(1)),
    ],
)
def test_eigenvalue_written_two_ways_is_one_eigenspace(p, f, lam, same):
    # Phi = diag(lam, lam, q^-1 lam) with the first two entries written
    # differently and the third as lam * q^-1 with k = -2, N e_0 = N e_1 = e_2:
    # ker N meets V_lam in e_0 - e_1 only if both entries are one eigenvalue
    ctx = make_ctx(p=p, f=f)
    rep = UnramMatrixRep(ctx, (lam, same, lam.shift(-1)), ((0, 0, 0), (0, 0, 0), (1, 1, 0)))
    assert rep.frobenius[0] == rep.frobenius[1]
    l = matrix_l(rep)
    assert len(l.factors) == 2
    assert lfactors_equal(l, LFactor.of([(lam, 1), (lam.shift(-1), 1)]), ctx)
    assert scalars_equal(matrix_eps_det(rep), -lam, ctx)


ORACLE_VALUES = [ExactScalar.one(), ExactScalar.of(2), ExactScalar.of(0, 1), ExactScalar.of(1, 0, -2)]


@st.composite
def unramified_reps(draw, ctx, max_dim):
    blocks = []
    total = 0
    while total < max_dim:
        m = draw(st.integers(1, max_dim - total))
        value = draw(st.sampled_from(ORACLE_VALUES)).shift(Fraction(draw(st.integers(-2, 2)), 2))
        blocks.append(WDBlock(unramified_atom(value, ctx), m))
        total += m
        if draw(st.booleans()):
            break
    return WDRep(tuple(blocks))


def tate_eps_part(rho, ctx):
    """Product of the Tate epsilons of every weight's character; times
    det(-Phi | V/ker N) it is eps(rho) for I_K-spherical rho."""
    out = ExactScalar.one()
    for b in rho.blocks:
        for i in range(b.m):
            _, e = tate_char(unramified_atom(b.atom.value_at_uniformizer().shift(-i), ctx), ctx)
            out = out * e.mono
    return out


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    data=st.data(),
    p=st.sampled_from((2, 3, 5)),
    f=st.sampled_from((1, 2)),
    d=st.integers(0, 2),
    npsi=st.integers(0, 2),
)
def test_matrix_oracle_matches_structural_factors(data, p, f, d, npsi):
    ctx = make_ctx(p=p, f=f, d=d, n_psi=npsi)
    rho = data.draw(unramified_reps(ctx, 8))
    mat = explicit_unramified(rho, ctx)
    assert mat.dimension == rho.dimension
    assert lfactors_equal(wd_l_factor(rho, ctx), matrix_l(mat), ctx)
    eps = eps_normalize(wd_eps(rho, ctx), ctx)
    assert scalars_equal(eps.mono, tate_eps_part(rho, ctx) * matrix_eps_det(mat), ctx)
    assert lfactors_equal(wd_l_factor(wd_dual(rho), ctx), matrix_l(dual_matrix_rep(mat)), ctx)
    sigma = data.draw(unramified_reps(ctx, 8))
    tensor = tensor_matrix_rep(mat, explicit_unramified(sigma, ctx))
    assert lfactors_equal(wd_pair_l(rho, sigma, ctx), matrix_l(tensor), ctx)


def test_matrix_oracle_never_reads_block_data():
    # the oracle must recompute L and eps from Phi and N alone: a shortcut
    # through the blocks would make its agreement with factors.py a tautology
    reached = list(names_reached(matrix_l, matrix_eps_det))
    forbidden = {"WDRep", "WDBlock", "blocks", "clebsch_gordan"}
    assert not [(fn, name) for fn, name in reached if name in forbidden]
    assert "_eigenspace_kernels" in {fn for fn, _ in reached}


def test_fraction_free_rank_matches_elimination_over_fractions():
    # random integer matrices with dependent rows, zero rows and zero
    # columns, so that pivots are skipped and rows swapped
    rng = random.Random(15)
    for _ in range(400):
        ncols = rng.randint(1, 8)
        base = [[rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(ncols)] for _ in range(rng.randint(1, 6))]
        mixes = [[sum(rng.randint(-3, 3) * row[j] for row in base) for j in range(ncols)]
                 for _ in range(rng.randint(0, 3))]
        mat = base + mixes
        rng.shuffle(mat)
        assert _rational_rank(mat) == rational_rank_by_fractions(mat), mat
