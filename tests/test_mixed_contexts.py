"""The same cross-checks at non-prime q: square q collapses v = sqrt(q)
into the rationals, odd f >= 3 keeps it irrational, and the unramified
value canonicalization has to window p-valuations modulo f."""

import random
from fractions import Fraction

import pytest

from helpers import make_ctx, sqrt_q
from padicgl.bzclass import ClassData, Segment, linked, unramified_atom
from padicgl.factors import gl_pair_l_inductive, wd_l_factor, wd_pair_l
from padicgl.langlands import dictionary_report, rec_forward, satake_class_data, satake_parameters
from padicgl.qexact import ExactScalar, canonical_scalar_key, equals_one, lfactors_equal
from padicgl.weildeligne import explicit_unramified, matrix_l
from padicgl.cyclicalg import UnramifiedContext, dieudonne_standard, etale_inf_height

CONTEXTS = [make_ctx(p=2, f=2), make_ctx(p=2, f=3), make_ctx(p=3, f=2)]

VALUE_POOLS = {
    4: [ExactScalar.one(), ExactScalar.of(2), ExactScalar.of(0, 1), ExactScalar.of(1, 1),
        ExactScalar.of(Fraction(1, 2), 0, 1)],
    8: [ExactScalar.one(), ExactScalar.of(2), ExactScalar.of(0, 1), ExactScalar.of(1, 1),
        ExactScalar.of(1, 0, 1)],
    9: [ExactScalar.one(), ExactScalar.of(3), ExactScalar.of(0, 1), ExactScalar.of(2),
        ExactScalar.of(1, 0, -1)],
}


def random_unram_data(rng, ctx, max_degree=6):
    segs = []
    total = 0
    while not segs or (total < max_degree and rng.random() < 0.6):
        value = rng.choice(VALUE_POOLS[ctx.q]).shift(Fraction(rng.randint(-2, 2), 2))
        m = rng.randint(1, min(3, max_degree - total))
        segs.append(Segment(unramified_atom(value, ctx), m))
        total += m
    return ClassData("Q", tuple(segs))


@pytest.mark.parametrize("ctx", CONTEXTS, ids=lambda c: f"q={c.q}")
def test_value_aliasing_is_canonicalized(ctx):
    # the integer p^f and the twist-spelling q^(+1) land on the same label
    # with twists a full step apart, so |.|-comparability is visible
    a = unramified_atom(ExactScalar.of(ctx.q), ctx)
    b = unramified_atom(ExactScalar.of(1, 0, 2).inverse(), ctx)
    assert a.label.name == b.label.name
    assert a.x - b.x == -2
    # adjacent twists of the same label are linked singletons
    c = unramified_atom(ExactScalar.of(ctx.q).shift(1), ctx)
    assert linked(Segment(a, 1), Segment(c, 1))


@pytest.mark.parametrize("ctx", CONTEXTS, ids=lambda c: f"q={c.q}")
def test_sqrt_q_aliases_at_square_q(ctx):
    if sqrt_q(ctx) is None:
        return
    # p^(f/2) equals q^(1/2) on the nose, so both spellings share a label
    a = unramified_atom(ExactScalar.of(sqrt_q(ctx)), ctx)
    b = unramified_atom(ExactScalar.q_power(Fraction(1, 2)), ctx)
    assert a.label.name == b.label.name and a.x == b.x


@pytest.mark.parametrize("ctx", CONTEXTS, ids=lambda c: f"q={c.q}")
def test_pair_l_and_oracle(ctx):
    rng = random.Random(ctx.q)
    for _ in range(60):
        c1 = random_unram_data(rng, ctx)
        c2 = random_unram_data(rng, ctx)
        inductive = gl_pair_l_inductive(c1, c2, ctx)
        wd = wd_pair_l(rec_forward(c1), rec_forward(c2), ctx)
        assert lfactors_equal(inductive, wd, ctx)
        rho = rec_forward(c1)
        assert lfactors_equal(wd_l_factor(rho, ctx), matrix_l(explicit_unramified(rho, ctx)), ctx)


@pytest.mark.parametrize("ctx", CONTEXTS, ids=lambda c: f"q={c.q}")
def test_dictionary_agrees(ctx):
    rng = random.Random(100 + ctx.q)
    for _ in range(150):
        c = random_unram_data(rng, ctx)
        assert all(r["agree"] for r in dictionary_report(c, ctx))


@pytest.mark.parametrize("ctx", CONTEXTS, ids=lambda c: f"q={c.q}")
def test_satake_round_trip(ctx):
    rng = random.Random(200 + ctx.q)
    for _ in range(50):
        values = [
            rng.choice(VALUE_POOLS[ctx.q]).shift(Fraction(rng.randint(-2, 2), 2))
            for _ in range(rng.randint(1, 4))
        ]
        c = satake_class_data(values, ctx)
        back = satake_parameters(c, ctx)
        assert sorted(canonical_scalar_key(v, ctx) for v in values) == sorted(
            canonical_scalar_key(v, ctx) for v in back
        )


@pytest.mark.parametrize("ctx", CONTEXTS, ids=lambda c: f"q={c.q}")
def test_duals_invert_values(ctx):
    rng = random.Random(300 + ctx.q)
    for _ in range(60):
        value = rng.choice(VALUE_POOLS[ctx.q]).shift(Fraction(rng.randint(-2, 2), 2))
        a = unramified_atom(value, ctx)
        assert equals_one(a.dual().value_at_uniformizer() * value, ctx)
        assert a.dual().dual() == a


def test_dieudonne_larger_residue_field():
    # q = 4 base with residue extension degree 2
    ctx = UnramifiedContext(2, 2, 2, 3)
    for n in range(1, 5):
        for h in range(0, n + 1):
            assert etale_inf_height(dieudonne_standard(n, h, ctx)) == (h, n - h)
