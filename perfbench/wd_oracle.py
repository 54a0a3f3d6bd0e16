"""wd-oracle: structural Weil-Deligne factors against the matrix oracle.

Each item is an unramified Weil-Deligne representation (a sum of Sp(m)
blocks, dimension at most 9) plus a tensor pair of dimension at most 12.
The structural side (block formulas in ``factors``) is checked against the
explicit matrices of ``weildeligne``: L-factor, epsilon determinant, the
dual, and the Clebsch-Gordan pair L-factor against the Kronecker product.

The block shapes and the prime of each item follow a fixed schedule, so
every round does the same amount of matrix work; the seed draws the
eigenvalues, twists, d and n(psi).  Matrix construction is O(n^3) in the
dimension and dominates the time, so the schedule fixes the cost mix.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

from .common import State, check, unram_value
from .tracing import Tracer
from padicgl.bzclass import unramified_atom
from padicgl.factors import tate_char, wd_eps, wd_l_factor, wd_pair_l
from padicgl.qexact import ExactScalar, LocalFieldContext, lfactors_equal, scalars_equal
from padicgl.weildeligne import (
    WDBlock,
    WDRep,
    dual_matrix_rep,
    explicit_unramified,
    matrix_eps_det,
    matrix_l,
    tensor_matrix_rep,
    wd_dual,
)

PRIMES = (2, 3, 5)
ROUNDS = 12

# Sp-length partitions of the main representation, one per item of a round.
REP_SHAPES: Tuple[Tuple[int, ...], ...] = (
    (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1), (4,), (2, 2), (3, 1), (2, 1, 1),
    (5,), (3, 2), (4, 1), (6,), (3, 3), (4, 2), (2, 2, 2), (7,), (4, 3), (8,),
    (9,), (3, 3, 3),
)
# Partitions of the two tensor factors, paired with REP_SHAPES by position;
# the product dimension is at most 12.
PAIR_SHAPES: Tuple[Tuple[Tuple[int, ...], Tuple[int, ...]], ...] = (
    ((3,), (4,)), ((2,), (2,)), ((1,), (1,)), ((2, 1), (2,)), ((2,), (1,)), ((3,), (3,)),
    ((1, 1), (1,)), ((4,), (2,)), ((3,), (1,)), ((2,), (6,)), ((1, 1), (2,)), ((2, 2), (3,)),
    ((2,), (3,)), ((1,), (2,)), ((3,), (2,)), ((1, 1), (1, 1)), ((5,), (2,)), ((2,), (1,)),
    ((1,), (3,)), ((2, 1), (1,)), ((1,), (1,)), ((2,), (2,)),
)


@dataclass(frozen=True)
class Item:
    ctx: LocalFieldContext
    rho: WDRep
    left: WDRep
    right: WDRep



def _rep(rng: random.Random, shape, ctx) -> WDRep:
    blocks = [WDBlock(unramified_atom(unram_value(rng), ctx), m) for m in shape]
    rng.shuffle(blocks)
    return WDRep(tuple(blocks))


def _round(rng: random.Random) -> List[Item]:
    items = []
    for i, (shape, (left, right)) in enumerate(zip(REP_SHAPES, PAIR_SHAPES)):
        ctx = LocalFieldContext(PRIMES[i % len(PRIMES)], 1, rng.randint(0, 2), rng.randint(0, 2))
        items.append(Item(ctx, _rep(rng, shape, ctx), _rep(rng, left, ctx), _rep(rng, right, ctx)))
    return items


def setup(seed: int, tr) -> State:
    rng = random.Random(seed)
    state = State([_round(rng) for _ in range(ROUNDS)])
    ctx = LocalFieldContext(3, 1)
    one = unramified_atom(ExactScalar.one(), ctx)
    run_item(Item(ctx, WDRep((WDBlock(one, 2),)), WDRep((WDBlock(one, 1),)), WDRep((WDBlock(one, 2),))),
             Tracer(False))
    return state


def oracle_eps(rho: WDRep, mat, ctx: LocalFieldContext, tr) -> ExactScalar:
    """Reference epsilon monomial: the Tate epsilon of every weight's
    character times det(-Phi | V / ker N) read off the matrices."""
    char_part = ExactScalar.one()
    for b in rho.blocks:
        for i in range(b.m):
            chi = tr.call("bzclass.unramified_atom", unramified_atom,
                          b.atom.value_at_uniformizer().shift(-i), ctx)
            _, eps = tr.call("factors.tate_char", tate_char, chi, ctx)
            char_part = char_part * eps.mono
    return char_part * tr.call("weildeligne.matrix_eps_det", matrix_eps_det, mat)


def _matrix(rho: WDRep, ctx, tr):
    mat = tr.call("weildeligne.explicit_unramified", explicit_unramified, rho, ctx)
    _count_matrix(mat, tr)
    return mat


def _count_matrix(mat, tr):
    tr.count("weildeligne.matrix_dim_sum", mat.dimension)
    tr.maximum("weildeligne.matrix_dim_max", mat.dimension)


def run_item(item: Item, tr) -> None:
    ctx, rho = item.ctx, item.rho
    mat = _matrix(rho, ctx, tr)

    l_struct = tr.call("factors.wd_l_factor", wd_l_factor, rho, ctx)
    l_matrix = tr.call("weildeligne.matrix_l", matrix_l, mat)
    check(tr.call("qexact.lfactors_equal", lfactors_equal, l_struct, l_matrix, ctx),
          "L(rho): structural vs matrix")

    eps = tr.call("factors.wd_eps", wd_eps, rho, ctx)
    check(eps.units == () and eps.num.is_one() and eps.den.is_one(), "eps(rho) is not a monomial")
    check(eps.s_slope == rho.dimension * ctx.n_psi, "eps(rho): s-slope")
    check(tr.call("qexact.scalars_equal", scalars_equal, eps.mono, oracle_eps(rho, mat, ctx, tr), ctx),
          "eps(rho): structural vs matrix")

    dual = tr.call("weildeligne.wd_dual", wd_dual, rho)
    dual_mat = tr.call("weildeligne.dual_matrix_rep", dual_matrix_rep, mat)
    _count_matrix(dual_mat, tr)
    check(tr.call("qexact.lfactors_equal", lfactors_equal,
                  tr.call("factors.wd_l_factor", wd_l_factor, dual, ctx),
                  tr.call("weildeligne.matrix_l", matrix_l, dual_mat), ctx),
          "L(dual rho): structural vs matrix")

    left, right = _matrix(item.left, ctx, tr), _matrix(item.right, ctx, tr)
    tensor = tr.call("weildeligne.tensor_matrix_rep", tensor_matrix_rep, left, right)
    _count_matrix(tensor, tr)
    tr.count("factors.cg_terms", sum(min(a.m, b.m) for a in item.left.blocks for b in item.right.blocks))
    check(tr.call("qexact.lfactors_equal", lfactors_equal,
                  tr.call("factors.wd_pair_l", wd_pair_l, item.left, item.right, ctx),
                  tr.call("weildeligne.matrix_l", matrix_l, tensor), ctx),
          "L(rho1 x rho2): Clebsch-Gordan vs Kronecker product")
