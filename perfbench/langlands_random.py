"""langlands-random: the correspondence on random classification data.

Each item is random Q-form classification data (at most 3 segments, degree
at most 8) over one of several local fields, with atoms drawn from the
benchmark's own label registry and from unramified characters.  Per item:
``rec_forward``; the property dictionary, computed from the GL predicates,
the Weil-Deligne predicates and the adjoint pole test separately and
compared row by row; the reciprocity axioms under a random unramified
twist; the inductive pair L-factor against Clebsch-Gordan on the pair
(item, next item); and both conductor modes against their block formulas.
No matrix is built.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List

from .common import State, check, make_registry, random_class_data, unram_value
from .tracing import Tracer
from padicgl.bzclass import Atom, ClassData, gl_predicates, unramified_atom
from padicgl.factors import adjoint_no_pole_at_one, conductor, gl_pair_l_inductive, wd_pair_l
from padicgl.langlands import rec_forward, verify_rec_axioms
from padicgl.qexact import ExactScalar, LocalFieldContext, lfactors_equal
from padicgl.weildeligne import WDRep, wd_predicates

CONTEXTS = ((2, 1, 0, 0), (3, 1, 1, 0), (5, 1, 0, 1), (2, 2, 1, 1), (3, 2, 2, 0))
ROUNDS = 6
ITEMS_PER_CONTEXT = 64  # per round

# GL-side predicate -> the Weil-Deligne quantity it must equal.
DICTIONARY = (
    ("supercuspidal", "irreducible"),
    ("essentially_square_integrable", "indecomposable"),
    ("tempered", "bounded_frobenius"),
    ("generic", "adjoint_no_pole_at_one"),
    ("unramified", "unramified"),
    ("iwahori_spherical", "ik_spherical"),
)


@dataclass(frozen=True)
class Item:
    ctx: LocalFieldContext
    registry: object
    data: ClassData
    partner: ClassData
    chi: Atom



def _twist(rng: random.Random, data: ClassData, ctx) -> Atom:
    """A random unramified character; one off the |.|^x lattice only when
    every label is an unramified character, since other labels would need
    declared product labels."""
    if all(s.start.label.is_unramified_char() for s in data.segments):
        return unramified_atom(unram_value(rng), ctx)
    return unramified_atom(ExactScalar.q_power(Fraction(rng.randint(-4, 4), 2)), ctx)


def _round(rng: random.Random, contexts) -> List[Item]:
    items = []
    for ctx, registry in contexts:
        data = [random_class_data(rng, registry, ctx) for _ in range(ITEMS_PER_CONTEXT)]
        for i, c in enumerate(data):
            partner = data[(i + 1) % len(data)]
            items.append(Item(ctx, registry, c, partner, _twist(rng, c, ctx)))
    rng.shuffle(items)
    return items


def setup(seed: int, tr) -> State:
    rng = random.Random(seed)
    contexts = []
    for p, f, d, n_psi in CONTEXTS:
        ctx = LocalFieldContext(p, f, d, n_psi)
        contexts.append((ctx, make_registry(ctx)))
    state = State([_round(rng, contexts) for _ in range(ROUNDS)])
    run_item(state.rounds[0][0], Tracer(False))
    return state


def reference_conductors(rho: WDRep):
    """(artin, epsDegree) from the block data: a block (atom, m) adds m times
    the label conductor, plus m - 1 in the Artin normalization when the
    label is an unramified character."""
    eps_degree = sum(b.m * b.atom.label.conductor for b in rho.blocks)
    extra = sum(b.m - 1 for b in rho.blocks if b.atom.label.is_unramified_char())
    return Fraction(eps_degree + extra), Fraction(eps_degree)


def run_item(item: Item, tr) -> None:
    ctx, c = item.ctx, item.data
    rho = tr.call("langlands.rec_forward", rec_forward, c)
    check(sorted(b.key() for b in rho.blocks)
          == sorted((s.start.label.name, s.start.x, s.m) for s in c.segments),
          "rec_forward: blocks are not the segments")

    gl = tr.call("bzclass.gl_predicates", gl_predicates, c, ctx)
    wd = dict(tr.call("weildeligne.wd_predicates", wd_predicates, rho, ctx))
    wd["adjoint_no_pole_at_one"] = tr.call("factors.adjoint_no_pole_at_one",
                                           adjoint_no_pole_at_one, rho, ctx)
    for gl_row, wd_row in DICTIONARY:
        check(gl[gl_row] == wd[wd_row], f"dictionary row {gl_row}: GL side vs WD side")

    axioms = tr.call("langlands.verify_rec_axioms", verify_rec_axioms, c, item.chi, ctx, item.registry)
    check(axioms["all"], f"reciprocity axioms: {axioms}")

    partner_rho = tr.call("langlands.rec_forward", rec_forward, item.partner)
    check(tr.call("qexact.lfactors_equal", lfactors_equal,
                  tr.call("factors.gl_pair_l_inductive", gl_pair_l_inductive, c, item.partner, ctx),
                  tr.call("factors.wd_pair_l", wd_pair_l, rho, partner_rho, ctx), ctx),
          "pair L: inductive vs Clebsch-Gordan")
    tr.count("factors.cg_terms", sum(min(a.m, b.m) for a in rho.blocks for b in partner_rho.blocks))

    artin, eps_degree = reference_conductors(rho)
    check(tr.call("factors.conductor", conductor, rho, ctx, "artin") == artin, "Artin conductor")
    check(tr.call("factors.conductor", conductor, rho, ctx, "epsDegree") == eps_degree,
          "epsilon-degree conductor")
