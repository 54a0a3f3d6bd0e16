"""padic-algebra: Witt vectors, cyclic division algebras, Dieudonne modules.

Witt items run + * neg frobenius verschiebung ghost at lengths 3-5 with
p in {2, 3} over Q, Z, Z/m (m prime to p, and m = p^k) and F_{p^r}, and
check them against references that do not use the ring laws: ring axioms,
the ghost map as a homomorphism (injective over Q and Z), the ghost shifts
of Frobenius and Verschiebung, and over F_{p^r} the Teichmuller bridge to
(Z/p^n)[x]/(F).  W_3(F_2) is checked against Z/8.  Over Q and Z/m with p
invertible the library adds and multiplies through the ghost map; over Z,
Z/p^k and F_{p^r} it evaluates the universal polynomials, whose size grows
exponentially with the length: the laws for p = 3 at length 5 take more
than 90 s to build, so p = 3 reaches length 5 only over Q and Z/m with m
prime to 3, where + * neg V and ghost take the ghost path, and those items
skip Frobenius, which outside characteristic p always evaluates the laws.

Cyclic-algebra items check D_{r/s} for s = 2..7 (fewer as s grows, since
the reduced norm is a permutation sum): Pi^s = p^r, the embedding is
multiplicative, the reduced norm is sigma-invariant and multiplicative,
Nrd(xy) = Nrd(x) Nrd(y) in the carrier, v_D(x) = 0 for a unit x,
v_D(xy) = v_D(x) + r/s for y whose Pi-term is a unit and whose other terms
have higher valuation, and inv(D_{r/s}) = r/s.  Dieudonne items check that
the standard module of rank n <= 5 and etale height h has heights
(h, n - h).

Every round runs the same schedule of kinds, sizes and invariants r/s; the
seed draws coordinates, coefficients and h.  r is fixed by the schedule,
not drawn, because the permutation-sum norm gets cheaper as r grows (more
products vanish mod p^N): for s = 7 and p = 2 an item takes 2.0 s at r = 1
and 0.9 s at r = 5, so a drawn or cycled r would make runs of the same
length do different work.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter
from typing import Optional

from .common import State, check
from .tracing import Tracer
from padicgl.cyclicalg import (
    CyclicAlgebra,
    UnramifiedContext,
    UnramWittCarrier,
    brauer_invariant,
    dieudonne_standard,
    etale_inf_height,
)
from padicgl.wittring import (
    GFRing,
    IntegerRing,
    ModRing,
    RationalField,
    WittContext,
    frobenius,
    ghost,
    universal_polynomials,
    verschiebung,
    witt_polynomial,
)

ROUNDS = 20
# (ring kind, p, length, modulus or extension degree) per Witt item of a round.
WITT_SCHEDULE = (
    ("Q", 2, 3, None), ("Q", 2, 4, None), ("Q", 2, 5, None), ("Q", 3, 3, None), ("Q", 3, 4, None),
    ("Q", 3, 5, None), ("Zmod", 3, 5, 10),  # p = 3 at length 5: ghost path only
    ("Z", 2, 3, None), ("Z", 2, 4, None), ("Z", 2, 5, None), ("Z", 3, 3, None), ("Z", 3, 4, None),
    ("Zmod", 2, 3, 3), ("Zmod", 2, 4, 5), ("Zmod", 2, 5, 15), ("Zmod", 3, 3, 4), ("Zmod", 3, 4, 5),
    ("Zmod", 2, 3, 4), ("Zmod", 2, 4, 8), ("Zmod", 2, 5, 8), ("Zmod", 3, 3, 9), ("Zmod", 3, 4, 9),
    ("Fq", 2, 3, 1), ("Fq", 2, 4, 2), ("Fq", 2, 5, 3), ("Fq", 3, 3, 1), ("Fq", 3, 4, 2),
)
# (p, length) whose universal laws are built; the others take the ghost path only.
UNIVERSAL = ((2, 3), (2, 4), (2, 5), (3, 3), (3, 4))
Z8_PER_ROUND = 2
# algebra degree s -> the invariant numerator r of each item per round; the
# items alternate p = 2, 3
CYCLIC_SCHEDULE = {2: (1, 1, 1, 1), 3: (1, 2, 1), 4: (1, 3), 5: (1, 4), 6: (5,), 7: (3,)}
DIEUDONNE_RANKS = (1, 2, 3, 4, 5)


@dataclass(frozen=True)
class WittItem:
    kind: str
    wctx: WittContext
    a: object
    b: object
    c: object
    bridge: Optional[UnramWittCarrier]


@dataclass(frozen=True)
class Z8Item:
    wctx: WittContext
    a: int
    b: int


@dataclass(frozen=True)
class CyclicItem:
    algebra: CyclicAlgebra
    x: object
    y: object


@dataclass(frozen=True)
class DieudonneItem:
    ctx: UnramifiedContext
    rank: int
    etale: int



def _coord(rng: random.Random, ring, kind: str):
    if kind == "Q":
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    if kind == "Z":
        return rng.randint(-3, 3)
    if kind == "Zmod":
        return rng.randrange(ring.m)
    return ring.element([rng.randrange(ring.p) for _ in range(ring.r)])


def _carrier_element(rng: random.Random, carrier: UnramWittCarrier, unit: bool):
    while True:
        coeffs = [rng.randrange(carrier.pN) for _ in range(carrier.m)]
        if not unit or any(c % carrier.p for c in coeffs):
            return carrier.element(coeffs)


def _cyclic_item(rng: random.Random, ctx: UnramifiedContext, r: int) -> CyclicItem:
    """x = unit + higher Pi-terms (v_D = 0); y = p*z + unit*Pi + higher
    terms (v_D = r/s, because r < s makes v_D(p) = 1 the larger)."""
    s = ctx.s
    algebra = CyclicAlgebra(ctx, r)
    carrier = ctx.carrier
    x = [_carrier_element(rng, carrier, unit=(j == 0)) for j in range(s)]
    y = [_carrier_element(rng, carrier, unit=(j == 1)) for j in range(s)]
    y[0] = carrier.scalar_mul(ctx.p, y[0])
    return CyclicItem(algebra, algebra.element(x), algebra.element(y))


class _Fixtures:
    """Rings, contexts and carriers built once per run."""

    def __init__(self):
        self.witt = {}
        for kind, p, n, extra in WITT_SCHEDULE:
            ring = {"Q": RationalField, "Z": IntegerRing}.get(kind)
            if ring is not None:
                ring = ring()
                bridge = None
            elif kind == "Zmod":
                ring, bridge = ModRing(extra), None
            else:
                bridge = UnramWittCarrier(p, extra, n)
                ring = GFRing(p, extra, bridge.modulus_fp)
            self.witt[(kind, p, n, extra)] = (WittContext(ring, p, n), bridge)
        self.z8 = WittContext(GFRing(2, 1), 2, 3)
        self.cyclic = {(s, p): UnramifiedContext(p, 1, s, s + 1) for s in CYCLIC_SCHEDULE for p in (2, 3)}
        self.dieudonne = [UnramifiedContext(p, 1, u, 4) for p in (2, 3) for u in (1, 2)]


def _round(rng: random.Random, fx: _Fixtures) -> list:
    items = []
    for key in WITT_SCHEDULE:
        wctx, bridge = fx.witt[key]
        kind = key[0]
        a, b, c = (wctx.vector([_coord(rng, wctx.ring, kind) for _ in range(wctx.n)]) for _ in range(3))
        items.append(WittItem(kind, wctx, a, b, c, bridge))
    for _ in range(Z8_PER_ROUND):
        items.append(Z8Item(fx.z8, rng.randrange(8), rng.randrange(8)))
    for s, numerators in CYCLIC_SCHEDULE.items():
        for i, r in enumerate(numerators):
            items.append(_cyclic_item(rng, fx.cyclic[(s, (2, 3)[i % 2])], r))
    for rank in DIEUDONNE_RANKS:
        items.append(DieudonneItem(rng.choice(fx.dieudonne), rank, rng.randint(0, rank)))
    return items


def setup(seed: int, tr) -> State:
    start = perf_counter()
    for p, n in UNIVERSAL:
        universal_polynomials(p, n)
    tr.measured("wittring.universal_polynomials.s", perf_counter() - start)
    rng = random.Random(seed)
    fx = _Fixtures()
    state = State([_round(rng, fx) for _ in range(ROUNDS)])
    quiet = Tracer(False)
    warmed = set()
    for item in state.rounds[0]:  # the first, smallest item of each kind
        if type(item) not in warmed:
            warmed.add(type(item))
            run_item(item, quiet)
    for items in state.rounds:
        rng.shuffle(items)
    return state


def _mat_mul(carrier, a, b):
    n = len(a)
    out = [[carrier.zero()] * n for _ in range(n)]
    for i in range(n):
        for k in range(n):
            for j in range(n):
                out[i][j] = carrier.add(out[i][j], carrier.mul(a[i][k], b[k][j]))
    return tuple(tuple(row) for row in out)


def expected_heights(item: DieudonneItem):
    """The standard module's heights by construction: (h, n - h)."""
    return item.etale, item.rank - item.etale


def _witt(item: WittItem, tr) -> None:
    wctx, ring, p, n = item.wctx, item.wctx.ring, item.wctx.p, item.wctx.n
    a, b, c = item.a, item.b, item.c

    def op(name, fn, *args):
        return tr.call(f"wittring.{name}.{item.kind}", fn, *args)

    total = op("add", operator.add, a, b)
    prod = op("mul", operator.mul, a, b)
    check(op("add", operator.add, b, a) == total, "Witt + is not commutative")
    check(op("mul", operator.mul, b, a) == prod, "Witt * is not commutative")
    check(op("add", operator.add, a, op("neg", operator.neg, a)) == wctx.zero(), "a + (-a) != 0")
    check(op("mul", operator.mul, a, op("add", operator.add, b, c))
          == op("add", operator.add, prod, op("mul", operator.mul, a, c)), "Witt * does not distribute")
    if item.kind in ("Zmod", "Fq"):
        # over Q and Z the coordinates of a triple product grow too fast
        check(op("mul", operator.mul, prod, c) == op("mul", operator.mul, a, op("mul", operator.mul, b, c)),
              "Witt * is not associative")

    ga, gb = op("ghost", ghost, a), op("ghost", ghost, b)
    check(op("ghost", ghost, total) == [ring.add(x, y) for x, y in zip(ga, gb)], "ghost(a + b)")
    check(op("ghost", ghost, prod) == [ring.mul(x, y) for x, y in zip(ga, gb)], "ghost(a * b)")

    if (p, n) in UNIVERSAL:
        top = op("ghost", witt_polynomial, p, n, list(a.coords) + [ring.zero()], ring)
        check(op("ghost", ghost, op("frobenius", frobenius, a)) == ga[1:] + [top],
              "ghost(F a) is not the shifted ghost of a")
    gv = op("ghost", ghost, op("verschiebung", verschiebung, a))
    check(gv == [ring.zero()] + [ring.mul(ring.from_int(p), x) for x in ga[:-1]],
          "ghost(V a) is not p times the shifted ghost of a")

    if item.bridge is not None:
        carrier = item.bridge

        def iso(v):
            return tr.call("cyclicalg.from_witt_coords", carrier.from_witt_coords, v.coords)

        ia, ib = iso(a), iso(b)
        check(iso(total) == carrier.add(ia, ib), "Teichmuller bridge: a + b")
        check(iso(prod) == carrier.mul(ia, ib), "Teichmuller bridge: a * b")


def _z8(item: Z8Item, tr) -> None:
    def image(k):
        return tr.call("wittring.from_int.Fq", item.wctx.from_int, k)

    x, y = image(item.a), image(item.b)
    check(tr.call("wittring.add.Fq", operator.add, x, y) == image((item.a + item.b) % 8), "W_3(F_2): +")
    check(tr.call("wittring.mul.Fq", operator.mul, x, y) == image((item.a * item.b) % 8), "W_3(F_2): *")
    check(image(8) == item.wctx.zero() and image(4) != item.wctx.zero(), "W_3(F_2): 1 has order 8")


def _cyclic(item: CyclicItem, tr) -> None:
    algebra, ctx = item.algebra, item.algebra.ctx
    carrier, s, r = ctx.carrier, algebra.s, algebra.r
    pi_s = tr.call("cyclicalg.power", algebra.power, algebra.pi(), s)
    check(algebra.equal(pi_s, algebra.from_carrier(carrier.from_int(ctx.p ** r))), "Pi^s != p^r")

    xy = tr.call("cyclicalg.mul", algebra.mul, item.x, item.y)
    ex, ey, exy = (tr.call("cyclicalg.embed_matrix", algebra.embed_matrix, v) for v in (item.x, item.y, xy))
    check(exy == _mat_mul(carrier, ex, ey), "embedding is not multiplicative")

    nx, vx = tr.call("cyclicalg.reduced_norm_val", algebra.reduced_norm_val, item.x)
    ny, _ = tr.call("cyclicalg.reduced_norm_val", algebra.reduced_norm_val, item.y)
    nxy, vxy = tr.call("cyclicalg.reduced_norm_val", algebra.reduced_norm_val, xy)
    check(all(ctx.sigma(n, 1) == n for n in (nx, ny, nxy)), "Nrd is not sigma-invariant")
    check(nxy == carrier.mul(nx, ny), "Nrd(xy) != Nrd(x) Nrd(y)")
    check(vx == 0, "v_D of a unit")
    check(vxy == vx + Fraction(r, s), "v_D is not additive")
    check(tr.call("cyclicalg.brauer_invariant", brauer_invariant, r, s, ctx) == Fraction(r, s),
          "Brauer invariant")


def _dieudonne(item: DieudonneItem, tr) -> None:
    mod = tr.call("cyclicalg.dieudonne_standard", dieudonne_standard, item.rank, item.etale, item.ctx)
    heights = tr.call("cyclicalg.etale_inf_height", etale_inf_height, mod)
    check(heights == expected_heights(item), "etale/formal heights")


_RUNNERS = {WittItem: _witt, Z8Item: _z8, CyclicItem: _cyclic, DieudonneItem: _dieudonne}


def run_item(item, tr) -> None:
    _RUNNERS[type(item)](item, tr)
