"""Shared fixtures: a curated label registry and seeded data generators."""

from __future__ import annotations

import ast
import functools
import inspect
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import log2

from hypothesis import strategies as st

from padicgl.bzclass import (
    Atom,
    ClassData,
    Segment,
    load_registry,
    unramified_atom,
)
from padicgl.common import power
from padicgl.qexact import (
    ExactScalar,
    GaussianRational,
    LFactor,
    LocalFieldContext,
    _make,
    _refuse_power,
    canonical_scalar_key,
)
from padicgl.wittring import UnramWittCarrier, _monic_polys, _poly_mod, universal_polynomials


def _scalar_doc(re, im=(0, 1), k=0):
    return {"re": list(re), "im": list(im), "k": k}


# ten symbolic labels (self-dual ones and dual pairs), two ramified
# characters, the trivial unramified character, and one declared product
REGISTRY_DOC = {
    "labels": [
        {"name": "1", "kind": "unramified-char", "degree": 1, "torsion": 1,
         "conductor": 0, "dual": "1",
         "omegaAtUniformizer": _scalar_doc((1, 1)), "unitClass": "1"},
        {"name": "xi", "kind": "ramified-char", "degree": 1, "torsion": 1,
         "conductor": 2, "dual": "xi_inv",
         "omegaAtUniformizer": _scalar_doc((0, 1), (1, 1)), "unitClass": "u_xi"},
        {"name": "xi_inv", "kind": "ramified-char", "degree": 1, "torsion": 1,
         "conductor": 2, "dual": "xi",
         "omegaAtUniformizer": _scalar_doc((0, 1), (-1, 1)), "unitClass": "u_xi_inv"},
        {"name": "eta1", "kind": "symbolic", "degree": 1, "torsion": 1,
         "conductor": 1, "dual": "eta1",
         "omegaAtUniformizer": _scalar_doc((-1, 1)), "unitClass": "u_eta1"},
        {"name": "tau2", "kind": "symbolic", "degree": 2, "torsion": 1,
         "conductor": 2, "dual": "tau2",
         "omegaAtUniformizer": _scalar_doc((1, 1)), "unitClass": "u_tau2"},
        {"name": "sig2", "kind": "symbolic", "degree": 2, "torsion": 2,
         "conductor": 3, "dual": "sig2d",
         "omegaAtUniformizer": _scalar_doc((3, 5), (4, 5)), "unitClass": "u_sig2"},
        {"name": "sig2d", "kind": "symbolic", "degree": 2, "torsion": 2,
         "conductor": 3, "dual": "sig2",
         "omegaAtUniformizer": _scalar_doc((3, 5), (-4, 5)), "unitClass": "u_sig2d"},
        {"name": "rho3", "kind": "symbolic", "degree": 3, "torsion": 3,
         "conductor": 3, "dual": "rho3",
         "omegaAtUniformizer": _scalar_doc((1, 1)), "unitClass": "u_rho3"},
        {"name": "rho3b", "kind": "symbolic", "degree": 3, "torsion": 1,
         "conductor": 4, "dual": "rho3bd",
         "omegaAtUniformizer": _scalar_doc((0, 1), (1, 1)), "unitClass": "u_rho3b"},
        {"name": "rho3bd", "kind": "symbolic", "degree": 3, "torsion": 1,
         "conductor": 4, "dual": "rho3b",
         "omegaAtUniformizer": _scalar_doc((0, 1), (-1, 1)), "unitClass": "u_rho3bd"},
        {"name": "tau4", "kind": "symbolic", "degree": 4, "torsion": 2,
         "conductor": 5, "dual": "tau4",
         "omegaAtUniformizer": _scalar_doc((-1, 1)), "unitClass": "u_tau4"},
        {"name": "tau4b", "kind": "symbolic", "degree": 4, "torsion": 4,
         "conductor": 4, "dual": "tau4b",
         "omegaAtUniformizer": _scalar_doc((1, 1)), "unitClass": "u_tau4b"},
        {"name": "eta6", "kind": "symbolic", "degree": 6, "torsion": 3,
         "conductor": 6, "dual": "eta6",
         "omegaAtUniformizer": _scalar_doc((1, 1)), "unitClass": "u_eta6"},
        {"name": "tau2xi", "kind": "symbolic", "degree": 2, "torsion": 1,
         "conductor": 4, "dual": "tau2xid",
         "omegaAtUniformizer": _scalar_doc((0, 1), (-1, 1)), "unitClass": "u_tau2xi"},
        {"name": "tau2xid", "kind": "symbolic", "degree": 2, "torsion": 1,
         "conductor": 4, "dual": "tau2xi",
         "omegaAtUniformizer": _scalar_doc((0, 1), (1, 1)), "unitClass": "u_tau2xid"},
    ],
    "products": [
        {"left": "tau2", "right": "xi", "result": "tau2xi"},
        {"left": "tau2xi", "right": "xi_inv", "result": "tau2"},
    ],
}

SYMBOLIC_NAMES = [
    "eta1", "tau2", "sig2", "sig2d", "rho3", "rho3b", "rho3bd", "tau4", "tau4b", "eta6",
]


def make_ctx(p=3, f=1, d=0, n_psi=0):
    return LocalFieldContext(p, f, d, n_psi)


def make_registry(ctx):
    return load_registry(REGISTRY_DOC, ctx)


HALF = Fraction(1, 2)
TWISTS = [Fraction(n, 2) for n in range(-4, 5)]

UNRAM_VALUE_POOL = [
    ExactScalar.of(1),
    ExactScalar.of(-1),
    ExactScalar.of(0, 1),
    ExactScalar.of(2),
    ExactScalar.of(Fraction(1, 2)),
    ExactScalar.of(Fraction(3, 5), Fraction(4, 5)),
    ExactScalar.of(1, 0, -2),
    ExactScalar.of(1, 0, 1),
]


def trivial_atom(ctx):
    return unramified_atom(ExactScalar.one(), ctx)


def steinberg(n, ctx):
    start = trivial_atom(ctx).twist(Fraction(1 - n, 2))
    return ClassData("Q", (Segment(start, n),))


def random_unram_atom(rng: random.Random, ctx):
    value = rng.choice(UNRAM_VALUE_POOL).shift(rng.choice(TWISTS))
    return unramified_atom(value, ctx)


def random_atom(rng: random.Random, registry, ctx, max_degree=6, unram_bias=0.4):
    if rng.random() < unram_bias:
        return random_unram_atom(rng, ctx)
    pool = [n for n in SYMBOLIC_NAMES if registry.resolve(n).degree <= max_degree]
    lab = registry.resolve(rng.choice(pool))
    return Atom(lab, rng.choice(TWISTS))


def random_class_data(rng: random.Random, registry, ctx, max_segments=3, max_degree=8):
    nseg = rng.randint(1, max_segments)
    segs = []
    total = 0
    for _ in range(nseg):
        atom = random_atom(rng, registry, ctx, max_degree=max_degree)
        max_m = max(1, (max_degree - total) // atom.degree)
        if max_m < 1:
            break
        m = rng.randint(1, min(3, max_m))
        segs.append(Segment(atom, m))
        total += atom.degree * m
        if total >= max_degree:
            break
    if not segs:
        segs = [Segment(trivial_atom(ctx), 1)]
    return ClassData("Q", tuple(segs))


def random_gaussian(rng: random.Random):
    return GaussianRational(
        Fraction(rng.randint(-6, 6), rng.randint(1, 5)),
        Fraction(rng.randint(-6, 6), rng.randint(1, 5)),
    )


def random_nonzero_scalar(rng: random.Random):
    while True:
        g = random_gaussian(rng)
        if not g.is_zero():
            return ExactScalar(g, rng.randint(-4, 4))


def names_reached(*start):
    """(function, name) for every name mentioned by the start functions and by
    every padicgl function they reach by name, in any padicgl module."""
    todo, seen = list(start), set()
    while todo:
        fn = todo.pop()
        if fn in seen:
            continue
        seen.add(fn)
        scope = vars(sys.modules[fn.__module__])
        for node in ast.walk(ast.parse(inspect.getsource(fn))):
            ident = getattr(node, "id", None) or getattr(node, "attr", None)
            if ident is None:
                continue
            yield fn.__name__, ident
            target = scope.get(ident) if isinstance(node, ast.Name) else None
            if inspect.isfunction(target) and target.__module__.startswith("padicgl."):
                todo.append(target)


def q_pow(ctx, k):
    """q^k as an exact rational, k any integer, under the library's power
    cap (once LocalFieldContext.q_pow)."""
    _refuse_power(ctx.f * log2(ctx.p), k, "q")
    if k >= 0:
        return Fraction(ctx.q ** k)
    return Fraction(1, ctx.q ** (-k))


def sqrt_q(ctx):
    """Integer square root of q when f is even, else None (once
    LocalFieldContext.sqrt_q)."""
    if ctx.f % 2 == 0:
        return ctx.p ** (ctx.f // 2)
    return None


def scale(x, r):
    """The Gaussian rational x times the rational r (once
    GaussianRational.scale)."""
    return _make(x._a * r.numerator, x._b * r.numerator, x._d * r.denominator)


def equals_one_by_square(x, ctx):
    """Reference for qexact.equals_one (its own formula before it compared
    canonical forms): c real and positive with c^2 = q^(-k)."""
    if x.c.im != 0 or x.c.re <= 0:
        return False
    return x.c.re * x.c.re == q_pow(ctx, -x.k)


def norm_is_one_by_comparison(x, ctx):
    """Reference for qexact.norm_is_one (the formula of the comparison of
    positive q-monomials it used before): |x|^2 = N(c) q^k is 1 iff
    N(c)^2 = q^(-2k), both sides squared to clear the half exponent."""
    n = x.c.norm_sq()
    return n * n == q_pow(ctx, -2 * x.k)


# References for the exponent arithmetic of qexact, which reads a
# half-integer once as the integer 2w: the formulas it used before, which
# read it as a Fraction and added p-valuations as Fractions.

def half_integer_by_fraction(value, what="exponent"):
    """value as a Fraction in (1/2)Z, or the library's refusal."""
    if isinstance(value, Fraction):
        x = value
    elif isinstance(value, int):
        x = Fraction(value)
    else:
        raise TypeError(f"cannot interpret {value!r} as an exact rational")
    if x.denominator > 2:
        raise ValueError(f"{what} must lie in (1/2)Z, got {x}")
    return x


def shift_by_fraction(x, w):
    """Reference for ExactScalar.shift."""
    w = half_integer_by_fraction(w)
    return ExactScalar(x.c, x.k + 2 * w.numerator // w.denominator)


def q_power_by_fraction(w):
    """Reference for ExactScalar.q_power."""
    return shift_by_fraction(ExactScalar(GaussianRational(Fraction(1)), 0), w)


def lfactor_shift_by_fraction(l, c):
    """Reference for LFactor.shift: (a, t) becomes (a q^(-t c), t)."""
    c = half_integer_by_fraction(c, "shift")
    return LFactor(tuple((shift_by_fraction(a, -t * c), t) for a, t in l.factors))


def as_q_power_by_fraction(x, ctx):
    """Reference for qexact.as_q_power: w = k/2 + v/f when c = p^v."""
    if x.c.im != 0 or x.c.re <= 0:
        return None
    r, v = x.c.re, 0
    while r.numerator % ctx.p == 0:
        r, v = r / ctx.p, v + 1
    while r.denominator % ctx.p == 0:
        r, v = r * ctx.p, v - 1
    if r != 1:
        return None
    w = Fraction(x.k, 2) + Fraction(v, ctx.f)
    return w if (2 * w).denominator == 1 else None


def equals_one_by_fraction(x, ctx):
    """Reference for qexact.equals_one: x = q^0."""
    return as_q_power_by_fraction(x, ctx) == 0


def pole_at_by_fraction(l, s0, ctx):
    """Reference for LFactor.pole_at: the factors with a q^(-t s0) = 1."""
    s0 = half_integer_by_fraction(s0, "s0")
    order = sum(1 for a, t in l.factors if equals_one_by_fraction(shift_by_fraction(a, -t * s0), ctx))
    return order >= 1, order


def scalars_equal_by_key(x, y, ctx):
    """Reference for qexact.scalars_equal on nonzero scalars (its formula
    before it divided): equal canonical keys."""
    return canonical_scalar_key(x, ctx) == canonical_scalar_key(y, ctx)


@dataclass(frozen=True)
class FractionPairGaussian:
    """Reference for qexact.GaussianRational: an element of Q(i) as a pair of
    Fractions (the library's class before it kept one integer triple)."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    @staticmethod
    def of(re, im=0) -> "FractionPairGaussian":
        return FractionPairGaussian(Fraction(re), Fraction(im))

    def __add__(self, other):
        return FractionPairGaussian(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return FractionPairGaussian(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return FractionPairGaussian(-self.re, -self.im)

    def __mul__(self, other):
        return FractionPairGaussian(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def norm_sq(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def inverse(self):
        n = self.norm_sq()
        if n == 0:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return FractionPairGaussian(self.re / n, -self.im / n)

    def __truediv__(self, other):
        return self * other.inverse()

    def power_height(self) -> float:
        """log2 of the growth per factor that the power cap charges."""
        nrm = self.norm_sq()
        return max(log2(max(nrm.numerator, nrm.denominator)) / 2,
                   log2(max(self.re.denominator, self.im.denominator)))

    def __pow__(self, n: int):
        if abs(n) > 1:
            height = self.power_height()
            _refuse_power(height, n, f"({height:.3g}-bit Gaussian rational)")
        if n < 0:
            return self.inverse() ** (-n)
        return power(self, n, FractionPairGaussian.__mul__, FractionPairGaussian.of(1))

    def scale(self, r):
        return FractionPairGaussian(self.re * r, self.im * r)

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            if self.im == 1:
                return "i"
            if self.im == -1:
                return "-i"
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        mag = abs(self.im)
        istr = "i" if mag == 1 else f"{mag}i"
        return f"{self.re}{sign}{istr}"


def canonical_key_by_fractions(c: FractionPairGaussian, k: int, ctx):
    """Reference for qexact.canonical_scalar_key of c * q^(k/2): the integral
    power of q, and for square q the root, scaled into c as Fractions."""
    a, r = divmod(k, 2)
    if a:
        c = c.scale(q_pow(ctx, a))
    if r and sqrt_q(ctx) is not None:
        c = c.scale(Fraction(sqrt_q(ctx)))
        r = 0
    return (c.re.numerator, c.re.denominator, c.im.numerator, c.im.denominator, r)


def rational_rank_by_fractions(mat):
    """Reference for weildeligne._rational_rank: Gaussian elimination over
    Fraction (what the oracle used before it eliminated fraction-free)."""
    rows = [[Fraction(x) for x in row] for row in mat if any(row)]
    ncols = len(rows[0]) if rows else 0
    rank = 0
    for col in range(ncols):
        sel = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if sel is None:
            continue
        rows[rank], rows[sel] = rows[sel], rows[rank]
        pivot = rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][col] != 0:
                factor = rows[i][col] / pivot[col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], pivot)]
        rank += 1
    return rank


def trial_division_irreducible(poly, p):
    """Reference irreducibility test over F_p: no monic divisor of degree
    <= n/2 (what the modulus search used before Rabin's test)."""
    for d in range(1, (len(poly) - 1) // 2 + 1):
        for divisor in _monic_polys(p, d):
            if not _poly_mod(poly, divisor, p):
                return False
    return True


def etale_height_by_iteration(mod):
    """Reference etale height: the residue rank of b <- A_V sigma^-1(b),
    iterated n times from b = A_V (what etale_inf_height did before it read
    the rank off v_power_matrix)."""
    ctx = mod.ctx
    field = ctx.carrier.residue
    n = mod.n

    def sigma_inv(a):
        for _ in range(ctx.s - 1):
            a = field.pow(a, ctx.q)
        return a

    a_bar = [[ctx.carrier.reduce_mod_p(e) for e in row] for row in mod.v_matrix]
    b = a_bar
    for _ in range(n):
        b = [[field.dot(zip(a_bar[i], [sigma_inv(b[k][j]) for k in range(n)])) for j in range(n)]
             for i in range(n)]
    rows = [list(r) for r in b]
    rank = 0
    for col in range(n):
        pivot = next((i for i in range(rank, n) if any(rows[i][col])), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = field.inv_unit(rows[rank][col])
        rows[rank] = [field.mul(x, inv) for x in rows[rank]]
        for i in range(n):
            if i != rank and any(rows[i][col]):
                c = rows[i][col]
                rows[i] = [field.sub(x, field.mul(c, y)) for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank, n - rank


def v_power_by_iteration(mod, k):
    """Reference V^k: A_V sigma^-1(A_V) ... sigma^-(k-1)(A_V), one product per
    step (what v_power_matrix did before square-and-multiply)."""
    ctx = mod.ctx
    carrier = ctx.carrier
    if k == 0:
        return tuple(tuple(carrier.one() if i == j else carrier.zero() for j in range(mod.n))
                     for i in range(mod.n))
    acc = mod.v_matrix
    for i in range(1, k):
        twisted = [[ctx.sigma(e, -i) for e in row] for row in mod.v_matrix]
        acc = tuple(tuple(carrier.dot((acc[r][t], twisted[t][c]) for t in range(mod.n))
                          for c in range(mod.n)) for r in range(mod.n))
    return acc


def schoolbook_dot(carrier, pairs):
    """Reference carrier dot product: the m^2 coefficient products of each
    pair added, then the sum reduced mod (p^N, F) one degree at a time from
    the top (what UnramWittCarrier.dot did before it packed its factors)."""
    m, pN = carrier.m, carrier.pN
    prod = [0] * (2 * m - 1)
    for a, b in pairs:
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b, i):
                    prod[j] += ai * bj
    for i in range(2 * m - 2, m - 1, -1):
        c = prod[i] % pN
        if c:
            for j, low in enumerate(carrier.modulus_low, i - m):
                prod[j] -= c * low
    return tuple([c % pN for c in prod[:m]])


@st.composite
def carriers_under_any_modulus(draw):
    """(Z/p^N)[x]/(F) with p^N up to 2^500, degree m from 1 to 40 and F any
    monic digit polynomial: products and their reduction are exact for
    every monic F, irreducible or not."""
    p = draw(st.sampled_from((2, 3, 1000003)))
    top = int(500 / log2(p))
    precision = draw(st.sampled_from((1, top)) | st.integers(1, top))
    m = draw(st.sampled_from((1, 40)) | st.integers(1, 40))
    low = draw(st.lists(st.integers(0, p - 1), min_size=m, max_size=m))
    return UnramWittCarrier(p, m, precision, tuple(low) + (1,))


def any_coefficients(carrier):
    """Coefficient tuples of any integers: each 0, p^N - 1, negative or past
    p^N, or all p^N - 1, the largest slots a packed product can form."""
    pN, m = carrier.pN, carrier.m
    coeff = st.sampled_from((0, pN - 1, pN, -1)) | st.integers(-pN * pN, pN * pN)
    return st.just((pN - 1,) * m) | st.tuples(*[coeff] * m)


def leibniz_det(carrier, mat):
    """Reference determinant over a carrier ring: the sum over all n!
    permutations (what the reduced norm used before the division-free
    determinant), multiplying by :func:`schoolbook_dot`."""
    n = len(mat)
    det = carrier.zero()
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = carrier.one()
        for i in range(n):
            term = schoolbook_dot(carrier, [(term, mat[i][perm[i]])])
        det = carrier.add(det, carrier.neg(term) if inversions % 2 else term)
    return det


# The universal Witt laws, each (p, n) solved once per test session: the
# library keeps no cache of them, since no runtime path reads them.
universal_laws = functools.cache(universal_polynomials)


def from_int_by_doubling(ctx, value):
    """Reference image of an integer in W_n(R): double-and-add, O(log |value|)
    Witt additions and, for a negative value, one negation (what
    WittContext.from_int did before it solved the ghost equations)."""
    out = ctx.zero()
    power = ctx.one()  # 2^k for the bit k of |value| being read
    count = abs(value)
    while count:
        if count & 1:
            out = out + power
        count >>= 1
        if count:
            power = power + power
    return -out if value < 0 else out


def teichmuller_by_iteration(carrier, res):
    """Reference Teichmuller lift: the fixed point of z -> z^(p^m) from the
    lift of res, each step exact to one more p-adic digit."""
    z, size = carrier.element(list(res)), carrier.p ** carrier.m
    for _ in range(carrier.precision + 1):
        nz = carrier.pow(z, size)
        if nz == z:
            return z
        z = nz
    raise ArithmeticError("Teichmuller lift did not converge")


def inverse_at_full_precision(carrier, a):
    """Reference unit inverse: a^(p^m - 2) formed at full precision, then one
    Newton step z <- z(2 - a z) more than doubling from p^1 needs."""
    z = carrier.pow(a, carrier.p ** carrier.m - 2)
    two = carrier.from_int(2)
    for _ in range(max(1, (carrier.precision - 1).bit_length() + 1)):
        z = carrier.mul(z, carrier.sub(two, carrier.mul(a, z)))
    return z


def mat_mul_by_triple_loop(ctx, a, b):
    """Reference matrix product over the carrier: for every (i, k, j) with
    a[i][k] and b[k][j] nonzero, one reduced product added to the entry
    (what cyclicalg._mat_mul did before it formed each entry as one dot)."""
    carrier = ctx.carrier
    out = [[carrier.zero()] * len(b[0]) for _ in a]
    for i, row in enumerate(a):
        for k, x in enumerate(row):
            if carrier.is_zero(x):
                continue
            for j, y in enumerate(b[k]):
                if not carrier.is_zero(y):
                    out[i][j] = carrier.add(out[i][j], carrier.mul(x, y))
    return tuple(tuple(row) for row in out)


def frobenius_root_by_full_inversions(carrier, q):
    """Reference sigma_K(x): Newton's iteration for a root of F from x^q,
    with a full inversion of F'(root) in every step, up to
    (N - 1).bit_length() + 2 steps and an exit once F(root) = 0 (what
    UnramifiedContext did before it carried the inverse along)."""
    coeffs = carrier.modulus_low + (1,)

    def evaluate(poly, y):
        acc = carrier.zero()
        for c in reversed(poly):  # Horner
            acc = carrier.add(carrier.mul(acc, y), carrier.from_int(c))
        return acc

    derivative = [i * c for i, c in enumerate(coeffs)][1:]
    root = carrier.pow(carrier.gen(), q)
    for _ in range(max(1, (carrier.precision - 1).bit_length() + 2)):
        fy = evaluate(coeffs, root)
        if carrier.is_zero(fy):
            break
        root = carrier.sub(root, carrier.mul(fy, carrier.inv_unit(evaluate(derivative, root))))
    if not carrier.is_zero(evaluate(coeffs, root)):
        raise ArithmeticError("Frobenius lift did not converge")
    return root


def sigma_by_power_matrices(ctx, a, power):
    """Reference sigma_K^power for j = power mod s: the matrix of sigma_K^j,
    whose column c is img_j^c for img_j = sigma_K^j(x), applied to a (0
    and 1 included); img_j is img_(j-1) through the matrix of sigma_K,
    whose column c is root^c for the root frobenius_root_by_full_inversions
    finds (what UnramifiedContext did before it kept sigma_K's matrix alone)."""
    carrier = ctx.carrier

    def matrix(img):
        powers = [carrier.one()]
        while len(powers) < carrier.m:
            powers.append(carrier.mul(powers[-1], img))
        return tuple(zip(*powers))

    def apply(mat, b):
        return tuple(sum(c * e for c, e in zip(b, row)) % carrier.pN for row in mat)

    j = power % ctx.s
    if j == 0:
        return a
    first, img = matrix(frobenius_root_by_full_inversions(carrier, ctx.q)), carrier.gen()
    for _ in range(j):
        img = apply(first, img)
    return apply(matrix(img), a)
