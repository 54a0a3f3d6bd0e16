"""Truncated p-typical Witt vectors over exact coefficient rings.

The ring laws are the universal ones: sum, product, negation and Frobenius
polynomials are generated once per (p, N) over the rationals by solving
the ghost recursion, checked to have integral coefficients, and then
specialized into whatever coefficient ring is in play.  Over rings where p
is invertible the ghost transform gives an independent second route, which
the tests play against the universal one.

Conventions for truncated length N: vectors always carry N coordinates;
Verschiebung shifts right and drops the top coordinate, and Frobenius uses
the canonical zero-extension for its top coordinate (exact in
characteristic p; over other rings the identity sigma tau = p id therefore
holds on the first N-1 coordinates, while the remaining relations are
exact at full length).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .qexact import _is_prime


# ---------------------------------------------------------------------------
# coefficient rings


class RationalField:
    name = "Q"

    def characteristic(self) -> int:
        return 0

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def from_int(self, n: int):
        return Fraction(n)

    def coerce(self, v):
        if isinstance(v, Fraction):
            return v
        if isinstance(v, int):
            return Fraction(v)
        if isinstance(v, str):
            return Fraction(v)
        raise TypeError(f"cannot coerce {v!r} into Q")

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def pow(self, a, e: int):
        return a ** e

    def p_unit_inverse(self, p: int):
        return Fraction(1, p)


class IntegerRing:
    name = "Z"

    def characteristic(self) -> int:
        return 0

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n: int):
        return n

    def coerce(self, v):
        if isinstance(v, int):
            return v
        raise TypeError(f"cannot coerce {v!r} into Z")

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def pow(self, a, e: int):
        return a ** e

    def p_unit_inverse(self, p: int):
        return None


class ModRing:
    def __init__(self, m: int):
        if m < 2:
            raise ValueError("modulus must be >= 2")
        self.m = m
        self.name = f"Z/{m}"

    def characteristic(self) -> int:
        return self.m

    def zero(self):
        return 0

    def one(self):
        return 1 % self.m

    def from_int(self, n: int):
        return n % self.m

    def coerce(self, v):
        if isinstance(v, int):
            return v % self.m
        raise TypeError(f"cannot coerce {v!r} into {self.name}")

    def add(self, a, b):
        return (a + b) % self.m

    def sub(self, a, b):
        return (a - b) % self.m

    def neg(self, a):
        return (-a) % self.m

    def mul(self, a, b):
        return (a * b) % self.m

    def pow(self, a, e: int):
        return pow(a, e, self.m)

    def p_unit_inverse(self, p: int):
        try:
            return pow(p, -1, self.m)
        except ValueError:
            return None


def _poly_mul_mod(a: Tuple[int, ...], b: Tuple[int, ...], modulus: Tuple[int, ...], p: int) -> Tuple[int, ...]:
    """Multiply coefficient tuples over F_p modulo a monic modulus."""
    r = len(modulus) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    # reduce: x^r = -(modulus without leading term)
    for i in range(len(prod) - 1, r - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            for j in range(r):
                prod[i - r + j] = (prod[i - r + j] - c * modulus[j]) % p
    out = prod[:r] + [0] * max(0, r - len(prod))
    return tuple(out[:r])


def _poly_divmod(a: List[int], b: List[int], p: int) -> Tuple[List[int], List[int]]:
    a = a[:]
    out = [0] * max(0, len(a) - len(b) + 1)
    inv_lead = pow(b[-1], -1, p)
    for i in range(len(a) - len(b), -1, -1):
        c = (a[i + len(b) - 1] * inv_lead) % p
        out[i] = c
        if c:
            for j, bj in enumerate(b):
                a[i + j] = (a[i + j] - c * bj) % p
    while a and a[-1] == 0:
        a.pop()
    return out, a


def _is_irreducible(poly: List[int], p: int) -> bool:
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for divisor in _monic_polys(p, d):
            _, rem = _poly_divmod(poly, divisor, p)
            if not rem:
                return False
    return True


def _monic_polys(p: int, deg: int):
    coeffs = [0] * deg
    while True:
        yield coeffs + [1]
        i = 0
        while i < deg:
            coeffs[i] += 1
            if coeffs[i] < p:
                break
            coeffs[i] = 0
            i += 1
        else:
            return


def find_irreducible(p: int, r: int) -> Tuple[int, ...]:
    """Deterministic search: first monic irreducible of degree r over F_p in
    lexicographic order of the lower coefficients."""
    if r == 1:
        return (0, 1)
    for poly in _monic_polys(p, r):
        if poly[0] != 0 and _is_irreducible(poly, p):
            return tuple(poly)
    raise RuntimeError("unreachable: irreducible polynomial exists")


class GFRing:
    """F_{p^r} as F_p[x]/(modulus); elements are coefficient tuples."""

    def __init__(self, p: int, r: int, modulus: Optional[Tuple[int, ...]] = None):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        if r < 1:
            raise ValueError("extension degree must be >= 1")
        self.p = p
        self.r = r
        self.modulus = tuple(modulus) if modulus is not None else find_irreducible(p, r)
        if len(self.modulus) != r + 1 or self.modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree r")
        self.name = f"F_{p**r}"
        self.size = p ** r
        self._log: Optional[Dict[Tuple[int, ...], int]] = None
        self._exp: Optional[List[Tuple[int, ...]]] = None
        if self.size <= 1024:
            self._build_log_tables()

    def _build_log_tables(self):
        # enumerate elements and find a multiplicative generator
        order = self.size - 1
        for seed in self._all_elements():
            if all(v == 0 for v in seed):
                continue
            exps: List[Tuple[int, ...]] = [self.one()]
            cur = self.one()
            ok = True
            for _ in range(order - 1):
                cur = self.mul(cur, seed)
                if cur == self.one():
                    ok = False
                    break
                exps.append(cur)
            if ok and self.mul(cur, seed) == self.one():
                self._exp = exps
                self._log = {e: i for i, e in enumerate(exps)}
                return
        raise RuntimeError("no generator found in a finite field")

    def _all_elements(self):
        coords = [0] * self.r
        while True:
            yield tuple(coords)
            i = 0
            while i < self.r:
                coords[i] += 1
                if coords[i] < self.p:
                    break
                coords[i] = 0
                i += 1
            else:
                return

    def characteristic(self) -> int:
        return self.p

    def zero(self):
        return (0,) * self.r

    def one(self):
        return (1 % self.p,) + (0,) * (self.r - 1)

    def from_int(self, n: int):
        return (n % self.p,) + (0,) * (self.r - 1)

    def element(self, coeffs: Sequence[int]):
        coeffs = list(coeffs)
        if len(coeffs) > self.r:
            raise ValueError("too many coefficients")
        coeffs += [0] * (self.r - len(coeffs))
        return tuple(c % self.p for c in coeffs)

    def coerce(self, v):
        if isinstance(v, int):
            return self.from_int(v)
        if isinstance(v, (tuple, list)):
            return self.element(v)
        raise TypeError(f"cannot coerce {v!r} into {self.name}")

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        return tuple((-x) % self.p for x in a)

    def mul(self, a, b):
        return _poly_mul_mod(a, b, self.modulus, self.p)

    def pow(self, a, e: int):
        if e < 0:
            return self.pow(self.inverse(a), -e)
        if self._log is not None and any(a):
            return self._exp[(self._log[a] * e) % (self.size - 1)]
        out = self.one()
        base = a
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def inverse(self, a):
        if not any(a):
            raise ZeroDivisionError("inverse of zero field element")
        return self.pow(a, self.size - 2)

    def p_unit_inverse(self, p: int):
        return None


# ---------------------------------------------------------------------------
# universal polynomials over Q


class MPoly:
    """Sparse multivariate polynomial over Q: {exponent tuple: coefficient}."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Optional[Dict[Tuple[int, ...], Fraction]] = None):
        self.nvars = nvars
        self.terms = terms or {}

    @staticmethod
    def const(nvars: int, c: Fraction) -> "MPoly":
        if c == 0:
            return MPoly(nvars)
        return MPoly(nvars, {(0,) * nvars: Fraction(c)})

    @staticmethod
    def var(nvars: int, i: int) -> "MPoly":
        e = [0] * nvars
        e[i] = 1
        return MPoly(nvars, {tuple(e): Fraction(1)})

    def copy_terms(self) -> Dict[Tuple[int, ...], Fraction]:
        return dict(self.terms)

    def __add__(self, other: "MPoly") -> "MPoly":
        terms = self.copy_terms()
        for e, c in other.terms.items():
            nc = terms.get(e, Fraction(0)) + c
            if nc:
                terms[e] = nc
            else:
                terms.pop(e, None)
        return MPoly(self.nvars, terms)

    def __sub__(self, other: "MPoly") -> "MPoly":
        return self + other.scale(Fraction(-1))

    def scale(self, c: Fraction) -> "MPoly":
        if c == 0:
            return MPoly(self.nvars)
        return MPoly(self.nvars, {e: coeff * c for e, coeff in self.terms.items()})

    def __mul__(self, other: "MPoly") -> "MPoly":
        terms: Dict[Tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                nc = terms.get(e, Fraction(0)) + c1 * c2
                if nc:
                    terms[e] = nc
                else:
                    terms.pop(e, None)
        return MPoly(self.nvars, terms)

    def pow(self, n: int) -> "MPoly":
        out = MPoly.const(self.nvars, Fraction(1))
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.terms.values())

    def evaluate(self, ring, values: Sequence):
        """Specialize into an arbitrary ring; coefficients must be integers."""
        acc = ring.zero()
        power_cache: Dict[Tuple[int, int], object] = {}
        for exps, coeff in self.terms.items():
            term = ring.from_int(coeff.numerator)
            for i, e in enumerate(exps):
                if e == 0:
                    continue
                key = (i, e)
                pw = power_cache.get(key)
                if pw is None:
                    pw = ring.pow(values[i], e)
                    power_cache[key] = pw
                term = ring.mul(term, pw)
            acc = ring.add(acc, term)
        return acc


def _ghost_poly(nvars: int, offset: int, n: int, p: int) -> MPoly:
    """w_n in the variables offset..offset+n."""
    out = MPoly(nvars)
    for i in range(n + 1):
        out = out + MPoly.var(nvars, offset + i).pow(p ** (n - i)).scale(Fraction(p ** i))
    return out


_UNIVERSAL_CACHE: Dict[Tuple[int, int], Dict[str, List[MPoly]]] = {}


def universal_polynomials(p: int, n: int) -> Dict[str, List[MPoly]]:
    """Sum, product, negation and Frobenius laws for W_n, solved over Q from
    the ghost recursion and verified integral before use."""
    key = (p, n)
    cached = _UNIVERSAL_CACHE.get(key)
    if cached is not None:
        return cached

    nv2 = 2 * n
    sums: List[MPoly] = []
    prods: List[MPoly] = []
    negs: List[MPoly] = []
    for m in range(n):
        wx = _ghost_poly(nv2, 0, m, p)
        wy = _ghost_poly(nv2, n, m, p)
        target_sum = wx + wy
        target_prod = wx * wy
        target_neg = wx.scale(Fraction(-1))
        for seq, target in ((sums, target_sum), (prods, target_prod), (negs, target_neg)):
            acc = target
            for i in range(m):
                acc = acc - seq[i].pow(p ** (m - i)).scale(Fraction(p ** i))
            poly = acc.scale(Fraction(1, p ** m))
            if not poly.is_integral():
                raise RuntimeError(f"universal law for W_{n} at p={p} is not integral")
            seq.append(poly)

    nv1 = n + 1
    frobs: List[MPoly] = []
    for m in range(n):
        acc = _ghost_poly(nv1, 0, m + 1, p)
        for i in range(m):
            acc = acc - frobs[i].pow(p ** (m - i)).scale(Fraction(p ** i))
        poly = acc.scale(Fraction(1, p ** m))
        if not poly.is_integral():
            raise RuntimeError(f"universal Frobenius for W_{n} at p={p} is not integral")
        frobs.append(poly)

    out = {"sum": sums, "prod": prods, "neg": negs, "frob": frobs}
    _UNIVERSAL_CACHE[key] = out
    return out


# ---------------------------------------------------------------------------
# Witt vectors


@dataclass(frozen=True)
class WittContext:
    ring: object
    p: int
    n: int

    def __post_init__(self):
        if not _is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if self.n < 1:
            raise ValueError("truncation length must be >= 1")

    def vector(self, coords: Sequence) -> "WittVector":
        coords = tuple(self.ring.coerce(c) for c in coords)
        if len(coords) != self.n:
            raise ValueError(f"expected {self.n} coordinates, got {len(coords)}")
        return WittVector(self, coords)

    def zero(self) -> "WittVector":
        return WittVector(self, (self.ring.zero(),) * self.n)

    def one(self) -> "WittVector":
        return WittVector(self, (self.ring.one(),) + (self.ring.zero(),) * (self.n - 1))

    def from_int(self, value: int) -> "WittVector":
        """Image of an integer under the unique ring map Z -> W_n(R), by
        double-and-add: O(log |value|) Witt additions and, for a negative
        value, one negation."""
        out = self.zero()
        power = self.one()  # 2^k for the bit k of |value| being read
        count = abs(value)
        while count:
            if count & 1:
                out = out + power
            count >>= 1
            if count:
                power = power + power
        return -out if value < 0 else out

    def _p_invertible(self) -> bool:
        return self.ring.p_unit_inverse(self.p) is not None


@dataclass(frozen=True)
class WittVector:
    ctx: WittContext
    coords: Tuple

    def _binary(self, other: "WittVector", law: str) -> "WittVector":
        if other.ctx is not self.ctx and other.ctx != self.ctx:
            raise ValueError("Witt vectors from different contexts")
        ctx = self.ctx
        if ctx._p_invertible():
            ga = ghost(self)
            gb = ghost(other)
            ring = ctx.ring
            if law == "sum":
                gc = [ring.add(a, b) for a, b in zip(ga, gb)]
            else:
                gc = [ring.mul(a, b) for a, b in zip(ga, gb)]
            return ghost_inverse(ctx, gc)
        polys = universal_polynomials(ctx.p, ctx.n)[law]
        values = list(self.coords) + list(other.coords)
        return WittVector(ctx, tuple(poly.evaluate(ctx.ring, values) for poly in polys))

    def __add__(self, other: "WittVector") -> "WittVector":
        return self._binary(other, "sum")

    def __mul__(self, other: "WittVector") -> "WittVector":
        return self._binary(other, "prod")

    def __neg__(self) -> "WittVector":
        ctx = self.ctx
        if ctx._p_invertible():
            ring = ctx.ring
            return ghost_inverse(ctx, [ring.neg(a) for a in ghost(self)])
        polys = universal_polynomials(ctx.p, ctx.n)["neg"]
        values = list(self.coords) + [ctx.ring.zero()] * ctx.n
        return WittVector(ctx, tuple(poly.evaluate(ctx.ring, values) for poly in polys))

    def __sub__(self, other: "WittVector") -> "WittVector":
        return self + (-other)

    def __eq__(self, other) -> bool:
        return isinstance(other, WittVector) and self.coords == other.coords and self.ctx == other.ctx

    def __hash__(self):
        return hash(self.coords)


def witt_polynomial(p: int, n: int, values: Sequence, ring) -> object:
    """w_n(x_0, ..., x_n) = x_0^(p^n) + p x_1^(p^(n-1)) + ... + p^n x_n."""
    if n < 0 or n >= len(values):
        raise ValueError("witt polynomial index out of range")
    acc = ring.zero()
    for i in range(n + 1):
        term = ring.mul(ring.from_int(p ** i), ring.pow(values[i], p ** (n - i)))
        acc = ring.add(acc, term)
    return acc


def ghost(x: WittVector) -> List:
    ring = x.ctx.ring
    return [witt_polynomial(x.ctx.p, m, x.coords[: m + 1], ring) for m in range(x.ctx.n)]


def ghost_inverse(ctx: WittContext, components: Sequence) -> WittVector:
    """Triangular solve of the ghost equations; requires p invertible."""
    ring = ctx.ring
    pinv = ring.p_unit_inverse(ctx.p)
    if pinv is None:
        raise ValueError(f"p = {ctx.p} is not invertible in {getattr(ring, 'name', ring)}")
    if len(components) != ctx.n:
        raise ValueError("ghost component count mismatch")
    coords: List = []
    for m in range(ctx.n):
        acc = components[m]
        for i in range(m):
            acc = ring.sub(acc, ring.mul(ring.from_int(ctx.p ** i), ring.pow(coords[i], ctx.p ** (m - i))))
        coords.append(ring.mul(acc, ring.pow(pinv, m)))
    return WittVector(ctx, tuple(coords))


def verschiebung(x: WittVector) -> WittVector:
    """tau: shift right, dropping the top coordinate."""
    ctx = x.ctx
    return WittVector(ctx, (ctx.ring.zero(),) + x.coords[: ctx.n - 1])


def frobenius(x: WittVector) -> WittVector:
    """sigma: coordinatewise p-th powers in characteristic p, otherwise the
    universal Frobenius polynomials with zero-extended top coordinate."""
    ctx = x.ctx
    ring = ctx.ring
    char = ring.characteristic()
    if char == ctx.p:
        return WittVector(ctx, tuple(ring.pow(c, ctx.p) for c in x.coords))
    if char != 0 and char % ctx.p == 0:
        m = char
        while m % ctx.p == 0:
            m //= ctx.p
        if m != 1:
            raise ValueError(
                f"frobenius unsupported over {getattr(ring, 'name', ring)}: "
                f"p divides the characteristic, which is not a power of p"
            )
    polys = universal_polynomials(ctx.p, ctx.n)["frob"]
    values = list(x.coords) + [ring.zero()]
    return WittVector(ctx, tuple(poly.evaluate(ring, values) for poly in polys))
