"""Truncated p-typical Witt vectors over exact coefficient rings.

The ring laws have integer coefficients, so each law can be computed
wherever it is cheapest and mapped back.  A :class:`WittContext` fixes one
of two routes per coefficient ring R:

* F_{p^r}: the Teichmuller bridge W_n(F_{p^r}) = (Z/p^n)[x]/(F) of
  :class:`UnramWittCarrier` and its inverse, with the operation done in the
  carrier.  The carrier's lifts from the residue field F_{p^r}, the
  Teichmuller lift and the inverse of a unit, each start with a power in
  F_{p^r} and then take only the steps the precision n fixes.  Its
  products are Kronecker-packed (:class:`_Packing`): each factor is one
  integer with a slot of w bits per coefficient, a sum of products is a
  sum of integer products, and it is reduced mod (p^n, F) once, where a
  part h x^r at and above the degree becomes h (x^r mod F), again one
  integer product.  w is chosen from a bound on every slot the sum and
  the reduction form, so no slot carries into the next.
* Z, Z/m and Q: the coordinates lifted to Z, the ghost computation over Z
  with exact division by p^m (the ghost map is injective on the
  p-torsion-free Z), and the result mapped back into R.  For Z/m, for every
  m, this is done mod m p^(n-1): the ghost components are exact there, so
  the solve fixes coordinate k mod m p^(n-1-k), hence in Z/m.  Q is scaled
  into Z by [D]x = (D^(p^i) x_i), D the lcm of the denominators; since
  [a][b] = [ab] and F[D] = [D^p], x + y = [D]^-1([D]x + [D]y),
  xy = [D^2]^-1([D]x [D]y) and F(x) = [D^p]^-1 F([D]x).

Frobenius is coordinatewise p-th powers in characteristic p, and otherwise
the lift route on the ghost of the zero-extended vector.  :func:`_solve` is
the one solve of w_m(x) = c_m: the lift route divides by p^m exactly,
:func:`ghost_inverse` multiplies by p^-m in R (p must be a unit there), and
``from_int(k)`` solves for the ghost components (k, ..., k), except over
F_{p^r}, where it reads k through the bridge.  Over Z and Q an operation is
refused before it forms an integer beyond :data:`WITT_BITS_CAP`, and every
W_n whose numbers would pass :data:`WITT_MODULUS_BITS_CAP` is refused
before any work.
:func:`universal_polynomials` runs the same solve symbolically over Q; no
runtime path evaluates them (their size grows exponentially with n), so
nothing keeps them, and the tests use them as the reference the routes
are checked against.

Conventions for truncated length N: vectors always carry N coordinates;
Verschiebung shifts right and drops the top coordinate, and Frobenius uses
the canonical zero-extension for its top coordinate (exact in
characteristic p; over other rings the identity sigma tau = p id therefore
holds on the first N-1 coordinates, while the remaining relations are
exact at full length).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, log2
from typing import Dict, List, Optional, Sequence, Tuple

from .common import Value, is_prime, power, setfield

Element = Tuple[int, ...]


# ---------------------------------------------------------------------------
# coefficient rings


class _NumberRing:
    """Z or Q: Python's own operators on int or Fraction elements."""

    def characteristic(self) -> int:
        return 0

    def zero(self):
        return self.from_int(0)

    def one(self):
        return self.from_int(1)

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


class RationalField(_NumberRing):
    name = "Q"

    def from_int(self, n: int):
        return Fraction(n)

    def coerce(self, v):
        if isinstance(v, (Fraction, int, str)):
            return Fraction(v)
        raise TypeError(f"cannot coerce {v!r} into Q")


class IntegerRing(_NumberRing):
    name = "Z"

    def from_int(self, n: int):
        return n

    def coerce(self, v):
        if isinstance(v, int):
            return v
        raise TypeError(f"cannot coerce {v!r} into Z")


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


def _poly_mod(a: List[int], b: List[int], p: int) -> List[int]:
    """a mod b over F_p, for coefficient lists (lowest degree first, no
    trailing zeros; [] is zero)."""
    a = a[:]
    inv_lead = pow(b[-1], -1, p)
    for i in range(len(a) - len(b), -1, -1):
        c = (a[i + len(b) - 1] * inv_lead) % p
        if c:
            for j, bj in enumerate(b):
                a[i + j] = (a[i + j] - c * bj) % p
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_gcd(a: List[int], b: List[int], p: int) -> List[int]:
    while b:
        a, b = b, _poly_mod(a, b, p)
    return a


def _is_irreducible(poly: List[int], p: int) -> bool:
    """Ben-Or's test (FOCS 1981): a monic f of degree n is irreducible over
    F_p iff gcd(f, x^(p^i) - x) = 1 for i = 1 .. n // 2, since a reducible f
    has an irreducible factor of some degree i <= n // 2, and that factor
    divides x^(p^i) - x.  A reducible f is rejected at its smallest factor."""
    n = len(poly) - 1
    ring = UnramWittCarrier(p, n, 1, tuple(poly))
    x = h = ring.gen()
    for _ in range(n // 2):
        h = ring.pow(h, p)
        d = list(ring.sub(h, x))
        while d and d[-1] == 0:
            d.pop()
        if len(_poly_gcd(poly, d, p)) != 1:
            return False
    return True


def _monic_polys(p: int, deg: int, start: int = 0):
    """Monic polynomials of degree deg, in find_irreducible's order, from the start-th."""
    coeffs = [start // p ** i % p for i in range(deg)]
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
    lexicographic order of the lower coefficients.  The first p candidates
    are the binomials x^r + c; by Serret's theorem (Lidl-Niederreiter, Thm
    3.75) one of them is irreducible iff every prime factor of r divides
    p - 1, and p = 1 mod 4 when 4 | r.  Otherwise the search starts past them."""
    if r == 1:
        return (0, 1)
    binomials = pow(p - 1, r, r) == 0 and (r % 4 != 0 or p % 4 == 1)
    for poly in _monic_polys(p, r, 0 if binomials else p):
        if poly[0] != 0 and _is_irreducible(poly, p):
            return tuple(poly)
    raise RuntimeError("unreachable: irreducible polynomial exists")


#: The largest extension degree m of a carrier: one product is an integer
#: product of m slots and a reduction of m - 1 slots, and sigma_K is one
#: m x m matrix, built from m - 1 products, whose application to an
#: element that is not a constant takes m^2 coefficient products.  It also
#: bounds the modulus search: at most 4.7 s in the README sweep.
CARRIER_DEGREE_CAP = 40


class UnramWittCarrier:
    """(Z/p^N)[x]/(F): exact arithmetic in W_N(F_{p^m}).  F is a monic lift
    with digit coefficients of the irreducible ``modulus_fp`` over F_p; at
    N = 1 this is the finite field F_{p^m} itself (:class:`GFRing`).  It is
    the ring and its Teichmuller bridge only; sigma_K lives in cyclicalg."""

    def __init__(self, p: int, m: int, precision: int, modulus_fp: Optional[Tuple[int, ...]] = None):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if m < 1:
            raise ValueError("extension degree must be >= 1")
        if m > CARRIER_DEGREE_CAP:
            raise ValueError(f"extension degree {m} passes the cap of {CARRIER_DEGREE_CAP}")
        if precision < 1:
            raise ValueError("precision must be >= 1")
        self.p = p
        self.m = m
        self.precision = precision
        self.pN = p ** precision
        self.modulus_fp = tuple(modulus_fp) if modulus_fp is not None else find_irreducible(p, m)
        if len(self.modulus_fp) != m + 1 or self.modulus_fp[-1] != 1:
            raise ValueError("modulus must be monic of degree m")
        self.name = f"F_{p ** m}" if precision == 1 else f"W_{precision}(F_{p ** m})"
        self.residue = self if precision == 1 else GFRing(p, m, self.modulus_fp)
        # monic lift with digit coefficients; only the lower part is stored
        self.modulus_low = tuple(c % p for c in self.modulus_fp[:m])
        self._one = (1 % self.pN,) + (0,) * (m - 1)  # built once: pow passes it on every call
        self._teichmuller: Dict[Element, Element] = {}
        # the largest slot of one product of packed reduced elements, and
        # the most that _Packing.reduce adds to a slot: at most m - 1
        # rounds, each adding (p^N - 1)^2 per nonzero digit of F
        self._product_bound = m * (self.pN - 1) ** 2
        self._reduction_bound = (m - 1) * sum(map(bool, self.modulus_low)) * (self.pN - 1) ** 2
        self._packings: Dict[int, _Packing] = {}
        self._mul_packing = self._packing(self._product_bound)

    # -- basic ring structure ------------------------------------------------

    def characteristic(self) -> int:
        return self.pN

    def zero(self) -> Element:
        return (0,) * self.m

    def one(self) -> Element:
        return self._one

    def from_int(self, n: int) -> Element:
        return (n % self.pN,) + (0,) * (self.m - 1)

    def element(self, coeffs: Sequence[int]) -> Element:
        coeffs = list(coeffs)
        if len(coeffs) > self.m:
            raise ValueError("too many coefficients")
        coeffs += [0] * (self.m - len(coeffs))
        return tuple(c % self.pN for c in coeffs)

    def coerce(self, v) -> Element:
        if isinstance(v, int):
            return self.from_int(v)
        if isinstance(v, (tuple, list)):
            return self.element(v)
        raise TypeError(f"cannot coerce {v!r} into {self.name}")

    def gen(self) -> Element:
        if self.m == 1:
            # x is a root of the degree-1 modulus: x = -c0
            return self.from_int(-self.modulus_low[0])
        return self.element([0, 1])

    def add(self, a: Element, b: Element) -> Element:
        return tuple((x + y) % self.pN for x, y in zip(a, b))

    def sub(self, a: Element, b: Element) -> Element:
        return tuple((x - y) % self.pN for x, y in zip(a, b))

    def neg(self, a: Element) -> Element:
        return tuple((-x) % self.pN for x in a)

    def mul(self, a: Element, b: Element) -> Element:
        """a * b: :meth:`dot` of the one pair, without the pair list (most
        products are single, and at degree m <= 3 that list cost more than
        the product)."""
        packing = self._mul_packing
        return tuple(packing.reduce(packing.pack(a) * packing.pack(b)))

    def _packing(self, bound: int) -> "_Packing":
        """The packing, memoised by width, for sums of packed products
        whose slots are at most bound: its slots also hold a reduced
        coefficient, and bound plus what :meth:`_Packing.reduce` adds."""
        width = max(bound + self._reduction_bound, self.pN - 1).bit_length()
        packing = self._packings.get(width)
        if packing is None:
            packing = self._packings[width] = _Packing(self, width)
        return packing

    def dot(self, pairs) -> Element:
        """sum of a * b over the (a, b) pairs, reduced mod (p^N, F) once.
        Each factor is packed with its coefficients read mod p^N (any
        integers are accepted), so a slot of one product is at most
        m (p^N - 1)^2 and a slot of the sum at most len(pairs) times that;
        the packing is chosen for that bound, so no slot carries into the
        next (:class:`_Packing`)."""
        pairs = list(pairs)
        packing = self._packing(len(pairs) * self._product_bound)
        pack = packing.pack
        return tuple(packing.reduce(sum([pack(a) * pack(b) for a, b in pairs])))

    def scalar_mul(self, n: int, a: Element) -> Element:
        return tuple((n * x) % self.pN for x in a)

    def pow(self, a: Element, e: int) -> Element:
        if e < 0:
            return self.pow(self.inv_unit(a), -e)
        return power(a, e, self.mul, self.one())

    def is_zero(self, a: Element) -> bool:
        return all(c == 0 for c in a)

    # -- valuation and units -------------------------------------------------

    def valuation(self, a: Element) -> int:
        """v_p, capped at the precision for an element indistinguishable
        from zero."""
        best = self.precision
        for c in a:
            if c == 0:
                continue
            v = 0
            while c % self.p == 0:
                c //= self.p
                v += 1
            best = min(best, v)
        return best

    def reduce_mod_p(self, a: Element) -> Element:
        """The residue of a, as an element of ``self.residue``."""
        return tuple(c % self.p for c in a)

    def is_unit(self, a: Element) -> bool:
        return any(c % self.p for c in a)

    def inv_unit(self, a: Element) -> Element:
        """a^-1 for a unit a: z = res(a)^(p^m - 2), the inverse in the
        residue field F_{p^m}, lifted, then Newton's z <- z(2 - a z).  If
        a z = 1 - p^k y then a z(2 - a z) = 1 - p^(2k) y^2, so the accuracy
        doubles from p^1, and (N - 1).bit_length() steps reach p^N."""
        if not self.is_unit(a):
            raise ZeroDivisionError("not a unit in the carrier")
        z = self.residue.pow(self.reduce_mod_p(a), self.p ** self.m - 2)
        two = self.from_int(2)
        for _ in range((self.precision - 1).bit_length()):
            z = self.mul(z, self.sub(two, self.mul(a, z)))
        if self.mul(a, z) != self.one():
            raise ArithmeticError("Hensel inversion failed")
        return z

    # -- Teichmuller bridge to coordinate Witt vectors ------------------------

    def teichmuller(self, res) -> Element:
        """[res], the root of z^(p^m) = z congruent to res mod p (cached):
        r^(p^(N-1)) for any lift r of the p^(N-1)-th root of res in
        F_{p^m}.  Exact mod p^N, since r = [res^(p^-(N-1))](1 + p y) and
        (1 + p y)^(p^k) = 1 mod p^(k+1) (Serre, Local Fields, II 4-6)."""
        key = self.element(list(res))
        lift = self._teichmuller.get(key)
        if lift is None:
            shift = self.precision - 1
            root = self.residue.pow(self.reduce_mod_p(key), self.p ** (-shift % self.m))
            lift = self._teichmuller[key] = self.pow(root, self.p ** shift)
        return lift

    def from_witt_coords(self, coords) -> Element:
        """sum_i p^i [a_i^(p^-i)] -- the classical isomorphism from W_N."""
        acc = self.zero()
        for i, a in enumerate(coords):
            # p^i-th root in F_{p^m}: raise to p^(-i mod m)
            root = self.residue.pow(a, self.p ** (-i % self.m))
            acc = self.add(acc, self.scalar_mul(self.p ** i, self.teichmuller(root)))
        return acc

    def to_witt_coords(self, a: Element) -> Tuple[Element, ...]:
        """Inverse of :meth:`from_witt_coords`: peel off the Teichmuller
        digits of a = sum_i p^i [t_i] (t_i = the residue of
        (a - sum_{j<i} p^j [t_j]) / p^i) and return the coordinates
        t_i^(p^i)."""
        coords = []
        for i in range(self.precision):
            scale = self.p ** i
            digit = tuple((c // scale) % self.p for c in a)
            a = self.sub(a, self.scalar_mul(scale, self.teichmuller(digit)))
            coords.append(self.residue.pow(digit, self.p ** (i % self.m)))
        return tuple(coords)


class _Packing:
    """Kronecker substitution (Harvey, J. Symbolic Comput. 44, 2009) for
    one carrier at one slot width w: coefficients (c_0, c_1, ...) are the
    integer sum_t c_t 2^(w t), so a product of two carrier elements is one
    integer product, whose slot t is sum_(i+j=t) a_i b_j.

    The invariant is that every slot of every packed integer formed lies
    in [0, 2^w).  Then a sum or product of packed integers is the slotwise
    sum or convolution, with nothing carried from a slot into the next,
    and the slots read back exactly.  :meth:`UnramWittCarrier._packing`
    picks w from a bound on the slots its caller forms and on what
    :meth:`reduce` adds to them."""

    def __init__(self, carrier: UnramWittCarrier, width: int):
        m, pN = carrier.m, carrier.pN
        self.pN, self.width = pN, width
        self.mask = (1 << width) - 1
        self.shifts = tuple(range(0, m * width, width))
        self.low_bits = m * width
        self.low_mask = (1 << self.low_bits) - 1
        self.x_to_m = self.pack([-c for c in carrier.modulus_low])  # x^m mod (p^N, F)

    def pack(self, a: Sequence[int]) -> int:
        """sum_t a[t] 2^(w t), each coefficient read mod p^N first."""
        packed, width, pN = 0, self.width, self.pN
        for c in reversed(a):
            packed = packed << width | c % pN
        return packed

    def reduce(self, packed: int) -> List[int]:
        """The coefficients mod (p^N, F) of a packed polynomial of degree
        at most 2m - 2.  While a part h x^m is left at and above x^m, it is
        replaced by (h mod p^N)(x^m mod F), one packed product; then the low
        m slots are read mod p^N.  A round lowers the degree of h, at first
        at most m - 2, by m - deg(F - x^m) >= 1, so there are at most
        m - 1 rounds, and each adds to a slot at most (p^N - 1)^2 per
        nonzero digit of F."""
        pN, mask, width, low_mask, low_bits = self.pN, self.mask, self.width, self.low_mask, self.low_bits
        low, high = packed & low_mask, packed >> low_bits
        while high:
            slots = self.shifts[:-(-high.bit_length() // width)]
            high = self.pack([high >> shift & mask for shift in slots]) * self.x_to_m
            low, high = low + (high & low_mask), high >> low_bits
        return [(low >> shift & mask) % pN for shift in self.shifts]


class GFRing(UnramWittCarrier):
    """F_{p^r} = F_p[x]/(modulus): the carrier at precision 1; elements are
    coefficient tuples."""

    def __init__(self, p: int, r: int, modulus: Optional[Tuple[int, ...]] = None):
        super().__init__(p, r, 1, modulus)
        self.r = r


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

    def __add__(self, other: "MPoly") -> "MPoly":
        terms = dict(self.terms)
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
        return power(self, n, MPoly.__mul__, MPoly.const(self.nvars, Fraction(1)))

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


class _PolyRing:
    """Q[x_0, ..., x_(nvars-1)] as a coefficient ring, for :func:`_solve`."""

    def __init__(self, nvars: int):
        self.nvars = nvars

    def from_int(self, n: int) -> MPoly:
        return MPoly.const(self.nvars, Fraction(n))

    def sub(self, a: MPoly, b: MPoly) -> MPoly:
        return a - b

    def mul(self, a: MPoly, b: MPoly) -> MPoly:
        return a * b

    def pow(self, a: MPoly, e: int) -> MPoly:
        return a.pow(e)


def _ghost_poly(nvars: int, offset: int, n: int, p: int) -> MPoly:
    """w_n in the variables offset..offset+n."""
    out = MPoly(nvars)
    for i in range(n + 1):
        out = out + MPoly.var(nvars, offset + i).pow(p ** (n - i)).scale(Fraction(p ** i))
    return out


def universal_polynomials(p: int, n: int) -> Dict[str, List[MPoly]]:
    """Sum, product, negation and Frobenius laws for W_n, solved over Q from
    the ghost recursion and verified integral: the reference the tests
    compare the runtime routes against.  Nothing is cached: each call
    solves the laws again."""

    def divide(poly: MPoly, m: int) -> MPoly:
        poly = poly.scale(Fraction(1, p ** m))
        if not poly.is_integral():
            raise RuntimeError(f"universal law for W_{n} at p={p} is not integral")
        return poly

    two, one = _PolyRing(2 * n), _PolyRing(n + 1)
    wx = [_ghost_poly(2 * n, 0, m, p) for m in range(n)]
    wy = [_ghost_poly(2 * n, n, m, p) for m in range(n)]
    return {
        "sum": _solve(two, p, [a + b for a, b in zip(wx, wy)], divide),
        "prod": _solve(two, p, [a * b for a, b in zip(wx, wy)], divide),
        "neg": _solve(two, p, [a.scale(Fraction(-1)) for a in wx], divide),
        "frob": _solve(one, p, [_ghost_poly(n + 1, 0, m + 1, p) for m in range(n)], divide),
    }


# ---------------------------------------------------------------------------
# Witt vectors


#: Bits of the largest integer a Witt operation over Z or Q may form (y^(p^e)
#: has at most p^e bitlen(y)); the slowest op at the cap took 0.4 s on a 2-core Xeon.
WITT_BITS_CAP = 1 << 17
#: Bits of the numbers the ring laws of W_n work with: the lift modulus
#: m p^(n-1) over Z/m (m = 1 over Z and Q), and p^(nr), the size of one
#: element of the carrier, over F_{p^r}.  At the cap W_1022(Z/8) at p = 2
#: takes about 3 s per product.
WITT_MODULUS_BITS_CAP = 1 << 10


def _check_size(ring, p: int, top: int, values: Sequence) -> None:
    """Over Z or Q, refuse before any power is formed if values[i]^(p^(top-i))
    may pass the cap (a fraction counts both its parts; p^e is clipped)."""
    for i, y in enumerate(values if isinstance(ring, _NumberRing) else ()):
        bits = abs(y.numerator).bit_length() + y.denominator.bit_length() - 1
        if bits * p ** min(top - i, WITT_BITS_CAP.bit_length()) > WITT_BITS_CAP:
            raise ValueError(f"Witt vectors over Z or Q at p = {p}: raising a {bits}-bit value to "
                             f"p^{top - i} passes the cap of {WITT_BITS_CAP} bits")


def _refuse_length(n: int, p: int, size: str, bits: float) -> None:
    if bits > WITT_MODULUS_BITS_CAP:
        raise ValueError(f"W_{n} at p = {p}: {size} has about {bits:.0f} bits, "
                         f"past the cap of {WITT_MODULUS_BITS_CAP}")


def _solve(ring, p: int, components: Sequence, divide) -> List:
    """The x with w_m(x) = components[m], m = 0, 1, ...: x_m is
    divide(components[m] - sum_{i<m} p^i x_i^(p^(m-i)), m), i.e. / p^m."""
    out: List = []
    powers: List = []  # x_i^(p^(m-i)), i < m, each the p-th power of the last step's
    for m, acc in enumerate(components):
        for i, x in enumerate(powers):
            powers[i] = x = ring.pow(x, p)
            acc = ring.sub(acc, ring.mul(ring.from_int(p ** i), x))
        out.append(divide(acc, m))
        powers.append(out[m])
    return out


class WittContext(Value):
    """W_n over ring at the prime p, with the route of its ring laws: the
    integral lift ring _lift, or the carrier _bridge over F_q."""

    __slots__ = ("ring", "p", "n", "_lift", "_bridge")

    def __init__(self, ring, p: int, n: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if n < 1:
            raise ValueError("truncation length must be >= 1")
        # the route of the ring laws (module docstring), refused past its
        # size cap before any work
        lift, bridge = None, None
        if isinstance(ring, _NumberRing):
            _refuse_length(n, p, "p^(n-1)", (n - 1) * log2(p))
            lift = IntegerRing()
        elif isinstance(ring, ModRing):
            _refuse_length(n, p, "the lift modulus m p^(n-1)", log2(ring.m) + (n - 1) * log2(p))
            lift = ModRing(ring.m * p ** (n - 1))
        elif isinstance(ring, UnramWittCarrier) and ring.characteristic() == p:
            _refuse_length(n, p, "p^(nr)", n * ring.m * log2(p))
            bridge = UnramWittCarrier(p, ring.m, n, ring.modulus_fp)
        else:
            raise ValueError(f"no Witt vector arithmetic over {getattr(ring, 'name', ring)} at p = {p}")
        setfield(self, "ring", ring)
        setfield(self, "p", p)
        setfield(self, "n", n)
        setfield(self, "_lift", lift)
        setfield(self, "_bridge", bridge)

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
        """Image of an integer under the unique ring map Z -> W_n(R): the
        vector with ghost components (value, ..., value)."""
        if self._bridge is not None:
            return WittVector(self, self._bridge.to_witt_coords(self._bridge.from_int(value)))
        _check_size(self._lift, self.p, self.n - 1, (value,))
        coords = _solve(self._lift, self.p, [self._lift.from_int(value)] * self.n, self._divide)
        return WittVector(self, tuple(self.ring.coerce(c) for c in coords))

    def _apply(self, law: str, *coords) -> "WittVector":
        """The ring law ``law`` ("add", "mul", "neg" or "frob", on w_1..w_n
        of the zero-extended vector) on coordinate tuples."""
        bridge, ring, p = self._bridge, self._lift, self.p
        if bridge is not None:
            out = getattr(bridge, law)(*(bridge.from_witt_coords(c) for c in coords))
            return WittVector(self, bridge.to_witt_coords(out))
        rational = isinstance(self.ring, RationalField)
        if rational:  # the law on [D]x, unscaled by [D] (add, neg), [D^2] (mul) or [D^p]
            d = lcm(*(c.denominator for vector in coords for c in vector))
            if d > 1:  # the scaling forms D^(p^(n-1)), and D^(p^n) for "frob"
                _check_size(ring, p, self.n if law == "frob" else self.n - 1, (d,))
            coords = [tuple(c.numerator * (d ** p ** i // c.denominator) for i, c in enumerate(vector))
                      for vector in coords]
        if law == "frob":
            components = _ghosts(p, self.n + 1, coords[0] + (0,), ring)[1:]
        else:
            ghosts = [_ghosts(p, self.n, c, ring) for c in coords]
            components = [getattr(ring, law)(*g) for g in zip(*ghosts)]
        out = _solve(ring, p, components, self._divide)
        if not rational:
            return WittVector(self, tuple(self.ring.coerce(c) for c in out))
        unit = d ** {"mul": 2, "frob": p}.get(law, 1)
        return WittVector(self, tuple(Fraction(c, unit ** p ** i) for i, c in enumerate(out)))

    def _divide(self, acc: int, m: int) -> int:
        """acc / p^m in the lift ring, exact on the ghost of a lifted vector."""
        quotient, rest = divmod(acc, self.p ** m)
        if rest:
            raise ArithmeticError(f"W_{self.n} at p = {self.p}: coordinate {m} of the lift is not integral")
        return quotient


class WittVector(Value):
    __slots__ = ("ctx", "coords")

    def __init__(self, ctx: WittContext, coords: Tuple):
        setfield(self, "ctx", ctx)
        setfield(self, "coords", coords)

    def _binary(self, other: "WittVector", law: str) -> "WittVector":
        if other.ctx is not self.ctx and other.ctx != self.ctx:
            raise ValueError("Witt vectors from different contexts")
        return self.ctx._apply(law, self.coords, other.coords)

    def __add__(self, other: "WittVector") -> "WittVector":
        return self._binary(other, "add")

    def __mul__(self, other: "WittVector") -> "WittVector":
        return self._binary(other, "mul")

    def __neg__(self) -> "WittVector":
        return self.ctx._apply("neg", self.coords)

    def __sub__(self, other: "WittVector") -> "WittVector":
        return self + (-other)

    def __eq__(self, other) -> bool:
        return isinstance(other, WittVector) and self.coords == other.coords and self.ctx == other.ctx

    def __hash__(self):
        return hash(self.coords)


def _ghosts(p: int, count: int, values: Sequence, ring) -> List:
    """w_0, ..., w_(count-1) of values, each x_i^(p^k) formed once as the
    p-th power of x_i^(p^(k-1)); over Z or Q within the size cap."""
    values = values[:count]
    _check_size(ring, p, count - 1, values)
    out = [ring.zero()] * count
    for i, x in enumerate(values):
        scale = ring.from_int(p ** i)
        for m in range(i, count):
            if m > i:
                x = ring.pow(x, p)
            out[m] = ring.add(out[m], ring.mul(scale, x))
    return out


def witt_polynomial(p: int, n: int, values: Sequence, ring) -> object:
    """w_n(x_0, ..., x_n) = x_0^(p^n) + p x_1^(p^(n-1)) + ... + p^n x_n."""
    if n < 0 or n >= len(values):
        raise ValueError("witt polynomial index out of range")
    return _ghosts(p, n + 1, values, ring)[n]


def ghost(x: WittVector) -> List:
    return _ghosts(x.ctx.p, x.ctx.n, x.coords, x.ctx.ring)


def ghost_inverse(ctx: WittContext, components: Sequence) -> WittVector:
    """The solve in the ring itself, multiplying by p^-m; requires p
    invertible there (Q, or Z/m with p prime to m)."""
    ring, p = ctx.ring, ctx.p
    if isinstance(ring, RationalField):
        pinv = Fraction(1, p)
    elif isinstance(ring, ModRing) and ring.m % p:
        pinv = pow(p, -1, ring.m)
    else:
        raise ValueError(f"p = {p} is not invertible in {ring.name}")
    if len(components) != ctx.n:
        raise ValueError("ghost component count mismatch")
    _check_size(ring, p, ctx.n - 1, components)
    return WittVector(ctx, tuple(_solve(ring, p, components, lambda acc, m: ring.mul(acc, ring.pow(pinv, m)))))


def verschiebung(x: WittVector) -> WittVector:
    """tau: shift right, dropping the top coordinate."""
    ctx = x.ctx
    return WittVector(ctx, (ctx.ring.zero(),) + x.coords[: ctx.n - 1])


def frobenius(x: WittVector) -> WittVector:
    """sigma: coordinatewise p-th powers in characteristic p; otherwise the
    vector whose ghost components are w_1, ..., w_n of the zero-extended
    (x_0, ..., x_{n-1}, 0)."""
    ctx, ring = x.ctx, x.ctx.ring
    if ring.characteristic() == ctx.p:
        return WittVector(ctx, tuple(ring.pow(c, ctx.p) for c in x.coords))
    return ctx._apply("frob", x.coords)
