"""Exact scalar arithmetic over half-integer powers of q.

Every number this library touches -- Satake parameters, L-factor
coefficients, epsilon monomials, eigenvalue norms -- lies in
Q(i) * q^((1/2)Z) for a concrete prime power q = p^f.  Scalars are stored
as a Gaussian rational c together with a half-integer exponent k/2.  c is
one integer triple (a, b, d) meaning (a + b i)/d, with gcd(a, b, d) = 1
and d > 0, so its arithmetic builds no Fraction; its ``re`` and ``im`` are
reduced Fractions formed only when read, for printing and JSON.

Exponents are worked in half-units: the integer k stands for q^(k/2).  A
half-integer w handed in (a shift, a pole point, a power of q) is read once
by :func:`_half_units` as the integer 2w, so shifts, poles and equality
build no Fraction; :func:`as_q_power` forms one only for the exponent it
returns.

The scalar representation is deliberately *not* canonical: 3 * q^0 and
1 * q^(1/2) denote the same number when q = 9.  Equality therefore never
compares the raw data field by field.  :func:`equals_one` decides every
equality: x = c * q^(k/2) is 1 exactly when c is a positive rational p^v
and k f + 2v = 0, which it reads from p-valuations without forming any
power of q; :func:`norm_is_one` and
:func:`scalars_equal` ask it of |x|^2 and of x / y.
:func:`canonical_scalar` fixes the one printed form, and its key orders
scalars; only values that must be sorted or printed go through it.

A power of q or of a Gaussian rational that would pass POWER_BITS_CAP bits
is refused before it is formed, so no input makes the arithmetic run away.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, log2
from operator import itemgetter
from typing import Iterable, List, Optional, Tuple, Union

from .common import INT_DIGITS_LIMIT, Value, is_prime, power, setfield

FractionLike = Union[int, Fraction]

# The largest power formed, in bits: one that still prints in decimal under
# Python's default int-to-str limit
POWER_BITS_CAP = int(INT_DIGITS_LIMIT * log2(10))


def _refuse_power(log2_base: float, e: int, base: str) -> None:
    """Refuse base^e, base of log2_base bits, if it would pass
    POWER_BITS_CAP bits."""
    if abs(e) * log2_base > POWER_BITS_CAP:
        raise ValueError(f"{base}^{e} would pass the cap of {POWER_BITS_CAP} bits on powers")


def _fraction(value: FractionLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def _half_units(value: FractionLike, what: str = "exponent") -> int:
    """2 * value, for a value in (1/2)Z: the one place that rule is read."""
    if isinstance(value, int):
        return 2 * value
    if isinstance(value, Fraction):
        d = value.denominator  # a Fraction is in lowest terms
        if d > 2:
            raise ValueError(f"{what} must lie in (1/2)Z, got {value}")
        return value.numerator * (2 // d)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def _half_integer(value: FractionLike, what: str = "exponent") -> Fraction:
    """value as a Fraction, for a value in (1/2)Z (:func:`_half_units`)."""
    _half_units(value, what)
    return value if isinstance(value, Fraction) else Fraction(value)


class GaussianRational:
    """An element (a + b i) / d of Q(i), stored as three integers in the
    normal form gcd(a, b, d) = 1, d > 0, so that equal numbers are equal
    data.  A product takes four integer products for the numerators and
    one gcd; no Fraction is built on the arithmetic paths.

    ``re`` and ``im`` are the reduced Fractions a/d and b/d, formed when
    read: the printed forms, the JSON form and the canonical sort key are
    written from them, and they keep those bytes as they were."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re: FractionLike = 0, im: FractionLike = 0):
        if type(re) is int and type(im) is int:  # (re, im, 1) is the normal form
            self._a, self._b, self._d = re, im, 1
            return
        re, im = _fraction(re), _fraction(im)
        # with d the lcm of two reduced denominators, a, b and d share no prime
        d = lcm(re.denominator, im.denominator)
        self._a = re.numerator * (d // re.denominator)
        self._b = im.numerator * (d // im.denominator)
        self._d = d

    @staticmethod
    def of(re: FractionLike, im: FractionLike = 0) -> "GaussianRational":
        return GaussianRational(re, im)

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self) -> int:
        return hash((self._a, self._b, self._d))

    def __repr__(self) -> str:
        return f"GaussianRational(re={self.re!r}, im={self.im!r})"

    def _parts(self) -> Tuple[int, int, int, int]:
        """(re.numerator, re.denominator, im.numerator, im.denominator),
        without forming the Fractions."""
        a, b, d = self._a, self._b, self._d
        g, h = gcd(a, d), gcd(b, d)
        return a // g, d // g, b // h, d // h

    def _is_one(self) -> bool:
        return self._a == self._d and not self._b

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        a, b, d = self._a, self._b, self._d
        c, e, f = other._a, other._b, other._d
        if d == f:
            return _make(a + c, b + e, d)
        return _make(a * f + c * d, b * f + e * d, d * f)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        a, b, d = self._a, self._b, self._d
        c, e, f = other._a, other._b, other._d
        if d == f:
            return _make(a - c, b - e, d)
        return _make(a * f - c * d, b * f - e * d, d * f)

    def __neg__(self) -> "GaussianRational":
        return _make(-self._a, -self._b, self._d)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        if other._is_one():
            return self
        if self._is_one():
            return other
        a, b, d = self._a, self._b, self._d
        c, e, f = other._a, other._b, other._d
        return _make(a * c - b * e, a * e + b * c, d * f)

    def norm_sq(self) -> Fraction:
        a, b = self._a, self._b
        return Fraction(a * a + b * b, self._d * self._d)

    def is_zero(self) -> bool:
        return not self._a and not self._b

    def inverse(self) -> "GaussianRational":
        a, b, d = self._a, self._b, self._d
        n = a * a + b * b
        if not n:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return _make(a * d, -b * d, n)

    def __truediv__(self, other: "GaussianRational") -> "GaussianRational":
        if other._is_one():
            return self
        a, b, d = self._a, self._b, self._d
        c, e, f = other._a, other._b, other._d
        n = c * c + e * e
        if not n:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        # (a + b i) / d * f (c - e i) / n
        return _make(f * (a * c + b * e), f * (b * c - a * e), d * n)

    def __pow__(self, n: int) -> "GaussianRational":
        if abs(n) > 1:  # the numerators grow as |c|^n, the denominators as theirs
            nrm = self.norm_sq()
            _, re_den, _, im_den = self._parts()
            height = max(log2(max(nrm.numerator, nrm.denominator)) / 2,
                         log2(max(re_den, im_den)))
            _refuse_power(height, n, f"({height:.3g}-bit Gaussian rational)")
        if n < 0:
            return self.inverse() ** (-n)
        return power(self, n, GaussianRational.__mul__, QI_ONE)

    def __str__(self) -> str:
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        if re == 0:
            if im == 1:
                return "i"
            if im == -1:
                return "-i"
            return f"{im}i"
        sign = "+" if im > 0 else "-"
        mag = abs(im)
        istr = "i" if mag == 1 else f"{mag}i"
        return f"{re}{sign}{istr}"


def _make(a: int, b: int, d: int) -> GaussianRational:
    """(a + b i) / d in normal form; d > 0."""
    g = gcd(a, b, d)
    x = object.__new__(GaussianRational)
    if g == 1:
        x._a, x._b, x._d = a, b, d
    else:
        x._a, x._b, x._d = a // g, b // g, d // g
    return x


QI_ONE = GaussianRational.of(1)


class LocalFieldContext(Value):
    """The numeric data of the base field: q = p^f, the valuation d of the
    absolute different, and the exponent n(psi) of the additive character."""

    __slots__ = ("p", "f", "d", "n_psi")

    def __init__(self, p: int, f: int, d: int = 0, n_psi: int = 0):
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if f < 1:
            raise ValueError("f must be a positive integer")
        if d < 0:
            raise ValueError("d must be non-negative")
        _refuse_power(log2(p), f, f"q = {p}")
        setfield(self, "p", p)
        setfield(self, "f", f)
        setfield(self, "d", d)
        setfield(self, "n_psi", n_psi)

    @property
    def q(self) -> int:
        return self.p ** self.f


class ExactScalar(Value):
    """c * q^(k/2) with c a Gaussian rational.  Non-canonical by design."""

    __slots__ = ("c", "k")

    def __init__(self, c: GaussianRational, k: int = 0):
        setfield(self, "c", c)
        setfield(self, "k", k)

    @staticmethod
    def of(re: FractionLike, im: FractionLike = 0, k: int = 0) -> "ExactScalar":
        return ExactScalar(GaussianRational.of(re, im), k)

    @staticmethod
    def one() -> "ExactScalar":
        return ExactScalar(QI_ONE, 0)

    @staticmethod
    def q_power(w: FractionLike) -> "ExactScalar":
        """The scalar q^w for a half-integer w."""
        return ExactScalar(QI_ONE, _half_units(w))

    def is_zero(self) -> bool:
        return self.c.is_zero()

    def __mul__(self, other: "ExactScalar") -> "ExactScalar":
        return ExactScalar(self.c * other.c, self.k + other.k)

    def __truediv__(self, other: "ExactScalar") -> "ExactScalar":
        if other.is_zero():
            raise ZeroDivisionError("division by zero scalar")
        return ExactScalar(self.c / other.c, self.k - other.k)

    def __neg__(self) -> "ExactScalar":
        return ExactScalar(-self.c, self.k)

    def __pow__(self, n: int) -> "ExactScalar":
        if n < 0 and self.is_zero():
            raise ZeroDivisionError("inverse of zero scalar")
        return ExactScalar(self.c ** n, self.k * n)

    def inverse(self) -> "ExactScalar":
        return self ** (-1)

    def shift(self, w: FractionLike) -> "ExactScalar":
        """Multiply by q^w, w half-integer."""
        return ExactScalar(self.c, self.k + _half_units(w))


def canonical_scalar(x: ExactScalar, ctx: LocalFieldContext) -> ExactScalar:
    """x rewritten as c * q^(k/2) with k in {0, 1}; for square q the root is
    absorbed and k = 0.  Two scalars are equal iff their canonical forms are
    equal as data."""
    a, r = divmod(x.k, 2)
    if a:
        _refuse_power(ctx.f * log2(ctx.p), a, "q")
    e = a * ctx.f  # c q^a = c p^e, and for square q, c q^(1/2) = c p^(f/2)
    if r and ctx.f % 2 == 0:
        e += ctx.f // 2
        r = 0
    c = x.c
    if e > 0:
        m = ctx.p ** e
        c = _make(c._a * m, c._b * m, c._d)
    elif e < 0:
        c = _make(c._a, c._b, c._d * ctx.p ** -e)
    return ExactScalar(c, r)


def canonical_scalar_key(x: ExactScalar, ctx: LocalFieldContext):
    y = canonical_scalar(x, ctx)
    return y.c._parts() + (y.k,)


def _p_valuation(a: int, b: int, p: int) -> Tuple[int, int, int]:
    """(v, a', b') with a / b = p^v * a' / b' and p dividing neither a' nor
    b'; a, b != 0."""
    v = 0
    while a % p == 0:
        a //= p
        v += 1
    while b % p == 0:
        b //= p
        v -= 1
    return v, a, b


def _p_exponent(c: GaussianRational, p: int) -> Optional[int]:
    """v if c is the positive rational p^v, else None."""
    if c._b or c._a <= 0:
        return None
    v, a, b = _p_valuation(c._a, c._d, p)  # a/d is in lowest terms, as b = 0
    return v if a == 1 and b == 1 else None


def as_q_power(x: ExactScalar, ctx: LocalFieldContext) -> Optional[Fraction]:
    """If x = q^w for a half-integer w, return w, else None."""
    v = _p_exponent(x.c, ctx.p)
    if v is None:
        return None
    n, r = divmod(x.k * ctx.f + 2 * v, ctx.f)  # 2w = k + 2v/f
    return None if r else Fraction(n, 2)


def _format_exponent(w: Fraction) -> str:
    if w.denominator == 1:
        return f"q^{w.numerator}"
    return f"q^({w})"


def render_scalar(x: ExactScalar, ctx: LocalFieldContext) -> str:
    """Canonical text form "c * q^(k/2)" with pure q-powers collapsed, so the
    Sp(3) L-coefficient prints as "q^-2" and not "1/9"."""
    if x.is_zero():
        return "0"
    w = as_q_power(x, ctx)
    if w is not None:
        return "1" if w == 0 else _format_exponent(w)
    neg = -x
    w = as_q_power(neg, ctx)
    if w is not None:
        return "-1" if w == 0 else "-" + _format_exponent(w)
    y = canonical_scalar(x, ctx)
    return str(y.c) if y.k == 0 else f"{y.c} * q^(1/2)"


def equals_one(x: ExactScalar, ctx: LocalFieldContext) -> bool:
    """True iff x denotes 1 for the concrete q: x = p^v q^(k/2) with
    k f + 2v = 0."""
    v = _p_exponent(x.c, ctx.p)
    return v is not None and x.k * ctx.f + 2 * v == 0


def norm_is_one(x: ExactScalar, ctx: LocalFieldContext) -> bool:
    """True iff |x|^2 = N(c) q^k is 1; x must be nonzero."""
    if x.is_zero():
        raise ValueError("norm of zero scalar")
    a, b, d = x.c._a, x.c._b, x.c._d
    return equals_one(ExactScalar(_make(a * a + b * b, 0, d * d), 2 * x.k), ctx)


def scalars_equal(x: ExactScalar, y: ExactScalar, ctx: LocalFieldContext) -> bool:
    """True iff x and y denote the same number; a zero scalar equals exactly
    the zero scalars, whatever its exponent."""
    if x.is_zero() or y.is_zero():
        return x.is_zero() and y.is_zero()
    return equals_one(x / y, ctx)


class LFactor(Value):
    """A product of inverse factors (1 - a T^t)^(-1) with T = q^(-s).

    The empty product denotes the constant function 1.  Multisets are kept
    as stored; canonical order is only imposed when a context is available.
    """

    __slots__ = ("factors",)

    def __init__(self, factors: Tuple[Tuple[ExactScalar, int], ...] = ()):
        for a, t in factors:
            if a.is_zero():
                raise ValueError("L-factor coefficient must be nonzero")
            if t < 1:
                raise ValueError("L-factor exponent t must be >= 1")
        setfield(self, "factors", factors)

    @staticmethod
    def one() -> "LFactor":
        return LFactor(())

    @staticmethod
    def of(pairs: Iterable[Tuple[ExactScalar, int]]) -> "LFactor":
        # Through a list: CPython builds tuple(<generator>) at a guessed
        # length and resizes it, so when freed it lands on the free list of
        # another length; those per-length lists (up to 2000 tuples each)
        # then fill over a long run and hold memory.  A list gives the tuple
        # its final length, and allocation and freeing balance.
        return LFactor(tuple(list(pairs)))

    def __mul__(self, other: "LFactor") -> "LFactor":
        return LFactor(self.factors + other.factors)

    def is_one(self) -> bool:
        return not self.factors

    def shift(self, c: FractionLike) -> "LFactor":
        """L(s + c) as an LFactor in s: every (a, t) becomes (a*q^(-t*c), t)."""
        c2 = _half_units(c, "shift")
        return LFactor(tuple([(ExactScalar(a.c, a.k - t * c2), t) for a, t in self.factors]))

    def canonical_order(self, ctx: LocalFieldContext) -> List[Tuple[tuple, ExactScalar, int]]:
        """(key, a, t) for every factor, sorted by key = (t,) + the canonical
        key of a; keys are equal iff the factors are."""
        keyed = [((t,) + canonical_scalar_key(a, ctx), a, t) for a, t in self.factors]
        return sorted(keyed, key=itemgetter(0))

    def canonical_key(self, ctx: LocalFieldContext):
        return tuple([entry[0] for entry in self.canonical_order(ctx)])

    def pole_at(self, s0: FractionLike, ctx: LocalFieldContext) -> Tuple[bool, int]:
        """Pole data at s = s0 (half-integer): a factor (a, t) vanishes there
        iff a * q^(-t*s0) = 1."""
        s2 = _half_units(s0, "s0")
        order = 0
        for a, t in self.factors:
            if equals_one(ExactScalar(a.c, a.k - t * s2), ctx):
                order += 1
        return order >= 1, order


def lfactors_equal(l1: LFactor, l2: LFactor, ctx: LocalFieldContext) -> bool:
    return l1.canonical_key(ctx) == l2.canonical_key(ctx)


def render_lfactor(l: LFactor, ctx: LocalFieldContext) -> str:
    if l.is_one():
        return "1"
    rendered = []
    for _, a, t in l.canonical_order(ctx):
        tpart = "T" if t == 1 else f"T^{t}"
        coeff = render_scalar(a, ctx)
        body = tpart if coeff == "1" else f"{coeff} {tpart}"
        rendered.append(f"(1 - {body})^-1")
    return " * ".join(rendered)
