"""Exact scalar arithmetic over half-integer powers of q.

Every number this library touches -- Satake parameters, L-factor
coefficients, epsilon monomials, eigenvalue norms -- lies in
Q(i) * q^((1/2)Z) for a concrete prime power q = p^f.  Scalars are stored
as a Gaussian rational c together with a half-integer exponent k/2, and
the representation is deliberately *not* canonical: 3 * q^0 and 1 * q^(1/2)
denote the same number when q = 9.  Equality therefore never compares the
raw data field by field.  :func:`equals_one` decides every equality: x = c *
q^(k/2) is 1 exactly when c is a positive rational p^v and k/2 + v/f = 0,
which it reads from p-valuations (:func:`as_q_power`) without forming any
power of q; :func:`norm_is_one` and :func:`scalars_equal` ask it of |x|^2
and of x / y.  :func:`canonical_scalar` fixes the one printed form, and its
key orders scalars; only values that must be sorted or printed go through it.

A power of q or of a Gaussian rational that would pass POWER_BITS_CAP bits
is refused before it is formed, so no input makes the arithmetic run away.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import log2
from operator import itemgetter
from typing import Iterable, List, Optional, Tuple, Union

from .common import INT_DIGITS_LIMIT, is_prime, power

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


def _half_integer(value: FractionLike, what: str = "exponent") -> Fraction:
    x = _fraction(value)
    if x.denominator > 2:  # a Fraction is in lowest terms
        raise ValueError(f"{what} must lie in (1/2)Z, got {x}")
    return x


@dataclass(frozen=True)
class GaussianRational:
    """An element of Q(i), kept in lowest terms by Fraction."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    @staticmethod
    def of(re: FractionLike, im: FractionLike = 0) -> "GaussianRational":
        return GaussianRational(_fraction(re), _fraction(im))

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def norm_sq(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def inverse(self) -> "GaussianRational":
        n = self.norm_sq()
        if n == 0:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return GaussianRational(self.re / n, -self.im / n)

    def __truediv__(self, other: "GaussianRational") -> "GaussianRational":
        return self * other.inverse()

    def __pow__(self, n: int) -> "GaussianRational":
        if abs(n) > 1:  # the numerators grow as |c|^n, the denominators as theirs
            nrm = self.norm_sq()
            height = max(log2(max(nrm.numerator, nrm.denominator)) / 2,
                         log2(max(self.re.denominator, self.im.denominator)))
            _refuse_power(height, n, f"({height:.3g}-bit Gaussian rational)")
        if n < 0:
            return self.inverse() ** (-n)
        return power(self, n, GaussianRational.__mul__, QI_ONE)

    def scale(self, r: Fraction) -> "GaussianRational":
        return GaussianRational(self.re * r, self.im * r)

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


QI_ZERO = GaussianRational.of(0)
QI_ONE = GaussianRational.of(1)


@dataclass(frozen=True)
class LocalFieldContext:
    """The numeric data of the base field: q = p^f, the valuation d of the
    absolute different, and the exponent n(psi) of the additive character."""

    p: int
    f: int
    d: int = 0
    n_psi: int = 0

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if self.f < 1:
            raise ValueError("f must be a positive integer")
        if self.d < 0:
            raise ValueError("d must be non-negative")
        _refuse_power(log2(self.p), self.f, f"q = {self.p}")

    @property
    def q(self) -> int:
        return self.p ** self.f

    @property
    def sqrt_q(self) -> Optional[int]:
        """Integer square root of q when f is even, else None."""
        if self.f % 2 == 0:
            return self.p ** (self.f // 2)
        return None

    def q_pow(self, k: int) -> Fraction:
        """q^k as an exact rational, k any integer."""
        _refuse_power(self.f * log2(self.p), k, "q")
        if k >= 0:
            return Fraction(self.q ** k)
        return Fraction(1, self.q ** (-k))


@dataclass(frozen=True)
class ExactScalar:
    """c * q^(k/2) with c a Gaussian rational.  Non-canonical by design."""

    c: GaussianRational
    k: int = 0

    @staticmethod
    def of(re: FractionLike, im: FractionLike = 0, k: int = 0) -> "ExactScalar":
        return ExactScalar(GaussianRational.of(re, im), k)

    @staticmethod
    def one() -> "ExactScalar":
        return ExactScalar(QI_ONE, 0)

    @staticmethod
    def q_power(w: FractionLike) -> "ExactScalar":
        """The scalar q^w for a half-integer w."""
        w = _half_integer(w)
        return ExactScalar(QI_ONE, 2 * w.numerator // w.denominator)

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
        w = _half_integer(w)
        return ExactScalar(self.c, self.k + 2 * w.numerator // w.denominator)


def canonical_scalar(x: ExactScalar, ctx: LocalFieldContext) -> ExactScalar:
    """x rewritten as c * q^(k/2) with k in {0, 1}; for square q the root is
    absorbed and k = 0.  Two scalars are equal iff their canonical forms are
    equal as data."""
    a, r = divmod(x.k, 2)
    c = x.c.scale(ctx.q_pow(a)) if a else x.c
    if r and ctx.sqrt_q is not None:
        c = c.scale(Fraction(ctx.sqrt_q))
        r = 0
    return ExactScalar(c, r)


def canonical_scalar_key(x: ExactScalar, ctx: LocalFieldContext):
    y = canonical_scalar(x, ctx)
    return (y.c.re.numerator, y.c.re.denominator, y.c.im.numerator, y.c.im.denominator, y.k)


def _p_valuation(x: Fraction, p: int) -> Tuple[int, int, int]:
    """(v, a, b) with x = p^v * a / b and p dividing neither a nor b; x != 0."""
    a, b = x.numerator, x.denominator
    v = 0
    while a % p == 0:
        a //= p
        v += 1
    while b % p == 0:
        b //= p
        v -= 1
    return v, a, b


def as_q_power(x: ExactScalar, ctx: LocalFieldContext) -> Optional[Fraction]:
    """If x = q^w for a half-integer w, return w, else None."""
    if x.c.im != 0 or x.c.re <= 0:
        return None
    v, a, b = _p_valuation(x.c.re, ctx.p)
    if a != 1 or b != 1:
        return None
    w = Fraction(x.k, 2) + Fraction(v, ctx.f)
    if (2 * w).denominator != 1:
        return None
    return w


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
    """True iff x denotes 1 for the concrete q: x = q^0 (:func:`as_q_power`)."""
    return as_q_power(x, ctx) == 0


def norm_is_one(x: ExactScalar, ctx: LocalFieldContext) -> bool:
    """True iff |x|^2 = N(c) q^k is 1; x must be nonzero."""
    if x.is_zero():
        raise ValueError("norm of zero scalar")
    return equals_one(ExactScalar(GaussianRational(x.c.norm_sq()), 2 * x.k), ctx)


def scalars_equal(x: ExactScalar, y: ExactScalar, ctx: LocalFieldContext) -> bool:
    """True iff x and y denote the same number; a zero scalar equals exactly
    the zero scalars, whatever its exponent."""
    if x.is_zero() or y.is_zero():
        return x.is_zero() and y.is_zero()
    return equals_one(x / y, ctx)


@dataclass(frozen=True)
class LFactor:
    """A product of inverse factors (1 - a T^t)^(-1) with T = q^(-s).

    The empty product denotes the constant function 1.  Multisets are kept
    as stored; canonical order is only imposed when a context is available.
    """

    factors: Tuple[Tuple[ExactScalar, int], ...] = ()

    def __post_init__(self):
        for a, t in self.factors:
            if a.is_zero():
                raise ValueError("L-factor coefficient must be nonzero")
            if t < 1:
                raise ValueError("L-factor exponent t must be >= 1")

    @staticmethod
    def one() -> "LFactor":
        return LFactor(())

    @staticmethod
    def of(pairs: Iterable[Tuple[ExactScalar, int]]) -> "LFactor":
        return LFactor(tuple(pairs))

    def __mul__(self, other: "LFactor") -> "LFactor":
        return LFactor(self.factors + other.factors)

    def is_one(self) -> bool:
        return not self.factors

    def shift(self, c: FractionLike) -> "LFactor":
        """L(s + c) as an LFactor in s: every (a, t) becomes (a*q^(-t*c), t)."""
        c = _half_integer(c, "shift")
        return LFactor(tuple((a.shift(-t * c), t) for a, t in self.factors))

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
        s0 = _half_integer(s0, "s0")
        order = 0
        for a, t in self.factors:
            if equals_one(a.shift(-t * s0), ctx):
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
