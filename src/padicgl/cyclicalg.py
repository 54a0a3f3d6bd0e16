"""Truncated unramified p-adic arithmetic, cyclic division algebras, and
Dieudonne standard forms.

The carrier for W_N(F_{q^s}) is the unramified-extension model
(Z/p^N)[x]/(F) with F a deterministic monic lift of an irreducible
polynomial over F_p.  This is isomorphic to the length-N Witt vectors via
Teichmuller digits (the test suite exercises that isomorphism against the
universal-polynomial arithmetic of :mod:`wittring`), but keeps precision-6
computations cheap.  The Frobenius sigma_K is the unique automorphism
inducing x -> x^q on the residue field, realized by Hensel-lifting the
generator image and verified to have exact order s.

Only unramified base fields are supported here (pi_K = p); the
representation-theoretic modules never consume this restriction since they
only read (q, d, n_psi).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul
from typing import Optional, Sequence, Tuple

from .qexact import _is_prime
from .wittring import GFRing, find_irreducible

Element = Tuple[int, ...]
Matrix = Tuple[Tuple[Element, ...], ...]


class PrecisionError(ArithmeticError):
    pass


class UnramWittCarrier:
    """(Z/p^N)[x]/(F): exact arithmetic in W_N(F_{p^m})."""

    def __init__(self, p: int, m: int, precision: int, modulus_fp: Optional[Tuple[int, ...]] = None):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        if m < 1 or precision < 1:
            raise ValueError("degree and precision must be >= 1")
        self.p = p
        self.m = m
        self.precision = precision
        self.pN = p ** precision
        self.modulus_fp = tuple(modulus_fp) if modulus_fp is not None else find_irreducible(p, m)
        self.residue = GFRing(p, m, self.modulus_fp)
        # monic lift with digit coefficients; only the lower part is stored
        self.modulus_low = tuple(c % p for c in self.modulus_fp[:m])
        self._frob_gen: Optional[Element] = None

    # -- basic ring structure ------------------------------------------------

    def zero(self) -> Element:
        return (0,) * self.m

    def one(self) -> Element:
        return (1 % self.pN,) + (0,) * (self.m - 1)

    def from_int(self, n: int) -> Element:
        return (n % self.pN,) + (0,) * (self.m - 1)

    def element(self, coeffs: Sequence[int]) -> Element:
        coeffs = list(coeffs)
        if len(coeffs) > self.m:
            raise ValueError("too many coefficients")
        coeffs += [0] * (self.m - len(coeffs))
        return tuple(c % self.pN for c in coeffs)

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
        return self.dot(((a, b),))

    def dot(self, pairs) -> Element:
        """sum of a * b over the (a, b) pairs, reduced mod (p^N, F) once."""
        m, pN = self.m, self.pN
        prod = [0] * (2 * m - 1)
        for a, b in pairs:
            for i, ai in enumerate(a):
                if ai:
                    for j, bj in enumerate(b, i):
                        prod[j] += ai * bj
        for i in range(2 * m - 2, m - 1, -1):
            c = prod[i] % pN
            if c:
                for j, low in enumerate(self.modulus_low, i - m):
                    prod[j] -= c * low
        return tuple([c % pN for c in prod[:m]])

    def scalar_mul(self, n: int, a: Element) -> Element:
        return tuple((n * x) % self.pN for x in a)

    def pow(self, a: Element, e: int) -> Element:
        out = self.one()
        base = a
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def eq(self, a: Element, b: Element) -> bool:
        return a == b

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

    def reduce_mod_p(self, a: Element):
        return self.residue.element([c % self.p for c in a])

    def is_unit(self, a: Element) -> bool:
        return any(c % self.p for c in a)

    def inv_unit(self, a: Element) -> Element:
        if not self.is_unit(a):
            raise ZeroDivisionError("not a unit in the carrier")
        res_inv = self.residue.inverse(self.reduce_mod_p(a))
        z = self.element(list(res_inv))
        # Newton: z <- z(2 - a z), doubling p-adic accuracy each step
        steps = max(1, (self.precision - 1).bit_length() + 1)
        two = self.from_int(2)
        for _ in range(steps):
            z = self.mul(z, self.sub(two, self.mul(a, z)))
        if not self.eq(self.mul(a, z), self.one()):
            raise ArithmeticError("Hensel inversion failed")
        return z

    # -- Frobenius lift ------------------------------------------------------

    def _modulus_eval(self, y: Element) -> Element:
        acc = self.pow(y, self.m)
        for i, c in enumerate(self.modulus_low):
            if c:
                acc = self.add(acc, self.scalar_mul(c, self.pow(y, i)))
        return acc

    def _modulus_derivative_eval(self, y: Element) -> Element:
        acc = self.scalar_mul(self.m, self.pow(y, self.m - 1))
        for i, c in enumerate(self.modulus_low):
            if c and i >= 1:
                acc = self.add(acc, self.scalar_mul(i * c, self.pow(y, i - 1)))
        return acc

    def frobenius_gen_image(self) -> Element:
        """Hensel root of the modulus congruent to x^p mod p: the generator
        image under the canonical lift of a -> a^p."""
        if self._frob_gen is not None:
            return self._frob_gen
        y = self.pow(self.gen(), self.p)
        for _ in range(max(1, (self.precision - 1).bit_length() + 2)):
            fy = self._modulus_eval(y)
            if self.is_zero(fy):
                break
            dy = self._modulus_derivative_eval(y)
            y = self.sub(y, self.mul(fy, self.inv_unit(dy)))
        if not self.is_zero(self._modulus_eval(y)):
            raise ArithmeticError("Frobenius lift did not converge")
        self._frob_gen = y
        return y

    def substitute(self, a: Element, image: Element) -> Element:
        """Evaluate a (a polynomial in the generator with integer digits)
        at the given generator image; since the coefficients are Z/p^N
        constants this realizes any lift-of-residue automorphism."""
        acc = self.zero()
        for c in reversed(a):
            acc = self.add(self.mul(acc, image), self.from_int(c))
        return acc

    def base_frobenius(self, a: Element) -> Element:
        return self.substitute(a, self.frobenius_gen_image())

    # -- Teichmuller bridge to coordinate Witt vectors ------------------------

    def teichmuller(self, res) -> Element:
        z = self.element(list(res))
        size = self.residue.size
        for _ in range(self.precision + 1):
            nz = self.pow(z, size)
            if nz == z:
                break
            z = nz
        if self.pow(z, size) != z:
            raise ArithmeticError("Teichmuller lift did not converge")
        return z

    def from_witt_coords(self, coords) -> Element:
        """sum_i p^i [a_i^(p^-i)] -- the classical isomorphism from W_N."""
        acc = self.zero()
        for i, a in enumerate(coords):
            root = a
            for _ in range(i):
                # p-th root in F_{p^m}: raise to p^(m-1)
                root = self.residue.pow(root, self.p ** (self.m - 1))
            acc = self.add(acc, self.scalar_mul(self.p ** i, self.teichmuller(root)))
        return acc


@dataclass(frozen=True)
class UnramifiedContext:
    """W_N(F_{q^s}) with q = p^f, together with sigma_K of exact order s."""

    p: int
    f: int
    s: int
    precision: int

    def __post_init__(self):
        if self.f < 1 or self.s < 1:
            raise ValueError("f and s must be >= 1")
        carrier = UnramWittCarrier(self.p, self.f * self.s, self.precision)
        object.__setattr__(self, "_carrier", carrier)
        gen = carrier.gen()
        # sigma_K generator image: apply the base Frobenius lift f times
        g1 = gen
        for _ in range(self.f):
            g1 = carrier.base_frobenius(g1)
        imgs = [gen, g1]
        for _ in range(2, self.s):
            imgs.append(carrier.substitute(imgs[-1], g1))
        # sigma_K^j is Z/p^N-linear: row t of its matrix holds coefficient t
        # of sigma_K^j(x^c) for c = 0..m-1
        matrices = []
        for img in imgs[: self.s]:
            powers = [carrier.one()]
            for _ in range(1, carrier.m):
                powers.append(carrier.mul(powers[-1], img))
            matrices.append(tuple(zip(*powers)))
        object.__setattr__(self, "_sigma_matrices", tuple(matrices))
        if self.s > 1:
            closure = carrier.substitute(imgs[-1], g1)
            if closure != gen:
                raise ArithmeticError("sigma_K does not have order s on the carrier")
            for j in range(1, self.s):
                if imgs[j] == gen:
                    raise ArithmeticError("sigma_K has order smaller than s")
        else:
            if g1 != gen:
                raise ArithmeticError("sigma_K must be trivial when s = 1")

    @property
    def q(self) -> int:
        return self.p ** self.f

    @property
    def carrier(self) -> UnramWittCarrier:
        return self._carrier

    def sigma(self, a: Element, power: int = 1) -> Element:
        """sigma_K^power; power may be negative (sigma_K has order s)."""
        j = power % self.s
        if j == 0:
            return a
        pN = self.carrier.pN
        return tuple(sum(map(mul, a, row)) % pN for row in self._sigma_matrices[j])


# ---------------------------------------------------------------------------
# cyclic algebras D = K_s[Pi], Pi^s = p^r, Pi a = sigma_K(a) Pi


@dataclass(frozen=True)
class CyclicAlgebraElement:
    r: int
    s: int
    coeffs: Tuple[Element, ...]  # coefficients of 1, Pi, ..., Pi^(s-1)


class CyclicAlgebra:
    def __init__(self, ctx: UnramifiedContext, r: int):
        if gcd(r, ctx.s) != 1:
            raise ValueError(f"parameters (r, s) = ({r}, {ctx.s}) must be coprime")
        self.ctx = ctx
        self.r = r
        self.s = ctx.s

    def element(self, coeffs: Sequence[Sequence[int]]) -> CyclicAlgebraElement:
        carrier = self.ctx.carrier
        coeffs = list(coeffs)
        if len(coeffs) > self.s:
            raise ValueError("too many Pi-coefficients")
        coeffs += [[0]] * (self.s - len(coeffs))
        return CyclicAlgebraElement(self.r, self.s, tuple(carrier.element(c) for c in coeffs))

    def from_carrier(self, a: Element) -> CyclicAlgebraElement:
        zero = self.ctx.carrier.zero()
        return CyclicAlgebraElement(self.r, self.s, (a,) + (zero,) * (self.s - 1))

    def one(self) -> CyclicAlgebraElement:
        return self.from_carrier(self.ctx.carrier.one())

    def pi(self) -> CyclicAlgebraElement:
        carrier = self.ctx.carrier
        if self.s == 1:
            return self.from_carrier(carrier.from_int(self.ctx.p ** self.r))
        coeffs = [carrier.zero()] * self.s
        coeffs[1] = carrier.one()
        return CyclicAlgebraElement(self.r, self.s, tuple(coeffs))

    def mul(self, x: CyclicAlgebraElement, y: CyclicAlgebraElement) -> CyclicAlgebraElement:
        if (x.r, x.s) != (self.r, self.s) or (y.r, y.s) != (self.r, self.s):
            raise ValueError("algebra parameters do not match")
        carrier = self.ctx.carrier
        out = [carrier.zero()] * self.s
        p_to_r = self.ctx.p ** self.r
        for i, a in enumerate(x.coeffs):
            if carrier.is_zero(a):
                continue
            for j, b in enumerate(y.coeffs):
                if carrier.is_zero(b):
                    continue
                term = carrier.mul(a, self.ctx.sigma(b, i))
                k = i + j
                if k >= self.s:
                    k -= self.s
                    term = carrier.scalar_mul(p_to_r, term)
                out[k] = carrier.add(out[k], term)
        return CyclicAlgebraElement(self.r, self.s, tuple(out))

    def power(self, x: CyclicAlgebraElement, e: int) -> CyclicAlgebraElement:
        out = self.one()
        for _ in range(e):
            out = self.mul(out, x)
        return out

    def add(self, x: CyclicAlgebraElement, y: CyclicAlgebraElement) -> CyclicAlgebraElement:
        carrier = self.ctx.carrier
        return CyclicAlgebraElement(
            self.r, self.s, tuple(carrier.add(a, b) for a, b in zip(x.coeffs, y.coeffs))
        )

    def equal(self, x: CyclicAlgebraElement, y: CyclicAlgebraElement) -> bool:
        return x.coeffs == y.coeffs

    # -- the K_s-column matrix model ------------------------------------------

    def embed_matrix(self, x: CyclicAlgebraElement) -> Matrix:
        """Left multiplication in the K_s-column model, entry by entry:
        M(x)[i][k] = sigma^-(i+1)(a_((i-k) mod s)), times p^r when i < k
        (the wrap-around of Pi^s = p^r)."""
        carrier = self.ctx.carrier
        p_to_r = self.ctx.p ** self.r
        out = []
        for i in range(self.s):
            twisted = [self.ctx.sigma(a, -(i + 1)) for a in x.coeffs]
            out.append(tuple(
                carrier.scalar_mul(p_to_r, twisted[i - k]) if i < k else twisted[i - k]
                for k in range(self.s)
            ))
        return tuple(out)

    def reduced_norm_val(self, x: CyclicAlgebraElement) -> Tuple[Element, Fraction]:
        """Nrd = det of the embedded matrix (verified sigma_K-invariant);
        v_D = v_K(Nrd)/s.  The determinant is Bird's division-free one
        (``_det``): O(s^4) carrier operations, exact although p is not
        invertible in the carrier."""
        carrier = self.ctx.carrier
        det = _det(carrier, self.embed_matrix(x))
        if self.ctx.sigma(det, 1) != det:
            raise ArithmeticError("reduced norm is not sigma_K-invariant")
        v = carrier.valuation(det)
        if v >= self.ctx.precision:
            raise PrecisionError("insufficient precision: reduced norm indistinguishable from 0")
        return det, Fraction(v, self.s)


def _det(carrier: UnramWittCarrier, a: Matrix) -> Element:
    """Division-free determinant (Bird, Inf. Proc. Letters 111, 2011).

    X <- A, then n - 1 times X <- mu(X) A, where mu(X) keeps the strict
    upper triangle of X and puts -sum_{j > i} X_jj on the diagonal; then
    det A = (-1)^(n-1) X_00.  mu reads only the upper triangle of X, so
    only that half of each product is formed, and the last product only
    its (0, 0) entry.  Zero entries of mu(X) and of A are skipped."""
    n = len(a)
    nonzero = [[any(e) for e in row] for row in a]
    x = a
    for step in range(1, n):
        mu = [None] * n
        tail = carrier.zero()
        for i in range(n - 1, -1, -1):
            row = [(i, carrier.neg(tail))] + [(k, x[i][k]) for k in range(i + 1, n)]
            mu[i] = [(k, e) for k, e in row if any(e)]
            tail = carrier.add(tail, x[i][i])

        def entry(i, j):
            return carrier.dot((e, a[k][j]) for k, e in mu[i] if nonzero[k][j])

        if step == n - 1:
            x = [[entry(0, 0)]]
        else:
            x = [[None] * i + [entry(i, j) for j in range(i, n)] for i in range(n)]
    return x[0][0] if n % 2 else carrier.neg(x[0][0])


def brauer_invariant(r: int, s: int, ctx: UnramifiedContext) -> Fraction:
    """inv(D_{r/s}) = v_D(Pi) mod 1, computed through the reduced norm."""
    if ctx.s != s:
        raise ValueError("context extension degree must equal s")
    algebra = CyclicAlgebra(ctx, r)
    _, v = algebra.reduced_norm_val(algebra.pi())
    return v % 1


# ---------------------------------------------------------------------------
# Dieudonne modules


@dataclass(frozen=True)
class DieudonneModule:
    """(M, F, V) of rank n over the carrier W_N(F_{q^u}); V is
    sigma_K^(-1)-semilinear with matrix A_V (columns are V of the basis),
    F is sigma_K-semilinear with F V = V F = p."""

    ctx: UnramifiedContext
    n: int
    v_matrix: Matrix
    f_matrix: Matrix


def _entrywise_sigma(ctx: UnramifiedContext, mat: Matrix, power: int) -> Matrix:
    return tuple(tuple(ctx.sigma(e, power) for e in row) for row in mat)


def _mat_mul(ctx: UnramifiedContext, a: Matrix, b: Matrix) -> Matrix:
    carrier = ctx.carrier
    n = len(a)
    out = [[carrier.zero()] * n for _ in range(n)]
    for i in range(n):
        for k in range(n):
            if carrier.is_zero(a[i][k]):
                continue
            for j in range(n):
                if carrier.is_zero(b[k][j]):
                    continue
                out[i][j] = carrier.add(out[i][j], carrier.mul(a[i][k], b[k][j]))
    return tuple(tuple(row) for row in out)


def _is_scalar_matrix(ctx: UnramifiedContext, mat: Matrix, scalar: int) -> bool:
    carrier = ctx.carrier
    target = carrier.from_int(scalar)
    for i, row in enumerate(mat):
        for j, e in enumerate(row):
            want = target if i == j else carrier.zero()
            if e != want:
                return False
    return True


def dieudonne_standard(n: int, h: int, ctx: UnramifiedContext) -> DieudonneModule:
    """The standard special module on (d_1..d_h, e_1..e_{n-h}):
    V d_i = d_i, V e_i = e_{i+1}, V e_{n-h} = p e_1; F = V^(-1) p has the
    closed form F d_i = p d_i, F e_{i+1} = p e_i, F e_1 = e_{n-h}."""
    if not (0 <= h <= n) or n < 1:
        raise ValueError("need 0 <= h <= n with n >= 1")
    carrier = ctx.carrier
    zero = carrier.zero()
    one = carrier.one()
    p_el = carrier.from_int(ctx.p)
    nf = n - h
    v = [[zero] * n for _ in range(n)]
    f = [[zero] * n for _ in range(n)]
    for i in range(h):
        v[i][i] = one
        f[i][i] = p_el
    for i in range(nf):
        col = h + i
        if i + 1 < nf:
            v[h + i + 1][col] = one
        else:
            v[h][col] = p_el
    for i in range(nf):
        col = h + i
        if i == 0:
            f[h + nf - 1][col] = one
        else:
            f[h + i - 1][col] = p_el
    mod = DieudonneModule(ctx, n, tuple(tuple(r) for r in v), tuple(tuple(r) for r in f))
    fv = _mat_mul(ctx, mod.f_matrix, _entrywise_sigma(ctx, mod.v_matrix, 1))
    vf = _mat_mul(ctx, mod.v_matrix, _entrywise_sigma(ctx, mod.f_matrix, -1))
    if not (_is_scalar_matrix(ctx, fv, ctx.p) and _is_scalar_matrix(ctx, vf, ctx.p)):
        raise ArithmeticError("FV = VF = p fails on the standard module")
    return mod


def v_power_matrix(mod: DieudonneModule, k: int) -> Matrix:
    """Matrix of V^k (a sigma_K^(-k)-semilinear map)."""
    ctx = mod.ctx
    acc = mod.v_matrix
    for i in range(1, k):
        acc = _mat_mul(ctx, acc, _entrywise_sigma(ctx, mod.v_matrix, -i))
    if k == 0:
        n = mod.n
        carrier = ctx.carrier
        return tuple(
            tuple(carrier.one() if i == j else carrier.zero() for j in range(n)) for i in range(n)
        )
    return acc


def etale_inf_height(mod: DieudonneModule) -> Tuple[int, int]:
    """Iterate the image of V on M/pM until the residue rank stabilizes;
    the stable rank is the etale height (V is nilpotent on the formal part
    modulo p within n steps)."""
    ctx = mod.ctx
    field = ctx.carrier.residue
    q = ctx.q

    def res(e: Element):
        return ctx.carrier.reduce_mod_p(e)

    def sigma_inv_res(a):
        out = a
        for _ in range(ctx.s - 1 if ctx.s > 1 else 0):
            out = field.pow(out, q)
        return out

    def rank(mat) -> int:
        rows = [list(r) for r in mat]
        nrows, ncols = len(rows), len(rows[0])
        rk = 0
        for col in range(ncols):
            sel = None
            for i in range(rk, nrows):
                if any(rows[i][col]):
                    sel = i
                    break
            if sel is None:
                continue
            rows[rk], rows[sel] = rows[sel], rows[rk]
            inv = field.inverse(rows[rk][col])
            rows[rk] = [field.mul(x, inv) for x in rows[rk]]
            for i in range(nrows):
                if i != rk and any(rows[i][col]):
                    c = rows[i][col]
                    rows[i] = [field.sub(x, field.mul(c, y)) for x, y in zip(rows[i], rows[rk])]
            rk += 1
        return rk

    a_bar = [[res(e) for e in row] for row in mod.v_matrix]
    b = a_bar
    for _ in range(mod.n):
        b = [
            [
                _row_dot(field, a_bar[i], [sigma_inv_res(b[k][j]) for k in range(mod.n)])
                for j in range(mod.n)
            ]
            for i in range(mod.n)
        ]
    etale = rank(b)
    return etale, mod.n - etale


def _row_dot(field, row, col):
    acc = field.zero()
    for x, y in zip(row, col):
        acc = field.add(acc, field.mul(x, y))
    return acc
