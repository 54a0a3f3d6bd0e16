"""Truncated unramified p-adic arithmetic, cyclic division algebras, and
Dieudonne standard forms.

The carrier for W_N(F_{q^s}) is the unramified-extension model
(Z/p^N)[x]/(F) with F a deterministic monic lift of an irreducible
polynomial over F_p (:class:`padicgl.wittring.UnramWittCarrier`, which is
also the finite field at N = 1).  It is isomorphic to the length-N Witt
vectors via Teichmuller digits; :mod:`wittring` computes F_{p^r} Witt
arithmetic through that isomorphism, and the test suite checks the result
against the universal polynomials, which do not use it.  The Frobenius
sigma_K is the unique automorphism inducing x -> x^q on the residue field:
sigma_K(x) is the root of F congruent to x^q (unique by Hensel's lemma),
reached by the Newton iteration that carries the inverse of F' along with
the root from its residue-field value (von zur Gathen and Gerhard, Modern
Computer Algebra, ch. 9), and sigma_K is verified to have exact order s.
The context keeps sigma_K's matrix alone: a constant, which sigma_K fixes,
costs nothing, and a caller of several powers of one element walks its orbit.

Only unramified base fields are supported here (pi_K = p); the
representation-theoretic modules never consume this restriction since they
only read (q, d, n_psi).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul
from typing import Sequence, Tuple

from .common import Value, power, setfield
from .wittring import Element, UnramWittCarrier

Matrix = Tuple[Tuple[Element, ...], ...]


class PrecisionError(ArithmeticError):
    pass


class UnramifiedContext(Value):
    """W_N(F_{q^s}), q = p^f, with sigma_K of exact order s as one m x m matrix."""

    __slots__ = ("p", "f", "s", "precision", "_carrier", "_sigma_matrix")

    def __init__(self, p: int, f: int, s: int, precision: int):
        if f < 1 or s < 1:
            raise ValueError("f and s must be >= 1")
        setfield(self, "p", p)
        setfield(self, "f", f)
        setfield(self, "s", s)
        setfield(self, "precision", precision)
        carrier = UnramWittCarrier(p, f * s, precision)
        setfield(self, "_carrier", carrier)
        gen, m = carrier.gen(), carrier.m
        # sigma_K(x): Newton from x^q to a root of F; one evaluator serves F
        # and F', over their nonzero terms
        f_terms = [(i, c) for i, c in enumerate(carrier.modulus_low + (1,)) if c]
        df_terms = [(i - 1, i * c) for i, c in f_terms if i]

        def evaluate(terms, y):
            return carrier.dot((carrier.from_int(c), carrier.pow(y, i)) for i, c in terms)

        # root and z = 1/F'(root) start exact mod p and double their
        # accuracy each step, so (N - 1).bit_length() steps reach p^N
        root = carrier.pow(gen, self.q)
        z = carrier.residue.inv_unit(carrier.reduce_mod_p(evaluate(df_terms, root)))
        for _ in range((self.precision - 1).bit_length()):
            root = carrier.sub(root, carrier.mul(evaluate(f_terms, root), z))
            z = carrier.mul(z, carrier.sub(carrier.from_int(2), carrier.mul(evaluate(df_terms, root), z)))
        if not carrier.is_zero(evaluate(f_terms, root)):
            raise ArithmeticError("Frobenius lift did not converge")
        # sigma_K is Z/p^N-linear: row t of its matrix holds coefficient t
        # of sigma_K(x^c) = root^c for c = 0..m-1
        powers = [carrier.one()]
        while len(powers) < m:
            powers.append(carrier.mul(powers[-1], root))
        setfield(self, "_sigma_matrix", tuple(zip(*powers)))
        # imgs[j] = sigma_K^j(x), the orbit of x
        imgs = [gen, root]
        while len(imgs) <= self.s:
            imgs.append(self.sigma(imgs[-1]))
        if imgs[self.s] != gen:  # imgs[1] = root when s = 1
            raise ArithmeticError("sigma_K must be trivial when s = 1" if self.s == 1
                                  else "sigma_K does not have order s on the carrier")
        if gen in imgs[1:self.s]:
            raise ArithmeticError("sigma_K has order smaller than s")

    @property
    def q(self) -> int:
        return self.p ** self.f

    @property
    def carrier(self) -> UnramWittCarrier:
        return self._carrier

    def sigma(self, a: Element, power: int = 1) -> Element:
        """sigma_K^power for any integer power: its matrix applied power mod s
        times, or a constant (zero too) at once, as sigma_K fixes Z/p^N."""
        if not any(a[1:]):
            return a
        pN, rows = self.carrier.pN, self._sigma_matrix
        for _ in range(power % self.s):
            a = tuple(sum(map(mul, a, row)) % pN for row in rows)
        return a


# ---------------------------------------------------------------------------
# cyclic algebras D = K_s[Pi], Pi^s = p^r, Pi a = sigma_K(a) Pi


class CyclicAlgebraElement(Value):
    __slots__ = ("r", "s", "coeffs")

    def __init__(self, r: int, s: int, coeffs: Tuple[Element, ...]):
        setfield(self, "r", r)
        setfield(self, "s", s)
        setfield(self, "coeffs", coeffs)  # coefficients of 1, Pi, ..., Pi^(s-1)


class CyclicAlgebra:
    def __init__(self, ctx: UnramifiedContext, r: int):
        if r < 0:
            raise ValueError(f"r = {r} must be >= 0: Pi^s = p^r must lie in the carrier")
        if gcd(r, ctx.s) != 1:
            raise ValueError(f"parameters (r, s) = ({r}, {ctx.s}) must be coprime")
        self.ctx = ctx
        self.r = r
        self.s = ctx.s
        # Pi^s = p^r is only ever used in the carrier, mod p^N
        self._p_to_r = pow(ctx.p, r, ctx.carrier.pN)

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
            return self.from_carrier(carrier.from_int(self._p_to_r))
        coeffs = [carrier.zero()] * self.s
        coeffs[1] = carrier.one()
        return CyclicAlgebraElement(self.r, self.s, tuple(coeffs))

    def mul(self, x: CyclicAlgebraElement, y: CyclicAlgebraElement) -> CyclicAlgebraElement:
        if (x.r, x.s) != (self.r, self.s) or (y.r, y.s) != (self.r, self.s):
            raise ValueError("algebra parameters do not match")
        # (a_i Pi^i)(b_j Pi^j) = a_i sigma_K^i(b_j) Pi^(i+j), and Pi^s = p^r;
        # zero coefficients are skipped, so powers of Pi stay cheap, and each
        # b_j walks its orbit under sigma_K up to the last nonzero a_i
        carrier, s = self.ctx.carrier, self.s
        left = [(i, a, carrier.scalar_mul(self._p_to_r, a))
                for i, a in enumerate(x.coeffs) if not carrier.is_zero(a)]
        terms = [[] for _ in range(s)]
        for j, b in enumerate(y.coeffs):
            if carrier.is_zero(b):
                continue
            walked = 0
            for i, a, wrapped in left:
                b, walked = self.ctx.sigma(b, i - walked), i
                terms[(i + j) % s].append((a if i + j < s else wrapped, b))
        zero = carrier.zero()
        return CyclicAlgebraElement(self.r, s, tuple(carrier.dot(t) if t else zero for t in terms))

    def power(self, x: CyclicAlgebraElement, e: int) -> CyclicAlgebraElement:
        """x^e for e >= 0."""
        return power(x, e, self.mul, self.one())

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
        carrier, p_to_r, s = self.ctx.carrier, self._p_to_r, self.s
        # sigma^-(i+1) = sigma^(s-1-i): orbits[t] holds sigma^t of x's coefficients
        orbits = [x.coeffs]
        while len(orbits) < s:
            orbits.append(tuple(map(self.ctx.sigma, orbits[-1])))
        return tuple(tuple(carrier.scalar_mul(p_to_r, twisted[i - k]) if i < k else twisted[i - k]
                           for k in range(s)) for i, twisted in enumerate(reversed(orbits)))

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
    its (0, 0) entry.  Zero entries of mu(X) and of A are skipped.

    Every entry is packed once, at one width (:class:`wittring._Packing`),
    and X stays packed between the steps: an entry of mu(X) A is a sum of
    integer products, reduced mod (p^N, F) once and packed again, and only
    det is unpacked.  The diagonal -tail is n p^N - tail in every slot,
    which borrows nothing since the tail adds at most n - 1 reduced
    entries; so every factor has slots below p^N but that one, with slots
    at most n p^N, and an entry, a sum of at most n products of m slot
    products each, has slots below m p^N (n p^N + n p^N), the bound the
    width is chosen for."""
    n, pN = len(a), carrier.pN
    packing = carrier.packing(2 * n * carrier.m * pN * pN)
    a = [[packing.pack(e) for e in row] for row in a]
    minus = packing.join([n * pN] * carrier.m)
    x = a
    for step in range(1, n):
        mu = [None] * n
        tail = 0
        for i in range(n - 1, -1, -1):
            row = [(i, minus - tail if tail else 0)] + [(k, x[i][k]) for k in range(i + 1, n)]
            mu[i] = [(k, e) for k, e in row if e]
            tail += x[i][i]

        def entry(i, j):
            return sum([e * a[k][j] for k, e in mu[i] if a[k][j]])

        if step == n - 1:
            x = [[entry(0, 0)]]
        else:
            x = [[None] * i + [packing.join(packing.reduce(entry(i, j))) for j in range(i, n)] for i in range(n)]
    det = tuple(packing.reduce(x[0][0]))
    return det if n % 2 else carrier.neg(det)


def brauer_invariant(r: int, s: int, ctx: UnramifiedContext) -> Fraction:
    """inv(D_{r/s}) = v_D(Pi) mod 1, computed through the reduced norm."""
    if ctx.s != s:
        raise ValueError("context extension degree must equal s")
    algebra = CyclicAlgebra(ctx, r)
    _, v = algebra.reduced_norm_val(algebra.pi())
    return v % 1


# ---------------------------------------------------------------------------
# Dieudonne modules


class DieudonneModule(Value):
    """(M, F, V) of rank n over the carrier W_N(F_{q^u}); V is
    sigma_K^(-1)-semilinear with matrix A_V (columns are V of the basis),
    F is sigma_K-semilinear with F V = V F = p."""

    __slots__ = ("ctx", "n", "v_matrix", "f_matrix")

    def __init__(self, ctx: UnramifiedContext, n: int, v_matrix: Matrix, f_matrix: Matrix):
        setfield(self, "ctx", ctx)
        setfield(self, "n", n)
        setfield(self, "v_matrix", v_matrix)
        setfield(self, "f_matrix", f_matrix)


def _entrywise_sigma(ctx: UnramifiedContext, mat: Matrix, power: int) -> Matrix:
    if power % ctx.s == 0:
        return mat
    return tuple(tuple(ctx.sigma(e, power) for e in row) for row in mat)


def _mat_mul(ctx: UnramifiedContext, a: Matrix, b: Matrix) -> Matrix:
    """a b: each entry is one carrier dot over its nonzero products, or the
    carrier zero when it has none; the nonzero entries of each row of b are
    listed once."""
    carrier = ctx.carrier
    zero = carrier.zero()
    b_rows = [[(j, e) for j, e in enumerate(row) if e != zero] for row in b]
    out = []
    for row in a:
        terms = [[] for _ in b[0]]
        for k, x in enumerate(row):
            if x != zero:
                for j, y in b_rows[k]:
                    terms[j].append((x, y))
        out.append(tuple(carrier.dot(t) if t else zero for t in terms))
    return tuple(out)


def _is_scalar_matrix(ctx: UnramifiedContext, mat: Matrix, scalar: int) -> bool:
    target, zero = ctx.carrier.from_int(scalar), ctx.carrier.zero()
    return all(e == (target if i == j else zero) for i, row in enumerate(mat) for j, e in enumerate(row))


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
    """Matrix of V^k (a sigma_K^(-k)-semilinear map): the k-th power of the
    pair (V, 1), where (A, a)(B, b) = (A sigma_K^(-a)(B), a + b) composes
    V^a with V^b."""
    ctx, carrier = mod.ctx, mod.ctx.carrier

    def compose(x, y):
        return _mat_mul(ctx, x[0], _entrywise_sigma(ctx, y[0], -x[1])), x[1] + y[1]

    identity = tuple(
        tuple(carrier.one() if i == j else carrier.zero() for j in range(mod.n)) for i in range(mod.n)
    )
    return power((mod.v_matrix, 1), k, compose, (identity, 0))[0]


def etale_inf_height(mod: DieudonneModule) -> Tuple[int, int]:
    """The etale height is the residue rank of V^n: on M/pM the images of
    the powers of V decrease and are stable from the n-th on, where V is
    nilpotent on the formal part.  (The image of a semilinear map is the
    column space of its matrix.)"""
    carrier = mod.ctx.carrier
    field = carrier.residue
    rows = [[carrier.reduce_mod_p(e) for e in row] for row in v_power_matrix(mod, mod.n)]
    rk = 0
    for col in range(mod.n):
        sel = next((i for i in range(rk, mod.n) if any(rows[i][col])), None)
        if sel is None:
            continue
        rows[rk], rows[sel] = rows[sel], rows[rk]
        inv = field.inv_unit(rows[rk][col])
        rows[rk] = [field.mul(x, inv) for x in rows[rk]]
        for i in range(mod.n):
            if i != rk and any(rows[i][col]):
                c = rows[i][col]
                rows[i] = [field.sub(x, field.mul(c, y)) for x, y in zip(rows[i], rows[rk])]
        rk += 1
    return rk, mod.n - rk
