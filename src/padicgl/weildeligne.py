"""Frobenius-semisimple Weil-Deligne representations as block multisets.

A block (atom, m) stands for rec(atom) tensor Sp(m), with Sp(m) in the
ascending-weight convention: underlying Weil representation with weights
|.|^0, ..., |.|^(m-1) and N e_i = e_{i+1}.  Geometric Frobenius acts on
Sp(m) by diag(1, q^-1, ..., q^(1-m)); this is the only convention for which
the invariant line ker N carries the eigenvalue q^(1-m) of the Sp(m)
L-factor.

For I_K-spherical data the module also builds explicit matrices: Frobenius
is semisimple with eigenvalues c * q^(k/2), c in Q(i), so the model stores
Phi as its diagonal of canonical exact scalars (``qexact.canonical_scalar``)
next to an integer nilpotent N.  L-factors and epsilon determinants are
recomputed from these two matrices alone by linear algebra over Q: for
each eigenvalue lam of Phi, the dimension of ker N inside the
lam-eigenspace is a rank of columns of N.  That oracle never reads the
block data, and it is what validates the structural formulas, including
the Clebsch-Gordan expansion of Sp(a) tensor Sp(b).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .bzclass import (
    Atom,
    LabelRegistry,
    RegistryError,
    unramified_atom,
)
from .common import Value, setfield
from .qexact import (
    ExactScalar,
    LFactor,
    LocalFieldContext,
    _half_integer,
    as_q_power,
    canonical_scalar,
    norm_is_one,
)


class WDBlock(Value):
    __slots__ = ("atom", "m")

    def __init__(self, atom: Atom, m: int):
        if m < 1:
            raise ValueError("Sp length m must be >= 1")
        setfield(self, "atom", atom)
        setfield(self, "m", m)

    @property
    def dimension(self) -> int:
        return self.atom.degree * self.m

    def key(self):
        return (self.atom.label.name, self.atom.x, self.m)


class WDRep(Value):
    __slots__ = ("blocks",)

    def __init__(self, blocks: Tuple[WDBlock, ...]):
        if not blocks:
            raise ValueError("a Weil-Deligne representation needs at least one block")
        setfield(self, "blocks", blocks)

    @property
    def dimension(self) -> int:
        return sum(b.dimension for b in self.blocks)

    def key(self):
        return tuple(sorted(b.key() for b in self.blocks))


def sp_block(atom: Atom, m: int) -> WDBlock:
    return WDBlock(atom, m)


def sp_rep(atom: Atom, m: int) -> WDRep:
    return WDRep((WDBlock(atom, m),))


def direct_sum(rho1: WDRep, rho2: WDRep) -> WDRep:
    return WDRep(rho1.blocks + rho2.blocks)


def wd_twist(rho: WDRep, y) -> WDRep:
    y = _half_integer(y, "twist")
    return WDRep(tuple(WDBlock(b.atom.twist(y), b.m) for b in rho.blocks))


def wd_dual(rho: WDRep) -> WDRep:
    """Blockwise contragredient: Sp(m)^vee = |.|^(1-m) tensor Sp(m), so the
    block (a, m) goes to (a^vee(1-m), m) -- the same formula as for
    segments."""
    return WDRep(tuple([WDBlock(b.atom.dual().twist(1 - b.m), b.m) for b in rho.blocks]))


def wd_tensor_char(rho: WDRep, chi: Atom, ctx: LocalFieldContext,
                   registry: Optional[LabelRegistry] = None) -> WDRep:
    """Tensor with a one-dimensional atom; mirrors class_tensor_char."""
    if chi.degree != 1:
        raise ValueError("tensor character must have degree 1")
    if chi.label.is_unramified_char():
        w = as_q_power(chi.label.omega, ctx)
        if w is not None:
            return wd_twist(rho, chi.x - w)
        blocks = []
        for b in rho.blocks:
            if not b.atom.label.is_unramified_char():
                raise RegistryError(
                    "label registry incomplete: unramified twist with non-lattice unit part "
                    "needs declared product labels for symbolic blocks"
                )
            value = b.atom.value_at_uniformizer() * chi.value_at_uniformizer()
            blocks.append(WDBlock(unramified_atom(value, ctx), b.m))
        return WDRep(tuple(blocks))
    if registry is None:
        raise RegistryError("label registry incomplete: ramified twist needs a registry")
    blocks = []
    for b in rho.blocks:
        lab = registry.product(b.atom.label, chi.label)
        blocks.append(WDBlock(Atom(lab, b.atom.x + chi.x), b.m))
    return WDRep(tuple(blocks))


def nilpotent_partition(rho: WDRep) -> List[int]:
    """Jordan type of N: each block contributes m with multiplicity n."""
    parts: List[int] = []
    for b in rho.blocks:
        parts.extend([b.m] * b.atom.degree)
    return sorted(parts, reverse=True)


def _block_bounded(b: WDBlock, ctx: LocalFieldContext) -> bool:
    # eigenvalue norms of eta(Frobenius) are |omega|^(1/n) * q^(-x-(m-1)/2);
    # test |center value| = 1 with the center twist x + (m-1)/2
    center = b.atom.twist(Fraction(b.m - 1, 2))
    return norm_is_one(center.value_at_uniformizer(), ctx)


def wd_predicates(rho: WDRep, ctx: LocalFieldContext) -> Dict[str, bool]:
    single = len(rho.blocks) == 1
    irreducible = single and rho.blocks[0].m == 1
    indecomposable = single
    unramified = all(b.m == 1 and b.atom.label.is_unramified_char() for b in rho.blocks)
    ik_spherical = all(b.atom.label.is_unramified_char() for b in rho.blocks)
    bounded = all(_block_bounded(b, ctx) for b in rho.blocks)
    return {
        "irreducible": irreducible,
        "indecomposable": indecomposable,
        "unramified": unramified,
        "ik_spherical": ik_spherical,
        "bounded_frobenius": bounded,
    }


def clebsch_gordan(m1: int, m2: int) -> List[Tuple[int, int]]:
    """Sp(m1) tensor Sp(m2) = sum over j of |.|^j tensor Sp(m1+m2-1-2j),
    j = 0 .. min(m1,m2)-1; forced by the SL2 dictionary and validated
    against the matrix oracle."""
    if m1 < 1 or m2 < 1:
        raise ValueError("Sp lengths must be >= 1")
    return [(j, m1 + m2 - 1 - 2 * j) for j in range(min(m1, m2))]


# ---------------------------------------------------------------------------
# the explicit matrix model
#
# Tuples here are built from lists, not generators, for the reason given at
# qexact.LFactor.of: the oracle builds thousands of them per second.


class UnramMatrixRep(Value):
    """Explicit matrices: the geometric Frobenius Phi, stored as its diagonal
    of exact scalars, and an integer nilpotent N, satisfying
    Phi N = q^(-1) N Phi.  The diagonal is made canonical on construction,
    so equal eigenvalues are equal, hashable data."""

    __slots__ = ("ctx", "frobenius", "nilpotent")

    @property
    def dimension(self) -> int:
        return len(self.frobenius)

    def __init__(self, ctx: LocalFieldContext, frobenius: Tuple[ExactScalar, ...],
                 nilpotent: Tuple[Tuple[int, ...], ...]):
        diag = tuple([canonical_scalar(d, ctx) for d in frobenius])
        n = len(diag)
        if len(nilpotent) != n or any(len(row) != n for row in nilpotent):
            raise ValueError("matrix dimensions disagree")
        qinv = ExactScalar.q_power(-1)
        # (Phi N - q^(-1) N Phi)_ij = N_ij (d_i - q^(-1) d_j) for Phi = diag(d)
        for i, row in enumerate(nilpotent):
            for j, entry in enumerate(row):
                if entry and diag[i] != canonical_scalar(qinv * diag[j], ctx):
                    raise ValueError(
                        f"matrices violate the Weil-Deligne relation at N[{i}][{j}]"
                    )
        setfield(self, "ctx", ctx)
        setfield(self, "frobenius", diag)
        setfield(self, "nilpotent", nilpotent)


def explicit_unramified(rho: WDRep, ctx: LocalFieldContext) -> UnramMatrixRep:
    """Assemble the block-diagonal matrix model of an I_K-spherical rho."""
    qinv = ExactScalar.q_power(-1)
    diag: List[ExactScalar] = []
    nil_entries: List[Tuple[int, int]] = []
    for b in rho.blocks:
        if not b.atom.label.is_unramified_char():
            raise ValueError("oracle undefined: non-unramified atom present")
        val = b.atom.value_at_uniformizer()
        for i in range(b.m):
            if i:
                nil_entries.append((len(diag), len(diag) - 1))
            diag.append(val)
            val = val * qinv
    dim = len(diag)
    nil = [[0] * dim for _ in range(dim)]
    for i, j in nil_entries:
        nil[i][j] = 1
    return UnramMatrixRep(ctx, tuple(diag), tuple([tuple(row) for row in nil]))


def dual_matrix_rep(rep: UnramMatrixRep) -> UnramMatrixRep:
    """Contragredient in the matrix model: Phi -> Phi^(-1) entrywise on the
    diagonal and N -> N^T (the sign of -N^T does not change kernels or
    determinants, and dropping it keeps the 0/1 entry convention)."""
    n = rep.dimension
    frob = tuple([d.inverse() for d in rep.frobenius])
    nil = tuple([tuple([rep.nilpotent[j][i] for j in range(n)]) for i in range(n)])
    return UnramMatrixRep(rep.ctx, frob, nil)


def tensor_matrix_rep(r1: UnramMatrixRep, r2: UnramMatrixRep) -> UnramMatrixRep:
    """Kronecker product of the Frobenius diagonals; N = N1 (x) 1 + 1 (x) N2."""
    n1, n2 = r1.dimension, r2.dimension
    n = n1 * n2
    frob = tuple([d1 * d2 for d1 in r1.frobenius for d2 in r2.frobenius])
    nil = [[0] * n for _ in range(n)]
    for i1 in range(n1):
        for i2 in range(n2):
            col = i1 * n2 + i2
            for j1 in range(n1):
                nil[j1 * n2 + i2][col] += r1.nilpotent[j1][i1]
            for j2 in range(n2):
                nil[i1 * n2 + j2][col] += r2.nilpotent[j2][i2]
    return UnramMatrixRep(r1.ctx, frob, tuple([tuple(r) for r in nil]))


def _rational_rank(mat: Sequence[Sequence[int]]) -> int:
    """Rank over Q of an integer matrix, by fraction-free (Bareiss)
    elimination: after each pivot every remaining entry is a minor of the
    matrix, so the division by the previous pivot is exact and the entries
    stay integers of bounded size."""
    rows = [list(row) for row in mat if any(row)]
    ncols = len(rows[0]) if rows else 0
    rank, prev = 0, 1
    for col in range(ncols):
        sel = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if sel is None:
            continue
        rows[rank], rows[sel] = rows[sel], rows[rank]
        pivot = rows[rank]
        pv = pivot[col]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col]
            rows[i] = [(pv * a - f * b) // prev for a, b in zip(rows[i], pivot)]
        prev = pv
        rank += 1
    return rank


def _eigenspace_kernels(rep: UnramMatrixRep) -> List[Tuple[ExactScalar, int, int]]:
    """(lam, dim V_lam, dim(ker N cap V_lam)) for each eigenvalue lam of Phi.

    V_lam is spanned by the basis vectors e_j with Phi_jj = lam, so
    ker N cap V_lam is the kernel of the columns N[:, j] for those j.  The
    Weil-Deligne relation makes ker N Phi-stable, hence ker N is the direct
    sum of these intersections and they describe Phi on ker N completely."""
    cols: Dict[ExactScalar, List[int]] = {}
    for j, lam in enumerate(rep.frobenius):
        cols.setdefault(lam, []).append(j)
    out = []
    for lam, js in cols.items():
        rank = _rational_rank([[row[j] for j in js] for row in rep.nilpotent])
        out.append((lam, len(js), len(js) - rank))
    return out


def matrix_l(rep: UnramMatrixRep) -> LFactor:
    """L-factor from the matrices: det(1 - T Phi | ker N)^(-1), with each
    eigenvalue lam of Phi counted dim(ker N cap V_lam) times."""
    return LFactor.of(
        (lam, 1)
        for lam, _, kernel_dim in _eigenspace_kernels(rep)
        for _ in range(kernel_dim)
    )


def matrix_eps_det(rep: UnramMatrixRep) -> ExactScalar:
    """det(-Phi | V / ker N) = prod over lam of (-lam)^(dim V_lam - dim(ker N cap V_lam))."""
    out = ExactScalar.one()
    for lam, dim, kernel_dim in _eigenspace_kernels(rep):
        out = out * (-lam) ** (dim - kernel_dim)
    return out
