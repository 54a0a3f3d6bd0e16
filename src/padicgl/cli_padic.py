"""The p-adic half of the CLI: the handlers of ``witt``, ``skewfield`` and
``dieudonne``, over Witt vectors and cyclic algebras.

Each handler returns the JSON document that ``cli.main`` prints.  ``cli``
imports this module only when one of these subcommands is chosen, so they
load none of the Langlands modules.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import log2, log10

from .common import (
    INT_DIGITS_LIMIT, PayloadError, array, digits, field, fraction_to_json, integer, read_payload, string,
)
from .cyclicalg import (
    CyclicAlgebra,
    UnramifiedContext,
    _is_scalar_matrix,
    brauer_invariant,
    dieudonne_standard,
    etale_inf_height,
    v_power_matrix,
)
from .wittring import (
    WITT_BITS_CAP,
    GFRing,
    IntegerRing,
    ModRing,
    RationalField,
    WittContext,
    frobenius,
    ghost,
    ghost_inverse,
    verschiebung,
    witt_polynomial,
)


def _witt_ring(spec, p: int):
    """The coefficient ring of ``--ring``, which argparse has read as
    (name, the integer after the colon or None)."""
    name, n = spec
    if name == "Q":
        return RationalField()
    if name == "Z":
        return IntegerRing()
    if name == "Fp":
        return ModRing(p)
    if name == "Zmod":
        return ModRing(n)
    return GFRing(p, n)


def _witt_coord(ring, c, path):
    if isinstance(c, bool):  # an int to Python, which every ring would read as 0 or 1
        raise PayloadError(f"{path}: expected a number, got a boolean")
    if isinstance(c, list):
        c = digits(c, path)
    elif isinstance(c, str) and isinstance(ring, RationalField):  # other rings quote the string
        try:
            c = Fraction(c)
        except (ValueError, ZeroDivisionError):
            raise PayloadError(f"{path}: expected a rational number, got {c!r}") from None
    try:
        return ring.coerce(c)
    except TypeError as exc:  # the ring's "cannot coerce"
        raise PayloadError(f"{path}: {exc}") from None


def _witt_coords_out(coords):
    return [str(c) if isinstance(c, Fraction) else list(c) if isinstance(c, tuple) else c
            for c in coords]


def _carrier_matrix_out(mat):
    return [[list(e) for e in row] for row in mat]


_WITT_UNARY = {
    "neg": lambda x: (-x).coords,
    "frobenius": lambda x: frobenius(x).coords,
    "verschiebung": lambda x: verschiebung(x).coords,
    "ghost": ghost,
}
_WITT_BINARY = {
    "add": lambda x, y: (x + y).coords,
    "mul": lambda x, y: (x * y).coords,
}


# Python converts integers of at most INT_DIGITS_LIMIT digits to decimal by
# default.  A witt op over Z or Q forms powers of at most WITT_BITS_CAP bits,
# but a product's coordinates pass that: they reached 2.6 times the cap
# (p = 2, length 18, every coordinate of both factors at its bound).  This
# limit covers three times the cap.
_WITT_DIGITS = int(3 * WITT_BITS_CAP * log10(2)) + 1


def run_witt(args):
    if 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < _WITT_DIGITS:
        sys.set_int_max_str_digits(_WITT_DIGITS)  # cli.main restores it
    payload = read_payload(args.input)
    ring = _witt_ring(args.ring, args.p)
    wctx = WittContext(ring, args.p, args.length)
    op = string(field(payload, "op", default=""), "op")

    def coords(key):
        return array(field(payload, key), key, lambda c, path: _witt_coord(ring, c, path))

    if op in _WITT_BINARY:
        out = _WITT_BINARY[op](wctx.vector(coords("x")), wctx.vector(coords("y")))
    elif op in _WITT_UNARY:
        out = _WITT_UNARY[op](wctx.vector(coords("x")))
    elif op == "ghost-inverse":
        out = ghost_inverse(wctx, coords("x")).coords
    elif op == "witt-polynomial":
        values = coords("x")
        n = integer(field(payload, "n", default=len(values) - 1), "n")
        return {"result": _witt_coords_out((witt_polynomial(args.p, n, values, ring),))[0]}
    else:
        raise PayloadError(f"op: unknown witt op {op!r}")
    return {"result": _witt_coords_out(out)}


# A carrier element is m coefficients of log2(p^N) bits, for m = f s (f u
# for dieudonne).  sigma_K's matrix is built from m - 1 carrier products
# after the Frobenius lift, and a skewfield mul or embed applies it up to
# s (s - 1) times, m^2 coefficient products each.  So the bits of p^N and
# the degree are capped together: at the cap, the slowest skewfield op
# measured (mul at s = 40, p = 7, N = 178) took 3.4 s spawned on a 2-core
# x86-64 box (Python 3.11.7).
CARRIER_BITS_CAP = 20000


def _carrier_size(args, s: int) -> float:
    """m log2(p^N) for the carrier of --precision N and degree m = f s,
    refused before any work if p^N has more digits than Python prints by
    default (coefficients print mod p^N) or if it passes CARRIER_BITS_CAP;
    0 for a p below 2, which the context refuses."""
    if args.p < 2:
        return 0.0
    if args.precision * log10(args.p) >= INT_DIGITS_LIMIT:
        raise ValueError(f"precision {args.precision}: p^N = {args.p}^{args.precision} passes the cap of "
                         f"{INT_DIGITS_LIMIT} digits")
    degree = args.f * s
    size = degree * args.precision * log2(args.p)
    if size > CARRIER_BITS_CAP:
        raise ValueError(f"precision {args.precision} at carrier degree {degree}: degree * log2(p^N) = "
                         f"{size:.0f} passes the cap of {CARRIER_BITS_CAP}")
    return size


# The reduced norm is Bird's division-free determinant of an s x s matrix
# over the carrier: about s^4 / 3 packed products of integers of about
# 2 f s log2(p^N) bits, whose cost grows about as the 1.5th power of that
# size (doubling it at s = 16, 20 and 24 multiplied the time by 2.2 to
# 3.2).  So a norm is charged s^4 (f s log2 p^N)^1.5, refused past
# NORM_COST_CAP; the slowest accepted norms measured took 2.2-2.3 s
# spawned on a 2-core x86-64 box (s = 40 at p = 2, N = 12 and p = 7, N = 4).
NORM_COST_CAP = 3 * 10 ** 10
# dieudonne: rank n over W(F_{q^u}) is rank n f u over W(F_p).
DIEUDONNE_RANK_CAP = 400


def run_skewfield(args):
    payload = read_payload(args.input)
    op = field(payload, "op", default=None)
    size = _carrier_size(args, args.s)
    cost = args.s ** 4 * max(size, 0) ** 1.5
    if op == "norm" and cost > NORM_COST_CAP:
        raise ValueError(f"norm at s = {args.s} and f s log2(p^N) = {size:.0f}: s^4 (f s log2 p^N)^1.5 = "
                         f"{cost:.4g} passes the cap of {NORM_COST_CAP:.0e}")
    ctx = UnramifiedContext(args.p, args.f, args.s, args.precision)
    algebra = CyclicAlgebra(ctx, args.r)

    def element(key):
        return algebra.element(array(field(payload, key), key, digits))

    if op == "mul":
        out = algebra.mul(element("x"), element("y"))
        return {"coeffs": [list(c) for c in out.coeffs]}
    if op == "pi-power":
        out = algebra.power(algebra.pi(), integer(field(payload, "e", default=1), "e"))
        return {"coeffs": [list(c) for c in out.coeffs]}
    if op == "norm":
        nrd, v = algebra.reduced_norm_val(element("x"))
        return {"nrd": list(nrd), "vD": fraction_to_json(v)}
    if op == "invariant":
        return {"invariant": fraction_to_json(brauer_invariant(args.r, args.s, ctx))}
    if op == "embed":
        return {"matrix": _carrier_matrix_out(algebra.embed_matrix(element("x")))}
    raise PayloadError(f"op: unknown skewfield op {op!r}")


def run_dieudonne(args):
    if args.rank * args.f * args.residue_degree > DIEUDONNE_RANK_CAP:
        raise ValueError(f"rank n f u = {args.rank * args.f * args.residue_degree} passes the cap of "
                         f"{DIEUDONNE_RANK_CAP}")
    _carrier_size(args, args.residue_degree)
    ctx = UnramifiedContext(args.p, args.f, args.residue_degree, args.precision)
    mod = dieudonne_standard(args.rank, args.etale_height, ctx)
    etale, formal = etale_inf_height(mod)
    nf = args.rank - args.etale_height
    out = {
        "V": _carrier_matrix_out(mod.v_matrix),
        "F": _carrier_matrix_out(mod.f_matrix),
        "etale": etale,
        "formal": formal,
    }
    if nf > 0:
        block = [row[args.etale_height:] for row in v_power_matrix(mod, nf)[args.etale_height:]]
        out["v_power_is_pi_on_formal"] = _is_scalar_matrix(ctx, block, ctx.p)
    return out
