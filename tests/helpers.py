"""Shared fixtures: a curated label registry and seeded data generators."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations

from padicgl.bzclass import (
    Atom,
    ClassData,
    Segment,
    load_registry,
    unramified_atom,
)
from padicgl.qexact import ExactScalar, GaussianRational, LocalFieldContext


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


def leibniz_det(carrier, mat):
    """Reference determinant over a carrier ring: the sum over all n!
    permutations (what the reduced norm used before the division-free
    determinant)."""
    n = len(mat)
    det = carrier.zero()
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = carrier.one()
        for i in range(n):
            term = carrier.mul(term, mat[i][perm[i]])
        det = carrier.add(det, carrier.neg(term) if inversions % 2 else term)
    return det
