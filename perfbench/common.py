"""Paths, the correctness gate, and the seeded input generators shared by
the workloads.  Importing this module puts the checkout's ``src/`` first on
``sys.path`` and refuses to run against any other copy of padicgl."""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REGISTRY_PATH = BENCH_DIR / "registry.json"


class SourceMissing(ImportError):
    """The checkout holds no padicgl sources to benchmark."""


def use_checkout_sources():
    """Import padicgl from this checkout's src/ and nowhere else."""
    if not (SRC / "padicgl" / "__init__.py").is_file():
        raise SourceMissing(f"no padicgl sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import padicgl

    if Path(padicgl.__file__).resolve().parent != SRC / "padicgl":
        raise SourceMissing(f"padicgl was imported from {padicgl.__file__}, not from {SRC}")


use_checkout_sources()

from padicgl.bzclass import Atom, ClassData, Segment, load_registry, unramified_atom  # noqa: E402
from padicgl.qexact import ExactScalar, GaussianRational, LocalFieldContext  # noqa: E402


@dataclass
class State:
    """A workload's inputs after set-up: rounds of items, run in order and
    cycled."""

    rounds: list


class CheckFailed(AssertionError):
    """An output disagreed with its independent reference."""


def check(ok: bool, what: str):
    if not ok:
        raise CheckFailed(what)


# Unit parts of unramified character values; the workloads multiply them by
# half-integral powers of q.
GAUSSIAN_POOL = (
    GaussianRational.of(1),
    GaussianRational.of(-1),
    GaussianRational.of(0, 1),
    GaussianRational.of(0, -1),
    GaussianRational.of(2),
    GaussianRational.of(Fraction(1, 2)),
    GaussianRational.of(Fraction(3, 5), Fraction(4, 5)),
    GaussianRational.of(1, 1),
)
HALF_TWISTS = tuple(Fraction(n, 2) for n in range(-4, 5))


def make_registry(ctx: LocalFieldContext):
    """The benchmark's label registry (registry.json) for this context."""
    with open(REGISTRY_PATH, encoding="utf-8") as fh:
        return load_registry(json.load(fh), ctx)


def label_names(registry):
    """The registry's labels other than unramified characters: the
    symbolic and the ramified-character labels."""
    return [n for n in registry.names() if not registry.resolve(n).is_unramified_char()]


def unram_value(rng: random.Random) -> ExactScalar:
    return ExactScalar(rng.choice(GAUSSIAN_POOL), 0).shift(rng.choice(HALF_TWISTS))


def unram_atom(rng: random.Random, ctx: LocalFieldContext):
    return unramified_atom(unram_value(rng), ctx)


def random_class_data(rng: random.Random, registry, ctx: LocalFieldContext,
                      max_segments: int = 3, max_degree: int = 8,
                      unramified_only: bool = False) -> ClassData:
    """Q-form data of at most max_segments segments and total degree at most
    max_degree; segment starts are unramified atoms or the registry's
    symbolic and ramified-character labels."""
    names = label_names(registry)
    segs = []
    total = 0
    for _ in range(rng.randint(1, max_segments)):
        if unramified_only or rng.random() < 0.4:
            atom = unram_atom(rng, ctx)
        else:
            lab = registry.resolve(rng.choice(names))
            atom = Atom(lab, rng.choice(HALF_TWISTS))
        room = (max_degree - total) // atom.degree
        if room < 1:
            break
        m = rng.randint(1, min(3, room))
        segs.append(Segment(atom, m))
        total += atom.degree * m
        if total >= max_degree:
            break
    if not segs:
        segs.append(Segment(unram_atom(rng, ctx), 1))
    return ClassData("Q", tuple(segs))

