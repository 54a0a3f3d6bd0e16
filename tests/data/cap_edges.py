"""Time the cap-edge calls of the padicgl CLI on two source trees.

    python3 tests/data/cap_edges.py PARENT_SRC CHANGE_SRC [--runs 3] [--match TEXT]

A cap edge is a CLI call at or just past one of the size caps (the carrier
degree and bits, the norm charge, the Witt length, the Dieudonne rank, the
power cap on q) or at the slowest modulus search: the slowest accepted
calls found so far, and the refusals next to them.  One plain call, an
Sp(3) L-factor, records each tree's spawn floor.
Each call is spawned as ``python -m padicgl.cli ARGV`` with PYTHONPATH at
the tree's ``src`` and the payload on stdin, --runs times per tree,
alternating which tree runs first (even runs PARENT_SRC first).  The
seconds are wall time from spawn to exit, interpreter start included.

One JSON line per call is printed: the argv, the payload (in full when
short, otherwise the seeded recipe that builds it), the payload's sha256
and size, and per tree the runs, their median, the exit status and the
sha256 of the whole stdout.  --match keeps the calls whose argv, joined
by spaces, contains TEXT.

The calls are too slow for the test suite, which does not collect this
file; BENCH_<n>.json files record its output under ``cap_edges``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path


def literal(text):
    return text, text


def _grid(rng, rows, cols, bound):
    return [[rng.randrange(bound) for _ in range(cols)] for _ in range(rows)]


def witt_mul(length, digits, p, seed):
    """x, y: length coordinates, each of digits residues in [0, p) (Fq:r)
    or one value in [0, p) (digits None), x drawn first from one generator."""
    rng = random.Random(seed)
    if digits is None:
        x, y = ([rng.randrange(p) for _ in range(length)] for _ in "xy")
        what = f"{length} values in [0, {p})"
    else:
        x, y = (_grid(rng, length, digits, p) for _ in "xy")
        what = f"{length} coordinates of {digits} digits in [0, {p})"
    return (f"op mul; x, y: {what}, random.Random({seed}).randrange, x first",
            json.dumps({"op": "mul", "x": x, "y": y}))


def algebra(op, s, m, p, e, *seeds):
    """norm or embed (one seed) or mul (two): s Pi-coefficients of m digits
    in [0, p^e) each, one generator per element."""
    doc = {"op": op}
    for name, seed in zip("xy", seeds):
        doc[name] = _grid(random.Random(seed), s, m, p ** e)
    names = ", ".join("xy"[:len(seeds)])
    return (f"op {op}; {names}: {s} x {m} digits in [0, {p}^{e}), random.Random(seed).randrange, "
            f"seeds {', '.join(map(str, seeds))}", json.dumps(doc))


def steinberg(m):
    """lfactor's payload for Sp(m) over the trivial character."""
    return literal(json.dumps({"blocks": [{"label": "1", "x": [0, 1], "m": m}]}))


def skewfield(p, s, precision=None, f=None):
    argv = ["skewfield", "--p", str(p)] + (["--f", str(f)] if f else []) + ["--r", "1", "--s", str(s)]
    return argv + (["--precision", str(precision)] if precision else [])


INVARIANT = literal('{"op":"invariant"}')
ONE = literal('{"op":"norm","x":[[1]]}')
NONE = literal("")

CALLS = [
    (["witt", "--ring", "Fq:40", "--p", "5", "--length", "11"], witt_mul(11, 40, 5, 1601)),
    (["witt", "--ring", "Fq:40", "--p", "2", "--length", "25"], witt_mul(25, 40, 2, 1602)),
    (skewfield(1000003, 40, 25), INVARIANT),
    (skewfield(7, 40, 178), INVARIANT),
    (skewfield(5, 24), algebra("norm", 24, 24, 5, 4, 1603)),
    (["witt", "--ring", "Zmod:8", "--p", "2", "--length", "1022"], witt_mul(1022, None, 8, 1604)),
    (["dieudonne", "--p", "2", "--rank", "400", "--etale-height", "200"], NONE),
    (skewfield(7, 40), INVARIANT),
    (skewfield(7, 40), algebra("mul", 40, 40, 7, 4, 1609, 1610)),
    (skewfield(2, 40, 500), algebra("mul", 40, 40, 2, 500, 1605, 1606)),
    (skewfield(7, 40, 178), algebra("mul", 40, 40, 7, 178, 1607, 1608)),
    (skewfield(7, 40, 178), algebra("embed", 40, 40, 7, 178, 2001)),
    (["dieudonne", "--p", "2", "--rank", "400", "--etale-height", "200", "--precision", "14000"], NONE),
    (skewfield(2, 24, 800), algebra("norm", 24, 24, 2, 800, 1701)),
    (skewfield(5, 24, 358), algebra("norm", 24, 24, 5, 358, 1702)),
    (skewfield(7, 24, 296), algebra("norm", 24, 24, 7, 296, 1703)),
    (skewfield(2, 24, 83), algebra("norm", 24, 24, 2, 83, 1704)),
    (skewfield(5, 24, 36), algebra("norm", 24, 24, 5, 36, 1705)),
    (skewfield(7, 24, 29), algebra("norm", 24, 24, 7, 29, 1706)),
    (skewfield(7, 12, 379), algebra("norm", 12, 12, 7, 379, 1707)),
    (skewfield(2, 16, 371), algebra("norm", 16, 16, 2, 371, 1708)),
    (skewfield(5, 20, 70), algebra("norm", 20, 20, 5, 70, 1709)),
    # dieudonne at rank n f u = 400 with a larger residue degree
    (["dieudonne", "--p", "2", "--rank", "200", "--etale-height", "100", "--residue-degree", "2"], NONE),
    (["dieudonne", "--p", "3", "--rank", "100", "--etale-height", "50", "--residue-degree", "4"], NONE),
    # residue degree 40: every entry of V and F is 0, 1, p or a product of
    # them, constants that sigma_K fixes at no cost
    (["dieudonne", "--p", "3", "--rank", "10", "--etale-height", "5", "--residue-degree", "40"], NONE),
    # norms past f s = 24, bounded by the norm charge alone
    (skewfield(2, 40, 12), algebra("norm", 40, 40, 2, 12, 1801)),
    (skewfield(2, 40, 13), algebra("norm", 40, 40, 2, 13, 1802)),
    (skewfield(7, 40, 4), algebra("norm", 40, 40, 7, 4, 1803)),
    (skewfield(3, 36, 11), algebra("norm", 36, 36, 3, 11, 1804)),
    (skewfield(2, 28, 47), algebra("norm", 28, 28, 2, 47, 1805)),
    (skewfield(2, 1, f=25), ONE),
    # the power cap on q: Sp(9013) answers (1 - q^-9012 T)^-1, and Sp(9014)
    # is refused (exit 1), as q^-9013 would pass POWER_BITS_CAP
    (["lfactor", "--p", "3"], steinberg(9013)),
    (["lfactor", "--p", "3"], steinberg(9014)),
    # the modulus search for F_(p^r) at its slowest (p, r) pair
    (["witt", "--ring", "Fq:31", "--p", "101", "--length", "1"], witt_mul(1, 31, 101, 1901)),
    # the spawn floor: a call whose computing is negligible
    (["lfactor", "--p", "3"], steinberg(3)),
]


def spawn(src, argv, payload):
    env = dict(os.environ, PYTHONPATH=str(src))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "padicgl.cli", *argv], input=payload.encode(),
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env, timeout=600)
    return time.perf_counter() - start, done.returncode, hashlib.sha256(done.stdout).hexdigest()


def measure(trees, argv, payload, runs):
    seconds = {name: [] for name in trees}
    outcomes = {name: set() for name in trees}
    for run in range(runs):
        for name in (list(trees) if run % 2 == 0 else list(trees)[::-1]):
            took, status, digest = spawn(trees[name], argv, payload)
            seconds[name].append(round(took, 3))
            outcomes[name].add((status, digest))
    out = {}
    for name in trees:
        if len(outcomes[name]) != 1:
            raise SystemExit(f"{name}: {' '.join(argv)} gave different stdout or status across runs")
        (status, digest), = outcomes[name]
        out[name] = {"median_s": round(statistics.median(seconds[name]), 3), "runs_s": seconds[name],
                     "status": status, "stdout_sha256": digest}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--match", default="")
    args = parser.parse_args(argv)
    trees = {"parent": args.parent_src.resolve(), "change": args.change_src.resolve()}
    for call_argv, (recipe, payload) in CALLS:
        if args.match not in " ".join(call_argv):
            continue
        row = {"argv": call_argv, "payload": recipe,
               "payload_sha256": hashlib.sha256(payload.encode()).hexdigest(),
               "payload_bytes": len(payload.encode())}
        row.update(measure(trees, call_argv, payload, args.runs))
        row["stdout_identical"] = row["parent"]["stdout_sha256"] == row["change"]["stdout_sha256"]
        row["change_over_parent"] = round(row["change"]["median_s"] / row["parent"]["median_s"], 3)
        print(json.dumps(row), flush=True)


if __name__ == "__main__":
    main()
