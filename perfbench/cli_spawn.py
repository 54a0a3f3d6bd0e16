"""cli-spawn: one ``python -m padicgl.cli`` child process per item.

Every round runs all 15 subcommands once, with payloads from the same
generators as the library workloads at small sizes.  An item is timed from
spawn to exit, which is what a CLI user waits for: interpreter start,
import, parse, compute and JSON output.  Outside the timed span the
benchmark encodes the payload with ``jsonio``, decodes it back (round trip),
and runs ``padicgl.cli.main`` in-process on the same argv and stdin; the
child must exit 0 with stdout byte-equal to the in-process output.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import statistics
import subprocess
import sys
from dataclasses import dataclass
from math import gcd
from time import perf_counter
from typing import List, Optional, Tuple

from .common import (
    REGISTRY_PATH, ROOT, SRC, State, check, make_registry, random_class_data, unram_atom, unram_value,
)
from .tracing import Tracer
from padicgl import cli
from padicgl.bzclass import ClassData, Segment
from padicgl.jsonio import (
    atom_from_json,
    class_data_from_json,
    class_data_to_json,
    scalar_from_json,
    scalar_to_json,
    twist_to_json,
    wdrep_from_json,
    wdrep_to_json,
)
from padicgl.langlands import rec_forward
from padicgl.qexact import LocalFieldContext, scalars_equal

ROUNDS = 8
CONTEXTS = ((2, 1, 0, 0), (3, 1, 1, 1), (5, 1, 0, 1), (3, 2, 0, 0))
# (ring flag, p, length); one per round, cycled.
WITT_SPECS = (("Q", 2, 4), ("Z", 2, 4), ("Zmod:5", 2, 3), ("Fq:2", 2, 3),
              ("Z", 3, 3), ("Zmod:9", 3, 3), ("Fq:1", 3, 4), ("Q", 3, 4))
WITT_OPS = ("add", "mul", "neg", "frobenius", "verschiebung", "ghost")
SKEW_OPS = ("mul", "norm", "invariant", "embed", "pi-power")
STARTUP_SAMPLES = 5


@dataclass(frozen=True)
class Item:
    argv: Tuple[str, ...]
    ctx: LocalFieldContext
    registry: object
    kind: str          # how the payload is encoded: class, wd, pair, verify, satake, raw, none
    value: object



def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _flags(ctx: LocalFieldContext) -> Tuple[str, ...]:
    return ("--p", str(ctx.p), "--f", str(ctx.f), "--d", str(ctx.d), "--npsi", str(ctx.n_psi),
            "--registry", str(REGISTRY_PATH))


def _witt_coord(rng: random.Random, ring: str, p: int):
    if ring == "Q":
        return f"{rng.randint(-4, 4)}/{rng.randint(1, 3)}"
    if ring.startswith("Fq:"):
        return [rng.randrange(p) for _ in range(int(ring[3:]))]
    if ring.startswith("Zmod:"):
        return rng.randrange(int(ring[5:]))
    return rng.randint(-3, 3)


def _skew_element(rng: random.Random, p: int, s: int, precision: int):
    coeffs = [[rng.randrange(p ** precision) for _ in range(s)] for _ in range(s)]
    coeffs[0][0] = 1 + p * rng.randrange(p ** (precision - 1))  # a unit, so v_D = 0
    return coeffs


def _round(rng: random.Random, index: int, contexts) -> List[Item]:
    items = []

    def add(sub, ctx, registry, kind, value, *extra):
        items.append(Item((sub,) + _flags(ctx) + extra, ctx, registry, kind, value))

    def pick():
        return contexts[rng.randrange(len(contexts))]

    def small(ctx, registry, **kw):
        return random_class_data(rng, registry, ctx, max_segments=2, max_degree=4, **kw)

    for sub in ("rec", "dictionary", "involution", "classify-predicates"):
        ctx, registry = pick()
        add(sub, ctx, registry, "class", small(ctx, registry))
    for sub in ("rec-inverse", "lfactor", "eps"):
        ctx, registry = pick()
        add(sub, ctx, registry, "wd", rec_forward(small(ctx, registry)))
    ctx, registry = pick()
    add("conductor", ctx, registry, "wd", rec_forward(small(ctx, registry)),
        "--mode", ("artin", "epsDegree")[index % 2])
    ctx, registry = pick()
    dual_value = small(ctx, registry)
    if index % 2:
        add("dual", ctx, registry, "wd", rec_forward(dual_value))
    else:
        add("dual", ctx, registry, "class", dual_value)
    ctx, registry = pick()
    add("lfactor-pair", ctx, registry, "pair", (small(ctx, registry), small(ctx, registry)))
    ctx, registry = pick()
    add("verify", ctx, registry, "verify", (small(ctx, registry, unramified_only=True), unram_atom(rng, ctx)))
    ctx, registry = pick()
    if index % 2:
        add("satake", ctx, registry, "satake", [unram_value(rng) for _ in range(rng.randint(1, 4))])
    else:
        segments = tuple(Segment(unram_atom(rng, ctx), 1) for _ in range(rng.randint(1, 4)))
        add("satake", ctx, registry, "satake", ClassData("Q", segments))

    ring, p, n = WITT_SPECS[index % len(WITT_SPECS)]
    ctx, registry = pick()
    op = rng.choice(WITT_OPS)
    doc = {"op": op, "x": [_witt_coord(rng, ring, p) for _ in range(n)],
           "y": [_witt_coord(rng, ring, p) for _ in range(n)]}
    items.append(Item(("witt", "--p", str(p), "--ring", ring, "--length", str(n)), ctx, registry, "raw", doc))

    s, skew_p = 2 + index % 3, (2, 3)[index % 2]
    precision = s + 1  # above v_K(Nrd(Pi)) = r, so the invariant is readable
    r = rng.choice([r for r in range(1, s) if gcd(r, s) == 1])
    doc = {"op": SKEW_OPS[index % len(SKEW_OPS)], "e": rng.randint(1, 2 * s),
           "x": _skew_element(rng, skew_p, s, precision), "y": _skew_element(rng, skew_p, s, precision)}
    items.append(Item(("skewfield", "--p", str(skew_p), "--r", str(r), "--s", str(s),
                       "--precision", str(precision)), ctx, registry, "raw", doc))

    rank = 1 + index % 4
    items.append(Item(("dieudonne", "--p", str((2, 3)[index % 2]), "--rank", str(rank),
                       "--etale-height", str(rng.randint(0, rank)), "--precision", "3"),
                      ctx, registry, "none", None))
    rng.shuffle(items)
    return items


def setup(seed: int, tr) -> State:
    rng = random.Random(seed)
    contexts = []
    for p, f, d, n_psi in CONTEXTS:
        ctx = LocalFieldContext(p, f, d, n_psi)
        contexts.append((ctx, make_registry(ctx)))
    state = State([_round(rng, i, contexts) for i in range(ROUNDS)])
    quiet = Tracer(False)
    for item in state.rounds[0]:
        reference_output(item.argv, _stdin_text(_encode(item, quiet)))
    run_item(state.rounds[0][0], quiet)
    return state


def _encode(item: Item, tr):
    """The payload document (None for no payload); jsonio encodes the
    library objects."""
    ctx, v = item.ctx, item.value

    def enc(fn, *args):
        return tr.call("jsonio.encode", fn, *args)

    if item.kind == "class":
        return enc(class_data_to_json, v)
    if item.kind == "wd":
        return enc(wdrep_to_json, v)
    if item.kind == "pair":
        return {"left": enc(class_data_to_json, v[0]), "right": enc(class_data_to_json, v[1])}
    if item.kind == "verify":
        return {"data": enc(class_data_to_json, v[0]),
                "chi": {"label": v[1].label.name, "x": enc(twist_to_json, v[1].x)}}
    if item.kind == "satake":
        if isinstance(v, ClassData):
            return {"direction": "fromRep", "data": enc(class_data_to_json, v)}
        return {"direction": "toWD", "values": [enc(scalar_to_json, x, ctx) for x in v]}
    return v


def _check_round_trip(item: Item, doc, tr) -> None:
    """Decode the payload with jsonio and compare with the encoded object."""
    ctx, registry, v = item.ctx, item.registry, item.value

    def dec(fn, *args):
        return tr.call("jsonio.decode", fn, *args)

    if item.kind == "class" or (item.kind == "satake" and isinstance(v, ClassData)):
        back = dec(class_data_from_json, doc.get("data", doc), registry, ctx)
        check(back.key() == v.key(), "jsonio round trip: classification data")
    elif item.kind == "wd":
        check(dec(wdrep_from_json, doc, registry, ctx).key() == v.key(), "jsonio round trip: WD rep")
    elif item.kind == "pair":
        for side, c in zip(("left", "right"), v):
            check(dec(class_data_from_json, doc[side], registry, ctx).key() == c.key(),
                  "jsonio round trip: pair")
    elif item.kind == "verify":
        check(dec(class_data_from_json, doc["data"], registry, ctx).key() == v[0].key(),
              "jsonio round trip: verify data")
        check(dec(atom_from_json, doc["chi"], registry, ctx)[0].key() == v[1].key(),
              "jsonio round trip: twist")
    elif item.kind == "satake":
        for x, y in zip(v, doc["values"]):
            check(tr.call("qexact.scalars_equal", scalars_equal, x, dec(scalar_from_json, y), ctx),
                  "jsonio round trip: Satake parameter")


def _stdin_text(doc) -> str:
    return "" if doc is None else json.dumps(doc)


def reference_output(argv, stdin_text: str) -> Tuple[int, bytes]:
    """padicgl.cli.main in this process, with the same argv and stdin."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
    finally:
        sys.stdin = saved
    return code, out.getvalue().encode("utf-8")


def _spawn(argv, stdin_text: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "padicgl.cli", *argv], input=stdin_text.encode("utf-8"),
                          capture_output=True, cwd=ROOT, env=child_env(), timeout=120)


def run_item(item: Item, tr) -> Optional[float]:
    """Returns the timed span: child spawn to exit."""
    doc = _encode(item, tr)
    text = _stdin_text(doc)
    start = perf_counter()
    child = tr.call("cli.spawn", _spawn, item.argv, text)
    elapsed = perf_counter() - start
    if doc is not None:
        _check_round_trip(item, doc, tr)
    code, expected = tr.call("cli.main", reference_output, item.argv, text)
    check(code == 0, f"in-process {item.argv[0]} exited {code}: {expected[:200]!r}")
    check(child.returncode == 0, f"{item.argv[0]} exited {child.returncode}: {child.stderr[-300:]!r}")
    check(child.stdout == expected, f"{item.argv[0]}: child stdout differs from in-process main")
    return elapsed


def _median_spawn(args) -> float:
    times = []
    for _ in range(STARTUP_SAMPLES):
        start = perf_counter()
        subprocess.run([sys.executable, *args], capture_output=True, cwd=ROOT, env=child_env(),
                       timeout=120, check=True)
        times.append(perf_counter() - start)
    return statistics.median(times)


def trace_extras(tr) -> None:
    """Interpreter start, and the extra cost of importing padicgl.cli."""
    interpreter = _median_spawn(["-c", "pass"])
    tr.measured("cli.interpreter_s", interpreter)
    tr.measured("cli.import_s", _median_spawn(["-c", "import padicgl.cli"]) - interpreter)
