"""Run one padicgl benchmark workload, or compare two sets of result records.

    python3 perfbench/run.py --workload wd-oracle --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload wd-oracle --seed 1 >> base.jsonl
    python3 perfbench/run.py --compare base.jsonl new.jsonl

A run sets up the workload (import, contexts, seeded inputs, one untimed
warm-up item per kind), then feeds it items one at a time, each checked
against an independent reference, in whole rounds until --seconds have
passed and at least MIN_ITEMS items were attempted.  With --trace 0 it
reports the end-to-end metrics of BENCHMARK.json, with times scaled to the
reference machine speed (speed.py); with --trace 1 it runs every round once
untraced and once traced, and reports the per-layer metrics per round.

Standard output ends with a full record (one JSON line, with the machine and
commit) and then the result line.  A failed check makes the exit code 1.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import speed  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402

WORKLOADS = {
    "wd-oracle": "wd_oracle",
    "langlands-random": "langlands_random",
    "padic-algebra": "padic_algebra",
    "cli-spawn": "cli_spawn",
}
MIN_ITEMS = 100           # p90 needs at least ten items beyond it
CHILD_SETUPS = 2          # extra set-ups in fresh processes, for the setup_s median
RUN_CAP_FACTOR = 4        # stop after this many times --seconds even below MIN_ITEMS
PROBE_INTERVAL_S = 0.25   # machine-speed probes between items at least this often


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": git_commit(),
    }


def run_round(module, state, tr, index: int, record, failures: list) -> None:
    """Run round ``index`` item by item, passing the timed latency of each
    item to ``record`` and appending the message of each failed one.  A
    failed item is timed up to its failure."""
    for item in state.rounds[index % len(state.rounds)]:
        t0 = perf_counter()
        try:
            timed = tr.item(module.run_item, item, tr)
        except Exception as exc:  # a failed item is counted, and the run goes on
            timed = None
            failures.append(f"{type(exc).__name__}: {exc}")
        record(perf_counter() - t0 if timed is None else timed)


class ScaledLatencies:
    """Item latencies, raw and scaled to the reference machine speed by
    probes taken every PROBE_INTERVAL_S between items (see speed.py)."""

    def __init__(self):
        speed.probe()  # the first probe in a process runs cold
        self.before = speed.probe()
        self.last = perf_counter()
        self.pending, self.raw, self.scaled, self.probes = [], [], [], [self.before]

    def add(self, latency: float) -> None:
        self.pending.append(latency)
        if perf_counter() - self.last >= PROBE_INTERVAL_S:
            self.flush()

    def flush(self) -> None:
        after = speed.probe()
        self.last = perf_counter()
        self.probes.append(after)
        scale = speed.factor(self.before, after)
        self.raw.extend(self.pending)
        self.scaled.extend(x * scale for x in self.pending)
        self.pending, self.before = [], after


def measure(module, state, seconds: float):
    """Untraced whole rounds until --seconds have passed and MIN_ITEMS items
    were attempted (or RUN_CAP_FACTOR * seconds have passed)."""
    latencies, failures = ScaledLatencies(), []
    quiet = Tracer(False)
    start = perf_counter()
    rounds = 0
    while True:
        run_round(module, state, quiet, rounds, latencies.add, failures)
        rounds += 1
        elapsed = perf_counter() - start
        attempted = len(latencies.raw) + len(latencies.pending)
        if elapsed >= seconds and (attempted >= MIN_ITEMS or elapsed >= RUN_CAP_FACTOR * seconds):
            latencies.flush()
            return latencies, failures, rounds


def measure_traced(module, state, tr, seconds: float):
    """Each round twice, untraced and traced, alternating which goes first so
    that warming up favours neither; until --seconds have passed.  Returns
    the latencies scaled to the reference speed."""
    quiet = Tracer(False)
    untraced, traced, failures = ScaledLatencies(), ScaledLatencies(), []
    start = perf_counter()
    rounds = 0
    while perf_counter() - start < seconds:
        passes = ((quiet, untraced), (tr, traced))
        for tracer, latencies in passes if rounds % 2 == 0 else passes[::-1]:
            run_round(module, state, tracer, rounds, latencies.add, failures)
            latencies.flush()
        rounds += 1
    return untraced.scaled, traced.scaled, failures, rounds


def timed_setup(workload: str, seed: int, tr):
    """Import the workload and set it up; returns the module, its state,
    and the set-up time raw and scaled to the reference speed."""
    speed.probe()
    before = speed.probe()
    start = perf_counter()
    module = importlib.import_module(f"perfbench.{WORKLOADS[workload]}")
    state = module.setup(seed, tr)
    raw = perf_counter() - start
    return module, state, raw, raw * speed.factor(before, speed.probe())


def child_setup_seconds(workload: str, seed: int):
    """(raw, scaled) set-up seconds of the workload in a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", workload,
         "--seed", str(seed)],
        capture_output=True, text=True, cwd=ROOT, timeout=150,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up in a fresh process failed: {proc.stderr.strip()[-500:]}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    return doc["setup_raw_s"], doc["setup_s"]


def end_to_end(latencies, failed: int, setup_samples) -> dict:
    """The end-to-end metrics from item latencies (s) and set-up times (s)."""
    return {
        "items_per_s": (len(latencies) - failed) / sum(latencies),
        "item_p50_ms": 1e3 * statistics.median(latencies),
        "item_p90_ms": 1e3 * statistics.quantiles(latencies, n=10, method="inclusive")[8],
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def run(args) -> int:
    spec = load_spec()
    tr = Tracer(bool(args.trace))
    try:
        module, state, setup_raw, setup_s = timed_setup(args.workload, args.seed, tr)
    except ImportError as exc:  # no padicgl sources in this checkout
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"setup_raw_s": setup_raw, "setup_s": setup_s}))
        return 0

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **environment()}
    if args.trace:
        untraced, traced, failures, rounds = measure_traced(module, state, tr, args.seconds)
        if hasattr(module, "trace_extras"):
            module.trace_extras(tr)
        metrics = tr.layer_metrics(rounds)
        metrics["trace.overhead_ratio"] = (sum(traced) / len(traced)) / (sum(untraced) / len(untraced))
        attempted = len(untraced) + len(traced)
        wanted = spec["per_layer"]
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                json.dump(tr.span_records(), fh)
        record.update(samples=len(untraced) + len(traced), rounds=rounds)
    else:
        setups = [(setup_raw, setup_s)] + [child_setup_seconds(args.workload, args.seed)
                                           for _ in range(CHILD_SETUPS)]
        latencies, failures, rounds = measure(module, state, args.seconds)
        metrics = end_to_end(latencies.scaled, len(failures), [s for _, s in setups])
        attempted = len(latencies.raw)
        wanted = spec["end_to_end"]
        record.update(samples=attempted, rounds=rounds, setup_samples=setups,
                      unscaled=end_to_end(latencies.raw, len(failures), [r for r, _ in setups]),
                      probe_median_s=statistics.median(latencies.probes))

    for message in failures[:10]:
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    record.update(attempted=attempted, failed=len(failures), failed_ratio=len(failures) / attempted,
                  metrics=metrics)
    print(json.dumps(record))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 1 if failures else 0


def _load_records(path: str) -> list:
    records = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line.startswith("{"):
                continue
            doc = json.loads(line)
            if "workload" in doc and "metrics" in doc:
                records.append(doc)
    return records


def _summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(base_path: str, new_path: str) -> int:
    """Per workload and metric: medians, quartiles, and whether the new
    median is worse than the base median by more than the metric's bound."""
    spec = load_spec()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    groups = {}
    for side, path in (("base", base_path), ("new", new_path)):
        for rec in _load_records(path):
            for name, value in rec["metrics"].items():
                key = (rec["workload"], rec["trace"], name)
                groups.setdefault(key, {"base": [], "new": []})[side].append(value)
    regressions = 0
    print(f"{'workload':<17} {'metric':<38} {'base q1/median/q3':>32} {'new q1/median/q3':>32} "
          f"{'change':>8}  verdict")
    for (workload, trace, name), sides in sorted(groups.items()):
        if not sides["base"] or not sides["new"]:
            continue
        bq1, bmed, bq3 = _summary(sides["base"])
        nq1, nmed, nq3 = _summary(sides["new"])
        change = (nmed - bmed) / bmed if bmed else 0.0
        verdict = ""
        m = bounds.get(name) if not trace else None
        if m is not None:
            worse = change if m["better"] == "lower" else -change
            spread = (bq3 - bq1) / bmed if bmed else 0.0
            if worse > m["bound"]:
                verdict = f"WORSE beyond bound {m['bound']}"
                regressions += 1
            elif spread > m["bound"]:
                verdict = "unresolved (base spread above bound)"
            elif -worse > m["bound"]:
                verdict = f"better beyond bound {m['bound']}"
            else:
                verdict = "within bound"
        print(f"{workload:<17} {name:<38} {bq1:>10.4g} {bmed:>10.4g} {bq3:>10.4g} "
              f"{nq1:>10.4g} {nmed:>10.4g} {nq3:>10.4g} {100 * change:>+7.1f}%  {verdict}")
    return 1 if regressions else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="with --trace 1, write the recorded spans to this JSON file")
    parser.add_argument("--setup-only", action="store_true", help="time one set-up and exit")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                        help="compare two files of result records")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
