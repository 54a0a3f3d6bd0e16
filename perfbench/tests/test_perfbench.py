"""Tests of the benchmark itself: the metric catalogue agrees with
BENCHMARK.json, every workload reports every named metric, a wrong
reference or a wrong reduced norm makes items fail, per-layer metrics are
per round, compare mode flags a regression, and a checkout without sources
is refused."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import cli_spawn, langlands_random, padic_algebra, run, wd_oracle  # noqa: E402
from perfbench.tracing import Tracer, metric_names  # noqa: E402
from padicgl.cyclicalg import CyclicAlgebra  # noqa: E402
from padicgl.qexact import ExactScalar  # noqa: E402

MODULES = {
    "wd-oracle": wd_oracle,
    "langlands-random": langlands_random,
    "padic-algebra": padic_algebra,
    "cli-spawn": cli_spawn,
}
# A reference each workload checks against, replaced by a wrong one.
WRONG_REFERENCES = {
    "wd-oracle": ("oracle_eps", lambda rho, mat, ctx, tr: ExactScalar.of(7)),
    "langlands-random": ("reference_conductors", lambda rho: (Fraction(-1), Fraction(-1))),
    "padic-algebra": ("expected_heights", lambda item: (item.rank + 1, -1)),
    "cli-spawn": ("reference_output", lambda argv, text: (0, b"{}\n")),
}
_STATES = {}


@pytest.fixture
def short_runs(monkeypatch):
    """Shrink every workload to a few items per round, one of each kind,
    and skip the extra set-ups in fresh processes."""
    monkeypatch.setattr(run, "MIN_ITEMS", 1)
    monkeypatch.setattr(run, "CHILD_SETUPS", 0)
    for name, module in MODULES.items():
        def small_setup(seed, tr, name=name, full=module.setup):
            if name not in _STATES:
                state = full(seed, tr)
                state.rounds = [_few(r) for r in state.rounds[:2]]
                _STATES[name] = state
            return _STATES[name]

        monkeypatch.setattr(module, "setup", small_setup)


def _few(items):
    kept, kinds = [], set()
    for item in items:
        if type(item) not in kinds or len(kept) < 2:
            kinds.add(type(item))
            kept.append(item)
    return kept


def _run(capsys, *argv):
    code = run.main(list(argv))
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-2]), json.loads(lines[-1])


def test_benchmark_json_matches_catalogue():
    spec = run.load_spec()
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == metric_names()
    assert sorted(m["name"] for m in spec["workloads"]) == sorted(run.WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names)) <= 16 + 128
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("workload", sorted(MODULES))
def test_smoke_reports_every_metric(workload, short_runs, capsys):
    spec = run.load_spec()
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        code, record, result = _run(capsys, "--workload", workload, "--seed", "3", "--seconds", "0.01",
                                    "--trace", str(trace))
        assert code == 0 and result["correct"] and result["failed"] == 0
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert list(result["metrics"]) == [m["name"] for m in spec[kind]]
        assert record["failed_ratio"] == 0
        assert {"nproc", "python", "platform", "commit"} <= set(record)
        if trace:
            assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
            assert result["metrics"]["harness.self_s"]["value"] > 0
        else:
            assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(MODULES))
def test_wrong_reference_fails_items(workload, short_runs, monkeypatch, capsys):
    name, wrong = WRONG_REFERENCES[workload]
    monkeypatch.setattr(MODULES[workload], name, wrong)
    code, record, result = _run(capsys, "--workload", workload, "--seed", "3", "--seconds", "0.01",
                                "--trace", "0")
    assert code == 1
    assert record["failed_ratio"] > 0 and not result["correct"]


@pytest.mark.parametrize("wrong", ["unit-multiple", "not-sigma-invariant"])
def test_wrong_reduced_norm_fails_items(wrong, short_runs, monkeypatch, capsys):
    """A reduced norm with the right valuation but the wrong value fails the
    benchmark's own Nrd checks, not only the valuation checks."""
    padic_algebra.setup(3, Tracer(False))  # set up (and warm up) with the true norm
    true_norm = CyclicAlgebra.reduced_norm_val

    def wrong_norm(self, x):
        det, v = true_norm(self, x)
        carrier, p = self.ctx.carrier, self.ctx.p
        if wrong == "unit-multiple":
            det = carrier.mul(det, carrier.from_int(1 + p))
        else:  # p^(N-1) times a generator of the residue field
            det = carrier.add(det, carrier.scalar_mul(p ** (self.ctx.precision - 1), carrier.gen()))
        return det, v

    monkeypatch.setattr(CyclicAlgebra, "reduced_norm_val", wrong_norm)
    code = run.main(["--workload", "padic-algebra", "--seed", "3", "--seconds", "0.01", "--trace", "0"])
    captured = capsys.readouterr()
    assert code == 1 and not json.loads(captured.out.strip().splitlines()[-1])["correct"]
    assert "Nrd" in captured.err


def test_layer_metrics_are_per_round():
    tr = Tracer(True)
    for _ in range(3):
        tr.item(tr.call, "qexact.scalars_equal", lambda: None)
        tr.count("factors.cg_terms", 2)
    tr.measured("cli.import_s", 0.1)
    metrics = tr.layer_metrics(3)
    assert metrics["qexact.scalars_equal.calls"] == 1 and metrics["factors.cg_terms"] == 2
    assert metrics["cli.import_s"] == 0.1 and metrics["qexact.share"] <= 1


def test_setup_in_fresh_process():
    raw, scaled = run.child_setup_seconds("wd-oracle", 5)
    assert raw > 0 and scaled > 0


def test_compare_flags_regression(tmp_path, capsys):
    def write(path, rate):
        with open(path, "w") as fh:
            for seed, jitter in enumerate((0.99, 1.0, 1.01)):
                metrics = {"items_per_s": rate * jitter, "item_p50_ms": 10.0, "item_p90_ms": 20.0,
                           "setup_s": 1.0, "peak_rss_mb": 20.0}
                fh.write(json.dumps({"workload": "wd-oracle", "trace": 0, "seed": seed,
                                     "metrics": metrics}) + "\n")

    write(tmp_path / "base.jsonl", 100.0)
    write(tmp_path / "same.jsonl", 100.0)
    write(tmp_path / "slow.jsonl", 50.0)
    assert run.main(["--compare", str(tmp_path / "base.jsonl"), str(tmp_path / "same.jsonl")]) == 0
    assert run.main(["--compare", str(tmp_path / "base.jsonl"), str(tmp_path / "slow.jsonl")]) == 1
    out = capsys.readouterr().out
    assert "WORSE beyond bound" in out and "within bound" in out


def test_refuses_checkout_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wd-oracle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
