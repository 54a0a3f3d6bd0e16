"""Spans around the benchmark's own calls into padicgl, and the per-layer
metrics derived from them.

A span is (name, start, end, parent, item id, failed).  Names are
``<module>.<function>`` or ``<module>.<function>.<tag>``, where the tag
splits one function by input kind (the Witt coefficient ring).  Spans are
kept in memory and turned into metrics when the run ends; nothing is
written while items are timed.

A leaf span's self time is its duration.  The enclosing item span's self
time is the harness glue: its duration minus the spans it contains.

A traced run lasts a set time, so it runs more rounds on a faster machine
or a faster library.  Span sums and per-item counters are therefore
reported per round (divided by the rounds traced), so that they describe
the same fixed work on every commit.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter
from typing import Dict, List, Optional, Tuple

# The public functions each workload calls, by module.  The per-layer metric
# names in BENCHMARK.json are generated from this table (see metric_names).
LAYERS: Dict[str, Tuple[str, ...]] = {
    "qexact": ("lfactors_equal", "scalars_equal"),
    "bzclass": ("gl_predicates", "unramified_atom"),
    "weildeligne": (
        "explicit_unramified", "matrix_l", "matrix_eps_det", "dual_matrix_rep",
        "tensor_matrix_rep", "wd_dual", "wd_predicates",
    ),
    "factors": (
        "wd_l_factor", "wd_eps", "tate_char", "wd_pair_l", "gl_pair_l_inductive",
        "adjoint_no_pole_at_one", "conductor",
    ),
    "langlands": ("rec_forward", "verify_rec_axioms"),
    "wittring": ("add", "mul", "neg", "frobenius", "verschiebung", "ghost", "from_int"),
    "cyclicalg": (
        "mul", "power", "embed_matrix", "reduced_norm_val", "brauer_invariant",
        "dieudonne_standard", "etale_inf_height", "from_witt_coords",
    ),
    "jsonio": ("encode", "decode"),
    "cli": ("spawn", "main"),
}

WITT_RINGS = ("Q", "Z", "Zmod", "Fq")

# Metrics that are not span sums: (name, unit).
EXTRA_METRICS: Tuple[Tuple[str, str], ...] = (
    ("harness.self_s", "s"),
    ("weildeligne.matrix_dim_sum", "count"),
    ("weildeligne.matrix_dim_max", "count"),
    ("factors.cg_terms", "count"),
    *((f"wittring.{op}.{ring}.self_s", "s") for op in ("add", "mul") for ring in WITT_RINGS),
    ("wittring.universal_polynomials.s", "s"),
    ("cyclicalg.reduced_norm_val.max_ms", "ms"),
    ("cli.interpreter_s", "s"),
    ("cli.import_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


def metric_names() -> List[Tuple[str, str]]:
    """Every per-layer metric, in a fixed order, with its unit."""
    out: List[Tuple[str, str]] = []
    for module, functions in LAYERS.items():
        for fn in functions:
            out.append((f"{module}.{fn}.self_s", "s"))
            out.append((f"{module}.{fn}.calls", "count"))
        out.append((f"{module}.self_s", "s"))
        out.append((f"{module}.share", "ratio"))
        out.append((f"{module}.failed", "count"))
    out.extend(EXTRA_METRICS)
    return out


class Tracer:
    """Span recorder; with ``enabled`` false every method is a pass-through."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[Optional[tuple]] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.maxima: Dict[str, float] = defaultdict(float)
        self.once: Dict[str, float] = {}
        self._stack: List[int] = []
        self._item: Optional[int] = None
        self._items = 0

    def call(self, name: str, fn, *args):
        """fn(*args), inside a span called ``name`` when tracing."""
        if not self.enabled:
            return fn(*args)
        return self._span(name, fn, args)

    def item(self, fn, *args):
        """Run one benchmark item inside its own span; items are numbered
        in the order they run."""
        if not self.enabled:
            return fn(*args)
        self._item = self._items
        self._items += 1
        try:
            return self._span("item", fn, args)
        finally:
            self._item = None

    def _span(self, name: str, fn, args):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(idx)
        failed = True
        start = perf_counter()
        try:
            out = fn(*args)
            failed = False
            return out
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self._item, failed)

    def count(self, name: str, amount: float = 1):
        """Add to a per-item counter, reported per round."""
        if self.enabled:
            self.counters[name] += amount

    def measured(self, name: str, value: float):
        """A quantity measured once per run, outside the rounds."""
        if self.enabled:
            self.once[name] = value

    def maximum(self, name: str, value: float):
        if self.enabled and value > self.maxima[name]:
            self.maxima[name] = value

    def span_records(self) -> List[dict]:
        """The spans as plain records, for writing out."""
        return [
            {"name": n, "start": s, "end": e, "parent": p, "item": i, "failed": f}
            for n, s, e, p, i, f in self.spans
        ]

    def layer_metrics(self, rounds: int) -> Dict[str, float]:
        """Self time and calls per function and module, and the counters,
        per round over ``rounds`` traced rounds; failed spans per module;
        maxima and once-measured quantities as they are.  Every name of
        metric_names() is present."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: Dict[str, float] = {name: 0 for name, _ in metric_names()}
        item_total = 0.0
        for idx, (name, start, end, _, _, failed) in enumerate(self.spans):
            self_s = end - start - child_time[idx]
            if name == "item":
                item_total += end - start
                out["harness.self_s"] += self_s
                continue
            parts = name.split(".")
            module, function = parts[0], ".".join(parts[:2])
            out[f"{function}.self_s"] += self_s
            out[f"{function}.calls"] += 1
            out[f"{module}.self_s"] += self_s
            if failed:
                out[f"{module}.failed"] += 1
            if len(parts) == 3 and f"{name}.self_s" in out:
                out[f"{name}.self_s"] += self_s
            if name == "cyclicalg.reduced_norm_val":
                key = "cyclicalg.reduced_norm_val.max_ms"
                out[key] = max(out[key], 1e3 * (end - start))
        for module in LAYERS:
            out[f"{module}.share"] = out[f"{module}.self_s"] / item_total if item_total else 0.0
        out.update(self.counters)
        for name in out:
            if name.endswith((".self_s", ".calls")) or name in self.counters:
                out[name] /= rounds
        out.update(self.maxima)
        out.update(self.once)
        unknown = set(out) - {name for name, _ in metric_names()}
        if unknown:
            raise KeyError(f"spans or counters outside the metric catalogue: {sorted(unknown)}")
        return out
