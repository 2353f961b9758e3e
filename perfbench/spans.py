"""Span tracing of crcal's public functions, installed from outside the package.

Each listed function is replaced, in every ``crcal.*`` module that bound it
by name, by a wrapper that records a span ``[name, start, end, parent, op]``
in memory.  Counts are taken at the same boundaries, after the span closes,
inside a ``trace`` span of their own so that their cost is charged to no
layer.  :func:`layer_metrics` turns the spans into per-op self times, call
counts, counts and layer shares.
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# layer (module of src/crcal) -> traced public functions
LAYERS = {
    "synthetic": ("generate_cohort", "survival_horizon", "oracle_bundle"),
    "data": (
        "parse_cohort",
        "parse_bundle",
        "cohort_to_csv",
        "bundle_to_csv",
        "split_cohort",
        "quantile_grid",
    ),
    "curves": ("aalen_johansen", "censoring_survival", "marginal_bundle"),
    "calibration": ("cr_d_hat", "pi_cal_alpha"),
    "kstests": ("d_cal_test", "pi_cal_test"),
    "report": ("calibration_report",),
    "recalibrate": ("fit_aj_offsets", "apply_offsets", "fit_temperature", "apply_temperature"),
    "evaluate": ("evaluate_bundle", "cr_c_index", "brier_score", "integrated_brier"),
    # the CLI layer is traced per subcommand handler, cmd_<name>
    "cli": ("bench", "simulate", "aj", "recalibrate", "metrics", "evaluate"),
}

COUNTS = {
    "synthetic.oracle_bundle.reads": "count",
    "data.parse_bundle.rows": "count",
    "data.parse_bundle.bytes": "B",
    "data.bundle_to_csv.rows": "count",
    "data.bundle_to_csv.bytes": "B",
    "recalibrate.fit_temperature.rows": "count",
    "recalibrate.fit_temperature.grid_times": "count",
    "recalibrate.fit_temperature.distinct_row_ratio": "ratio",
    "evaluate.cr_c_index.pairs": "count",
}


def _count_oracle(counts, a, result):
    counts["synthetic.oracle_bundle.reads"] += result.values.size


def _count_parse_bundle(counts, a, result):
    counts["data.parse_bundle.rows"] += result.values.size
    counts["data.parse_bundle.bytes"] += len(a["csv_text"].encode())


def _count_bundle_to_csv(counts, a, result):
    counts["data.bundle_to_csv.rows"] += a["bundle"].values.size
    counts["data.bundle_to_csv.bytes"] += len(result.encode())


def _count_fit_temperature(counts, a, result):
    values = a["cal_bundle"].values
    counts["recalibrate.fit_temperature.rows"] += values.shape[0]
    counts["recalibrate.fit_temperature.grid_times"] += a["grid"].d
    distinct = np.unique(values.reshape(values.shape[0], -1), axis=0).shape[0]
    counts["recalibrate.fit_temperature.distinct_rows"] += distinct


def _count_c_index(counts, a, result):
    cohort = a["cohort"]
    cases = int(np.count_nonzero((cohort.times <= a["tau"]) & (cohort.events == a["k"])))
    counts["evaluate.cr_c_index.pairs"] += cases * cohort.n


COUNTERS = {
    "synthetic.oracle_bundle": _count_oracle,
    "data.parse_bundle": _count_parse_bundle,
    "data.bundle_to_csv": _count_bundle_to_csv,
    "recalibrate.fit_temperature": _count_fit_temperature,
    "evaluate.cr_c_index": _count_c_index,
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {}
    for layer, names in LAYERS.items():
        for name in names:
            units[f"{layer}.{name}.self_s"] = "s"
            units[f"{layer}.{name}.calls"] = "count"
    units.update(COUNTS)
    for layer in LAYERS:
        units[f"{layer}.share"] = "ratio"
    units["trace.overhead_s"] = "s"
    return units


class Tracer:
    """Records spans while installed; ``op`` tags spans with the current op."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op: int | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        self._stack.append(len(self.spans))
        span = [name, 0.0, 0.0, parent, self.op]
        self.spans.append(span)
        span[1] = perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[2] = perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None and self.op is not None:
                span = self._open("trace")
                try:
                    bound = signature.bind(*args, **kwargs).arguments
                    counter(self.counts, bound, result)
                finally:
                    self._close(span)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every listed function wherever a crcal module bound it by name."""
        import crcal.cli  # noqa: F401  (imports every layer module)

        modules = [m for key, m in sys.modules.items() if key == "crcal" or key.startswith("crcal.")]
        for layer, names in LAYERS.items():
            home = sys.modules[f"crcal.{layer}"]
            for name in names:
                attr = f"cmd_{name}" if layer == "cli" else name
                original = getattr(home, attr, None)
                if original is None:  # gone from crcal: reports 0
                    continue
                wrapper = self._wrap(f"{layer}.{name}", original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, key, value))
                            setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, value in reversed(self._patched):
            setattr(module, key, value)
        self._patched.clear()


def layer_metrics(tracer: Tracer, op_walls: list[float]) -> dict[str, float]:
    """Per-op self seconds, calls and counts, and each layer's share of op wall time."""
    n_ops = len(op_walls)
    child_time = defaultdict(float)
    for name, start, end, parent, op in tracer.spans:
        if parent is not None:
            child_time[parent] += end - start
    self_s = defaultdict(float)
    calls = defaultdict(int)
    for idx, (name, start, end, parent, op) in enumerate(tracer.spans):
        if op is None:
            continue
        self_s[name] += end - start - child_time[idx]
        calls[name] += 1
    wall = sum(op_walls)
    out: dict[str, float] = {}
    for layer, names in LAYERS.items():
        layer_self = 0.0
        for name in names:
            key = f"{layer}.{name}"
            layer_self += self_s[key]
            out[f"{key}.self_s"] = self_s[key] / n_ops
            out[f"{key}.calls"] = calls[key] / n_ops
        out[f"{layer}.share"] = layer_self / wall
    counts = tracer.counts
    for key in COUNTS:
        out[key] = counts[key] / n_ops
    rows = counts["recalibrate.fit_temperature.rows"]
    out["recalibrate.fit_temperature.distinct_row_ratio"] = (
        counts["recalibrate.fit_temperature.distinct_rows"] / rows if rows else 0.0
    )
    return out
