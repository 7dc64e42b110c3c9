"""Traced replay of one `cpkmeans experiment` run, one module at a time.

    python3 replay.py experiment --config C --out O --trials N --seed S --workers W

Runs the invocation through the package's own ``cli.run``, in this process
and serially: ``--workers`` is replaced by 1, so every trial runs here.
First it wraps the module attributes the package looks up when it calls
them, each as a span named after the layer (module) it enters:

* ``cli``: ``parse_invocation`` and ``_build_experiment`` (``cli.config``),
  ``_write_records`` and ``_write_summary`` (``cli.write``), and the three
  study runners (``experiments.study``);
* ``experiments``: ``_rate_trial``, ``_sweep_trial`` and
  ``_selection_trial`` (``experiments.trial``); the mean samplers and
  ``generate_sample`` (``model``); ``estimate_tau`` and ``sweep_estimate``
  (``estimator``); ``surrogate``, ``method1_select`` and ``method2_select``
  (``smoothing``);
* ``estimator`` and ``smoothing``: ``objective_table`` (``kernel``).

The spans therefore time the package's own code, and the CSVs in O are
the ones the CLI writes; the caller compares them byte for byte with an
untraced CLI run.  Nothing is wrapped outside this process.  The
per-layer metrics and the spans go to O/trace.json.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

from cpkmeans import cli, estimator, experiments, smoothing

KERNEL = "kernel.objective_table"


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, shape]."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._open = []

    def wrap(self, module, attr: str, name: str, tally=None) -> None:
        """Replace module.attr by a version that records a span `name` per call.

        ``tally(counts, args, result)`` may add to the counts and returns
        the shape stored with the span, or None.
        """
        inner = getattr(module, attr)

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, self._open[-1] if self._open else -1, None]
            self._open.append(len(self.spans))
            self.spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = inner(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._open.pop()
            if tally is not None:
                record[4] = tally(self.counts, args, result)
            return result

        setattr(module, attr, traced)


def kernel_tally(counts, args, result):
    n, d = args[0].shape
    counts["kernel.calls"] += 1
    counts["kernel.cells"] += n * d
    # Computed from array sizes: the input read once, the table written once.
    counts["kernel.bytes_computed"] += 8 * (n * d + d * (n - 3))
    return n, d


def sample_tally(counts, args, result):
    spec = args[0]
    counts["model.cells"] += spec.n * spec.d
    return spec.n, spec.d


def fit_tally(counts, args, result):
    counts["estimator.fits"] += len(result) if isinstance(result, list) else 1


def install(tr: Tracer) -> None:
    for attr in ("parse_invocation", "_build_experiment"):
        tr.wrap(cli, attr, "cli.config")
    for attr in ("_write_records", "_write_summary"):
        tr.wrap(cli, attr, "cli.write")
    for attr in ("run_rate_study", "run_t_sweep_study", "run_selection_comparison"):
        tr.wrap(cli, attr, "experiments.study")
    for attr in ("_rate_trial", "_sweep_trial", "_selection_trial"):
        tr.wrap(experiments, attr, "experiments.trial")
    for attr in ("sample_rate_means", "sample_case_means"):
        tr.wrap(experiments, attr, "model.sample_means")
    tr.wrap(experiments, "generate_sample", "model.generate_sample", sample_tally)
    tr.wrap(experiments, "estimate_tau", "estimator.estimate_tau", fit_tally)
    tr.wrap(experiments, "sweep_estimate", "estimator.sweep_estimate", fit_tally)
    for attr in ("surrogate", "method1_select", "method2_select"):
        tr.wrap(experiments, attr, f"smoothing.{attr}")
    for module in (estimator, smoothing):
        tr.wrap(module, "objective_table", KERNEL, kernel_tally)


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tr: Tracer) -> dict[str, float]:
    spans = tr.spans
    parents = [spans[s[3]][0] if s[3] >= 0 else "" for s in spans]
    durations = defaultdict(list)
    for s in spans:
        durations[s[0]].append(s[2] - s[1])

    def total(name):
        return math.fsum(durations[name])

    def self_time(layer):
        """Time in the layer's outermost spans less the time in other layers' spans they call."""
        prefix = layer + "."
        own = children = 0.0
        for s, parent in zip(spans, parents):
            if s[0].startswith(prefix) and not parent.startswith(prefix):
                own += s[2] - s[1]
            elif parent.startswith(prefix) and not s[0].startswith(prefix):
                children += s[2] - s[1]
        return own - children

    trial_ms = [d * 1e3 for d in durations["experiments.trial"]]
    method2_ms = [d * 1e3 for d in durations["smoothing.method2_select"]]
    subsamples = sum(
        1 for s, parent in zip(spans, parents)
        if s[0] == KERNEL and parent == "smoothing.method2_select"
    )
    return {
        "cli.config_s": total("cli.config"),
        "cli.write_s": total("cli.write"),
        "experiments.trial_ms.p50": percentile(trial_ms, 50),
        "experiments.trial_ms.p99": percentile(trial_ms, 99),
        "experiments.trials": len(trial_ms),
        "experiments.self_s": self_time("experiments"),
        "experiments.trial_s_sum": math.fsum(trial_ms) / 1e3,
        "model.sample_means_s": total("model.sample_means"),
        "model.generate_sample_s": total("model.generate_sample"),
        "model.cells": tr.counts["model.cells"],
        "estimator.estimate_tau_s": total("estimator.estimate_tau"),
        "estimator.sweep_estimate_s": total("estimator.sweep_estimate"),
        "estimator.fit_self_s": self_time("estimator"),
        "estimator.fits": tr.counts["estimator.fits"],
        "kernel.calls": tr.counts["kernel.calls"],
        "kernel.cells": tr.counts["kernel.cells"],
        "kernel.s": total(KERNEL),
        "kernel.bytes_computed": tr.counts["kernel.bytes_computed"],
        "smoothing.method2_s": total("smoothing.method2_select"),
        "smoothing.method2_ms.p50": percentile(method2_ms, 50),
        "smoothing.method2_ms.p99": percentile(method2_ms, 99),
        "smoothing.method1_s": total("smoothing.method1_select"),
        "smoothing.surrogate_s": total("smoothing.surrogate"),
        "smoothing.subsamples": subsamples,
    }


def kernel_shapes(tr: Tracer) -> dict[str, dict]:
    """Calls and median microseconds per kernel input shape seen in the replay."""
    by_shape = defaultdict(list)
    for s in tr.spans:
        if s[0] == KERNEL:
            by_shape["x".join(map(str, s[4]))].append((s[2] - s[1]) * 1e6)
    return {k: {"calls": len(v), "us_p50": statistics.median(v)} for k, v in by_shape.items()}


def main(argv: list[str]) -> int:
    tr = Tracer()
    install(tr)
    invocation = cli.parse_invocation(argv)
    invocation.workers = 1
    status = cli.run(invocation)
    if status != cli.EXIT_OK:
        return status
    out = Path(invocation.out)
    metrics = layer_metrics(tr)
    metrics["cli.records_bytes"] = (out / "records.csv").stat().st_size
    trace = {
        "metrics": metrics,
        "kernel_shapes": kernel_shapes(tr),
        "span_fields": ["name", "start_s", "end_s", "parent", "shape"],
        "spans": tr.spans,
    }
    (out / "trace.json").write_text(json.dumps(trace))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
