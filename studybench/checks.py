"""Output checks for `cpkmeans experiment` runs.

At the default seed, the SHA-256 digests of ``records.csv`` and
``summary.csv`` must equal the ones in ``digests.json``, recorded from the
seed code.  At any other seed, the first run of a benchmark invocation gets
a structural check, which uses no package code:

* the record keys are exactly the study's grid, so the row count is right;
* every ``tau_hat`` equals k/n for an integer k in [2, n-2];
* every ``abs_error`` equals |tau_hat - tau| exactly;
* every summary row matches the count, mean, median and variance of the
  records it aggregates.

Every later run in the same invocation must repeat the checked bytes.
Because a wrong but well-formed estimate passes the structural check,
run.py also runs the CLI once at the default seed in every invocation at
another seed, and checks that run against ``digests.json``.
The structural check runs in its own process,

    python3 studybench/checks.py structure WORKLOAD OUT_DIR

so the benchmark process never holds a parsed study.  Its peak resident
set is handed on to the processes it starts, which would make their
``ru_maxrss`` read the benchmark's peak instead of their own.

    python3 studybench/checks.py record

re-records ``digests.json`` by running each workload once at the default
seed; do so only when a change to the outputs is intended and explained.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS, Workload

DIGESTS = Path(__file__).with_name("digests.json")
OUTPUT_FILES = ("records.csv", "summary.csv")
RECORD_HEADER = ["trial_index", "n", "T", "tau_true", "tau_hat", "abs_error", "selector"]
SUMMARY_HEADER = [
    "study", "case", "n", "T", "selector", "count", "mean", "median", "variance", "std_dev",
]
SELECTORS = ("oracle", "method1", "method2")


class OutputError(Exception):
    """A run's records.csv or summary.csv is wrong."""


def file_digests(out_dir: Path) -> dict[str, str]:
    digests = {}
    for name in OUTPUT_FILES:
        with open(out_dir / name, "rb") as fh:
            digests[name] = hashlib.file_digest(fh, "sha256").hexdigest()
    return digests


def recorded_digests(wl: Workload) -> dict[str, str]:
    entry = json.loads(DIGESTS.read_text())[wl.name]
    if entry["trials"] != wl.trials:
        raise OutputError(f"digests.json holds {entry['trials']} trials, workload runs {wl.trials}")
    return {name: entry[name] for name in OUTPUT_FILES}


class OutputChecker:
    """Checks each run's outputs; runs after the first checked one must repeat its bytes."""

    def __init__(self, wl: Workload, seed: int):
        self.wl = wl
        self.reference = recorded_digests(wl) if seed == DEFAULT_SEED else None

    def check(self, out_dir: Path) -> str | None:
        """Return why the outputs in ``out_dir`` are wrong, or None when they are right."""
        try:
            found = file_digests(out_dir)
        except OSError as exc:
            return f"{type(exc).__name__}: {exc}"
        if self.reference is None:
            argv = [sys.executable, __file__, "structure", self.wl.name, str(out_dir)]
            proc = subprocess.run(argv, capture_output=True, text=True)
            if proc.returncode != 0:
                return proc.stderr.strip()[-500:] or f"structural check exited {proc.returncode}"
            self.reference = found
        elif found != self.reference:
            return f"output digests {found} differ from {self.reference}"
        return None


def _rows(path: Path, header: list[str]) -> list[list[str]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != header:
        raise OutputError(f"{path.name}: header {rows[:1]} is not {header}")
    return rows[1:]


def _record_key(wl: Workload, trial: int, n: int, T: int, selector: str):
    """Unique key of a record within its study, after checking n, T and selector."""
    if wl.study == "rate":
        ok = n in wl.n_grid and T == wl.t_grid[0] and selector == "fixed-T"
        key = (trial, n)
    elif wl.study == "sweep":
        ok = n == wl.n_grid[0] and T in wl.t_grid and selector == "fixed-T"
        key = (trial, T)
    else:
        ok = n == wl.n_grid[0] and selector in SELECTORS and (
            T == wl.t_star if selector == "oracle" else 1 <= T <= wl.d
        )
        key = (trial, selector)
    if not ok:
        raise OutputError(f"record n={n} T={T} selector={selector!r} is outside the study")
    return key


def _expected_keys(wl: Workload) -> set:
    trials = range(wl.trials)
    if wl.study == "rate":
        return {(t, n) for n in wl.n_grid for t in trials}
    if wl.study == "sweep":
        return {(t, T) for T in wl.t_grid for t in trials}
    return {(t, s) for s in SELECTORS for t in trials}


def _summary_key(wl: Workload, n: int, T: int, selector: str) -> tuple[str, str, str]:
    if wl.study == "selection" and selector != "oracle":
        return (str(n), "", selector)
    return (str(n), str(T), selector)


def check_structure(out_dir: Path, wl: Workload) -> None:
    """Raise OutputError unless the run's CSVs are a complete, consistent study."""
    keys = set()
    groups = defaultdict(list)
    for row in _rows(out_dir / "records.csv", RECORD_HEADER):
        trial, n, T = int(row[0]), int(row[1]), int(row[2])
        tau_true, tau_hat, abs_error = (float(v) for v in row[3:6])
        selector = row[6]
        key = _record_key(wl, trial, n, T, selector)
        if key in keys:
            raise OutputError(f"duplicate record {key}")
        keys.add(key)
        k = round(tau_hat * n)
        if not (2 <= k <= n - 2 and k / n == tau_hat):
            raise OutputError(f"tau_hat={tau_hat!r} is not k/n with k in [2, n-2], n={n}")
        if tau_true != wl.tau or abs_error != abs(tau_hat - tau_true):
            raise OutputError(f"abs_error={abs_error!r} != |{tau_hat!r} - {tau_true!r}|")
        groups[_summary_key(wl, n, T, selector)].append(abs_error)
    if keys != _expected_keys(wl):
        raise OutputError(f"{len(keys)} records, expected {len(_expected_keys(wl))}")

    seen = set()
    for row in _rows(out_dir / "summary.csv", SUMMARY_HEADER):
        study, case, n, T, selector, count = row[:6]
        mean, median, variance, std_dev = (float(v) for v in row[6:])
        key = (n, T, selector)
        errors = groups.get(key)
        if study != wl.study or case != wl.config["case"] or errors is None or key in seen:
            raise OutputError(f"unexpected summary row {row[:5]}")
        seen.add(key)
        var = statistics.variance(errors) if len(errors) > 1 else 0.0
        if not (
            int(count) == len(errors)
            and math.isclose(mean, math.fsum(errors) / len(errors), rel_tol=1e-9, abs_tol=1e-15)
            and median == statistics.median(errors)
            and math.isclose(variance, var, rel_tol=1e-9, abs_tol=1e-15)
            and math.isclose(std_dev, math.sqrt(var), rel_tol=1e-9, abs_tol=1e-15)
        ):
            raise OutputError(f"summary row {row} does not match its {len(errors)} records")
    if seen != set(groups):
        raise OutputError(f"summary has {len(seen)} rows, records give {len(groups)} groups")


def record(root: Path) -> None:
    """Run every workload once at the default seed and store its output digests."""
    from run import bench_env, cli_argv  # run.py imports this module

    out = root / "studybench" / "_out" / "record"
    entries = {}
    for wl in WORKLOADS.values():
        out.mkdir(parents=True, exist_ok=True)
        cfg = out / f"{wl.name}.cfg"
        cfg.write_text(wl.config_text)
        run_dir = out / wl.name
        subprocess.run(cli_argv(wl, cfg, DEFAULT_SEED, run_dir), cwd=root, env=bench_env(),
                       check=True, stdout=subprocess.DEVNULL)
        check_structure(run_dir, wl)
        entries[wl.name] = {"trials": wl.trials, **file_digests(run_dir)}
    DIGESTS.write_text(json.dumps(entries, indent=2) + "\n")


def main(argv: list[str]) -> None:
    if argv == ["record"]:
        record(Path(__file__).resolve().parent.parent)
    elif len(argv) == 3 and argv[0] == "structure" and argv[1] in WORKLOADS:
        try:
            check_structure(Path(argv[2]), WORKLOADS[argv[1]])
        except (OSError, OutputError, ValueError) as exc:
            sys.exit(f"{type(exc).__name__}: {exc}")
    else:
        sys.exit("usage: python3 studybench/checks.py record | structure WORKLOAD OUT_DIR")


if __name__ == "__main__":
    main(sys.argv[1:])
