#!/usr/bin/env python3
"""Study benchmark: trials/s through `cpkmeans experiment`, plus a traced per-layer replay.

    python3 studybench/run.py --workload {selection,rate,sweep} --seed N --seconds S --trace {0,1}

Run it from the root of a cpkmeans source checkout; the package is taken
from the checkout's ``src/``.  The last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A
human-readable report goes to stderr.  The full record goes to
``studybench/_out/<workload>-seed<N>-trace<T>/result.json``: every run's
numbers, failures, machine facts and the thread pinning.

Before it measures, a run imports the package once, untimed.  At a seed
other than the default one it also runs the CLI once at the default seed,
untimed, and checks those outputs against ``digests.json``.  Both come out
of the ``--seconds`` budget.

``--trace 0`` measures the end-to-end metrics.  It runs rounds until
``--seconds`` are spent, at least three of them.  Each round does two
things, alternating which goes first:

* one CLI run, ``python -m cpkmeans.cli experiment`` with the workload's
  config, ``--seed N``, trials and workers, timed from launch to exit and
  its outputs checked;
* one cold-start probe for ``setup_s``.

``trials_per_s`` is all trials the CLI runs completed over their summed
wall time; ``setup_s`` and ``peak_rss_mb`` are medians over rounds.

``--trace 1`` measures the per-layer metrics.  Each round runs one
untraced CLI run and one traced replay of the same trials (replay.py),
alternating which goes first.  The replay's records must match the
CLI's byte for byte.  Each round also runs one cold ``import cpkmeans``
probe and one kernel probe at the study shapes.  Counts must repeat
exactly across rounds, and times are reported as medians over rounds.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from checks import OutputChecker, file_digests
from workloads import DEFAULT_SEED, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_ROOT = HERE / "_out"

# One BLAS/OpenMP thread per process, so the rate study's 2 workers do not
# oversubscribe a 2-core machine.
PINNED_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MIN_ROUNDS = 3
# A run that takes longer is killed and counted as failed; no round is
# started after one, so the benchmark ends well inside its time limit.
RUN_TIMEOUT_S = 25.0

END_TO_END_UNITS = {"trials_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "import.cold_s": "s",
    "cli.config_s": "s",
    "cli.write_s": "s",
    "cli.records_bytes": "bytes",
    "experiments.trial_ms.p50": "ms",
    "experiments.trial_ms.p99": "ms",
    "experiments.trials": "count",
    "experiments.self_s": "s",
    "experiments.pool_efficiency": "ratio",
    "model.sample_means_s": "s",
    "model.generate_sample_s": "s",
    "model.cells": "count",
    "estimator.estimate_tau_s": "s",
    "estimator.sweep_estimate_s": "s",
    "estimator.fit_self_s": "s",
    "estimator.fits": "count",
    "kernel.calls": "count",
    "kernel.cells": "count",
    "kernel.s": "s",
    "kernel.bytes_computed": "bytes",
    "kernel.us.80x200": "us",
    "kernel.us.100x200": "us",
    "kernel.us.500x10": "us",
    "kernel.us.4000x10": "us",
    "smoothing.method2_s": "s",
    "smoothing.method2_ms.p50": "ms",
    "smoothing.method2_ms.p99": "ms",
    "smoothing.method1_s": "s",
    "smoothing.surrogate_s": "s",
    "smoothing.subsamples": "count",
    "trace.overhead_frac": "ratio",
}
# Metrics that must read the same in every round of a traced run.
EXACT_UNITS = ("count", "bytes")


class ProbeError(RuntimeError):
    """A cold-start probe failed, so the run cannot measure set-up."""


def bench_env() -> dict[str, str]:
    env = dict(os.environ, **PINNED_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def experiment_args(wl: Workload, cfg: Path, seed: int, out_dir: Path) -> list[str]:
    return [
        "experiment", "--config", str(cfg), "--out", str(out_dir),
        "--trials", str(wl.trials), "--seed", str(seed), "--workers", str(wl.workers),
    ]


def cli_argv(wl: Workload, cfg: Path, seed: int, out_dir: Path) -> list[str]:
    return [sys.executable, "-m", "cpkmeans.cli", *experiment_args(wl, cfg, seed, out_dir)]


@dataclass
class Run:
    wall_s: float
    rss_mb: float
    failure: str | None


def timed_run(argv: list[str], log_dir: Path) -> Run:
    """Run argv to completion; wall time from launch to exit and peak RSS from wait4.

    ru_maxrss covers the process and every descendant it waited for, such
    as pool workers, and is the largest single process among them.
    """
    log_dir.mkdir(parents=True, exist_ok=True)
    with open(log_dir / "stdout.txt", "wb") as out, open(log_dir / "stderr.txt", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=bench_env(), stdout=out, stderr=err)
        killer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    failure = None
    if code != 0:
        tail = (log_dir / "stderr.txt").read_text(errors="replace")[-500:]
        failure = f"exit {code}: {tail}"
    return Run(wall_s=wall, rss_mb=usage.ru_maxrss / 1024.0, failure=failure)


def probe(args: list[str]) -> tuple[float, str]:
    """Launch probe.py; returns (seconds until its first stdout line, its last line)."""
    argv = [sys.executable, str(HERE / "probe.py"), *args]
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=bench_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    try:
        line = proc.stdout.readline().strip()
        elapsed = time.perf_counter() - t0
        rest, err = proc.communicate(timeout=RUN_TIMEOUT_S)
        line = (rest.strip().splitlines() or [line])[-1]
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not line:
        raise ProbeError(f"probe {args[:1]} exited {proc.returncode}: {err[-500:]}")
    return elapsed, line


def setup_probe(wl: Workload, cfg: Path, seed: int, out_dir: Path) -> float:
    elapsed, line = probe(["setup", *experiment_args(wl, cfg, seed, out_dir)])
    if line != "ready":
        raise ProbeError(f"setup probe printed {line!r}")
    return elapsed


def import_probe() -> tuple[float, dict]:
    _, line = probe(["import"])
    facts = json.loads(line)
    return facts.pop("import_s"), facts


def run_rounds(deadline: float, round_fn) -> int:
    """Call round_fn(i) until the next round would end past `deadline`; at least MIN_ROUNDS."""
    last = 0.0
    i = 0
    while i < MIN_ROUNDS or time.perf_counter() + last <= deadline:
        t0 = time.perf_counter()
        if round_fn(i) is False:
            return i + 1
        last = time.perf_counter() - t0
        i += 1
    return i


def timed_out(run: Run) -> bool:
    return run.wall_s >= RUN_TIMEOUT_S


def anchor_check(wl: Workload, cfg: Path, run_dir: Path) -> str | None:
    """One untimed CLI run at the default seed, whose outputs must equal digests.json.

    At other seeds the output check is structural and cannot see a wrong
    but well-formed estimate; this run compares the numbers with the seed
    code's in every invocation.
    """
    out = run_dir / "anchor"
    run = timed_run(cli_argv(wl, cfg, DEFAULT_SEED, out), out)
    failure = run.failure or OutputChecker(wl, DEFAULT_SEED).check(out)
    shutil.rmtree(out)
    return failure and f"default-seed run: {failure}"


def measure_end_to_end(wl, cfg, seed, deadline, run_dir) -> dict:
    checker = OutputChecker(wl, seed)
    runs, setups = [], []

    def one_round(i):
        def study():
            out = run_dir / f"cli{i}"
            run = timed_run(cli_argv(wl, cfg, seed, out), out)
            run.failure = run.failure or checker.check(out)
            runs.append(run)
            shutil.rmtree(out)

        def setup():
            setups.append(setup_probe(wl, cfg, seed, run_dir / f"setup{i}"))

        for step in (setup, study) if i % 2 == 0 else (study, setup):
            step()
        return not timed_out(runs[-1])

    rounds = run_rounds(deadline, one_round)
    metrics = {
        "trials_per_s": wl.trials_per_run * len(runs) / math.fsum(r.wall_s for r in runs),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r.rss_mb for r in runs),
    }
    return {
        "metrics": metrics,
        "rounds": rounds,
        "attempted": len(runs),
        "failures": [r.failure for r in runs if r.failure],
        "runs": [{"wall_s": r.wall_s, "rss_mb": r.rss_mb} for r in runs],
        "setup_s": setups,
    }


def measure_layers(wl, cfg, seed, deadline, run_dir) -> dict:
    checker = OutputChecker(wl, seed)
    per_round, failures = [], []
    replay_argv = [sys.executable, str(HERE / "replay.py")]

    def one_round(i):
        cli_out, rep_out = run_dir / f"cli{i}", run_dir / f"replay{i}"

        def study():
            return timed_run(cli_argv(wl, cfg, seed, cli_out), cli_out)

        def traced():
            return timed_run(replay_argv + experiment_args(wl, cfg, seed, rep_out), rep_out)

        if i % 2 == 0:
            cli, rep = study(), traced()
        else:
            rep, cli = traced(), study()
        cli.failure = cli.failure or checker.check(cli_out)
        if cli.failure is None and rep.failure is None:
            if file_digests(rep_out) != file_digests(cli_out):
                rep.failure = "replayed records.csv or summary.csv differ from the CLI's"
        failures.extend(f"round {i}: {r.failure}" for r in (cli, rep) if r.failure)
        if rep.failure is None:
            trace = json.loads((rep_out / "trace.json").read_text())
            metrics = trace["metrics"]
            metrics["import.cold_s"], _ = import_probe()
            metrics.update(json.loads(probe(["kernel", str(seed)])[1]))
            metrics["experiments.pool_efficiency"] = metrics.pop("experiments.trial_s_sum") / (
                wl.workers * cli.wall_s
            )
            metrics["trace.overhead_frac"] = rep.wall_s / cli.wall_s
            per_round.append(metrics)
            shutil.copy(rep_out / "trace.json", run_dir / "trace.json")
        shutil.rmtree(cli_out)
        shutil.rmtree(rep_out)
        return not (timed_out(cli) or timed_out(rep))

    rounds = run_rounds(deadline, one_round)
    metrics = {}
    for name, unit in PER_LAYER_UNITS.items():
        values = [m[name] for m in per_round]
        if unit in EXACT_UNITS and len(set(values)) > 1:
            failures.append(f"{name} differs between rounds: {values}")
        metrics[name] = statistics.median(values) if values else 0.0
    return {
        "metrics": metrics,
        "rounds": rounds,
        "attempted": 2 * rounds,
        "failures": failures,
        "per_round": per_round,
    }


def read_text(path) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def machine_facts(versions: dict) -> dict:
    cpu_model = next(
        (line.split(":", 1)[1].strip() for line in read_text("/proc/cpuinfo").splitlines()
         if line.startswith("model name")),
        platform.processor(),
    )
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = read_text(index / "level").strip()
        kind = read_text(index / "type").strip()
        name = f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")
        caches[name] = read_text(index / "size").strip()
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches_per_cpu0": caches,
        "python": platform.python_version(),
        **versions,
        "git_commit": git_commit(),
        "pinned_threads": PINNED_THREADS,
        "kernel_working_set_note": (
            "kernel inputs are at most 4000x10x8 B = 320 KB (80x200x8 B = 128 KB), far below "
            "the last-level cache, so no bandwidth roofline is reported; "
            "kernel.bytes_computed is computed from array sizes, not measured"
        ),
    }


def git_commit() -> str | None:
    """The checkout's commit, read from .git without running git; None outside a git checkout."""
    git = ROOT / ".git"
    head = read_text(git / "HEAD").strip()
    if not head.startswith("ref: "):
        return head or None
    ref = head[5:]
    loose = read_text(git / ref).strip()
    if loose:
        return loose
    for line in read_text(git / "packed-refs").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "cpkmeans" / "cli.py").is_file():
        print(f"error: {ROOT} holds no src/cpkmeans; run from a cpkmeans checkout", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    run_dir = OUT_ROOT / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    cfg = run_dir / f"{wl.name}.cfg"
    cfg.write_text(wl.config_text)
    deadline = time.perf_counter() + args.seconds
    try:
        # Untimed warm-up: fills the bytecode cache, which users do not pay for on every run.
        _, versions = import_probe()
        anchor = anchor_check(wl, cfg, run_dir) if args.seed != DEFAULT_SEED else None
        measure = measure_layers if args.trace else measure_end_to_end
        found = measure(wl, cfg, args.seed, deadline, run_dir)
    except ProbeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        (run_dir / "result.json").write_text(json.dumps({"error": str(exc), "result": result}))
        print(json.dumps(result))
        return 1
    if anchor:
        found["failures"].insert(0, anchor)
    found["attempted"] += args.seed != DEFAULT_SEED
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    failed = len(found["failures"])
    result = {
        "correct": failed == 0,
        "attempted": found["attempted"],
        "failed": failed,
        "metrics": {
            name: {"value": found["metrics"][name], "unit": unit} for name, unit in units.items()
        },
    }
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "trials_per_run": wl.trials_per_run,
        "workers": wl.workers,
        "failed_frac": failed / found["attempted"],
        # Children start with this process's peak RSS, so it must stay below theirs.
        "benchmark_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine": machine_facts(versions),
        **found,
        "result": result,
    }
    (run_dir / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    print(f"{wl.name} seed={args.seed} trace={args.trace}: {found['rounds']} rounds, "
          f"failed {failed}/{found['attempted']} (failed_frac {record['failed_frac']:.3f})",
          file=sys.stderr)
    for failure in found["failures"]:
        print(f"  FAILED {failure}", file=sys.stderr)
    for name, metric in result["metrics"].items():
        print(f"  {name:32s} {metric['value']:>16.6g} {metric['unit']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
