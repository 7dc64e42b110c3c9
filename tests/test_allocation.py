"""Allocation guard: warmed study trials must not keep faulting in fresh pages.

A trial whose temporaries the allocator hands back to the OS, and maps
again on the next trial, pays a page fault per 4 KB it touches: some 100
per sweep trial and 360 per rate trial at n = 4000 when every kernel call
made its own temporaries, which cost more than the arithmetic they serve.
Two tests count the minor faults (``getrusage(RUSAGE_SELF).ru_minflt``)
of one warmed study in a fresh interpreter.  A fresh one, because whether
freed memory goes back to the OS depends on what the process allocated
and freed before; the pytest process's history can hide the churn.

A warm sweep trial allocates no large array: its sample and its table go
into the memory of the last trial's.  What remains is the study's result,
one 80 KB (trial, row) grid of uint8 splits for 400 trials, filled as the
trials arrive, and its summary: about 120 faults, and 190 with a 640 KB
float64 grid of tau_hat.  While each trial freed a fresh sample
and table, the count followed the heap's layout: 2,640 to 27,450 over
start-ups that differed only in the size of the environment.  So a test
also bounds what one warm trial allocates, as tracemalloc sees it, which
no layout changes.

A test bounds the memory of that sweep study and of writing its
records, as tracemalloc sees it: the result holds its grid, not one
80,000-entry column per record field, the study summarises a few columns
of that grid at a time, and the writer holds one block of lines at a
time.  A test checks that an ``experiment`` run never imports
``numpy.ma``, which ``np.median`` loads (1.1 MB) only for its NaN check.
A last test checks that method 2 sorts nothing: in a fresh process, the
first ``np.unique(..., return_inverse=True)`` adds about 0.45 MB of RSS
and the first int64 ``np.sort`` about 0.25 MB, and nothing else in a
selection run calls either.
"""

import mmap
import os
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cpkmeans import experiments
from cpkmeans.experiments import ExperimentConfig
from cpkmeans.model import SignalMatrix
from cpkmeans.smoothing import method2_select

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _faults_are_counted() -> bool:
    # One byte written to each page of a fresh 8 MB mapping: 2,048 faults
    # wherever ru_minflt is reported.
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with mmap.mmap(-1, 8 << 20) as fresh:
        fresh[:: mmap.PAGESIZE] = b"x" * ((8 << 20) // mmap.PAGESIZE)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before > 100


needs_fault_counts = pytest.mark.skipif(
    not sys.platform.startswith("linux") or not _faults_are_counted(),
    reason="needs minor-fault counts from getrusage (Linux)",
)

_PRELUDE = """
from cpkmeans.experiments import ExperimentConfig, run_study

def config(trials, **kw):
    return ExperimentConfig(base_seed=1, trials=trials, sigma=1.0, tau=0.3, **kw)

def sweep(trials):
    return config(trials, study="sweep", n_grid=(100,), d=200, case="caseB", t_grid=range(1, 201))
"""

_FAULTS = """
import resource
{warm}
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
{run}
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def _fresh(code: str) -> list[int]:
    """The integers `code` prints, run after the shared prelude in a fresh interpreter."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", _PRELUDE + code], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return [int(x) for x in proc.stdout.split()]


def _warm_faults(warm: str, run: str) -> int:
    """Minor faults of `run`, after `warm`, in a fresh interpreter."""
    return _fresh(_FAULTS.format(warm=warm, run=run))[0]


@needs_fault_counts
def test_warm_sweep_study_faults():
    # The sweep workload's shape: 400 trials of 100 x 200, a table and 200 fits each.
    faults = _warm_faults("run_study(sweep(20))", "run_study(sweep(400))")
    assert faults < 1_500, f"{faults} minor faults for 400 warm sweep trials"


@needs_fault_counts
def test_warm_rate_trials_faults():
    # The rate workload's largest sample: 100 fixed-T fits at n = 4000, d = 20,
    # run as a one-T sweep, which takes the rate trial's one-fit path.
    rate = ("run_study(config(100, study='sweep', n_grid=(4000,), d=20, case='rate',"
            " t_grid=(10,)))")
    faults = _warm_faults(rate, rate)
    assert faults < 1_000, f"{faults} minor faults for 100 warm rate trials at n = 4000"


def _config(trials, **kw):
    return ExperimentConfig(base_seed=1, trials=trials, sigma=1.0, tau=0.3, **kw)


@pytest.mark.parametrize("trial, config, bound", [
    # One fresh 160 KB sample or table would take a sweep trial past 299 KB.
    (experiments._trial,
     _config(3, study="sweep", n_grid=(100,), d=200, case="caseB", t_grid=range(1, 201)),
     250_000),
    # One fresh 640 KB sample would take a rate trial past 640 KB.
    (experiments._trial,
     _config(3, study="sweep", n_grid=(4000,), d=20, case="rate", t_grid=(10,)), 400_000),
    # Method 2's blocks take their buffers from the workspace; fresh (100, 80)
    # temporaries on each of its 200 T steps peaked at about 0.90 MB.
    (experiments._trial,
     _config(3, study="selection", n_grid=(100,), d=200, case="caseB", t_grid=range(1, 201),
             t_star=30, n_sub=100, frac=0.8), 800_000),
], ids=["sweep", "rate", "selection"])
def test_warm_trials_allocate_no_sample_or_table(trial, config, bound):
    # The fault counts' companion that does not depend on the heap's layout:
    # the peak of what one warm trial allocates, as tracemalloc sees it
    # (139 KB, 195 KB and about 0.70 MB; numpy's ufunc buffers are most of
    # the first two, ``np.take``'s bounds-checked output copy of the last).
    n = config.n_grid[0]
    for i in range(2):
        trial((config, n, i))
    tracemalloc.start()
    try:
        for i in range(2, 5):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            trial((config, n, i))
            peak = tracemalloc.get_traced_memory()[1] - before
            assert peak < bound, f"trial {i} allocated up to {peak} bytes"
    finally:
        tracemalloc.stop()


_MEMORY = """
import os, tracemalloc
from cpkmeans import cli

cli._write_records(os.devnull, run_study(sweep(20)))
tracemalloc.start()
result = run_study(sweep(400))
held, study_peak = tracemalloc.get_traced_memory()
tracemalloc.reset_peak()
cli._write_records(os.devnull, result)
print(held, study_peak, tracemalloc.get_traced_memory()[1] - held)
"""


def test_sweep_study_and_records_memory():
    # A warmed 400-trial sweep study (80,000 records) and its records.csv.
    # The result holds an 80 KB uint8 grid of splits and its summary, under
    # 0.4 MB (about 0.22 MB; a float64 grid of tau_hat held 0.77 MB), with
    # a 0.79 MB study peak and 0.09 MB for the writer.  Seven record
    # columns of 80,000 entries would hold 5.6 MB; summarising the whole
    # grid at once, with full-grid abs errors and copies, peaked at 2.7 MB.
    held, study_peak, writer = _fresh(_MEMORY)
    assert held < 400_000, f"the sweep result holds {held} bytes"
    assert study_peak < 1_500_000, f"the sweep study peaked at {study_peak} bytes"
    assert writer < 500_000, f"writing the records took {writer} bytes above the result"


_MASKED = """
import contextlib, io, sys
from cpkmeans import cli

with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["experiment", "--config", {config!r}, "--out", {out!r},
                     "--trials", "3", "--workers", "1"])
print(code, int("numpy.ma" in sys.modules))
"""


@pytest.mark.parametrize("study", ["sweep", "rate", "selection"])
def test_experiment_does_not_import_numpy_ma(tmp_path, study):
    # np.median imports numpy.ma for its NaN check; the summaries' median does not.
    config = Path(__file__).parent / "golden" / study / "study.cfg"
    code, masked = _fresh(_MASKED.format(config=str(config), out=str(tmp_path)))
    assert code == 0
    assert not masked, f"a {study} experiment imported numpy.ma"


def test_method2_calls_no_sort(monkeypatch):
    # Row masks and a count stand in for np.sort and np.unique, whose first
    # calls would add about 0.7 MB to a selection run's peak RSS.
    sample = SignalMatrix(np.random.default_rng(3).normal(size=(100, 200)))

    def refuse(*args, **kwargs):
        raise AssertionError("method 2 sorted")

    monkeypatch.setattr(np, "sort", refuse)
    monkeypatch.setattr(np, "unique", refuse)
    assert 1 <= method2_select(sample, 100, 0.8, 1) <= 200
