"""Seed-deterministic Monte Carlo studies.

Each trial draws fresh segment means and fresh noise with
``draw_sample``, from a generator seeded by (base_seed, trial, n, T,
tag), so trials are independent work units: results are bit-identical
whether they run sequentially or on a process pool.  The three mean
cases (the rate model, case A and case B) are one table of coordinate
sds per (case, d) and one sampler, ``sample_case_means``, and
``cli simulate`` draws through the same ``draw_sample``.

The three studies (error against n at a fixed T, error against T, and
the selectors against the oracle T) are one pipeline, and each runs on
any case.  The config turns its study name into (T, selector) rows (a
fixed T, the oracle T or a selector that picks T in every trial) and
its trials' seed tag; past the config, the name changes only the
``study`` column of summary.csv.  ``_trial`` fills every row of one
trial, and ``run_study`` summarises each row and n of the (trial, row)
grid into one ``StudyResult``.  ``cli`` writes each cell as one record
of records.csv and prints the result's ``headline``: ``t_star`` for
fixed-T rows at one n, their error slopes over several n, and each
oracle or selector row's mean error.
"""

from __future__ import annotations

import collections
import functools
import hashlib
import math
import os
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._kernels import _workspace
from .errors import ValidationError, check_fraction, check_integer, check_integers, check_sigma
from .estimator import estimate_tau, sweep_estimate
from .model import ModelSpec, SignalMatrix, _kernel_limit, generate_sample
from .smoothing import method1_select, method2_select, subsample_size, surrogate
from .stats import SummaryStats, fit_line, summarize_columns

__all__ = [
    "MeanCase",
    "ExperimentConfig",
    "StudyResult",
    "derive_trial_seed",
    "sample_case_means",
    "draw_sample",
    "run_study",
]

_SEED_CAP = 2**63 - 1
# The largest |z| numpy's standard_normal can return.  Its ziggurat has
# r = 3.6541528853610088 at the base; a tail draw is r + x with
# x = -log(1 - U) / r, and U is at most 1 - 2**-53, so x <= 53 ln 2 / r.
_Z_MAX = 3.6541528853610088 + 53.0 * math.log(2.0) / 3.6541528853610088  # about 13.71
# Columns of the (trial, row) grid summarised at once: 51 KB of abs errors
# per copy at 400 trials, where the sweep's whole grid's would be 640 KB.
_SUMMARY_COLUMNS = 16


class MeanCase(str, Enum):
    RATE_MODEL = "rate"
    CASE_A = "caseA"
    CASE_B = "caseB"


def _check_case_d(case: MeanCase, d: int) -> int:
    d = check_integer("d", d, 1)
    # Case B draws its 20 leading coordinates apart from a non-empty tail.
    if case is MeanCase.CASE_B and d < 21:
        raise ValidationError(f"case B needs d >= 21, got {d}")
    return d


def _check_distinct(name: str, grid: tuple[int, ...]):
    # A repeated grid point reruns the same seeded trials and counts them twice.
    repeated = sorted(x for x, count in collections.Counter(grid).items() if count > 1)
    if repeated:
        raise ValidationError(f"{name} repeats {repeated}")


@dataclass(frozen=True)
class ExperimentConfig:
    """One study, its grid and its tuning; every field has a config-file twin.

    ``study`` is ``rate`` (error against n at one T), ``sweep`` (error
    against T at one n) or ``selection`` (the oracle T and the two
    practical selectors at one n), and ``case`` names the means it draws;
    every study runs on every case.  The defaults are the config file's:
    a key the file leaves out takes the field's default, and the empty
    ``study``, ``case`` and ``n_grid`` and the zero ``d`` fail their
    checks.  Construction runs every check, the study's own included, so
    a config that exists can be run.
    """

    study: str = ""
    base_seed: int = 0
    trials: int = 1
    n_grid: tuple[int, ...] = ()
    d: int = 0
    sigma: float = 1.0
    tau: float = 0.5
    case: MeanCase = ""
    t_grid: tuple[int, ...] = ()
    n_sub: int = 100
    frac: float = 0.8
    t_star: int | None = None

    def __post_init__(self):
        if self.study not in ("rate", "sweep", "selection"):
            raise ValidationError(f"study must be rate | sweep | selection, got {self.study!r}")
        try:
            object.__setattr__(self, "case", MeanCase(self.case))
        except ValueError:
            raise ValidationError(f"case must be rate | caseA | caseB, got {self.case!r}") from None
        store = functools.partial(object.__setattr__, self)
        store("base_seed", check_integer("base_seed", self.base_seed))
        store("trials", check_integer("trials", self.trials, 1))
        store("d", _check_case_d(self.case, self.d))
        store("tau", check_fraction("tau", self.tau))
        store("sigma", check_sigma(self.sigma))
        store("n_sub", check_integer("n_sub", self.n_sub, 2))
        store("frac", check_fraction("frac", self.frac))
        store("n_grid", tuple(check_integers("n_grid", "every n", self.n_grid, 4).tolist()))
        store("t_grid", tuple(check_integers("t_grid", "every T", self.t_grid, 1, self.d).tolist()))
        if self.t_star is not None:
            store("t_star", check_integer("t_star", self.t_star, 1, self.d))
        if not self.n_grid:
            raise ValidationError("n_grid must be non-empty")
        _check_distinct("n_grid", self.n_grid)
        for n in self.n_grid:
            if abs(self.tau * n - round(self.tau * n)) > 1e-9:
                raise ValidationError(f"tau * n must be integral, got tau={self.tau}, n={n}")
        # Every mean coordinate is at most _Z_MAX of its sds from 0 (a shared
        # post-change one at most _Z_MAX of each), and the noise at most _Z_MAX
        # sigma, so a sigma below this bound draws no entry the kernels refuse.
        sd_minus, sd_plus = _mean_table(self.case, self.d)[:2]
        limit = _kernel_limit((max(self.n_grid), self.d)) / _Z_MAX - sd_minus.max() - sd_plus.max()
        if self.sigma > limit:
            raise ValidationError(
                f"sigma must be at most {limit:.4g} for a {self.case.value} sample of "
                f"n={max(self.n_grid)}, d={self.d}, got {self.sigma!r}")
        # The study name sets the rows and its own shape; the other checks read the rows.
        if not self.rows:  # rate's and sweep's rows are t_grid's
            raise ValidationError("t_grid must be non-empty")
        _check_distinct("t_grid", self.t_grid)
        if self.study == "rate":
            if len(self.rows) != 1:
                raise ValidationError("rate study uses a single fixed T")
            if len(self.n_grid) < 2:  # its headline is the slope of its error over n
                raise ValidationError(
                    f"rate study needs at least 2 sample sizes, got n_grid={self.n_grid}")
        elif len(self.n_grid) != 1:
            raise ValidationError("T sweep uses a single sample size" if self.study == "sweep"
                                  else "selection comparison uses a single sample size")
        if (None, "oracle") in self.rows:  # the oracle row's T is t_star
            raise ValidationError("selection comparison needs t_star (oracle T)")
        if (None, "method2") in self.rows:
            subsample_size(self.n_grid[0], self.n_sub, self.frac)

    @functools.cached_property  # built once per config, not once per trial
    def rows(self) -> tuple[tuple[int | None, str], ...]:
        """The (T, selector) key of each record a trial makes, in order.

        T is None for method 1 and method 2, which pick T afresh in every
        trial; every other row keeps its T in every trial.
        """
        if self.study == "selection":
            return (self.t_star, "oracle"), (None, "method1"), (None, "method2")
        return tuple((t, "fixed-T") for t in self.t_grid)

    @functools.cached_property  # the (T, tag) every trial's seed mixes in
    def _seed_tag(self) -> tuple[int, str]:  # a rate study's one row, else (0, study)
        return self.rows[0] if self.study == "rate" else (0, self.study)

    @functools.cached_property  # every row's T, shared by every trial, or None
    def _shared_T(self) -> tuple[int, ...] | None:  # where a selector row picks T
        return None if any(t is None for t, _ in self.rows) else tuple(t for t, _ in self.rows)


@dataclass(frozen=True, eq=False)
class StudyResult:
    """The records of the study ``config`` ran, as a (trial, row) grid of
    split indices, and their summary.

    ``grid`` has one read-only row per trial, n by n in ``config.n_grid``
    order, and one column per row key of ``config.rows``, a (T, selector)
    pair.  Each cell is the fit's split k_hat in {2, ..., n - 2}, in the
    narrowest unsigned type that holds the largest n (uint8 up to 255), and
    is one record of records.csv, whose tau_hat is k_hat / n by the row's n
    and abs_error |tau_hat - config.tau|.  ``T_grid`` holds each cell's T:
    one row shared by every trial, or one per trial where a selector picks T.

    ``summary`` maps (n, T, selector) to the stats of that group's
    ``abs_error``, in the order the groups first appear in the records.
    """

    config: ExperimentConfig
    grid: np.ndarray
    T_grid: np.ndarray
    summary: dict[tuple[int, int | None, str], SummaryStats]

    def headline(self) -> dict[str, float | int]:
        """The numbers the study reports, by name, in the order they print,
        chosen by the kinds of ``config.rows`` and the number of n.

        Fixed-T rows report ``t_star`` at one n, the T of least mean error
        (ties go to the smallest T), and over several n ``slope_mean`` and
        ``slope_median``, the log-log slopes of the mean and median error
        against n, zero-error points left out.  A row that names or picks its
        T (the oracle, method 1, method 2) reports ``{selector}_mean``.
        """
        config, head = self.config, {}
        fixed = [t for t, tag in config.rows if tag == "fixed-T"]
        if fixed and len(config.n_grid) == 1:  # the least (mean, T) pair
            head["t_star"] = min((self.summary[n, t, "fixed-T"].mean, t)
                                 for n in config.n_grid for t in fixed)[1]
        elif fixed:
            for stat in ("mean", "median"):
                pts = [(math.log(n), math.log(v)) for n in config.n_grid for t in fixed
                       if (v := getattr(self.summary[n, t, "fixed-T"], stat)) > 0]
                if len(pts) < 2:
                    raise ValidationError("fewer than 2 positive-error points; slope undefined")
                head[f"slope_{stat}"] = fit_line(*zip(*pts))[0]
        head.update((f"{tag}_mean", float(self.summary[n, t, tag].mean))
                    for n in config.n_grid for t, tag in config.rows if tag != "fixed-T")
        return head


def derive_trial_seed(base_seed: int, trial_index: int, n: int, T: int, selector_tag: str) -> int:
    """Stable 64-bit mix of the trial coordinates; equal tuples give equal seeds."""
    payload = f"{base_seed}|{trial_index}|{n}|{T}|{selector_tag}".encode()
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "little")


def sample_case_means(case: MeanCase, d: int, rng: np.random.Generator):
    """Segment means of any case: theta_minus, then theta_plus around it.

    Rate model: pre-change coordinate j ~ N(0, 1/(20 j^2)); post-change
    centred at its negation with variance 1e-4.

    Case A: both means i.i.d. with coordinate variance 1/(2 j^2).

    Case B: 20 leading coordinates are large (variance 1/2) and nearly
    shared between the segments (post-change recentred on them with sd
    0.1); the tail coordinates are drawn independently per segment with
    variance 1/(2 (j - 20)^2).
    """
    case = MeanCase(case)
    d = _check_case_d(case, d)
    sd_minus, sd_plus, shared, negate = _mean_table(case, d)
    theta_minus = rng.normal(0.0, sd_minus)
    loc = 0.0
    if shared:  # copied or negated, never multiplied by a 0/1 mask, which can make -0.0
        loc = np.zeros(d)
        loc[:shared] = -theta_minus[:shared] if negate else theta_minus[:shared]
    return theta_minus, rng.normal(loc, sd_plus)


@functools.lru_cache(maxsize=8)
def _mean_table(case: MeanCase, d: int) -> tuple[np.ndarray, np.ndarray, int, bool]:
    """A case's read-only coordinate sds before and after the change, and how
    many leading post-change locations copy theta_minus, or negate it."""
    j = np.arange(1, d + 1, dtype=np.float64)
    if case is MeanCase.RATE_MODEL:
        table = 1.0 / (math.sqrt(20.0) * j), np.full(d, 1e-2), d, True
    elif case is MeanCase.CASE_A:
        sd = 1.0 / (math.sqrt(2.0) * j)
        table = sd, sd, 0, False
    else:
        tail = 1.0 / (math.sqrt(2.0) * (j[20:] - 20.0))
        table = (np.concatenate([np.full(20, math.sqrt(0.5)), tail]),
                 np.concatenate([np.full(20, 0.1), tail]), 20, False)
    for scale in table[:2]:
        scale.flags.writeable = False
    return table


# studybench/replay.py still wraps this name (until ROADMAP item 2's third step).
sample_rate_means = functools.partial(sample_case_means, MeanCase.RATE_MODEL)


def draw_sample(case: MeanCase, n: int, d: int, tau: float, sigma: float,
                rng: np.random.Generator) -> SignalMatrix:
    """One sample as a trial draws it: the case's means, then a noise seed
    from the same generator, then ``generate_sample``."""
    tm, tp = sample_case_means(case, d, rng)
    spec = ModelSpec(n=n, d=d, tau=tau, theta_minus=tm, theta_plus=tp, sigma=sigma)
    # The spec goes first and positionally: studybench/replay.py reads args[0].
    return generate_sample(spec, int(rng.integers(0, _SEED_CAP)))


def _run_trials(fn, payloads, workers: int):
    """The trials' batches in payload order: lazily when serial, all run before
    this returns on a pool."""
    if workers <= 1:
        return map(fn, payloads)
    from concurrent.futures import ProcessPoolExecutor  # not loaded by serial runs
    chunk = max(1, len(payloads) // (4 * workers))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, payloads, chunksize=chunk))


_SELECTORS = {  # each selector row's pick of T from the trial's sample and generator
    "method1": lambda sample, config, rng: method1_select(surrogate(sample)),
    "method2": lambda sample, config, rng: method2_select(
        sample, config.n_sub, config.frac, int(rng.integers(0, _SEED_CAP))),
}


def _trial(payload):
    """One trial from a (config, n, trial) payload: (T, k_hat), each row's T
    and split in ``config.rows`` order, selector rows included.

    The sample is drawn with the config's seed tag, then each selector row
    picks its T in row order, so method 2 draws its seed right after the
    sample.  Several rows are read off one ``sweep_estimate`` table, which
    ``estimate_tau`` reproduces bit for bit, and one row off ``estimate_tau``.
    """
    config, n, trial = payload
    rng = np.random.default_rng(derive_trial_seed(config.base_seed, trial, n, *config._seed_tag))
    sample = draw_sample(config.case, n, config.d, config.tau, config.sigma, rng)
    T = config._shared_T or [t if t is not None else _SELECTORS[tag](sample, config, rng)
                             for t, tag in config.rows]
    return T, (sweep_estimate(sample, T)[0] if len(T) > 1 else [estimate_tau(sample, T[0]).k_hat])


# studybench/replay.py times each study's trials by rebinding these names,
# so run_study looks them up on every call (until ROADMAP item 2's third step).
_rate_trial = _sweep_trial = _selection_trial = _trial


def run_study(config: ExperimentConfig, workers: int = 1) -> StudyResult:
    """Run ``config``'s trials into one (trial, row) grid and summarise it.

    Each summary group is one row's column of one n's block, in (n, row)
    order.  A block is summarised ``_SUMMARY_COLUMNS`` columns at a time,
    their abs errors made just before, so neither the abs errors nor
    ``summarize_columns``' copies of them ever span the whole grid; its
    median is ``np.median``'s bit for bit, without ``numpy.ma``.  Each
    tau_hat, k / n in float64, is ``estimate_tau``'s ``k_hat / n`` bit for
    bit.  A trial's splits must be integers in {2, ..., n - 2}.  Its rows'
    T, which every trial returns, are kept per trial only where a selector
    picks T.  The thread's kernel workspace is released once the trials
    end, so the summary and what follows it do not hold it.
    """
    # A pool starts all its workers at once: no more than the machine has CPUs.
    workers = check_integer("workers", workers, 1, os.cpu_count() or 1)
    trial_fn = globals()[f"_{config.study}_trial"]
    rows, shared = config.rows, config._shared_T
    payloads = [(config, n, trial) for n in config.n_grid for trial in range(config.trials)]
    # Every split k is at most n - 2.
    grid = np.empty((len(payloads), len(rows)), np.min_scalar_type(max(config.n_grid)))
    T_grid = np.empty(grid.shape, int) if shared is None else np.array([shared])
    for i, (T, k_hat) in enumerate(_run_trials(trial_fn, payloads, workers)):
        # Checked, since numpy would broadcast a one-element row, truncate a
        # fraction and wrap a split past the grid's type, all silently.
        k_hat, n = np.asarray(k_hat), payloads[i][1]
        if len(k_hat) != len(rows):
            raise RuntimeError(f"a trial returned {len(k_hat)} estimates for {len(rows)} rows")
        if k_hat.dtype.kind not in "iu" or k_hat.min() < 2 or k_hat.max() > n - 2:
            raise RuntimeError(f"a trial returned splits other than integers in [2, {n - 2}]")
        grid[i] = k_hat
        if shared is None:
            T_grid[i] = T
    _workspace.release()
    grid.flags.writeable = T_grid.flags.writeable = False
    summary = {}
    for n, block in zip(config.n_grid, grid.reshape(len(config.n_grid), config.trials, -1)):
        for lo in range(0, len(rows), _SUMMARY_COLUMNS):
            keys = [(n, t, tag) for t, tag in rows[lo:lo + _SUMMARY_COLUMNS]]
            errors = np.abs(block[:, lo:lo + _SUMMARY_COLUMNS] / n - config.tau)
            summary.update(zip(keys, summarize_columns(errors)))
    return StudyResult(config=config, grid=grid, T_grid=T_grid, summary=summary)
