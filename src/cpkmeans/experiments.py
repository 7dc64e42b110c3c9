"""Seed-deterministic Monte Carlo studies.

Each study draws fresh segment means and fresh noise per trial, keyed by
a seed derived from (base_seed, trial, n, T, tag), so trials are
independent work units: results are bit-identical whether they run
sequentially or on a process pool.

The three studies (error against n at a fixed T, error against T, and
the selectors against the oracle T) share one pipeline.  The config
names its study, and so its (T, selector) rows; a trial returns one
tau_hat per row.  ``_run_study`` writes each trial's tau_hat into one
(trial, row) grid as it arrives and summarises each row of each n into
one ``StudyResult``, which builds the record columns on demand.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ValidationError
from .estimator import estimate_tau, sweep_estimate
from .model import ModelSpec, generate_sample
from .smoothing import (
    C_LEPSKI, check_c_lepski, check_sigma, check_subsampling, method1_select, method2_select,
    subsample_size, surrogate,
)
from .stats import SummaryStats, fit_line, summarize_columns

__all__ = [
    "MeanCase",
    "ExperimentConfig",
    "StudyResult",
    "derive_trial_seed",
    "sample_rate_means",
    "sample_case_means",
    "run_rate_study",
    "run_regression_study",
    "run_t_sweep_study",
    "run_selection_comparison",
]

_SEED_CAP = 2**63 - 1
# Columns of the (trial, row) grid summarised at once: 51 KB of abs errors
# per copy at 400 trials, where the sweep's whole grid is 640 KB.
_SUMMARY_COLUMNS = 16


class MeanCase(str, Enum):
    RATE_MODEL = "rate"
    CASE_A = "caseA"
    CASE_B = "caseB"


def _check_case_d(case: MeanCase, d: int):
    # Case B draws its 20 leading coordinates apart from a non-empty tail.
    if case is MeanCase.CASE_B and d < 21:
        raise ValidationError(f"case B needs d >= 21, got {d}")


def _check_distinct(name: str, grid: tuple[int, ...]):
    # A repeated grid point reruns the same seeded trials and counts them twice.
    repeated = sorted({x for x in grid if grid.count(x) > 1})
    if repeated:
        raise ValidationError(f"{name} repeats {repeated}")


@dataclass(frozen=True)
class ExperimentConfig:
    """One study, its grid and its tuning; every field has a config-file twin.

    ``study`` is ``rate`` (error against n at one T), ``sweep`` (error
    against T at one n) or ``selection`` (the oracle T and the two
    practical selectors at one n).  Construction runs every check, the
    study's own included, so a config that exists can be run.
    """

    study: str
    base_seed: int
    trials: int
    n_grid: tuple[int, ...]
    d: int
    sigma: float
    tau: float
    case: MeanCase
    t_grid: tuple[int, ...]
    n_sub: int = 100
    frac: float = 0.8
    c_lepski: float = C_LEPSKI
    t_star: int | None = None

    def __post_init__(self):
        if self.study not in ("rate", "sweep", "selection"):
            raise ValidationError(f"study must be rate | sweep | selection, got {self.study!r}")
        try:
            object.__setattr__(self, "case", MeanCase(self.case))
        except ValueError:
            raise ValidationError(f"case must be rate | caseA | caseB, got {self.case!r}") from None
        object.__setattr__(self, "n_grid", tuple(int(n) for n in self.n_grid))
        object.__setattr__(self, "t_grid", tuple(int(t) for t in self.t_grid))
        if self.trials < 1:
            raise ValidationError(f"trials must be >= 1, got {self.trials}")
        if self.d < 1:
            raise ValidationError(f"d must be >= 1, got {self.d}")
        if not 0.0 < self.tau < 1.0:
            raise ValidationError(f"tau must lie in (0, 1), got {self.tau}")
        _check_case_d(self.case, self.d)
        check_sigma(self.sigma)
        check_c_lepski(self.c_lepski)
        check_subsampling(self.n_sub, self.frac)
        if not self.n_grid:
            raise ValidationError("n_grid must be non-empty")
        _check_distinct("n_grid", self.n_grid)
        for n in self.n_grid:
            if n < 4:
                raise ValidationError(f"every n must be >= 4, got {n}")
            if abs(self.tau * n - round(self.tau * n)) > 1e-9:
                raise ValidationError(f"tau * n must be integral, got tau={self.tau}, n={n}")
        if not self.t_grid:
            raise ValidationError("t_grid must be non-empty")
        _check_distinct("t_grid", self.t_grid)
        for t in self.t_grid:
            if not 1 <= t <= self.d:
                raise ValidationError(f"every T must lie in [1, {self.d}], got {t}")
        if self.t_star is not None and not 1 <= self.t_star <= self.d:
            raise ValidationError(f"t_star must lie in [1, {self.d}], got {self.t_star}")
        if self.study == "rate":
            if self.case is not MeanCase.RATE_MODEL:
                raise ValidationError("rate study requires the rate-model means")
            if len(self.t_grid) != 1:
                raise ValidationError("rate study uses a single fixed T")
        elif self.study == "sweep":
            if self.case is MeanCase.RATE_MODEL:
                raise ValidationError("T sweep requires case A or case B means")
            if len(self.n_grid) != 1:
                raise ValidationError("T sweep uses a single sample size")
        else:
            if self.case is not MeanCase.CASE_B:
                raise ValidationError("selection comparison requires case B means")
            if len(self.n_grid) != 1:
                raise ValidationError("selection comparison uses a single sample size")
            if self.t_star is None:
                raise ValidationError("selection comparison needs t_star (oracle T)")
            subsample_size(self.n_grid[0], self.n_sub, self.frac)

    @property
    def rows(self) -> tuple[tuple[int | None, str], ...]:
        """The (T, selector) key of each record a trial makes, in order.

        T is None for method 1 and method 2, which pick T afresh in every
        trial; every other row keeps its T in every trial.
        """
        if self.study == "selection":
            return (self.t_star, "oracle"), (None, "method1"), (None, "method2")
        return tuple((t, "fixed-T") for t in self.t_grid)


@dataclass(frozen=True, eq=False)
class StudyResult:
    """The records of one study as a (trial, row) grid of tau_hat, and their summary.

    ``grid`` has one read-only row per trial, n by n in ``n_grid`` order,
    and one column per row key of ``rows``, a (T, selector) pair; T is
    None for the selectors that pick T afresh in every trial.  ``T_grid``
    holds each record's T: one row shared by every trial, or one row per
    trial when a selector picks T.  The record columns, one entry per row
    of records.csv, are built from these on access.

    ``summary`` maps (n, T, selector) to the stats of that group's
    ``abs_error``, in the order the groups first appear in the records.
    """

    grid: np.ndarray
    rows: tuple[tuple[int | None, str], ...]
    T_grid: np.ndarray
    n_grid: tuple[int, ...]
    trials: int
    tau: float
    summary: dict[tuple[int, int | None, str], SummaryStats]

    @property
    def trial_index(self) -> np.ndarray:
        return np.tile(np.repeat(np.arange(self.trials), len(self.rows)), len(self.n_grid))

    @property
    def n(self) -> np.ndarray:
        return np.repeat(self.n_grid, self.trials * len(self.rows))

    @property
    def T(self) -> np.ndarray:
        return np.broadcast_to(self.T_grid, self.grid.shape).flatten()

    @property
    def tau_hat(self) -> np.ndarray:
        return self.grid.ravel()

    @property
    def abs_error(self) -> np.ndarray:
        return np.abs(self.grid - self.tau).ravel()

    @property
    def selector(self) -> np.ndarray:
        return np.tile([tag for _, tag in self.rows], len(self.grid))

    @property
    def t_star(self) -> int:
        """The fixed T of least mean error; ties go to the smallest T."""
        means = {T: s.mean for (_, T, _), s in self.summary.items() if T is not None}
        best = min(means.values())
        return min(T for T, mean in means.items() if mean == best)


def derive_trial_seed(base_seed: int, trial_index: int, n: int, T: int, selector_tag: str) -> int:
    """Stable 64-bit mix of the trial coordinates; equal tuples give equal seeds."""
    payload = f"{base_seed}|{trial_index}|{n}|{T}|{selector_tag}".encode()
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "little")


def sample_rate_means(d: int, rng: np.random.Generator):
    """Rate-model means: pre-change coordinate j ~ N(0, 1/(20 j^2)), post-change
    centered at its negation with variance 1e-4."""
    j = np.arange(1, d + 1, dtype=np.float64)
    theta_minus = rng.normal(0.0, 1.0 / (math.sqrt(20.0) * j))
    theta_plus = rng.normal(-theta_minus, 1e-2)
    return theta_minus, theta_plus


def sample_case_means(case: MeanCase, d: int, rng: np.random.Generator):
    """Segment means of any case; the rate model is ``sample_rate_means``.

    Case A: both means i.i.d. with coordinate variance 1/(2 j^2).

    Case B: 20 leading coordinates are large (variance 1/2) and nearly
    shared between the segments (post-change recentered with sd 0.1);
    the tail coordinates are drawn independently per segment with
    variance 1/(2 (j - 20)^2).
    """
    case = MeanCase(case)
    if case is MeanCase.RATE_MODEL:
        return sample_rate_means(d, rng)
    _check_case_d(case, d)
    scale_minus, scale_plus = _case_scales(case, d)
    theta_minus = rng.normal(0.0, scale_minus)
    if case is MeanCase.CASE_A:
        return theta_minus, rng.normal(0.0, scale_plus)
    loc_plus = np.concatenate([theta_minus[:20], np.zeros(d - 20)])
    return theta_minus, rng.normal(loc_plus, scale_plus)


@functools.lru_cache(maxsize=8)
def _case_scales(case: MeanCase, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Case A's or case B's coordinate sds before and after the change, read-only."""
    if case is MeanCase.CASE_A:
        scale = 1.0 / (math.sqrt(2.0) * np.arange(1, d + 1, dtype=np.float64))
        scales = scale, scale
    else:
        tail_j = np.arange(21, d + 1, dtype=np.float64)
        tail_scale = 1.0 / (math.sqrt(2.0) * (tail_j - 20.0))
        scales = (np.concatenate([np.full(20, math.sqrt(0.5)), tail_scale]),
                  np.concatenate([np.full(20, 0.1), tail_scale]))
    for scale in scales:
        scale.flags.writeable = False
    return scales


def _trial_sample(config: ExperimentConfig, trial: int, n: int, T: int, tag: str):
    """The seeded generator and sample of one trial; every study starts here."""
    rng = np.random.default_rng(derive_trial_seed(config.base_seed, trial, n, T, tag))
    tm, tp = sample_case_means(config.case, config.d, rng)
    spec = ModelSpec(
        n=n, d=config.d, tau=config.tau, theta_minus=tm, theta_plus=tp, sigma=config.sigma
    )
    return rng, generate_sample(spec, int(rng.integers(0, _SEED_CAP)))


def _run_trials(fn, payloads, workers: int):
    """The trials' batches in payload order: lazily when serial, all run before
    this returns on a pool."""
    if workers <= 1:
        return map(fn, payloads)
    from concurrent.futures import ProcessPoolExecutor  # not loaded by serial runs
    chunk = max(1, len(payloads) // (4 * workers))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, payloads, chunksize=chunk))


# Each trial takes a (config, n, trial) payload and returns (picked_T, tau_hat):
# one tau_hat per row of ``config.rows`` and, where the study's selectors pick
# T, the T of every row, else None.


def _rate_trial(payload):
    config, n, trial = payload
    t_fixed = config.t_grid[0]
    _, sample = _trial_sample(config, trial, n, t_fixed, "fixed-T")
    return None, [estimate_tau(sample, t_fixed).tau_hat]


def _sweep_trial(payload):
    config, n, trial = payload
    _, sample = _trial_sample(config, trial, n, 0, "sweep")
    k_hat, _ = sweep_estimate(sample, config.t_grid)
    return None, k_hat / n


def _selection_trial(payload):
    config, n, trial = payload
    rng, sample = _trial_sample(config, trial, n, 0, "selection")
    T = [
        config.t_star,
        method1_select(surrogate(sample)),
        method2_select(sample, config.n_sub, config.frac, int(rng.integers(0, _SEED_CAP))),
    ]
    return T, [estimate_tau(sample, t).tau_hat for t in T]


def _run_study(trial_fn, study: str, config: ExperimentConfig, workers: int) -> StudyResult:
    """Run ``config``'s trials through ``trial_fn`` into one (trial, row) grid and summarise it.

    Each summary group is one row's column of one n's block, in (n, row)
    order.  A block is summarised ``_SUMMARY_COLUMNS`` columns at a time,
    their abs errors made just before, so neither the abs errors nor
    ``summarize_columns``' copies of them ever span the whole grid; its
    median is ``np.median``'s bit for bit, without ``numpy.ma``.  Only a
    selector that picks T needs a T per trial; otherwise every trial shares
    the rows' T.
    """
    if config.study != study:
        raise ValidationError(f"the {study} study cannot run a config for study={config.study!r}")
    rows = config.rows
    picked = any(t is None for t, _ in rows)
    payloads = [(config, n, trial) for n in config.n_grid for trial in range(config.trials)]
    grid = np.empty((len(payloads), len(rows)))
    T_grid = np.empty(grid.shape, int) if picked else np.array([[t for t, _ in rows]])
    for i, (T, tau_hat) in enumerate(_run_trials(trial_fn, payloads, workers)):
        # Checked, since numpy would broadcast a one-element row silently.
        if len(tau_hat) != len(rows):
            raise RuntimeError(f"a trial returned {len(tau_hat)} estimates for {len(rows)} rows")
        grid[i] = tau_hat
        if picked:
            T_grid[i] = T
    grid.flags.writeable = T_grid.flags.writeable = False
    summary = {}
    for n, block in zip(config.n_grid, grid.reshape(len(config.n_grid), config.trials, -1)):
        for lo in range(0, len(rows), _SUMMARY_COLUMNS):
            keys = [(n, t, tag) for t, tag in rows[lo:lo + _SUMMARY_COLUMNS]]
            errors = np.abs(block[:, lo:lo + _SUMMARY_COLUMNS] - config.tau)
            summary.update(zip(keys, summarize_columns(errors)))
    return StudyResult(
        grid=grid, rows=rows, T_grid=T_grid, n_grid=config.n_grid, trials=config.trials,
        tau=config.tau, summary=summary,
    )


def run_rate_study(config: ExperimentConfig, workers: int = 1) -> StudyResult:
    """Absolute estimation error at a fixed truncation level, per sample size."""
    return _run_study(_rate_trial, "rate", config, workers)


def run_regression_study(result: StudyResult) -> tuple[float, float]:
    """Log-log slopes of mean and median error against n; zero-error points drop out."""
    slopes = []
    for pick in (lambda s: s.mean, lambda s: s.median):
        pts = [
            (math.log(n), math.log(pick(s)))
            for (n, _, _), s in result.summary.items()
            if pick(s) > 0
        ]
        if len(pts) < 2:
            raise ValidationError("fewer than 2 positive-error points; slope undefined")
        slopes.append(fit_line([p[0] for p in pts], [p[1] for p in pts])[0])
    return slopes[0], slopes[1]


def run_t_sweep_study(config: ExperimentConfig, workers: int = 1) -> StudyResult:
    """Error as a function of the truncation level; the result's ``t_star`` is the oracle T."""
    return _run_study(_sweep_trial, "sweep", config, workers)


def run_selection_comparison(config: ExperimentConfig, workers: int = 1) -> StudyResult:
    """Oracle T* versus the two practical selectors, on the same samples."""
    return _run_study(_selection_trial, "selection", config, workers)
