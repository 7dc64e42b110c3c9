"""Seed-deterministic Monte Carlo studies.

Each study draws fresh segment means and fresh noise per trial, keyed by
a seed derived from (base_seed, trial, n, T, tag), so trials are
independent work units: results are bit-identical whether they run
sequentially or on a process pool.
"""

from __future__ import annotations

import hashlib
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ValidationError
from .estimator import estimate_tau, sweep_estimate
from .model import ModelSpec, generate_sample
from .smoothing import LepskiConfig, method1_select, method2_select, subsample_size, surrogate
from .stats import SummaryStats, fit_line, summarize

__all__ = [
    "MeanCase",
    "ExperimentConfig",
    "TrialRecord",
    "RateStudyResult",
    "TSweepResult",
    "SelectionResult",
    "derive_trial_seed",
    "sample_rate_means",
    "sample_case_means",
    "run_rate_study",
    "run_regression_study",
    "run_t_sweep_study",
    "run_selection_comparison",
]

_SEED_CAP = 2**63 - 1


class MeanCase(str, Enum):
    RATE_MODEL = "rate"
    CASE_A = "caseA"
    CASE_B = "caseB"


def _check_distinct(name: str, grid: tuple[int, ...]):
    # A repeated grid point reruns the same seeded trials and counts them twice.
    repeated = sorted({x for x in grid if grid.count(x) > 1})
    if repeated:
        raise ValidationError(f"{name} repeats {repeated}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Grid and tuning for one study; every field has a config-file twin."""

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
    c_lepski: float = 16.0
    t_star: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "n_grid", tuple(int(n) for n in self.n_grid))
        object.__setattr__(self, "t_grid", tuple(int(t) for t in self.t_grid))
        object.__setattr__(self, "case", MeanCase(self.case))
        if self.trials < 1:
            raise ValidationError(f"trials must be >= 1, got {self.trials}")
        if self.d < 1:
            raise ValidationError(f"d must be >= 1, got {self.d}")
        if not 0.0 < self.tau < 1.0:
            raise ValidationError(f"tau must lie in (0, 1), got {self.tau}")
        if not (math.isfinite(self.sigma) and self.sigma >= 0.0):
            raise ValidationError(f"sigma must be finite and >= 0, got {self.sigma}")
        LepskiConfig(c_lepski=self.c_lepski)  # rejects c_lepski <= 0 or NaN
        if not self.n_grid:
            raise ValidationError("n_grid must be non-empty")
        _check_distinct("n_grid", self.n_grid)
        for n in self.n_grid:
            if n < 4:
                raise ValidationError(f"every n must be >= 4, got {n}")
            if abs(self.tau * n - round(self.tau * n)) > 1e-9:
                raise ValidationError(f"tau * n must be integral, got tau={self.tau}, n={n}")
            subsample_size(n, self.n_sub, self.frac)
        if not self.t_grid:
            raise ValidationError("t_grid must be non-empty")
        _check_distinct("t_grid", self.t_grid)
        for t in self.t_grid:
            if not 1 <= t <= self.d:
                raise ValidationError(f"every T must lie in [1, {self.d}], got {t}")


@dataclass(frozen=True)
class TrialRecord:
    trial_index: int
    n: int
    T: int
    tau_true: float
    tau_hat: float
    abs_error: float
    selector: str


@dataclass(frozen=True)
class RateStudyResult:
    per_n: dict[int, SummaryStats]
    records: list[TrialRecord]


@dataclass(frozen=True)
class TSweepResult:
    per_t: dict[int, SummaryStats]
    t_star: int
    records: list[TrialRecord]


@dataclass(frozen=True)
class SelectionResult:
    per_selector: dict[str, SummaryStats]
    records: list[TrialRecord]


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
    """Case A: both means i.i.d. with coordinate variance 1/(2 j^2).

    Case B: 20 leading coordinates are large (variance 1/2) and nearly
    shared between the segments (post-change recentered with sd 0.1);
    the tail coordinates are drawn independently per segment with
    variance 1/(2 (j - 20)^2).
    """
    case = MeanCase(case)
    if case is MeanCase.CASE_A:
        j = np.arange(1, d + 1, dtype=np.float64)
        scale = 1.0 / (math.sqrt(2.0) * j)
        return rng.normal(0.0, scale), rng.normal(0.0, scale)
    if case is MeanCase.CASE_B:
        if d < 21:
            raise ValidationError(f"case B needs d >= 21, got {d}")
        tail_j = np.arange(21, d + 1, dtype=np.float64)
        tail_scale = 1.0 / (math.sqrt(2.0) * (tail_j - 20.0))
        scale_minus = np.concatenate([np.full(20, math.sqrt(0.5)), tail_scale])
        theta_minus = rng.normal(0.0, scale_minus)
        loc_plus = np.concatenate([theta_minus[:20], np.zeros(d - 20)])
        scale_plus = np.concatenate([np.full(20, 0.1), tail_scale])
        return theta_minus, rng.normal(loc_plus, scale_plus)
    raise ValidationError(f"no mean sampler for case {case}")


def _draw_sample(config: ExperimentConfig, n: int, rng: np.random.Generator):
    if config.case is MeanCase.RATE_MODEL:
        tm, tp = sample_rate_means(config.d, rng)
    else:
        tm, tp = sample_case_means(config.case, config.d, rng)
    spec = ModelSpec(
        n=n, d=config.d, tau=config.tau, theta_minus=tm, theta_plus=tp, sigma=config.sigma
    )
    return generate_sample(spec, int(rng.integers(0, _SEED_CAP)))


def _run_trials(fn, payloads, workers: int) -> list:
    if workers <= 1:
        return [fn(p) for p in payloads]
    chunk = max(1, len(payloads) // (4 * workers))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, payloads, chunksize=chunk))


def _rate_trial(payload) -> TrialRecord:
    config, n, trial = payload
    t_fixed = config.t_grid[0]
    seed = derive_trial_seed(config.base_seed, trial, n, t_fixed, "fixed-T")
    rng = np.random.default_rng(seed)
    sample = _draw_sample(config, n, rng)
    fit = estimate_tau(sample, t_fixed)
    return TrialRecord(
        trial_index=trial,
        n=n,
        T=t_fixed,
        tau_true=config.tau,
        tau_hat=fit.tau_hat,
        abs_error=abs(fit.tau_hat - config.tau),
        selector="fixed-T",
    )


def run_rate_study(config: ExperimentConfig, workers: int = 1) -> RateStudyResult:
    """Absolute estimation error at a fixed truncation level, per sample size."""
    if config.case is not MeanCase.RATE_MODEL:
        raise ValidationError("rate study requires the rate-model means")
    if len(config.t_grid) != 1:
        raise ValidationError("rate study uses a single fixed T")
    payloads = [(config, n, t) for n in config.n_grid for t in range(config.trials)]
    records = _run_trials(_rate_trial, payloads, workers)
    per_n = {
        n: summarize([r.abs_error for r in records if r.n == n]) for n in config.n_grid
    }
    return RateStudyResult(per_n=per_n, records=records)


def run_regression_study(rate_result: RateStudyResult) -> tuple[float, float]:
    """Log-log slopes of mean and median error against n; zero-error points drop out."""
    slopes = []
    for pick in (lambda s: s.mean, lambda s: s.median):
        pts = [
            (math.log(n), math.log(pick(s)))
            for n, s in rate_result.per_n.items()
            if pick(s) > 0
        ]
        if len(pts) < 2:
            raise ValidationError("fewer than 2 positive-error points; slope undefined")
        slopes.append(fit_line([p[0] for p in pts], [p[1] for p in pts])[0])
    return slopes[0], slopes[1]


def _sweep_trial(payload) -> list[TrialRecord]:
    config, trial = payload
    n = config.n_grid[0]
    seed = derive_trial_seed(config.base_seed, trial, n, 0, "sweep")
    rng = np.random.default_rng(seed)
    sample = _draw_sample(config, n, rng)
    fits = sweep_estimate(sample, config.t_grid)
    return [
        TrialRecord(
            trial_index=trial,
            n=n,
            T=fit.T_used,
            tau_true=config.tau,
            tau_hat=fit.tau_hat,
            abs_error=abs(fit.tau_hat - config.tau),
            selector="fixed-T",
        )
        for fit in fits
    ]


def run_t_sweep_study(config: ExperimentConfig, workers: int = 1) -> TSweepResult:
    """Error as a function of the truncation level, plus the oracle T*."""
    if config.case not in (MeanCase.CASE_A, MeanCase.CASE_B):
        raise ValidationError("T sweep requires case A or case B means")
    if len(config.n_grid) != 1:
        raise ValidationError("T sweep uses a single sample size")
    payloads = [(config, t) for t in range(config.trials)]
    per_trial = _run_trials(_sweep_trial, payloads, workers)
    records = [r for batch in per_trial for r in batch]
    errors = {t: [] for t in config.t_grid}
    for r in records:
        errors[r.T].append(r.abs_error)
    per_t = {t: summarize(errors[t]) for t in config.t_grid}
    best = min(s.mean for s in per_t.values())
    t_star = min(t for t, s in per_t.items() if s.mean == best)
    return TSweepResult(per_t=per_t, t_star=t_star, records=records)


def _selection_trial(payload) -> list[TrialRecord]:
    config, trial = payload
    n = config.n_grid[0]
    seed = derive_trial_seed(config.base_seed, trial, n, 0, "selection")
    rng = np.random.default_rng(seed)
    sample = _draw_sample(config, n, rng)
    z = surrogate(sample, config.sigma)
    picks = [
        ("oracle", config.t_star),
        ("method1", method1_select(z)),
        (
            "method2",
            method2_select(sample, config.n_sub, config.frac, int(rng.integers(0, _SEED_CAP))),
        ),
    ]
    out = []
    for tag, t in picks:
        fit = estimate_tau(sample, t)
        out.append(
            TrialRecord(
                trial_index=trial,
                n=n,
                T=t,
                tau_true=config.tau,
                tau_hat=fit.tau_hat,
                abs_error=abs(fit.tau_hat - config.tau),
                selector=tag,
            )
        )
    return out


def run_selection_comparison(config: ExperimentConfig, workers: int = 1) -> SelectionResult:
    """Oracle T* versus the two practical selectors, on the same samples."""
    if config.case is not MeanCase.CASE_B:
        raise ValidationError("selection comparison requires case B means")
    if len(config.n_grid) != 1:
        raise ValidationError("selection comparison uses a single sample size")
    if config.t_star is None:
        raise ValidationError("selection comparison needs t_star (oracle T)")
    if not 1 <= config.t_star <= config.d:
        raise ValidationError(f"t_star must lie in [1, {config.d}], got {config.t_star}")
    payloads = [(config, t) for t in range(config.trials)]
    per_trial = _run_trials(_selection_trial, payloads, workers)
    records = [r for batch in per_trial for r in batch]
    per_selector = {
        tag: summarize([r.abs_error for r in records if r.selector == tag])
        for tag in ("oracle", "method1", "method2")
    }
    return SelectionResult(per_selector=per_selector, records=records)
