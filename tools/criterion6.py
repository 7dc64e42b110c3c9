"""Acceptance criteria 5 and 6 under either reading of case B's tail.

Criterion 6 (tests/test_acceptance.py) draws 300 case-B samples (n = 100,
d = 200, tau = 0.3, sigma = 1, base seed 20260810) and compares the mean
error of the oracle T = 30, method 1 and method 2 with reference values.
Criterion 5 draws 500 samples of the same shape and seed for the
error-versus-T sweep, and wants its least-error T, T*, in [15, 60].
The package draws case B's tail coordinate j > 20 with variance
1/(2 (j - 20)^2), that is with sd 1/(sqrt(2) (j - 20)) (``--tail
variance``); read as a standard deviation, the same expression gives sd
1/(2 (j - 20)) (``--tail sd``).  This script draws each criterion's
trials in the package's own order and from its seeds, with case B's
means built from the chosen reading, and prints each selector's mean
error beside its reference band, then the sweep's T* and its mean error.
``--tail variance`` gives both criteria's numbers bit for bit.
``--sigma`` sets the noise level; every fit and selector is invariant to
scale, so ``--sigma 1.4142135623730951`` gives the reading in which every
sd of the means is divided by sqrt(2).  About 12 s on one core:

    PYTHONPATH=src python tools/criterion6.py --tail sd
"""

import argparse
import math

import numpy as np

from cpkmeans import (
    ModelSpec,
    derive_trial_seed,
    estimate_tau,
    generate_sample,
    method1_select,
    method2_select,
    summarize,
    surrogate,
    sweep_estimate,
)

BASE_SEED = 20260810
N, D, TAU, SIGMA = 100, 200, 0.3, 1.0
T_STAR, N_SUB, FRAC = 30, 100, 0.8
SEED_CAP = 2**63 - 1  # the bound on every seed a trial draws
# Each row's reference mean error; criterion 6's band is +/- 0.06.
REFERENCE = {"oracle": 0.1524, "method1": 0.2207, "method2": 0.2047}
BAND = 0.06
# Each criterion's trials: criterion 6's selectors, criterion 5's sweep.
SELECTION_TRIALS, SWEEP_TRIALS = 300, 500
SWEEP_BAND = 15, 60  # criterion 5's range for T*


def case_b_means(tail: str, rng: np.random.Generator):
    """Case B's theta_minus and theta_plus, drawn as ``sample_case_means``
    draws them, with the tail's sd taken from ``tail``."""
    lag = np.arange(21, D + 1, dtype=np.float64) - 20.0
    tail_sd = 1.0 / (math.sqrt(2.0) * lag) if tail == "variance" else 1.0 / (2.0 * lag)
    theta_minus = rng.normal(0.0, np.concatenate([np.full(20, math.sqrt(0.5)), tail_sd]))
    loc = np.zeros(D)
    loc[:20] = theta_minus[:20]
    return theta_minus, rng.normal(loc, np.concatenate([np.full(20, 0.1), tail_sd]))


def draw(tail: str, sigma: float, trial: int, tag: str):
    """One trial's sample as ``run_study`` draws it for the study ``tag``,
    and the trial's generator, which goes on to seed method 2."""
    rng = np.random.default_rng(derive_trial_seed(BASE_SEED, trial, N, 0, tag))
    theta_minus, theta_plus = case_b_means(tail, rng)
    spec = ModelSpec(n=N, d=D, tau=TAU, theta_minus=theta_minus, theta_plus=theta_plus,
                     sigma=sigma)
    return generate_sample(spec, int(rng.integers(0, SEED_CAP))), rng


def tau_hat_grid(tail: str, trials: int, sigma: float = SIGMA) -> np.ndarray:
    """A (trials, 3) grid of tau_hat for the oracle, method 1 and method 2,
    laid out as ``run_study``'s grid for criterion 6's config."""
    grid = np.empty((trials, len(REFERENCE)))
    for trial in range(trials):
        sample, rng = draw(tail, sigma, trial, "selection")
        picks = (
            T_STAR,
            method1_select(surrogate(sample)),
            method2_select(sample, N_SUB, FRAC, int(rng.integers(0, SEED_CAP))),
        )
        grid[trial] = [estimate_tau(sample, T).tau_hat for T in picks]
    return grid


def sweep_grid(tail: str, trials: int, sigma: float = SIGMA) -> np.ndarray:
    """A (trials, D) grid of tau_hat at T = 1, ..., D, laid out as
    ``run_study``'s grid for criterion 5's config."""
    grid = np.empty((trials, D))
    for trial in range(trials):
        grid[trial] = sweep_estimate(draw(tail, sigma, trial, "sweep")[0], range(1, D + 1))[0] / N
    return grid


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--tail", choices=["variance", "sd"], required=True)
    parser.add_argument("--trials", type=int, default=None,
                        help=f"trials of each table (default: {SELECTION_TRIALS} for the "
                             f"selectors and {SWEEP_TRIALS} for the sweep, as the criteria run)")
    parser.add_argument("--sigma", type=float, default=SIGMA)
    args = parser.parse_args(argv)
    if args.trials is not None and args.trials < 1:
        parser.error("--trials must be >= 1")
    selection_trials = args.trials or SELECTION_TRIALS
    sweep_trials = args.trials or SWEEP_TRIALS
    print(f"case B, tail read as {args.tail}, sigma {args.sigma!r}; "
          f"{selection_trials} selector trials, {sweep_trials} sweep trials")
    grid = tau_hat_grid(args.tail, selection_trials, args.sigma)
    for (tag, ref), column in zip(REFERENCE.items(), grid.T):
        mean = summarize(np.abs(column - TAU)).mean
        verdict = "in band" if abs(mean - ref) <= BAND else "out of band"
        print(f"{tag:8} {mean:.4f}  reference {ref} +/- {BAND}  {verdict}")
    means = [summarize(np.abs(column - TAU)).mean for column in sweep_grid(
        args.tail, sweep_trials, args.sigma).T]
    t_star = means.index(min(means)) + 1  # ties go to the smallest T, as in StudyResult.t_star
    lo, hi = SWEEP_BAND
    verdict = "in band" if lo <= t_star <= hi else "out of band"
    print(f"{'sweep':8} T*={t_star}, {means[t_star - 1]:.4f} at T*  reference T* in "
          f"[{lo}, {hi}]  {verdict}")


if __name__ == "__main__":
    main()
