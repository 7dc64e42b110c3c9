"""Acceptance criteria 5 and 6 under either reading of case B's tail.

Criterion 6 (tests/test_acceptance.py) draws 300 case-B samples (n = 100,
d = 200, tau = 0.3, sigma = 1, base seed 20260810) and compares the mean
error of the oracle T = 30, method 1 and method 2 with reference values.
Criterion 5 draws 500 samples of the same shape and seed for the
error-versus-T sweep, and wants its least-error T, T*, in [15, 60].
The package draws case B's tail coordinate j > 20 with variance
1/(2 (j - 20)^2), that is with sd 1/(sqrt(2) (j - 20)) (``--tail
variance``); read as a standard deviation, the same expression gives sd
1/(2 (j - 20)) (``--tail sd``).  This script runs the shipped pipeline:
it builds both criteria's configs and calls ``run_study``.  Under ``--tail
sd`` it swaps case B's tail sds in the package's mean table while the
runs last, and nothing else.  It prints each selector's mean error beside
its reference band, then the sweep's T* and its mean error.  ``--sigma``
sets the noise level; every fit and selector is invariant to scale, so
``--sigma 1.4142135623730951`` gives the reading in which every sd of the
means is divided by sqrt(2).  The runs are serial, because a pool's
workers would not see the swapped table.  About 12 s on one core:

    PYTHONPATH=src python tools/criterion6.py --tail sd
"""

import argparse
import contextlib

import numpy as np

from cpkmeans import ExperimentConfig, MeanCase, ValidationError, experiments, run_study

# The two criteria's configs, as tests/test_acceptance.py builds them.
CASE_B = dict(base_seed=20260810, n_grid=(100,), d=200, sigma=1.0, tau=0.3, case=MeanCase.CASE_B,
              t_grid=tuple(range(1, 201)))
SELECTION = dict(CASE_B, study="selection", trials=300, n_sub=100, frac=0.8, t_star=30)
SWEEP = dict(CASE_B, study="sweep", trials=500)
# Each selector's reference mean error; criterion 6's band is +/- 0.06.
REFERENCE = {"oracle": 0.1524, "method1": 0.2207, "method2": 0.2047}
BAND = 0.06
SWEEP_BAND = 15, 60  # criterion 5's range for T*


@contextlib.contextmanager
def tail_read_as(tail: str):
    """While the block runs, case B's means are drawn with its tail read as ``tail``.

    ``variance`` is the package's own reading and swaps nothing.  ``sd``
    rebinds ``experiments._mean_table`` to a table whose case-B tail sds
    are 1/(2 (j - 20)); the rate model and case A keep the shipped table.
    """
    shipped = experiments._mean_table

    def table(case, d):
        sd_minus, sd_plus, shared, negate = shipped(case, d)
        if case is not MeanCase.CASE_B:
            return sd_minus, sd_plus, shared, negate
        tail_sd = 1.0 / (2.0 * (np.arange(21, d + 1, dtype=np.float64) - 20.0))
        sd_minus, sd_plus = (np.concatenate([sd[:20], tail_sd]) for sd in (sd_minus, sd_plus))
        sd_minus.flags.writeable = sd_plus.flags.writeable = False
        return sd_minus, sd_plus, shared, negate

    if tail == "sd":
        experiments._mean_table = table
    try:
        yield
    finally:
        experiments._mean_table = shipped


def criteria_configs(trials: int | None = None, sigma: float = CASE_B["sigma"]):
    """Criterion 6's selection config and criterion 5's sweep config, each at
    ``trials`` trials (default: the criterion's own count) and noise ``sigma``."""
    override = {"sigma": sigma} if trials is None else {"sigma": sigma, "trials": trials}
    return tuple(ExperimentConfig(**dict(keys, **override)) for keys in (SELECTION, SWEEP))


def run(tail: str, configs) -> list:
    """Each config's ``run_study`` result, with case B's tail read as ``tail``."""
    with tail_read_as(tail):
        return [run_study(config) for config in configs]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--tail", choices=["variance", "sd"], required=True)
    parser.add_argument("--trials", type=int, default=None,
                        help=f"trials of each table (default: {SELECTION['trials']} for the "
                             f"selectors and {SWEEP['trials']} for the sweep, as the criteria run)")
    parser.add_argument("--sigma", type=float, default=CASE_B["sigma"])
    args = parser.parse_args(argv)
    try:
        configs = criteria_configs(args.trials, args.sigma)
    except ValidationError as exc:
        parser.error(str(exc))
    print(f"case B, tail read as {args.tail}, sigma {args.sigma!r}; "
          f"{configs[0].trials} selector trials, {configs[1].trials} sweep trials")
    selection, sweep = run(args.tail, configs)
    for (_, _, tag), stats in selection.summary.items():
        verdict = "in band" if abs(stats.mean - REFERENCE[tag]) <= BAND else "out of band"
        print(f"{tag:8} {stats.mean:.4f}  reference {REFERENCE[tag]} +/- {BAND}  {verdict}")
    t_star, (lo, hi) = sweep.headline()["t_star"], SWEEP_BAND
    mean = sweep.summary[sweep.config.n_grid[0], t_star, "fixed-T"].mean
    verdict = "in band" if lo <= t_star <= hi else "out of band"
    print(f"{'sweep':8} T*={t_star}, {mean:.4f} at T*  reference T* in [{lo}, {hi}]  {verdict}")


if __name__ == "__main__":
    main()
