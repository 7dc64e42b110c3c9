"""Smoke test of tools/criterion6.py, the evidence for acceptance criteria 5 and 6.

The script rebuilds case B's means from its own ``--tail`` argument, so
it can drift from the package's trial: this checks, at 3 trials, that
its ``--tail variance`` reading draws exactly the trials criteria 5 and
6 run.
"""

import importlib.util
from pathlib import Path

import numpy as np

from cpkmeans import ExperimentConfig, run_study

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "criterion6.py"


def _load():
    spec = importlib.util.spec_from_file_location("criterion6", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_variance_reading_reproduces_the_criterion_trials_bit_for_bit():
    criterion6 = _load()
    config = ExperimentConfig(
        study="selection", base_seed=criterion6.BASE_SEED, trials=3, n_grid=(criterion6.N,),
        d=criterion6.D, sigma=criterion6.SIGMA, tau=criterion6.TAU, case="caseB",
        t_grid=tuple(range(1, criterion6.D + 1)), n_sub=criterion6.N_SUB,
        frac=criterion6.FRAC, t_star=criterion6.T_STAR,
    )
    assert [tag for _, tag in config.rows] == list(criterion6.REFERENCE)
    grid = criterion6.tau_hat_grid("variance", 3)
    assert np.array_equal(grid, run_study(config).grid)
    # The other reading draws other means from the same seeds.
    assert not np.array_equal(criterion6.tau_hat_grid("sd", 3), grid)


def test_variance_reading_reproduces_the_sweep_trials_bit_for_bit():
    criterion6 = _load()
    config = ExperimentConfig(
        study="sweep", base_seed=criterion6.BASE_SEED, trials=3, n_grid=(criterion6.N,),
        d=criterion6.D, sigma=criterion6.SIGMA, tau=criterion6.TAU, case="caseB",
        t_grid=tuple(range(1, criterion6.D + 1)),
    )
    grid = criterion6.sweep_grid("variance", 3)
    assert np.array_equal(grid, run_study(config).grid)
    assert not np.array_equal(criterion6.sweep_grid("sd", 3), grid)


def test_script_prints_one_line_per_row(capsys):
    _load().main(["--tail", "sd", "--trials", "2", "--sigma", "1.5"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "case B, tail read as sd, sigma 1.5; 2 selector trials, 2 sweep trials"
    assert [line.split()[0] for line in lines[1:]] == ["oracle", "method1", "method2", "sweep"]
