"""Smoke test of tools/criterion6.py, the evidence for acceptance criteria 5 and 6.

The script runs the package's own ``run_study`` on both criteria's configs
and, under ``--tail sd``, swaps only case B's tail sds while it runs.  This
checks, at 3 trials, that its configs are the criteria's, that its
``--tail variance`` reading is the package's trial bit for bit, and that
the swap reaches case B's tail alone and is undone after every run.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from cpkmeans import ExperimentConfig, MeanCase, experiments, run_study, sample_case_means

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "criterion6.py"


def _load():
    spec = importlib.util.spec_from_file_location("criterion6", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _case_b(study, **keys):
    # The criteria's configs as tests/test_acceptance.py builds them, at 3 trials.
    return ExperimentConfig(study=study, base_seed=20260810, trials=3, n_grid=(100,), d=200,
                            sigma=1.0, tau=0.3, case=MeanCase.CASE_B,
                            t_grid=tuple(range(1, 201)), **keys)


def _replays_run_study(index):
    # The script's config at ``index``, run under each reading, against run_study.
    criterion6 = _load()
    config = criterion6.criteria_configs(trials=3)[index]
    (variance,) = criterion6.run("variance", [config])
    assert np.array_equal(variance.grid, run_study(config).grid)
    # The other reading draws other means from the same seeds.
    assert not np.array_equal(criterion6.run("sd", [config])[0].grid, variance.grid)
    return criterion6, config


def test_variance_reading_reproduces_the_criterion_trials_bit_for_bit():
    criterion6, config = _replays_run_study(0)
    assert config == _case_b("selection", n_sub=100, frac=0.8, t_star=30)
    assert [tag for _, tag in config.rows] == list(criterion6.REFERENCE)


def test_variance_reading_reproduces_the_sweep_trials_bit_for_bit():
    assert _replays_run_study(1)[1] == _case_b("sweep")


def test_script_prints_one_line_per_row(capsys):
    shipped = experiments._mean_table
    _load().main(["--tail", "sd", "--trials", "2", "--sigma", "1.5"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "case B, tail read as sd, sigma 1.5; 2 selector trials, 2 sweep trials"
    assert [line.split()[0] for line in lines[1:]] == ["oracle", "method1", "method2", "sweep"]
    assert experiments._mean_table is shipped  # the swap is undone when main returns


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--sigma", "-1"], "sigma must be finite and >= 0, got -1.0"),
        (["--sigma", "nan"], "sigma must be finite and >= 0, got nan"),
        (["--trials", "0"], "trials must be >= 1, got 0"),
    ],
)
def test_script_refuses_a_bad_config_by_its_message(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        _load().main(["--tail", "sd", *argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: {message}\n")


def test_swap_is_undone_after_a_run_that_raises(monkeypatch):
    criterion6 = _load()
    shipped = experiments._mean_table

    def failing_run(config):
        assert experiments._mean_table is not shipped  # the swap is in place
        raise RuntimeError("trial failed")

    monkeypatch.setattr(criterion6, "run_study", failing_run)
    with pytest.raises(RuntimeError, match="trial failed"):
        criterion6.run("sd", criterion6.criteria_configs(trials=1))
    assert experiments._mean_table is shipped


def test_sd_reading_swaps_only_case_b_tail():
    criterion6 = _load()

    def draws(case, d):
        return sample_case_means(case, d, np.random.default_rng(7))

    shipped = {case: draws(case, 30) for case in MeanCase}
    with criterion6.tail_read_as("sd"):
        swapped = {case: draws(case, 30) for case in MeanCase}
        sd_minus, sd_plus = experiments._mean_table(MeanCase.CASE_B, 30)[:2]
    for case in (MeanCase.RATE_MODEL, MeanCase.CASE_A):
        for got, want in zip(swapped[case], shipped[case]):
            assert np.array_equal(got, want)
    tail_sd = 1.0 / (2.0 * np.arange(1.0, 11.0))
    assert np.array_equal(sd_minus[20:], tail_sd) and np.array_equal(sd_plus[20:], tail_sd)
    assert not (sd_minus.flags.writeable or sd_plus.flags.writeable)
    # Case B's 20 leading coordinates are drawn first, from the shipped sds.
    for got, want in zip(swapped[MeanCase.CASE_B], shipped[MeanCase.CASE_B]):
        assert np.array_equal(got[:20], want[:20]) and not np.array_equal(got[20:], want[20:])
