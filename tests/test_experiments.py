import math

import numpy as np
import pytest

from cpkmeans import (
    ExperimentConfig,
    MeanCase,
    StudyResult,
    SummaryStats,
    ValidationError,
    derive_trial_seed,
    run_rate_study,
    run_regression_study,
    run_selection_comparison,
    run_t_sweep_study,
    sample_case_means,
    sample_rate_means,
)

from cpkmeans.experiments import _rate_trial, _run_study, _selection_trial, _sweep_trial
from helpers import same_records, summary_by_record


def test_derive_trial_seed_stability():
    a = derive_trial_seed(0, 1, 100, 10, "fixed-T")
    b = derive_trial_seed(0, 1, 100, 10, "fixed-T")
    assert a == b
    assert 0 <= a < 2**64
    assert derive_trial_seed(0, 1, 100, 10, "fixed-T") != derive_trial_seed(0, 2, 100, 10, "fixed-T")
    assert derive_trial_seed(0, 1, 100, 10, "fixed-T") != derive_trial_seed(0, 1, 100, 10, "lepski")


def test_derive_trial_seed_collision_scan():
    rng = np.random.default_rng(60)
    tags = ("fixed-T", "lepski", "method1", "method2", "oracle")
    tuples = set()
    while len(tuples) < 1_000_000:
        block = rng.integers(0, 2**62, size=(1_000_000, 4))
        for row in block:
            tuples.add((int(row[0]), int(row[1]) % 10_000, int(row[2]) % 10_000,
                        int(row[3]) % 512, tags[int(row[3]) % 5]))
            if len(tuples) >= 1_000_000:
                break
    seeds = {derive_trial_seed(*t) for t in tuples}
    assert len(seeds) == len(tuples)


def test_sample_rate_means_distributions():
    rng = np.random.default_rng(61)
    minus = np.empty(100_000)
    spread = np.empty(100_000)
    for i in range(100_000):
        tm, tp = sample_rate_means(1, rng)
        minus[i] = tm[0]
        spread[i] = tp[0] + tm[0]
    assert minus.var(ddof=1) == pytest.approx(0.05, rel=0.1)
    assert spread.std(ddof=1) == pytest.approx(1e-2, rel=0.1)
    assert abs(spread.mean()) < 5e-4


def test_sample_rate_means_determinism():
    tm1, tp1 = sample_rate_means(5, np.random.default_rng(7))
    tm2, tp2 = sample_rate_means(5, np.random.default_rng(7))
    assert np.array_equal(tm1, tm2) and np.array_equal(tp1, tp2)


def test_sample_case_a_distributions():
    rng = np.random.default_rng(62)
    draws = np.empty((100_000, 3))
    for i in range(100_000):
        tm, _ = sample_case_means(MeanCase.CASE_A, 20, rng)
        draws[i] = tm[[0, 4, 19]]
    for col, j in zip(draws.T, (1, 5, 20)):
        assert col.var(ddof=1) == pytest.approx(1 / (2 * j * j), rel=0.1)


def test_sample_case_b_distributions():
    rng = np.random.default_rng(63)
    diffs = np.empty((100_000, 2))
    for i in range(100_000):
        tm, tp = sample_case_means(MeanCase.CASE_B, 21, rng)
        diffs[i] = (tp - tm)[[0, 19]]
    for col in diffs.T:
        assert col.std(ddof=1) == pytest.approx(0.1, rel=0.1)


def test_sample_case_means_determinism_and_validation():
    for case, d in ((MeanCase.CASE_A, 12), (MeanCase.CASE_B, 25)):
        tm1, tp1 = sample_case_means(case, d, np.random.default_rng(8))
        tm2, tp2 = sample_case_means(case, d, np.random.default_rng(8))
        assert np.array_equal(tm1, tm2) and np.array_equal(tp1, tp2)
    with pytest.raises(ValidationError):
        sample_case_means(MeanCase.CASE_B, 20, np.random.default_rng(0))


def _rate_config(**overrides):
    base = dict(
        base_seed=5,
        trials=5,
        n_grid=(20, 40),
        d=20,
        sigma=1.0,
        tau=0.3,
        case=MeanCase.RATE_MODEL,
        t_grid=(10,),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(ValidationError):
        _rate_config(trials=0)
    with pytest.raises(ValidationError):
        _rate_config(n_grid=(3,))
    with pytest.raises(ValidationError):
        _rate_config(n_grid=(21,))  # tau * n not integral
    with pytest.raises(ValidationError):
        _rate_config(t_grid=(25,))
    with pytest.raises(ValidationError):
        run_rate_study(_rate_config(case=MeanCase.CASE_A, n_grid=(20,)))
    with pytest.raises(ValidationError, match="d must be"):
        _rate_config(d=0, t_grid=(1,))
    for tau in (0.0, 1.0, -0.3, 1.5, math.nan):
        with pytest.raises(ValidationError, match="tau must"):
            _rate_config(tau=tau)
    for sigma in (-1.0, math.inf, math.nan):
        with pytest.raises(ValidationError, match="sigma"):
            _rate_config(sigma=sigma)
    with pytest.raises(ValidationError, match=r"t_grid repeats \[5\]"):
        _rate_config(t_grid=(5, 5, 6))
    with pytest.raises(ValidationError, match=r"n_grid repeats \[20\]"):
        _rate_config(n_grid=(20, 40, 20))
    for c_lepski in (0.0, -1.0, math.nan):
        with pytest.raises(ValidationError, match="c_lepski must be > 0"):
            _rate_config(c_lepski=c_lepski)
    with pytest.raises(ValidationError, match="case B needs d >= 21"):
        _rate_config(case=MeanCase.CASE_B, d=20)
    assert _rate_config(case=MeanCase.CASE_B, d=21).d == 21
    for t_star in (0, 21):
        with pytest.raises(ValidationError, match=r"t_star must lie in \[1, 20\]"):
            _rate_config(t_star=t_star)
    assert _rate_config(t_star=20).t_star == 20


def test_config_rejects_bad_subsampling():
    with pytest.raises(ValidationError, match="n_sub"):
        _rate_config(n_sub=1)
    for frac in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValidationError, match="frac"):
            _rate_config(frac=frac)
    # Only the selection study subsamples, so only it needs 4 rows per subsample.
    with pytest.raises(ValidationError, match="too small"):
        run_selection_comparison(_case_b_config(frac=0.15))  # 3 rows of 20
    assert len(run_selection_comparison(_case_b_config(trials=1, frac=0.2)).n) == 3  # 4 rows
    assert len(run_rate_study(_rate_config(trials=1, n_grid=(4, 20), tau=0.25)).n) == 2


def test_rate_study_zero_noise():
    result = run_rate_study(_rate_config(trials=1, sigma=0.0))
    assert all(stats.mean == 0.0 for stats in result.summary.values())
    assert np.all(result.abs_error == 0.0)


def test_rate_study_deterministic_across_workers():
    config = _rate_config(trials=6)
    r1 = run_rate_study(config, workers=1)
    r2 = run_rate_study(config, workers=2)
    assert same_records(r1, r2)
    assert r1.summary == r2.summary


def test_trial_records_stay_in_range():
    result = run_rate_study(_rate_config(trials=8))
    assert np.all((0.0 <= result.abs_error) & (result.abs_error <= 1.0 - 2.0 / result.n))


def test_regression_study_recovers_power_laws():
    def fake(errors):
        summary = {
            (n, 10, "fixed-T"): SummaryStats(mean=e, median=e, variance=0.0, std_dev=0.0, count=1)
            for n, e in errors.items()
        }
        return StudyResult(
            grid=np.empty((0, 1)), rows=((10, "fixed-T"),), T_grid=np.array([[10]]),
            n_grid=tuple(errors), trials=0, tau=0.3, summary=summary,
        )

    slope_mean, slope_median = run_regression_study(
        fake({100: 3.0 / 100, 200: 3.0 / 200, 400: 3.0 / 400})
    )
    assert slope_mean == pytest.approx(-1.0, rel=1e-9)
    assert slope_median == pytest.approx(-1.0, rel=1e-9)
    slope_mean, _ = run_regression_study(
        fake({100: 2 / math.sqrt(100), 400: 2 / math.sqrt(400), 1600: 2 / math.sqrt(1600)})
    )
    assert slope_mean == pytest.approx(-0.5, rel=1e-9)
    with pytest.raises(ValidationError):
        run_regression_study(fake({100: 0.0, 200: 0.0, 400: 1e-3}))


def _case_b_config(**overrides):
    base = dict(
        base_seed=9,
        trials=4,
        n_grid=(20,),
        d=25,
        sigma=1.0,
        tau=0.3,
        case=MeanCase.CASE_B,
        t_grid=tuple(range(1, 26)),
        n_sub=5,
        frac=0.8,
        t_star=5,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_sweep_study_deterministic_and_repeatable():
    config = _case_b_config(trials=5)
    r1 = run_t_sweep_study(config, workers=1)
    r2 = run_t_sweep_study(config, workers=2)
    assert same_records(r1, r2)
    assert r1.t_star == r2.t_star
    again = run_t_sweep_study(config, workers=1)
    assert same_records(again, r1)


def test_sweep_study_requires_case_means():
    with pytest.raises(ValidationError):
        run_t_sweep_study(_rate_config())


def test_case_a_favors_small_truncation():
    # Qualitative check: a handful of leading coordinates already carry
    # essentially all of the contrast, and using all of them hurts.
    config = ExperimentConfig(
        base_seed=11,
        trials=150,
        n_grid=(100,),
        d=200,
        sigma=1.0,
        tau=0.3,
        case=MeanCase.CASE_A,
        t_grid=tuple(range(1, 201)),
    )
    result = run_t_sweep_study(config, workers=2)
    assert result.t_star <= 10
    per_t = {T: stats for (_, T, _), stats in result.summary.items()}
    assert per_t[result.t_star].mean < per_t[200].mean


def test_selection_comparison_zero_noise():
    result = run_selection_comparison(_case_b_config(trials=3, sigma=0.0))
    for stats in result.summary.values():
        assert stats.mean == 0.0


def test_selection_comparison_deterministic_across_workers():
    config = _case_b_config(trials=4)
    r1 = run_selection_comparison(config, workers=1)
    r2 = run_selection_comparison(config, workers=2)
    assert same_records(r1, r2)


def test_selection_comparison_validation():
    with pytest.raises(ValidationError):
        run_selection_comparison(_case_b_config(t_star=None))
    with pytest.raises(ValidationError):
        run_selection_comparison(_case_b_config(case=MeanCase.CASE_A))


def test_selection_records_share_samples_per_trial():
    result = run_selection_comparison(_case_b_config(trials=3))
    by_trial = {}
    for trial, selector in zip(result.trial_index.tolist(), result.selector.tolist()):
        by_trial.setdefault(trial, []).append(selector)
    assert all(sorted(v) == ["method1", "method2", "oracle"] for v in by_trial.values())


@pytest.mark.parametrize("study", ["rate", "sweep", "selection"])
def test_grid_summary_matches_per_record_grouping(study):
    # Two sample sizes on the rate study; one (trial, row) grid per n.
    if study == "rate":
        config = _rate_config(trials=4, n_grid=(20, 40, 60))
        result = run_rate_study(config)
    else:
        config = _case_b_config(trials=4)
        runner = run_t_sweep_study if study == "sweep" else run_selection_comparison
        result = runner(config)
    reference = summary_by_record(result)
    assert list(result.summary.items()) == list(reference.items())
    rows = {"rate": 1, "sweep": 25, "selection": 3}[study]
    assert len(result.summary) == len(config.n_grid) * rows
    assert len(result.n) == len(config.n_grid) * config.trials * rows


def _columns_from_batches(trial_fn, config):
    # The record columns built the way the study once stored them: from the
    # list of every trial's batch, by np.tile and np.repeat, with the trials'
    # T (and so their picks) stacked row by row.
    batches = [trial_fn((config, n, trial)) for n in config.n_grid for trial in range(config.trials)]
    T, tau_hat, selectors = zip(*batches)
    rows = len(selectors[0])
    tau_hat = np.array(tau_hat)
    return {
        "trial_index": np.tile(np.repeat(np.arange(config.trials), rows), len(config.n_grid)),
        "n": np.repeat(config.n_grid, config.trials * rows),
        "T": np.array(T).ravel(),
        "tau_hat": tau_hat.ravel(),
        "abs_error": np.abs(tau_hat - config.tau).ravel(),
        "selector": np.tile(list(selectors[0]), len(batches)),
    }


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("study", ["rate", "sweep", "selection"])
def test_record_columns_match_per_batch_construction(study, workers):
    if study == "rate":
        config, runner, trial_fn = _rate_config(trials=3), run_rate_study, _rate_trial
    elif study == "sweep":
        config, runner, trial_fn = _case_b_config(trials=3), run_t_sweep_study, _sweep_trial
    else:
        config = _case_b_config(trials=4)
        runner, trial_fn = run_selection_comparison, _selection_trial
    result = runner(config, workers=workers)
    for name, expected in _columns_from_batches(trial_fn, config).items():
        column = getattr(result, name)
        assert column.dtype == expected.dtype, name
        assert np.array_equal(column, expected), name
    if study == "selection":  # the picks differ between trials
        assert len(set(result.T[result.selector == "method2"].tolist())) > 1


def test_run_study_rejects_trials_with_different_rows():
    config = _case_b_config(trials=3)

    def reordered(payload):  # trial 1 lists its selectors in another order
        tags = ["method1", "oracle"] if payload[2] == 1 else ["oracle", "method1"]
        return [5, 5], [0.3, 0.3], tags

    def moved(payload):  # a fixed-T row whose T changes between trials
        return [5 + payload[2]], [0.3], ["fixed-T"]

    def ragged(payload):
        return [5] * (1 + payload[2]), [0.3] * (1 + payload[2]), ["fixed-T"] * (1 + payload[2])

    for trial_fn in (reordered, moved):
        with pytest.raises(RuntimeError, match="different"):
            _run_study(trial_fn, config, 1)
    with pytest.raises(ValueError):
        _run_study(ragged, config, 1)


def test_run_study_keys_picked_t_as_none():
    # Method 1's T may change between trials; its group has no T.
    config = _case_b_config(trials=3)
    result = _run_study(lambda payload: ([payload[2] + 1], [0.3], ["method1"]), config, 1)
    assert list(result.summary) == [(20, None, "method1")]
    assert result.T.tolist() == [1, 2, 3]
