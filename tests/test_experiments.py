import math
import os
import re

import numpy as np
import pytest

from cpkmeans import (
    ExperimentConfig,
    MeanCase,
    ModelSpec,
    SignalMatrix,
    StudyResult,
    SummaryStats,
    ValidationError,
    derive_trial_seed,
    draw_sample,
    generate_sample,
    run_study,
    sample_case_means,
    sweep_estimate,
)

from cpkmeans import _kernels, experiments
from helpers import (
    WORKERS,
    case_means_reference,
    record_columns,
    same_records,
    skip_pool_below_two_cpus,
    summary_by_record,
)


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
        tm, tp = sample_case_means(MeanCase.RATE_MODEL, 1, rng)
        minus[i] = tm[0]
        spread[i] = tp[0] + tm[0]
    assert minus.var(ddof=1) == pytest.approx(0.05, rel=0.1)
    assert spread.std(ddof=1) == pytest.approx(1e-2, rel=0.1)
    assert abs(spread.mean()) < 5e-4


def test_sample_rate_means_determinism():
    tm1, tp1 = sample_case_means(MeanCase.RATE_MODEL, 5, np.random.default_rng(7))
    tm2, tp2 = sample_case_means(MeanCase.RATE_MODEL, 5, np.random.default_rng(7))
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


@pytest.mark.parametrize("case, d", [("rate", 1), ("rate", 20), ("rate", 21), ("rate", 200),
                                     ("caseA", 1), ("caseA", 20), ("caseA", 21), ("caseA", 200),
                                     ("caseB", 21), ("caseB", 200)])
def test_case_means_match_the_per_case_reference_bit_for_bit(case, d):
    for seed in range(200):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        pairs = zip(sample_case_means(case, d, rng), case_means_reference(case, d, ref_rng))
        for got, want in pairs:
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
        # Both consumed the same draws, so the generators agree afterwards.
        assert rng.integers(0, 2**63) == ref_rng.integers(0, 2**63)


def test_draw_sample_is_means_then_noise_seed_then_sample():
    for case, d in (("rate", 20), ("caseA", 30), ("caseB", 30)):
        rng = np.random.default_rng(3)
        tm, tp = case_means_reference(case, d, rng)
        spec = ModelSpec(n=12, d=d, tau=0.25, theta_minus=tm, theta_plus=tp, sigma=0.5)
        want = generate_sample(spec, int(rng.integers(0, 2**63 - 1))).values.copy()
        got = draw_sample(case, 12, d, 0.25, 0.5, np.random.default_rng(3))
        assert np.array_equal(got.values.view(np.int64), want.view(np.int64))


def _rate_config(**overrides):
    base = dict(
        study="rate",
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
    # Every study runs on every case: the rate study on case A, too.
    case_a = _rate_config(case=MeanCase.CASE_A, trials=3)
    serial = run_study(case_a, workers=1)
    with pytest.raises(ValidationError, match="rate study uses a single fixed T"):
        _rate_config(t_grid=(5, 10))
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
    with pytest.raises(ValidationError, match="case B needs d >= 21"):
        _rate_config(case=MeanCase.CASE_B, d=20)
    # No study reads the Lepski constant, so a config has no field for it.
    with pytest.raises(TypeError, match="c_lepski"):
        _rate_config(c_lepski=16.0)
    assert _rate_config(study="sweep", case=MeanCase.CASE_B, d=21, n_grid=(20,)).d == 21
    for t_star in (0, 21):
        with pytest.raises(ValidationError, match=r"t_star must lie in \[1, 20\]"):
            _rate_config(t_star=t_star)
    assert _rate_config(t_star=20).t_star == 20
    # Integer fields refuse floats when built, rather than truncating them or
    # failing inside a trial; numpy integers are integers.
    for field, value in [("trials", 2.5), ("d", 30.5), ("base_seed", 1.5), ("n_sub", 50.5),
                         ("t_star", 5.0), ("n_grid", (20.5,)), ("t_grid", (1.7, 5)),
                         ("n_grid", (20.0,)), ("trials", np.float64(2.0))]:
        with pytest.raises(ValidationError, match="must be an integer"):
            _rate_config(**{field: value})
    config = _rate_config(trials=np.int64(2), base_seed=np.uint8(5), n_grid=np.array([20, 40]),
                          t_star=np.int32(3))
    assert (config.trials, config.base_seed, config.n_grid, config.t_star) == (2, 5, (20, 40), 3)
    assert type(config.trials) is int and type(config.n_grid[0]) is int
    skip_pool_below_two_cpus()
    assert same_records(serial, run_study(case_a, workers=2))


def test_config_refuses_a_sigma_whose_draw_can_overflow_the_kernels():
    # Refused by name when built, not by the sample's bound inside a trial.
    sweep = dict(study="sweep", case=MeanCase.CASE_A, n_grid=(20,), d=5, t_grid=(1, 5), trials=2)
    with pytest.raises(ValidationError, match=r"^sigma must be at most 5\.468e\+150 for a caseA "
                                              r"sample of n=20, d=5, got 1e\+200$"):
        _rate_config(**sweep, sigma=1e200)
    # The largest n sets the bound, and a sigma just inside it runs.
    assert _rate_config(study="sweep", n_grid=(20,), sigma=2e150).sigma == 2e150
    with pytest.raises(ValidationError, match=r"^sigma must be at most 1\.367e\+150 .* n=40, d=20"):
        _rate_config(sigma=2e150)
    assert np.isfinite(run_study(_rate_config(sigma=1.3e150)).grid).all()


def test_only_selection_runs_without_a_t_grid():
    # The selection study's rows come from t_star; a given t_grid is still range-checked.
    config = _case_b_config(trials=2, t_grid=())
    assert config.rows == ((5, "oracle"), (None, "method1"), (None, "method2"))
    assert same_records(run_study(config), run_study(_case_b_config(trials=2)))
    with pytest.raises(ValidationError, match=r"every T must lie in \[1, 25\]"):
        _case_b_config(t_grid=(0, 5))
    for study in ("rate", "sweep"):
        with pytest.raises(ValidationError, match="t_grid must be non-empty"):
            _case_b_config(study=study, case=MeanCase.RATE_MODEL if study == "rate" else "caseB",
                           t_grid=())


def test_config_rejects_bad_subsampling():
    with pytest.raises(ValidationError, match="n_sub"):
        _rate_config(n_sub=1)
    for frac in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValidationError, match="frac"):
            _rate_config(frac=frac)
    # Only the selection study subsamples, so only it needs 4 rows per subsample.
    with pytest.raises(ValidationError, match="too small"):
        _case_b_config(frac=0.15)  # 3 rows of 20
    assert _case_b_config(study="sweep", frac=0.15).frac == 0.15
    assert len(record_columns(run_study(_case_b_config(trials=1, frac=0.2)))["n"]) == 3  # 4 rows
    result = run_study(_rate_config(trials=1, n_grid=(4, 20), tau=0.25))
    assert len(record_columns(result)["n"]) == 2


def test_rate_study_zero_noise():
    result = run_study(_rate_config(trials=1, sigma=0.0))
    assert all(stats.mean == 0.0 for stats in result.summary.values())
    assert np.all(record_columns(result)["abs_error"] == 0.0)


def test_rate_study_deterministic_across_workers():
    config = _rate_config(trials=6)
    r1 = run_study(config, workers=1)
    skip_pool_below_two_cpus()
    r2 = run_study(config, workers=2)
    assert same_records(r1, r2)
    assert r1.summary == r2.summary


def test_run_study_refuses_more_workers_than_cpus(monkeypatch):
    # A fork pool starts all its workers on the first submit, so the count is
    # refused before any trial runs; this test starts no process.
    def no_trials(*args):
        raise AssertionError("trials ran")

    monkeypatch.setattr(experiments, "_run_trials", no_trials)
    cpus = os.cpu_count() or 1
    message = rf"^workers must lie in \[1, {cpus}\], got {cpus + 1}$"
    with pytest.raises(ValidationError, match=message):
        run_study(_rate_config(), workers=cpus + 1)


def test_trial_records_stay_in_range():
    records = record_columns(run_study(_rate_config(trials=8)))
    abs_error = records["abs_error"]
    assert np.all((0.0 <= abs_error) & (abs_error <= 1.0 - 2.0 / records["n"]))


def test_rate_headline_recovers_power_laws():
    def fake(errors):
        summary = {
            (n, 10, "fixed-T"): SummaryStats(mean=e, median=e, variance=0.0, std_dev=0.0, count=1)
            for n, e in errors.items()
        }
        return StudyResult(config=_rate_config(n_grid=tuple(errors)), grid=np.empty((0, 1)),
                           T_grid=np.array([[10]]), summary=summary)

    headline = fake({100: 3.0 / 100, 200: 3.0 / 200, 400: 3.0 / 400}).headline()
    assert list(headline) == ["slope_mean", "slope_median"]
    assert all(type(slope) is float for slope in headline.values())
    assert headline["slope_mean"] == pytest.approx(-1.0, rel=1e-9)
    assert headline["slope_median"] == pytest.approx(-1.0, rel=1e-9)
    headline = fake({100: 2 / math.sqrt(100), 400: 2 / math.sqrt(400),
                     1600: 2 / math.sqrt(1600)}).headline()
    assert headline["slope_mean"] == pytest.approx(-0.5, rel=1e-9)
    with pytest.raises(ValidationError, match="fewer than 2 positive-error points"):
        fake({100: 0.0, 200: 0.0, 400: 1e-3}).headline()


def test_sweep_headline_breaks_a_tie_to_the_smallest_t():
    def stats(mean):
        return SummaryStats(mean=mean, median=mean, variance=0.0, std_dev=0.0, count=1)

    # T = 3 and T = 7 share the least mean, in either row order; method 1's
    # lower mean is in no row of the config, whose rows the headline reads.
    keys = [(20, 7, "fixed-T"), (20, 5, "fixed-T"), (20, 3, "fixed-T"), (20, None, "method1")]
    means = [0.125, 0.25, 0.125, 0.0625]
    for order in (keys, keys[::-1]):
        summary = {key: stats(means[keys.index(key)]) for key in order}
        t_grid = [T for _, T, tag in order if tag == "fixed-T"]
        config = _case_b_config(study="sweep", t_grid=t_grid)
        result = StudyResult(config=config, grid=np.empty((0, 3)),
                             T_grid=np.array([config.t_grid]), summary=summary)
        assert result.headline() == {"t_star": 3}


def _case_b_config(**overrides):
    base = dict(
        study="selection",
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
    config = _case_b_config(study="sweep", trials=5)
    r1 = run_study(config, workers=1)
    again = run_study(config, workers=1)
    assert same_records(again, r1)
    skip_pool_below_two_cpus()
    r2 = run_study(config, workers=2)
    assert same_records(r1, r2)
    assert r1.headline() == r2.headline()


def test_sweep_study_runs_on_the_rate_model():
    config = _rate_config(study="sweep", n_grid=(20,), t_grid=(1, 5, 20), trials=3)
    result = run_study(config, workers=1)
    assert list(result.summary) == [(20, t, "fixed-T") for t in (1, 5, 20)]
    with pytest.raises(ValidationError, match="T sweep uses a single sample size"):
        _case_b_config(study="sweep", n_grid=(20, 40))
    skip_pool_below_two_cpus()
    assert same_records(result, run_study(config, workers=2))


def test_case_a_favors_small_truncation():
    # Qualitative check: a handful of leading coordinates already carry
    # essentially all of the contrast, and using all of them hurts.
    config = ExperimentConfig(
        study="sweep",
        base_seed=11,
        trials=150,
        n_grid=(100,),
        d=200,
        sigma=1.0,
        tau=0.3,
        case=MeanCase.CASE_A,
        t_grid=tuple(range(1, 201)),
    )
    result = run_study(config, workers=WORKERS)
    t_star = result.headline()["t_star"]
    assert t_star <= 10
    per_t = {T: stats for (_, T, _), stats in result.summary.items()}
    assert per_t[t_star].mean < per_t[200].mean


def test_selection_comparison_zero_noise():
    result = run_study(_case_b_config(trials=3, sigma=0.0))
    for stats in result.summary.values():
        assert stats.mean == 0.0
    # The headline is each row's mean error, named by its selector, in row order.
    headline = result.headline()
    assert list(headline) == ["oracle_mean", "method1_mean", "method2_mean"]
    assert all(type(mean) is float and mean == 0.0 for mean in headline.values())


def test_selection_comparison_deterministic_across_workers():
    config = _case_b_config(trials=4)
    r1 = run_study(config, workers=1)
    skip_pool_below_two_cpus()
    r2 = run_study(config, workers=2)
    assert same_records(r1, r2)


def test_selection_comparison_validation():
    with pytest.raises(ValidationError, match="selection comparison needs t_star"):
        _case_b_config(t_star=None)
    with pytest.raises(ValidationError, match="selection comparison uses a single sample size"):
        _case_b_config(n_grid=(20, 40))
    config = _case_b_config(case=MeanCase.CASE_A, trials=3)
    serial = run_study(config, workers=1)
    skip_pool_below_two_cpus()
    assert same_records(serial, run_study(config, workers=2))


def test_config_rejects_unknown_study_and_case():
    message = "study must be rate | sweep | selection, got 'bogus'"
    with pytest.raises(ValidationError, match=re.escape(message)):
        _rate_config(study="bogus")
    # The enum's own ValueError does not say which cases there are.
    message = "case must be rate | caseA | caseB, got 'bogus'"
    with pytest.raises(ValidationError, match=re.escape(message)):
        _rate_config(case="bogus")
    assert _rate_config(case="rate").case is MeanCase.RATE_MODEL


def test_config_rows_name_each_record_of_a_trial():
    assert _rate_config().rows == ((10, "fixed-T"),)
    assert _case_b_config(study="sweep", t_grid=(3, 1, 7)).rows == (
        (3, "fixed-T"), (1, "fixed-T"), (7, "fixed-T"),
    )
    assert _case_b_config().rows == ((5, "oracle"), (None, "method1"), (None, "method2"))


def test_selection_records_share_samples_per_trial():
    records = record_columns(run_study(_case_b_config(trials=3)))
    by_trial = {}
    for trial, selector in zip(records["trial_index"].tolist(), records["selector"].tolist()):
        by_trial.setdefault(trial, []).append(selector)
    assert all(sorted(v) == ["method1", "method2", "oracle"] for v in by_trial.values())


@pytest.mark.parametrize("study", ["rate", "sweep", "selection"])
def test_grid_summary_matches_per_record_grouping(study):
    # Two sample sizes on the rate study; one (trial, row) grid per n.
    if study == "rate":
        config = _rate_config(trials=4, n_grid=(20, 40, 60))
        result = run_study(config)
    else:
        config = _case_b_config(study=study, trials=4)
        result = run_study(config)
    reference = summary_by_record(result)
    assert list(result.summary.items()) == list(reference.items())
    rows = {"rate": 1, "sweep": 25, "selection": 3}[study]
    assert len(result.summary) == len(config.n_grid) * rows
    assert len(record_columns(result)["n"]) == len(config.n_grid) * config.trials * rows


def _columns_from_batches(config):
    # The record columns built the way the study once stored them: from the
    # list of every trial's batch, by np.tile and np.repeat, with the trials'
    # T (each row's, picked or fixed) stacked row by row, and each
    # tau_hat the trial's split over its n, as estimate_tau divides them.
    payloads = [(config, n, trial) for n in config.n_grid for trial in range(config.trials)]
    batches = [experiments._trial(payload) for payload in payloads]
    T = [T for T, _ in batches]
    tau_hat = np.array([[int(k) / n for k in k_hat]
                        for (_, n, _), (_, k_hat) in zip(payloads, batches)])
    rows = len(config.rows)
    return {
        "trial_index": np.tile(np.repeat(np.arange(config.trials), rows), len(config.n_grid)),
        "n": np.repeat(config.n_grid, config.trials * rows),
        "T": np.array(T).ravel(),
        "tau_hat": tau_hat.ravel(),
        "abs_error": np.abs(tau_hat - config.tau).ravel(),
        "selector": np.tile([tag for _, tag in config.rows], len(batches)),
    }


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("study", ["rate", "sweep", "selection"])
def test_record_columns_match_per_batch_construction(study, workers):
    # The grid holds each split in the narrowest unsigned type for the largest n.
    if study == "rate":
        configs = [(_rate_config(trials=3), np.uint8),
                   (_rate_config(trials=2, n_grid=(100, 4000)), np.uint16)]
    else:
        trials = 3 if study == "sweep" else 4
        configs = [(_case_b_config(study=study, trials=trials), np.uint8),
                   (_case_b_config(study=study, trials=trials, n_grid=(100,)), np.uint8)]
    if workers == 2:
        skip_pool_below_two_cpus()
    for config, dtype in configs:
        result = run_study(config, workers=workers)
        assert result.grid.dtype == dtype
        records = record_columns(result)
        for name, expected in _columns_from_batches(config).items():
            column = records[name]
            assert column.dtype == expected.dtype, name
            assert np.array_equal(column, expected), name
        if study == "selection":  # the picks differ between trials
            assert len(set(records["T"][records["selector"] == "method2"].tolist())) > 1


def test_run_study_rejects_trials_with_different_rows(monkeypatch):
    # The config names the rows; a trial must give one split in [2, n - 2] for each.
    config = _case_b_config(study="sweep", trials=3)  # 25 rows at n = 20

    def ragged(payload):  # trial 0 is right, trial 1 one too long
        return None, [6] * (25 + payload[2])

    def single(payload):  # one estimate, which numpy would broadcast over every row
        return None, [6]

    def fractional(payload):  # the uint8 grid would store each as 0
        return None, [0.3] * 25

    def out_of_range(payload):  # trial 0 holds 2 and n - 2, trial 1 n - 1
        return None, np.array([2] * 24 + [18 + payload[2]])

    def wrapping(payload):  # the uint8 grid would store 256 as 0
        return None, [6] * 24 + [256]

    rows, splits = "estimates for 25 rows", r"splits other than integers in \[2, 18\]"
    for trial_fn, message in [(ragged, rows), (single, rows), (fractional, splits),
                              (out_of_range, splits), (wrapping, splits)]:
        monkeypatch.setattr(experiments, "_sweep_trial", trial_fn)
        with pytest.raises(RuntimeError, match=message):
            run_study(config)


@pytest.mark.parametrize("study, calls", [("selection", (1, 0)), ("sweep", (1, 0)),
                                          ("rate", (0, 1))])
def test_trial_fits_several_rows_off_one_table(monkeypatch, study, calls):
    # One sweep_estimate table serves every row, selector rows included; a
    # single row is estimate_tau's.
    counts = {}
    for name in ("sweep_estimate", "estimate_tau"):
        def counted(*args, fit=getattr(experiments, name), name=name):
            counts[name] = counts.get(name, 0) + 1
            return fit(*args)
        monkeypatch.setattr(experiments, name, counted)
    config = _rate_config() if study == "rate" else _case_b_config(study=study)
    T, k_hat = experiments._trial((config, 20, 0))
    assert (counts.get("sweep_estimate", 0), counts.get("estimate_tau", 0)) == calls
    assert len(T) == len(k_hat) == len(config.rows)


def test_run_study_keys_picked_t_as_none(monkeypatch):
    # Method 1's and method 2's T may change between trials; their groups have no T.
    config = _case_b_config(trials=3)
    monkeypatch.setattr(
        experiments, "_selection_trial", lambda payload: ([5, payload[2] + 1, 7], [6] * 3)
    )
    result = run_study(config)
    assert list(result.summary) == [(20, 5, "oracle"), (20, None, "method1"), (20, None, "method2")]
    assert record_columns(result)["T"].tolist() == [5, 1, 7, 5, 2, 7, 5, 3, 7]


def test_run_study_releases_the_kernel_workspace():
    # Once its trials end, a serial study leaves its thread no kernel memory;
    # a table a caller took before keeps its own memory and its values.
    rng = np.random.default_rng(64)
    table = sweep_estimate(SignalMatrix(rng.normal(size=(30, 25))), range(1, 26))[1]
    expected = table.copy()
    run_study(_case_b_config(study="sweep", trials=2))
    assert _kernels._workspace.handed == {}
    assert np.array_equal(table, expected)
    sweep_estimate(SignalMatrix(rng.normal(size=(30, 25))), range(1, 26))
    assert np.array_equal(table, expected)
