"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines and
timings.  Every tolerance is pinned here; the Monte Carlo criteria use a
fixed base seed so reruns are bit-identical.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from helpers import lepski_bruteforce, objective_bruteforce, same_records

from cpkmeans import (
    ExperimentConfig,
    MeanCase,
    ModelSpec,
    SignalMatrix,
    chi_square_moderate_bound,
    chi_square_tail_bound,
    estimate_tau,
    gaussian_tail_bound,
    generate_sample,
    lepski_select,
    run_study,
)
from cpkmeans._kernels import objective_table

BASE_SEED = 20260810


def _report(name, ok, detail, started, limit):
    elapsed = time.perf_counter() - started
    status = "PASS" if ok and elapsed < limit else "FAIL"
    line = f"[{name}] {status} {detail} ({elapsed:.1f}s, limit {limit:.0f}s)"
    print(line)
    assert ok, line
    assert elapsed < limit, line
    return line


def test_criterion_1_objective_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(BASE_SEED + 1)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(4, 51))
        d = int(rng.integers(1, 21))
        sigma = float(rng.uniform(0.0, 2.0))
        tm, tp = rng.normal(size=d), rng.normal(size=d)
        spec = ModelSpec(n=n, d=d, tau=0.5, theta_minus=tm, theta_plus=tp, sigma=sigma)
        y = generate_sample(spec, int(rng.integers(0, 2**63 - 1)))
        table = objective_table(y.values)
        for t in range(1, d + 1):
            fast = table[t - 1]
            slow = np.array([objective_bruteforce(y, t, k) for k in range(2, n - 1)])
            scale = np.maximum(np.abs(slow), 1e-12)
            worst = max(worst, float(np.max(np.abs(fast - slow) / scale)))
            assert np.all(np.abs(fast - slow) <= 1e-8 * scale)
            fit = estimate_tau(y, t)
            assert np.array_equal(fit.objective, fast)
            assert fit.k_hat == int(np.argmin(slow)) + 2
    _report(
        "criterion 1", worst <= 1e-8,
        f"objective table and estimate_tau vs brute force on 100 instances, "
        f"max rel dev {worst:.2e}",
        started, 5.0,
    )


def test_criterion_2_zero_noise_exactness():
    started = time.perf_counter()
    rng = np.random.default_rng(BASE_SEED + 2)
    checked = 0
    for _ in range(200):
        n = int(rng.integers(5, 40))
        d = int(rng.integers(1, 9))
        c = int(rng.integers(2, n - 1))
        tm = rng.normal(size=d)
        diff = rng.normal(size=d)
        diff[0] = diff[0] if abs(diff[0]) > 1e-3 else 1.0  # positive gap at every T
        spec = ModelSpec(n=n, d=d, tau=c / n, theta_minus=tm, theta_plus=tm + diff, sigma=0.0)
        sample = generate_sample(spec, int(rng.integers(0, 2**63 - 1)))
        for t in range(1, d + 1):
            fit = estimate_tau(sample, t)
            assert fit.k_hat == c and fit.tau_hat == c / n
            checked += 1
    _report(
        "criterion 2", True,
        f"zero-noise recovery exact on 200 specs ({checked} fits)",
        started, 1.0,
    )


def test_criterion_3_lepski_definitional_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(BASE_SEED + 3)
    for i in range(200):
        d = int(rng.integers(1, 65))
        n = int(rng.integers(4, 500))
        sigma = float(rng.uniform(0.1, 2.0))
        style = i % 4
        if style == 0:
            zv = rng.normal(0, 0.3, d)
        elif style == 1:
            zv = np.zeros(d)
            zv[int(rng.integers(0, d))] = float(rng.normal(0, 5))
        elif style == 2:
            zv = rng.normal(0, 1.0 / np.sqrt(np.arange(1, d + 1)))
        else:
            zv = rng.normal(0, sigma, d) * (rng.random(d) < 0.3)
        nu_sq = sigma * sigma / n
        c_l = float(rng.uniform(1.0, 32.0))
        fast = lepski_select(zv, n, sigma, c_l)
        assert fast == lepski_bruteforce(zv, nu_sq, c_l, n, d)
    _report(
        "criterion 3", True,
        "fast scan equals (k, m, j) triple loop on 200 vectors, exactly",
        started, 5.0,
    )


def test_criterion_4_rate_reproduction():
    started = time.perf_counter()
    config = ExperimentConfig(
        study="rate",
        base_seed=BASE_SEED,
        trials=200,
        n_grid=(500, 1000, 2000, 4000),
        d=20,
        sigma=1.0,
        tau=0.3,
        case=MeanCase.RATE_MODEL,
        t_grid=(10,),
    )
    headline = run_study(config, workers=2).headline()
    slope_mean, slope_median = headline["slope_mean"], headline["slope_median"]
    ok = -1.45 <= slope_mean <= -0.85
    _report(
        "criterion 4", ok,
        f"log-log slope of mean error {slope_mean:.3f} in [-1.45, -0.85] "
        f"(median slope {slope_median:.3f})",
        started, 300.0,
    )


def test_criterion_5_case_b_sweep():
    started = time.perf_counter()
    config = ExperimentConfig(
        study="sweep",
        base_seed=BASE_SEED,
        trials=500,
        n_grid=(100,),
        d=200,
        sigma=1.0,
        tau=0.3,
        case=MeanCase.CASE_B,
        t_grid=tuple(range(1, 201)),
    )
    result = run_study(config, workers=2)
    t_star = result.headline()["t_star"]
    per_t = {T: stats for (_, T, _), stats in result.summary.items()}
    at_star = per_t[t_star].mean
    at_one = per_t[1].mean
    at_full = per_t[200].mean
    ok = 15 <= t_star <= 60 and at_star < at_one and at_star < at_full
    _report(
        "criterion 5", ok,
        f"T*={t_star} in [15, 60]; mean error {at_star:.4f} at T* "
        f"< {at_one:.4f} at T=1 and < {at_full:.4f} at T=200",
        started, 600.0,
    )


def test_criterion_6_table_reproduction():
    started = time.perf_counter()
    config = ExperimentConfig(
        study="selection",
        base_seed=BASE_SEED,
        trials=300,
        n_grid=(100,),
        d=200,
        sigma=1.0,
        tau=0.3,
        case=MeanCase.CASE_B,
        t_grid=tuple(range(1, 201)),
        n_sub=100,
        frac=0.8,
        t_star=30,
    )
    result = run_study(config, workers=2)
    per_selector = {tag: stats for (_, _, tag), stats in result.summary.items()}
    got = {tag: stats.mean for tag, stats in per_selector.items()}
    reference = {"oracle": 0.1524, "method1": 0.2207, "method2": 0.2047}
    checks = []
    for tag, ref in reference.items():
        checks.append((f"{tag} {got[tag]:.4f} vs {ref} +/- 0.06", abs(got[tag] - ref) <= 0.06))
    checks.append(
        ("ordering oracle <= method2", got["oracle"] <= got["method2"]),
    )
    checks.append(
        ("ordering method2 <= method1 + 0.02", got["method2"] <= got["method1"] + 0.02),
    )
    for tag in ("method1", "method2"):
        mc_se = per_selector[tag].std_dev / math.sqrt(config.trials)
        checks.append(
            (f"oracle <= {tag} + 2 MC se", got["oracle"] <= got[tag] + 2 * mc_se),
        )
    failed = [label for label, ok in checks if not ok]
    _report(
        "criterion 6", not failed,
        f"selector means {{oracle: {got['oracle']:.4f}, method1: {got['method1']:.4f}, "
        f"method2: {got['method2']:.4f}}}"
        + (f"; failed: {failed}" if failed else "; all bands and orderings hold"),
        started, 900.0,
    )


def test_criterion_7_concentration_bounds():
    started = time.perf_counter()
    rng = np.random.default_rng(BASE_SEED + 7)
    draws = 1_000_000

    def margin_ok(freq, bound):
        se = math.sqrt(max(freq, 1e-12) * (1 - freq) / draws)
        return freq + 3 * se <= bound

    normal = np.abs(rng.standard_normal(draws))
    for x in np.arange(0.5, 4.5, 0.5):
        assert margin_ok(float((normal > x).mean()), gaussian_tail_bound(float(x)))
    for k in (1, 2, 5, 10):
        chi = rng.chisquare(k, draws)
        for u_sq in (4 * k, 6 * k, 8 * k):
            assert margin_ok(float((chi >= u_sq).mean()), chi_square_tail_bound(k, u_sq))
    for k in (1, 4, 16):
        chi = rng.chisquare(k, draws)
        for z in (math.sqrt(k), float(k), 2.0 * k):
            assert margin_ok(float((chi - k > z).mean()), chi_square_moderate_bound(k, z))
    _report(
        "criterion 7", True,
        "1e6-draw tails stay under all three bounds (+3 binomial se) on every grid point",
        started, 30.0,
    )


def test_criterion_8_invariance_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(BASE_SEED + 8)

    # shift invariance: identical argmin, objective trace within 1e-9 relative
    y = SignalMatrix(rng.normal(size=(30, 8)))
    shifted = SignalMatrix(y.values + rng.normal(0, 10, size=8))
    for t in range(1, 9):
        a, b = estimate_tau(y, t), estimate_tau(shifted, t)
        assert a.k_hat == b.k_hat
        np.testing.assert_allclose(b.objective, a.objective, rtol=1e-9, atol=1e-9)

    # coordinate permutation within the truncation window
    t = 5
    perm = np.concatenate([rng.permutation(t), np.arange(t, 8)])
    permuted = SignalMatrix(y.values[:, perm])
    assert estimate_tau(permuted, t).k_hat == estimate_tau(y, t).k_hat

    # tie-break determinism: all-tied traces pick the smallest k
    assert estimate_tau(SignalMatrix(np.zeros((9, 3))), 2).k_hat == 2
    constant_rows = SignalMatrix(np.tile(np.array([1.0, 2.0, -3.0]), (8, 1)))
    fit = estimate_tau(constant_rows, 3)
    assert fit.k_hat == 2 and np.array_equal(fit.objective, np.zeros(5))

    # experiment bit-reproducibility, 1 worker vs 2
    rate_cfg = ExperimentConfig(
        study="rate", base_seed=BASE_SEED, trials=8, n_grid=(20, 40), d=20, sigma=1.0, tau=0.3,
        case=MeanCase.RATE_MODEL, t_grid=(10,),
    )
    assert same_records(run_study(rate_cfg, workers=1), run_study(rate_cfg, workers=2))
    sweep_cfg = ExperimentConfig(
        study="sweep", base_seed=BASE_SEED, trials=4, n_grid=(20,), d=25, sigma=1.0, tau=0.3,
        case=MeanCase.CASE_B, t_grid=tuple(range(1, 26)), n_sub=5, t_star=5,
    )
    assert same_records(
        run_study(sweep_cfg, workers=1), run_study(sweep_cfg, workers=2)
    )
    selection_cfg = dataclasses.replace(sweep_cfg, study="selection")
    assert same_records(
        run_study(selection_cfg, workers=1),
        run_study(selection_cfg, workers=2),
    )
    _report(
        "criterion 8", True,
        "shift/permutation invariance, tie-breaks, and 1-vs-2-worker runs all exact",
        started, 60.0,
    )
