import numpy as np
import pytest

from helpers import lepski_bruteforce, method2_loop, two_regime_scores

from cpkmeans import (
    LepskiConfig,
    ModelSpec,
    SignalMatrix,
    SurrogateVector,
    ValidationError,
    estimate_adaptive,
    estimate_tau,
    generate_sample,
    lepski_select,
    method1_select,
    method2_select,
    surrogate,
)


def test_surrogate_constant_matrix_cancels():
    z = surrogate(SignalMatrix(np.ones((4, 3))), 1.0)
    assert np.array_equal(z.z, np.zeros(3))
    assert z.nu_sq == pytest.approx(0.25)


def test_surrogate_noiseless_late_change():
    diff = np.array([1.0, 2.0, -1.0, 0.5])
    spec = ModelSpec(n=10, d=4, tau=0.6, theta_minus=np.zeros(4), theta_plus=diff, sigma=0.0)
    z = surrogate(generate_sample(spec, 0), 1.0)
    np.testing.assert_allclose(z.z, (1 - 0.6) * diff, rtol=1e-12, atol=1e-15)


def test_surrogate_noiseless_early_change():
    diff = np.array([2.0, -3.0])
    spec = ModelSpec(n=10, d=2, tau=0.3, theta_minus=np.zeros(2), theta_plus=diff, sigma=0.0)
    z = surrogate(generate_sample(spec, 0), 1.0)
    np.testing.assert_allclose(z.z, 0.3 * diff, rtol=1e-12, atol=1e-15)


def test_surrogate_odd_row_count_uses_floor_half():
    y = np.arange(15, dtype=float).reshape(5, 3)
    z = surrogate(SignalMatrix(y), 2.0)
    expected = y.mean(axis=0) - (2.0 / 5.0) * y[:2].sum(axis=0)
    np.testing.assert_allclose(z.z, expected, rtol=1e-15)
    assert z.nu_sq == pytest.approx(4.0 / 5.0)


def test_surrogate_row_shift_invariance():
    rng = np.random.default_rng(20)
    y = rng.normal(size=(8, 5))
    shift = rng.normal(size=5)
    a = surrogate(SignalMatrix(y), 1.0)
    b = surrogate(SignalMatrix(y + shift), 1.0)
    np.testing.assert_allclose(a.z, b.z, rtol=1e-9, atol=1e-12)


def test_surrogate_noise_variance_mc():
    # Per-coordinate sample variance of the surrogate tracks sigma^2 / n.
    spec = ModelSpec(n=10, d=4, tau=0.3, theta_minus=np.zeros(4), theta_plus=np.ones(4), sigma=1.0)
    draws = np.empty((5_000, 4))
    for seed in range(5_000):
        draws[seed] = surrogate(generate_sample(spec, seed), 1.0).z
    variances = draws.var(axis=0, ddof=1)
    np.testing.assert_allclose(variances, 0.1, rtol=0.1)


def test_lepski_zero_vector():
    z = SurrogateVector(z=np.zeros(10), nu_sq=0.01)
    assert lepski_select(z, LepskiConfig(), 100, 10) == 1


def test_lepski_spike():
    zv = np.zeros(10)
    zv[4] = 100.0  # coordinate 5; every window containing it violates the threshold
    z = SurrogateVector(z=zv, nu_sq=0.01)
    assert lepski_select(z, LepskiConfig(c_lepski=16.0, sigma=1.0), 100, 10) == 6
    assert lepski_bruteforce(zv, 0.01, 16.0, 100, 10) == 6


def test_lepski_fallback_when_nothing_passes():
    zv = np.zeros(6)
    zv[-1] = 1e6
    z = SurrogateVector(z=zv, nu_sq=0.01)
    assert lepski_select(z, LepskiConfig(), 100, 6) == 6


def test_lepski_matches_bruteforce_random():
    rng = np.random.default_rng(21)
    for i in range(60):
        d = int(rng.integers(1, 33))
        n = int(rng.integers(4, 400))
        sigma = float(rng.uniform(0.1, 2.0))
        if i % 3 == 0:
            zv = rng.normal(0, 0.5, d)
        elif i % 3 == 1:
            zv = np.zeros(d)
            zv[int(rng.integers(0, d))] = float(rng.normal(0, 5))
        else:
            zv = rng.normal(0, 1.0 / np.sqrt(np.arange(1, d + 1)))
        c_l = float(rng.uniform(1.0, 32.0))
        nu_sq = sigma**2 / n
        fast = lepski_select(
            SurrogateVector(z=zv, nu_sq=nu_sq), LepskiConfig(c_lepski=c_l, sigma=sigma), n, d
        )
        assert fast == lepski_bruteforce(zv, nu_sq, c_l, n, d)


def test_lepski_nonincreasing_in_constant():
    rng = np.random.default_rng(22)
    for _ in range(10):
        d = int(rng.integers(4, 40))
        zv = rng.normal(0, 1.0 / np.sqrt(np.arange(1, d + 1)))
        z = SurrogateVector(z=zv, nu_sq=0.01)
        picks = [
            lepski_select(z, LepskiConfig(c_lepski=c), 100, d)
            for c in (0.5, 1, 2, 4, 8, 16, 32, 64)
        ]
        assert all(b <= a for a, b in zip(picks, picks[1:]))


def test_lepski_validation():
    z = SurrogateVector(z=np.zeros(5), nu_sq=0.01)
    with pytest.raises(ValidationError):
        lepski_select(z, LepskiConfig(), 100, 7)  # length mismatch
    with pytest.raises(ValidationError):
        LepskiConfig(c_lepski=0.0)


def test_method1_examples():
    assert method1_select(SurrogateVector(np.array([10.0, 10, 0, 0, 0, 0]), 0.1)) == 2
    assert method1_select(SurrogateVector(np.ones(6), 0.1)) == 1  # ties to smallest T
    assert method1_select(SurrogateVector(np.array([5.0, 0, 0, 0, 0]), 0.1)) == 1


def test_method1_matches_exhaustive_scores():
    rng = np.random.default_rng(23)
    for _ in range(30):
        d = int(rng.integers(1, 25))
        zv = rng.normal(0, 1, d)
        picked = method1_select(SurrogateVector(zv, 0.1))
        scores = two_regime_scores(zv)
        assert picked == int(np.argmin(scores)) + 1
        assert 1 <= picked <= d


def test_method2_noiseless_ties_to_one():
    spec = ModelSpec(
        n=10, d=3, tau=0.5, theta_minus=[1.0, 1, 1], theta_plus=[0.0, 0, 0], sigma=0.0
    )
    sample = generate_sample(spec, 9)
    assert method2_select(sample, 5, 0.8, 77) == 1


def test_method2_determinism():
    spec = ModelSpec(n=12, d=4, tau=0.5, theta_minus=np.zeros(4), theta_plus=np.ones(4), sigma=1.0)
    sample = generate_sample(spec, 4)
    a = method2_select(sample, 10, 0.8, 123)
    b = method2_select(sample, 10, 0.8, 123)
    assert a == b


def test_method2_matches_exhaustive_recomputation():
    # Rebuild the subsample draws and refit each (subsample, T) independently.
    spec = ModelSpec(n=10, d=3, tau=0.5, theta_minus=np.zeros(3), theta_plus=np.ones(3), sigma=1.0)
    sample = generate_sample(spec, 30)
    n_sub, frac, seed = 5, 0.8, 2024
    picked = method2_select(sample, n_sub, frac, seed)

    rng = np.random.default_rng(seed)
    m = int(frac * sample.n)
    tau_hats = np.empty((n_sub, sample.d))
    for s in range(n_sub):
        idx = np.sort(rng.choice(sample.n, size=m, replace=False))
        sub = SignalMatrix(sample.values[idx])
        for t in range(1, sample.d + 1):
            tau_hats[s, t - 1] = estimate_tau(sub, t).tau_hat
    variances = tau_hats.var(axis=0, ddof=1)
    assert picked == int(np.argmin(variances)) + 1


def test_method2_matches_per_subsample_loop():
    # The selection study's shape, caseB-like means, over 20 seeds.
    rng = np.random.default_rng(25)
    d = 200
    for seed in range(20):
        theta_minus = rng.normal(0.0, 1.0 / np.arange(1, d + 1))
        theta_plus = theta_minus + rng.normal(0.0, 0.3, d)
        spec = ModelSpec(
            n=100, d=d, tau=0.3, theta_minus=theta_minus, theta_plus=theta_plus, sigma=1.0
        )
        sample = generate_sample(spec, seed)
        assert method2_select(sample, 100, 0.8, seed) == method2_loop(sample.values, 100, 0.8, seed)


def test_method2_validation():
    sample = SignalMatrix(np.zeros((10, 2)))
    with pytest.raises(ValidationError):
        method2_select(sample, 1, 0.8, 0)  # n_sub too small
    with pytest.raises(ValidationError):
        method2_select(sample, 5, 1.0, 0)  # frac out of range
    with pytest.raises(ValidationError):
        method2_select(sample, 5, 0.3, 0)  # subsample below 4 rows


def test_adaptive_equals_manual_pipeline():
    rng = np.random.default_rng(24)
    y = SignalMatrix(rng.normal(size=(20, 8)))
    config = LepskiConfig(c_lepski=4.0, sigma=1.0)
    fit = estimate_adaptive(y, 1.0, config)
    t_hat = lepski_select(surrogate(y, 1.0), config, y.n, y.d)
    manual = estimate_tau(y, t_hat)
    assert fit.k_hat == manual.k_hat
    assert fit.T_used == manual.T_used
    assert np.array_equal(fit.objective, manual.objective)


def test_adaptive_noiseless_recovery():
    spec = ModelSpec(n=10, d=3, tau=0.5, theta_minus=np.zeros(3), theta_plus=np.ones(3), sigma=0.0)
    fit = estimate_adaptive(generate_sample(spec, 0), 0.0, LepskiConfig())
    assert fit.tau_hat == 0.5


def test_adaptive_zero_surrogate_uses_t_one():
    y = SignalMatrix(np.tile(np.array([3.0, -1.0, 2.0]), (6, 1)))
    fit = estimate_adaptive(y, 1.0, LepskiConfig())
    assert fit.T_used == 1
