import numpy as np
import pytest

from helpers import lepski_bruteforce, method2_loop, two_regime_scores

from cpkmeans import (
    MeanCase,
    ModelSpec,
    SignalMatrix,
    ValidationError,
    estimate_adaptive,
    estimate_tau,
    generate_sample,
    lepski_select,
    method1_select,
    method2_select,
    sample_case_means,
    surrogate,
)
from cpkmeans import smoothing


def test_surrogate_constant_matrix_cancels():
    z = surrogate(SignalMatrix(np.ones((4, 3))))
    assert np.array_equal(z, np.zeros(3))


def test_surrogate_noiseless_late_change():
    diff = np.array([1.0, 2.0, -1.0, 0.5])
    spec = ModelSpec(n=10, d=4, tau=0.6, theta_minus=np.zeros(4), theta_plus=diff, sigma=0.0)
    z = surrogate(generate_sample(spec, 0))
    np.testing.assert_allclose(z, (1 - 0.6) * diff, rtol=1e-12, atol=1e-15)


def test_surrogate_noiseless_early_change():
    diff = np.array([2.0, -3.0])
    spec = ModelSpec(n=10, d=2, tau=0.3, theta_minus=np.zeros(2), theta_plus=diff, sigma=0.0)
    z = surrogate(generate_sample(spec, 0))
    np.testing.assert_allclose(z, 0.3 * diff, rtol=1e-12, atol=1e-15)


def test_surrogate_odd_row_count_uses_floor_half():
    y = np.arange(15, dtype=float).reshape(5, 3)
    z = surrogate(SignalMatrix(y))
    expected = y.mean(axis=0) - (2.0 / 5.0) * y[:2].sum(axis=0)
    np.testing.assert_allclose(z, expected, rtol=1e-15)


def test_surrogate_subtracts_the_first_half_mean_once():
    # Rows 0..7 of one column: full mean 3.5, (2/8) * (0 + 1 + 2 + 3) = 1.5.
    z = surrogate(SignalMatrix(np.arange(8.0).reshape(8, 1)))
    assert z.tolist() == [2.0]


def test_surrogate_row_shift_invariance():
    rng = np.random.default_rng(20)
    y = rng.normal(size=(8, 5))
    shift = rng.normal(size=5)
    a = surrogate(SignalMatrix(y))
    b = surrogate(SignalMatrix(y + shift))
    np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("offset", [1e6, 1e8])
def test_surrogate_offset_moves_z_no_more_than_the_data_rounding(offset):
    # Adding the offset rounds each entry by up to max|(v + c) - c - v|; z
    # may move by no more than that, as it would if the offset cancelled in
    # raw column sums.
    rng = np.random.default_rng(21)
    for seed in range(20):
        theta_minus, theta_plus = sample_case_means(MeanCase.CASE_B, 200, rng)
        spec = ModelSpec(
            n=100, d=200, tau=0.3, theta_minus=theta_minus, theta_plus=theta_plus, sigma=1.0
        )
        v = generate_sample(spec, seed).values.copy()
        rounding = np.abs((v + offset) - offset - v).max()
        moved = surrogate(SignalMatrix(v + offset)) - surrogate(SignalMatrix(v))
        assert np.abs(moved).max() <= rounding


def test_surrogate_noise_variance_mc():
    # Per-coordinate sample variance of the surrogate tracks sigma^2 / n.
    spec = ModelSpec(n=10, d=4, tau=0.3, theta_minus=np.zeros(4), theta_plus=np.ones(4), sigma=1.0)
    draws = np.empty((5_000, 4))
    for seed in range(5_000):
        draws[seed] = surrogate(generate_sample(spec, seed))
    variances = draws.var(axis=0, ddof=1)
    np.testing.assert_allclose(variances, 0.1, rtol=0.1)


def test_lepski_zero_vector():
    assert lepski_select(np.zeros(10), 100, 1.0) == 1


def test_lepski_spike():
    zv = np.zeros(10)
    zv[4] = 100.0  # coordinate 5; every window containing it violates the threshold
    assert lepski_select(zv, 100, 1.0, c_lepski=16.0) == 6
    assert lepski_bruteforce(zv, 0.01, 16.0, 100, 10) == 6


def test_lepski_fallback_when_nothing_passes():
    zv = np.zeros(6)
    zv[-1] = 1e6
    assert lepski_select(zv, 100, 1.0) == 6


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
        fast = lepski_select(zv, n, sigma, c_l)
        assert fast == lepski_bruteforce(zv, nu_sq, c_l, n, d)


def test_lepski_nonincreasing_in_constant():
    rng = np.random.default_rng(22)
    for _ in range(10):
        d = int(rng.integers(4, 40))
        zv = rng.normal(0, 1.0 / np.sqrt(np.arange(1, d + 1)))
        picks = [
            lepski_select(zv, 100, 1.0, c_lepski=c)
            for c in (0.5, 1, 2, 4, 8, 16, 32, 64)
        ]
        assert all(b <= a for a, b in zip(picks, picks[1:]))


def test_lepski_validation():
    with pytest.raises(ValidationError):
        lepski_select(np.zeros(5), 100, 1.0, c_lepski=0.0)


def test_lepski_rejects_empty_surrogate():
    # No fit accepts T = 0, the pick an empty z would give.
    with pytest.raises(ValidationError, match="non-empty"):
        lepski_select(np.zeros(0), 10, 1.0)


def test_method1_examples():
    assert method1_select(np.array([10.0, 10, 0, 0, 0, 0])) == 2
    assert method1_select(np.ones(6)) == 1  # ties to smallest T
    assert method1_select(np.array([5.0, 0, 0, 0, 0])) == 1


def test_method1_matches_exhaustive_scores():
    rng = np.random.default_rng(23)
    for _ in range(30):
        d = int(rng.integers(1, 25))
        zv = rng.normal(0, 1, d)
        picked = method1_select(zv)
        scores = two_regime_scores(zv)
        assert picked == int(np.argmin(scores)) + 1
        assert 1 <= picked <= d


def test_method1_closed_form_matches_two_regime_scores():
    # The closed form against the segment-by-segment oracle: one and two
    # coordinates, constant surrogates (every T ties, so T = 1), and the
    # surrogates of 500 caseB samples at the selection study's shape.
    def picked_by_oracle(zv):
        return int(np.argmin(two_regime_scores(zv))) + 1

    for zv in ([3.0], [-1.0], [1.0, 2.0], [2.0, -1.0], [0.5, 0.5]):
        zv = np.array(zv)
        assert method1_select(zv) == picked_by_oracle(zv)
    for value in (0.0, 0.5, -2.5, 1e6):
        for d in (1, 2, 7, 200):
            zv = np.full(d, value)
            assert method1_select(zv) == picked_by_oracle(zv) == 1
    rng = np.random.default_rng(27)
    for seed in range(500):
        theta_minus, theta_plus = sample_case_means(MeanCase.CASE_B, 200, rng)
        spec = ModelSpec(
            n=100, d=200, tau=0.3, theta_minus=theta_minus, theta_plus=theta_plus, sigma=1.0
        )
        z = surrogate(generate_sample(spec, seed))
        assert method1_select(z) == picked_by_oracle(z)


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


def test_method2_rows_equal_per_subset_sorted_draws(monkeypatch):
    # The subsets are drawn one rng.choice at a time and sorted in one call:
    # the rows must equal those of sorting each draw as it is made.
    seen = []
    real_argmins = smoothing.subsample_argmins

    def argmins(values, rows):
        seen.append(rows)
        return real_argmins(values, rows)

    monkeypatch.setattr(smoothing, "subsample_argmins", argmins)
    for n, n_sub, frac, seed in [(100, 100, 0.8, 7), (10, 5, 0.8, 2024), (37, 3, 0.5, 0)]:
        sample = SignalMatrix(np.random.default_rng(seed).normal(size=(n, 3)))
        method2_select(sample, n_sub, frac, seed)
        rng = np.random.default_rng(seed)
        m = int(frac * n)
        expected = np.stack([np.sort(rng.choice(n, size=m, replace=False)) for _ in range(n_sub)])
        assert seen[-1].dtype == expected.dtype
        assert np.array_equal(seen[-1], expected)


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
    fit = estimate_adaptive(y, 1.0, c_lepski=4.0)
    t_hat = lepski_select(surrogate(y), y.n, 1.0, c_lepski=4.0)
    manual = estimate_tau(y, t_hat)
    assert fit.k_hat == manual.k_hat
    assert fit.T_used == manual.T_used
    assert np.array_equal(fit.objective, manual.objective)


def test_adaptive_noiseless_recovery():
    spec = ModelSpec(n=10, d=3, tau=0.5, theta_minus=np.zeros(3), theta_plus=np.ones(3), sigma=0.0)
    fit = estimate_adaptive(generate_sample(spec, 0), 0.0)
    assert fit.tau_hat == 0.5


def test_adaptive_zero_surrogate_uses_t_one():
    y = SignalMatrix(np.tile(np.array([3.0, -1.0, 2.0]), (6, 1)))
    fit = estimate_adaptive(y, 1.0)
    assert fit.T_used == 1
