import numpy as np
import pytest

from cpkmeans import (
    MeanCase,
    ModelSpec,
    SignalMatrix,
    ValidationError,
    estimate_tau,
    generate_sample,
    method2_select,
    objective_bruteforce,
    sample_case_means,
    sweep_estimate,
)
from cpkmeans._kernels import objective_table, subsample_argmins

STEP = SignalMatrix(np.array([[0.0], [0.0], [1.0], [1.0]]))


def _random_matrix(rng, n=None, d=None):
    n = n or int(rng.integers(4, 51))
    d = d or int(rng.integers(1, 21))
    return SignalMatrix(rng.normal(0, float(rng.uniform(0, 2)) + 0.1, size=(n, d)))


def test_objective_zero_matrix():
    y = SignalMatrix(np.zeros((7, 4)))
    table = objective_table(y.values)
    for t in range(1, 5):
        for k in range(2, 6):
            assert table[t - 1, k - 2] == 0.0
            assert objective_bruteforce(y, t, k) == 0.0


def test_objective_step_column():
    # k = 3 = n - 1 lies outside the table's splits; brute force covers it.
    assert objective_table(STEP.values)[0, 0] == 0.0
    assert objective_bruteforce(STEP, 1, 2) == 0.0
    assert objective_bruteforce(STEP, 1, 3) == pytest.approx(2 / 3, rel=1e-12)


def test_objective_validation():
    y = SignalMatrix(np.zeros((6, 3)))
    for bad_t in (0, 4):
        with pytest.raises(ValidationError):
            objective_bruteforce(y, bad_t, 2)
    for bad_k in (0, 6):
        with pytest.raises(ValidationError):
            objective_bruteforce(y, 1, bad_k)


def test_objective_monotone_in_t():
    rng = np.random.default_rng(11)
    y = _random_matrix(rng, n=20, d=8)
    table = objective_table(y.values)
    for k in range(2, 19):
        values = [table[t - 1, k - 2] for t in range(1, 9)]
        scale = max(abs(v) for v in values) + 1.0
        assert all(b >= a - 1e-12 * scale for a, b in zip(values, values[1:]))


def test_estimate_noiseless_recovery():
    spec = ModelSpec(n=10, d=1, tau=0.3, theta_minus=[1.0], theta_plus=[0.0], sigma=0.0)
    fit = estimate_tau(generate_sample(spec, 0), 1)
    assert fit.k_hat == 3
    assert fit.tau_hat == 0.3


def test_estimate_tie_breaks_to_smallest_k():
    fit = estimate_tau(SignalMatrix(np.zeros((6, 2))), 2)
    assert fit.k_hat == 2
    assert np.array_equal(fit.objective, np.zeros(3))


def test_estimate_step_column():
    fit = estimate_tau(STEP, 1)
    assert fit.k_hat == 2
    assert fit.tau_hat == 0.5
    assert fit.objective.shape == (1,)
    assert fit.objective[0] == 0.0


def test_estimate_validation():
    with pytest.raises(ValidationError):
        estimate_tau(STEP, 0)
    with pytest.raises(ValidationError):
        estimate_tau(STEP, 2)


def test_sweep_singleton_matches_single_fit():
    rng = np.random.default_rng(13)
    y = _random_matrix(rng, n=12, d=5)
    single = estimate_tau(y, 1)
    k_hat, table = sweep_estimate(y, [1])
    assert k_hat.tolist() == [single.k_hat]
    assert np.array_equal(table[0], single.objective)


def test_sweep_matches_independent_fits_exactly():
    rng = np.random.default_rng(14)
    y = _random_matrix(rng, n=30, d=10)
    k_hat, table = sweep_estimate(y, range(1, 11))
    assert k_hat.dtype == np.intp and k_hat.shape == (10,)
    assert table.shape == (10, 27)
    for t, k in zip(range(1, 11), k_hat.tolist()):
        single = estimate_tau(y, t)
        assert k == single.k_hat
        assert k / y.n == single.tau_hat
        assert np.array_equal(table[t - 1], single.objective)


def test_sweep_argmins_match_table_rows_with_ties():
    # The sweep study's 100 x 200 shape, on 0/1 rows followed by their
    # mirror image: splits k and n - k then often tie bit for bit, so many
    # rows of the table reach their minimum at several splits.
    rng = np.random.default_rng(19)
    half = rng.integers(0, 2, size=(50, 200)).astype(np.float64)
    values = np.vstack([half, half[::-1]])
    y = SignalMatrix(values)
    table = objective_table(values)
    assert sum(int((row == row.min()).sum() > 1) for row in table) > 20
    k_hat, swept = sweep_estimate(y, range(1, 201))
    assert k_hat.shape == (200,)
    assert np.array_equal(swept, table)
    for t, k in zip(range(1, 201), k_hat.tolist()):
        assert k == int(np.argmin(table[t - 1])) + 2
    # The sweep study's tau_hat column, k_hat / n in float64, is Python's k / n.
    tau_hat = k_hat / 100
    assert tau_hat.dtype == np.float64
    assert tau_hat.tolist() == [k / 100 for k in k_hat.tolist()]


def test_fit_objective_is_read_only():
    rng = np.random.default_rng(20)
    y = _random_matrix(rng, n=15, d=6)
    _, table = sweep_estimate(y, [1, 6])
    for objective in (estimate_tau(y, 3).objective, table, table[0], table[5]):
        assert not objective.flags.writeable
        with pytest.raises(ValueError):
            objective[0] = 0.0


def test_sweep_keeps_order_and_repeats():
    rng = np.random.default_rng(21)
    y = _random_matrix(rng, n=18, d=4)
    k_hat, table = sweep_estimate(y, [3, 1, 3])
    assert k_hat.tolist() == [estimate_tau(y, t).k_hat for t in (3, 1, 3)]
    for t in (3, 1):
        assert np.array_equal(table[t - 1], estimate_tau(y, t).objective)


def test_sweep_noiseless_recovers_tau_everywhere():
    rng = np.random.default_rng(15)
    tm = rng.normal(size=6)
    spec = ModelSpec(n=12, d=6, tau=0.5, theta_minus=tm, theta_plus=tm + 1.0, sigma=0.0)
    k_hat, _ = sweep_estimate(generate_sample(spec, 0), range(1, 7))
    assert k_hat.tolist() == [6] * 6
    assert np.all(k_hat / 12 == 0.5)


def test_sweep_validation():
    with pytest.raises(ValidationError):
        sweep_estimate(STEP, [])
    with pytest.raises(ValidationError):
        sweep_estimate(STEP, [2])
    y = SignalMatrix(np.zeros((6, 3)))
    for bad in ([2, 0, 1], [1, 4, 2]):
        with pytest.raises(ValidationError):
            sweep_estimate(y, bad)


def test_zero_noise_exactness_random_specs():
    rng = np.random.default_rng(16)
    for _ in range(40):
        n = int(rng.integers(5, 40))
        d = int(rng.integers(1, 10))
        c = int(rng.integers(2, n - 1))  # change index in {2, ..., n-2}
        tau = c / n
        tm = rng.normal(size=d)
        tp = tm + rng.normal(size=d)
        if np.allclose(tm[:1], tp[:1]):
            tp[0] += 1.0
        spec = ModelSpec(n=n, d=d, tau=tau, theta_minus=tm, theta_plus=tp, sigma=0.0)
        sample = generate_sample(spec, int(rng.integers(0, 2**63 - 1)))
        for t in range(1, d + 1):
            gap_t = float(np.sum((tm[:t] - tp[:t]) ** 2))
            if gap_t > 0:
                assert estimate_tau(sample, t).k_hat == c


def test_shift_invariance():
    rng = np.random.default_rng(17)
    y = _random_matrix(rng, n=24, d=7)
    shift = rng.normal(0, 10, size=7)
    y_shifted = SignalMatrix(y.values + shift)
    for t in range(1, 8):
        a = estimate_tau(y, t)
        b = estimate_tau(y_shifted, t)
        assert a.k_hat == b.k_hat
        np.testing.assert_allclose(b.objective, a.objective, rtol=1e-9, atol=1e-9)


def test_permutation_invariance_within_truncation():
    rng = np.random.default_rng(18)
    y = _random_matrix(rng, n=20, d=9)
    t = 5
    perm = np.concatenate([rng.permutation(t), np.arange(t, 9)])
    y_perm = SignalMatrix(y.values[:, perm])
    row, row_perm = objective_table(y.values)[t - 1], objective_table(y_perm.values)[t - 1]
    for k in range(2, 19):
        assert row_perm[k - 2] == pytest.approx(row[k - 2], rel=1e-10)
    assert estimate_tau(y_perm, t).k_hat == estimate_tau(y, t).k_hat


@pytest.mark.parametrize("offset", [1e6, 1e8])
def test_large_offset_moves_no_k_hat(offset):
    # caseB samples at the selection study's 100 x 200 shape.  An offset
    # leaves every within-segment sum of squares unchanged, so no fit, sweep
    # or method-2 split may move, and the table of the offset data must stay
    # within criterion 1's tolerance of brute force on that data.
    rng = np.random.default_rng(26)
    ts = range(1, 201)
    for seed in range(4):
        theta_minus, theta_plus = sample_case_means(MeanCase.CASE_B, 200, rng)
        spec = ModelSpec(
            n=100, d=200, tau=0.3, theta_minus=theta_minus, theta_plus=theta_plus, sigma=1.0
        )
        y = generate_sample(spec, seed)
        shifted = SignalMatrix(y.values + offset)
        assert [estimate_tau(shifted, t).k_hat for t in ts] == [
            estimate_tau(y, t).k_hat for t in ts
        ]
        assert np.array_equal(sweep_estimate(shifted, ts)[0], sweep_estimate(y, ts)[0])
        assert method2_select(shifted, 100, 0.8, seed) == method2_select(y, 100, 0.8, seed)
        draw = np.random.default_rng(seed)
        rows = np.stack([np.sort(draw.choice(100, size=80, replace=False)) for _ in range(100)])
        assert np.array_equal(
            subsample_argmins(shifted.values, rows), subsample_argmins(y.values, rows)
        )
        table = objective_table(shifted.values)
        for t in (1, 30, 200):
            slow = np.array([objective_bruteforce(shifted, t, k) for k in range(2, 99)])
            assert np.all(np.abs(table[t - 1] - slow) <= 1e-8 * np.abs(slow))
