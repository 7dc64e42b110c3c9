import math

import numpy as np
import pytest

from cpkmeans import (
    ModelSpec,
    SignalMatrix,
    SobolevClass,
    ValidationError,
    gap_squared,
    generate_sample,
    rate_psi,
    sobolev_sup,
)

from helpers import generate_sample_reference


def test_generate_noiseless_null_is_zero_matrix():
    spec = ModelSpec(n=6, d=3, tau=0.5, theta_minus=[0, 0, 0], theta_plus=[0, 0, 0], sigma=0.0)
    sample = generate_sample(spec, 123)
    assert np.array_equal(sample.values, np.zeros((6, 3)))


def test_generate_noiseless_segments():
    spec = ModelSpec(n=6, d=2, tau=1 / 3, theta_minus=[1, 0], theta_plus=[0, 1], sigma=0.0)
    sample = generate_sample(spec, 0)
    expected = np.array([[1, 0], [1, 0], [0, 1], [0, 1], [0, 1], [0, 1]], dtype=float)
    assert np.array_equal(sample.values, expected)


def test_generate_determinism():
    spec = ModelSpec(n=8, d=3, tau=0.5, theta_minus=[1, 2, 3], theta_plus=[0, 0, 0], sigma=1.5)
    a = generate_sample(spec, 42)
    b = generate_sample(spec, 42)
    assert np.array_equal(a.values, b.values)


@pytest.mark.parametrize(
    "n, tau, sigma, change_index",
    [(4000, 0.3, 1.0, 1200), (50, 0.3, 0.0, 15), (50, 0.001, 2.5, 1), (50, 0.999, 2.5, 49)],
)
def test_generate_matches_means_plus_noise_bit_for_bit(n, tau, sigma, change_index):
    # tau = 0.001 and 0.999 clamp the change index to its edges 1 and n - 1.
    # Zero mean coordinates with sigma = 0 add signed zeros (0 * z < 0 is -0.0),
    # so the bytes are compared, not the values.
    d = 20
    rng = np.random.default_rng(n)
    theta_plus = rng.normal(size=d)
    theta_plus[:5] = 0.0
    spec = ModelSpec(
        n=n, d=d, tau=tau, theta_minus=rng.normal(size=d), theta_plus=theta_plus, sigma=sigma
    )
    assert spec.change_index == change_index
    for seed in (0, 1, 2**63 - 2):
        sample = generate_sample(spec, seed).values
        assert sample.tobytes() == generate_sample_reference(spec, seed).tobytes()


def test_generate_row_means_converge():
    # Sample mean per entry over many seeds approaches the block mean matrix.
    spec = ModelSpec(n=6, d=2, tau=0.5, theta_minus=[1.0, -2.0], theta_plus=[0.5, 0.5], sigma=1.0)
    seeds = 10_000
    acc = np.zeros((6, 2))
    for seed in range(seeds):
        acc += generate_sample(spec, seed).values
    acc /= seeds
    target = np.vstack([np.tile([1.0, -2.0], (3, 1)), np.tile([0.5, 0.5], (3, 1))])
    assert np.max(np.abs(acc - target)) < 5 * spec.sigma / math.sqrt(seeds)


def test_change_index_rounding_and_clamping():
    assert ModelSpec(6, 1, 1 / 3, [0.0], [1.0], 0.0).change_index == 2
    assert ModelSpec(10, 1, 0.04, [0.0], [1.0], 0.0).change_index == 1  # round would give 0
    assert ModelSpec(10, 1, 0.96, [0.0], [1.0], 0.0).change_index == 9


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n=3, d=1, tau=0.5, theta_minus=[0.0], theta_plus=[0.0], sigma=1.0),
        dict(n=8, d=2, tau=0.0, theta_minus=[0, 0], theta_plus=[0, 0], sigma=1.0),
        dict(n=8, d=2, tau=1.0, theta_minus=[0, 0], theta_plus=[0, 0], sigma=1.0),
        dict(n=8, d=2, tau=0.5, theta_minus=[0, 0, 0], theta_plus=[0, 0], sigma=1.0),
        dict(n=8, d=2, tau=0.5, theta_minus=[0, 0], theta_plus=[0, 0], sigma=-1.0),
    ],
)
def test_spec_validation(kwargs):
    with pytest.raises(ValidationError):
        ModelSpec(**kwargs)


def test_signal_matrix_validation():
    with pytest.raises(ValidationError):
        SignalMatrix(np.zeros((3, 2)))  # too few rows
    with pytest.raises(ValidationError):
        SignalMatrix(np.array([[np.nan, 0.0]] * 4))


def test_gap_squared_examples():
    spec = ModelSpec(n=4, d=3, tau=0.5, theta_minus=[1, 0, 2], theta_plus=[0, 0, 0], sigma=0.0)
    assert gap_squared(spec, 2) == 1.0
    assert gap_squared(spec, 3) == 5.0
    same = ModelSpec(n=4, d=3, tau=0.5, theta_minus=[1, 2, 3], theta_plus=[1, 2, 3], sigma=0.0)
    assert gap_squared(same, 1) == 0.0
    with pytest.raises(ValidationError):
        gap_squared(spec, 0)
    with pytest.raises(ValidationError):
        gap_squared(spec, 4)


def test_gap_squared_monotone_and_matches_norm():
    rng = np.random.default_rng(1)
    for _ in range(20):
        d = int(rng.integers(1, 12))
        tm, tp = rng.normal(size=d), rng.normal(size=d)
        spec = ModelSpec(n=6, d=d, tau=0.5, theta_minus=tm, theta_plus=tp, sigma=0.0)
        gaps = [gap_squared(spec, t) for t in range(1, d + 1)]
        assert all(b >= a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] == pytest.approx(float(np.sum((tp - tm) ** 2)), rel=1e-12)


def test_rate_psi_examples():
    assert rate_psi(100, 10, 1.0, 1.0) == pytest.approx(0.01)
    assert rate_psi(10, 1000, 1.0, 1.0) == pytest.approx(10.0)
    assert rate_psi(10, 5, 0.0, 1.0) == math.inf
    assert rate_psi(10, 5, 0.0, 0.0) == 0.0
    assert rate_psi(10, 5, 2.0, 0.0) == 0.0
    with pytest.raises(ValidationError):
        rate_psi(0, 1, 1.0, 1.0)
    with pytest.raises(ValidationError):
        rate_psi(10, 1, -1.0, 1.0)


def _sobolev_sup_direct(theta, s):
    theta = np.asarray(theta, dtype=float)
    best = 0.0
    for K in range(1, theta.size + 1):
        best = max(best, K ** (2 * s) * float(np.sum(theta[K - 1 :] ** 2)))
    return best


def test_sobolev_sup_examples():
    for s in (0.5, 1.0, 2.0):
        assert sobolev_sup([1, 0, 0], s) == 1.0
    assert sobolev_sup([0, 0, 0], 1.0) == 0.0
    assert sobolev_sup([], 1.0) == 0.0
    assert sobolev_sup([0, 1], 1.0) == pytest.approx(4.0)  # K=2 beats K=1


def test_sobolev_sup_matches_enumeration():
    rng = np.random.default_rng(2)
    for _ in range(30):
        d = int(rng.integers(1, 15))
        theta = rng.normal(size=d)
        s = float(rng.uniform(0.2, 3.0))
        assert sobolev_sup(theta, s) == pytest.approx(_sobolev_sup_direct(theta, s), rel=1e-12)


def test_sobolev_sup_homogeneity():
    rng = np.random.default_rng(3)
    theta = rng.normal(size=9)
    for c in (0.5, 2.0, -3.0):
        assert sobolev_sup(c * theta, 1.3) == pytest.approx(
            c * c * sobolev_sup(theta, 1.3), rel=1e-12
        )


def test_sobolev_class_membership():
    ball = SobolevClass(s=1.0, L=2.0)
    assert ball.contains([0, 1])  # sup is 4 == L^2
    assert not ball.contains([0, 2.1])
    with pytest.raises(ValidationError):
        SobolevClass(s=0.0, L=1.0)
    with pytest.raises(ValidationError):
        SobolevClass(s=1.0, L=0.0)
