import numpy as np
import pytest

from cpkmeans._kernels import objective_row, objective_table, subsample_argmins
from helpers import objective_table_reference


def test_table_matches_direct_sse():
    rng = np.random.default_rng(51)
    y = rng.normal(size=(9, 4))
    table = objective_table(y)
    for t in range(1, 5):
        for k in range(2, 8):
            first, second = y[:k, :t], y[k:, :t]
            direct = ((first - first.mean(0)) ** 2).sum() + ((second - second.mean(0)) ** 2).sum()
            assert table[t - 1, k - 2] == pytest.approx(direct, rel=1e-10, abs=1e-12)


def _fuzz_matrices():
    rng = np.random.default_rng(50)
    yield rng.normal(size=(4, 1))  # a single split, a single coordinate
    yield rng.normal(size=(4, 9))
    yield rng.normal(size=(9, 1))
    yield rng.normal(size=(100, 200))  # the sweep study's shape
    for _ in range(40):
        n, d = int(rng.integers(4, 120)), int(rng.integers(1, 40))
        yield rng.normal(size=(n, d))
        # 0/1 rows and their mirror image: table rows with bit-equal minima.
        half = rng.integers(0, 2, size=(n, d)).astype(np.float64)
        yield np.vstack([half, half[::-1]])
        for offset in (1e6, 1e8):
            yield rng.normal(size=(n, d)) + offset
    # The other study shapes: the rate study's samples and method 2's subsamples.
    yield rng.normal(size=(500, 20))
    yield rng.normal(size=(4000, 20))
    yield rng.normal(size=(80, 200))


def test_table_matches_reference_formula_exactly():
    late_ties = 0
    for values in _fuzz_matrices():
        table = objective_table(values)
        assert table.shape == (values.shape[1], values.shape[0] - 3)
        assert np.array_equal(table, objective_table_reference(values))
        minima = table == table.min(axis=1, keepdims=True)
        late_ties += int(np.sum((minima.sum(axis=1) > 1) & (table.argmin(axis=1) > 0)))
    # The mirrored 0/1 matrices reach bit-equal minima past k = 2.
    assert late_ties > 0


def _per_subset_argmins(values, rows):
    return np.stack([np.argmin(objective_table(values[r]), axis=1) for r in rows])


def _sorted_subsets(rng, n, m, s):
    return np.stack([np.sort(rng.choice(n, size=m, replace=False)) for _ in range(s)])


@pytest.mark.parametrize(
    "n, d, m, s",
    [
        (4, 1, 4, 1),  # one subset, one split column, one coordinate
        (6, 1, 4, 5),
        (5, 3, 4, 7),
        (12, 9, 9, 3),
        (100, 200, 80, 100),  # the selection study's method-2 shape
    ],
)
def test_subsample_argmins_match_per_subset_tables(n, d, m, s):
    rng = np.random.default_rng(n * 1000 + d)
    values = rng.normal(size=(n, d))
    rows = _sorted_subsets(rng, n, m, s)
    got = subsample_argmins(values, rows)
    assert got.shape == (s, d)
    assert np.array_equal(got, _per_subset_argmins(values, rows))


def test_subsample_argmins_exact_ties_keep_first_minimum():
    # 0/1 data in repeated rows: many table rows reach their minimum at
    # several splits with bit-equal values, some of them past k = 2.
    rng = np.random.default_rng(52)
    base = rng.integers(0, 2, size=(4, 6)).astype(np.float64)
    values = np.repeat(base, 3, axis=0)
    rows = _sorted_subsets(rng, values.shape[0], 8, 40)
    tables = [objective_table(values[r]) for r in rows]
    tied_late = [
        ((t == t.min(axis=1, keepdims=True)).sum(axis=1) > 1) & (t.argmin(axis=1) > 0)
        for t in tables
    ]
    assert np.sum(tied_late) > 0
    assert np.array_equal(subsample_argmins(values, rows), _per_subset_argmins(values, rows))


@pytest.mark.parametrize("offset", [1e6, 1e8])
def test_subsample_argmins_large_offset(offset):
    # Large offsets exercise the shift by each subset's first value; the
    # batched kernel must round the same way as the per-subset tables.
    rng = np.random.default_rng(54)
    values = rng.normal(size=(60, 30)) + offset
    rows = _sorted_subsets(rng, 60, 48, 20)
    assert np.array_equal(subsample_argmins(values, rows), _per_subset_argmins(values, rows))


def _truncated_table_row(values, T):
    return objective_table(np.ascontiguousarray(values[:, :T]))[T - 1]


@pytest.mark.parametrize(
    "n, d",
    [
        (4, 1),  # a single split
        (4, 7),
        (5, 3),
        (37, 12),
        (500, 20),  # the rate study's shapes
        (1000, 20),
        (2000, 20),
        (4000, 20),
    ],
)
def test_objective_row_matches_truncated_table(n, d):
    rng = np.random.default_rng(n * 100 + d)
    values = rng.normal(size=(n, d))
    for T in sorted({1, min(10, d), d}):
        row = objective_row(values, T)
        assert row.shape == (n - 3,)
        assert np.array_equal(row, _truncated_table_row(values, T))


def test_objective_row_exact_ties():
    # 0/1 data in repeated rows: rows of the table with bit-equal minima at
    # several splits, so any reordering of the sums would show.  n = 16 keeps
    # the centring term (k / n) P_n exact, so the tied values stay bit-equal.
    rng = np.random.default_rng(55)
    values = np.repeat(rng.integers(0, 2, size=(4, 8)).astype(np.float64), 4, axis=0)
    tied = 0
    for T in range(1, 9):
        row = objective_row(values, T)
        tied += int((row == row.min()).sum() > 1)
        assert np.array_equal(row, _truncated_table_row(values, T))
    assert tied > 0


@pytest.mark.parametrize("offset", [1e6, 1e8])
def test_objective_row_large_offset(offset):
    rng = np.random.default_rng(56)
    values = rng.normal(size=(200, 50)) + offset
    for T in (1, 10, 37, 50):
        assert np.array_equal(objective_row(values, T), _truncated_table_row(values, T))
