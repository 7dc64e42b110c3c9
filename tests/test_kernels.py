import sys
import threading

import numpy as np
import pytest

from cpkmeans import SignalMatrix, _kernels, estimate_tau, sweep_estimate
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


def test_sweep_argmins_match_fixed_t_fits():
    rng = np.random.default_rng(57)
    # Mirrored 0/1 rows give table rows with bit-equal minima past k = 2.
    half = rng.integers(0, 2, size=(10, 12)).astype(np.float64)
    for values in (rng.normal(size=(100, 200)), np.vstack([half, half[::-1]])):
        y = SignalMatrix(values)
        fits = [estimate_tau(y, T) for T in range(1, y.d + 1)]
        for ts in (np.arange(1, y.d + 1), np.array([5, 1, 5, 3]), np.array([2])):
            k_hat, table = sweep_estimate(y, ts)
            assert table.shape == (y.d, y.n - 3)
            assert table.flags.c_contiguous and not table.flags.writeable
            assert k_hat.tolist() == [fits[T - 1].k_hat for T in ts]
            for T in ts:
                assert table[T - 1].tobytes() == fits[T - 1].objective.tobytes()


def _workspace_memory():
    """Each role's last memory, and whether an array on it is alive."""
    return {
        role: (np.frombuffer(memory), flat() is not None)
        for role, (memory, flat) in _kernels._workspace.handed.items()
    }


def test_results_never_share_memory_with_the_workspace():
    rng = np.random.default_rng(58)
    a, b = rng.normal(size=(60, 30)), rng.normal(size=(60, 30))
    table_a, row_a = objective_table(a), objective_row(a, 7)
    table_a_copy, row_a_copy = table_a.copy(), row_a.copy()
    argmins_a, swept_a = sweep_estimate(SignalMatrix(a), range(1, 31))
    swept_a_copy = swept_a.copy()
    assert _workspace_memory()
    # Only memory the workspace sees as alive, and so will not hand out, holds a result.
    for buffer, alive in _workspace_memory().values():
        for result in (table_a, row_a, argmins_a, swept_a):
            assert alive or not np.shares_memory(result, buffer)
    # A second call on other data, through the same workspace, leaves the first results alone.
    objective_table(b), objective_row(b, 7), objective_row(b, 30)
    sweep_estimate(SignalMatrix(b), range(1, 31))
    assert np.array_equal(table_a, table_a_copy)
    assert np.array_equal(row_a, row_a_copy)
    assert np.array_equal(swept_a, swept_a_copy)


def test_workspace_buffers_are_reused_across_shapes():
    # The rows of one sample at several T, and smaller tables after larger
    # ones, fit the memory the largest call made.
    rng = np.random.default_rng(59)
    values = rng.normal(size=(80, 40))
    objective_table(values)
    objective_row(values, 40)
    before = {role: buffer.ctypes.data for role, (buffer, _) in _workspace_memory().items()}
    for T in (1, 13, 40):
        objective_row(values, T)
    objective_table(values[:50, :20])
    after = {role: buffer.ctypes.data for role, (buffer, _) in _workspace_memory().items()}
    assert after == before


def test_workspace_hands_out_memory_only_once_no_array_on_it_is_alive():
    workspace = _kernels._Workspace()
    first = workspace.empty("scratch", (4, 5))[1:]  # a view outliving the array handed out
    second = workspace.empty("scratch", (4, 5))
    assert not np.shares_memory(first, second)
    address = second.ctypes.data
    del first, second
    assert workspace.empty("scratch", (2, 3)).ctypes.data == address


def _table_and_rows(values):
    d = values.shape[1]
    return [objective_table(values)] + [objective_row(values, T) for T in (1, d // 2, d)]


def test_threads_get_the_serial_results_bit_for_bit():
    rng = np.random.default_rng(60)
    inputs = [rng.normal(size=(n, d)) for n, d in ((100, 200), (37, 12), (500, 20), (80, 200))]
    expected = [_table_and_rows(values) for values in inputs]
    failures = []
    orders = [[0, 1, 2, 3], [3, 2, 1, 0], [1, 3, 0, 2], [2, 0, 3, 1]]  # more threads than cores
    barrier = threading.Barrier(len(orders), timeout=30)

    def work(order):
        barrier.wait()
        for _ in range(20):
            for i in order:
                got = _table_and_rows(inputs[i])
                if not all(np.array_equal(a, b) for a, b in zip(got, expected[i])):
                    failures.append(i)

    threads = [threading.Thread(target=work, args=(order,)) for order in orders]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []


def test_table_memory_is_reused_only_once_no_view_of_it_is_alive():
    rng = np.random.default_rng(61)
    a, b = rng.normal(size=(60, 30)), rng.normal(size=(60, 30))
    expected_a, expected_b = objective_table(a).copy(), objective_table(b).copy()
    row = objective_table(a)[4]  # a view outliving its table
    table_b = objective_table(b)
    assert not np.shares_memory(row, table_b)
    assert np.array_equal(row, expected_a[4])
    # The returned table lives on the memory of the scratch role.
    memory = _kernels._workspace.handed["scratch"][0]
    assert np.shares_memory(table_b, np.frombuffer(memory))
    del row, table_b
    table_a = objective_table(a)
    assert _kernels._workspace.handed["scratch"][0] is memory
    assert np.array_equal(table_a, expected_a)
    assert np.array_equal(objective_table(b), expected_b)
    assert np.array_equal(table_a, expected_a)


def test_large_calls_keep_no_buffer(monkeypatch):
    # In a new thread, whose workspace starts empty.
    monkeypatch.setattr(_kernels, "_KEEP", 100)
    values = np.random.default_rng(62).normal(size=(60, 30))
    got = []

    def work():
        got.append((objective_table(values), objective_row(values, 30)))
        got.append(_kernels._workspace.handed)

    thread = threading.Thread(target=work)
    thread.start()
    thread.join(timeout=30)
    (table, row), handed = got
    assert np.array_equal(table, objective_table_reference(values))
    assert np.array_equal(row, table[-1])
    assert handed == {}
