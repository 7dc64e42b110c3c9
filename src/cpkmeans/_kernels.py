"""Hot numeric kernels: the two-segment SSE table, one row of it, and method 2's argmins.

Every Monte Carlo study in this package reduces to evaluating, for one
n x d matrix after another, the within-segment sum of squares for every
split row k in {2, ..., n-2} and every truncation level T in {1, ..., d}.
``objective_table`` computes that table for one matrix, in (k, T)
layout with in-place arithmetic, and returns its (T, k) transpose as a
view; ``sweep_estimate`` marks it read-only and hands out its rows
without copying them.  ``objective_row`` computes only the row of one
truncation level T, as a fixed-T fit needs.  ``subsample_argmins``
computes only the argmin over k of each table row, for a whole stack of
row subsets at once.  The two partial kernels use the table's
arithmetic, so they equal the table's row and its per-subset argmins
bit for bit.
``benchmarks/bench_objective_table.py`` times all three.
"""

import numpy as np


def objective_table(values: np.ndarray) -> np.ndarray:
    """Two-segment within-group sum of squares for every split and truncation.

    Parameters
    ----------
    values : float64 array of shape (n, d), n >= 4

    Returns
    -------
    table : float64 array of shape (d, n - 3)
        ``table[T - 1, k - 2]`` is the total squared deviation of rows
        1..k from their mean plus rows k+1..n from theirs, restricted to
        the first T coordinates.  It is the transpose of a C-ordered
        (n - 3, d) block, so each row is a strided view of it.

    The table is built in (k, T) layout over the split rows only, in
    three (n, d)-sized buffers, with in-place squares, running sums,
    divisions and subtractions.  Each element still goes through
    ``tss - head / k - tail / (n - k)`` in that order, so the result is
    bit-identical to the direct (T, k) formula,
    ``tests/helpers.objective_table_reference``.
    """
    n = values.shape[0]
    ks = np.arange(2, n - 1)[:, None]
    # Column totals via cumsum, not einsum/sum: their accumulation order is
    # shape-independent, so the table of a column-truncated matrix matches
    # the corresponding rows of the full table bit for bit.
    squares = values * values
    np.cumsum(squares, axis=0, out=squares)
    tss = np.cumsum(squares[-1])
    head = np.cumsum(values, axis=0)
    out = head[1 : n - 2]
    tail = head[-1] - out
    out *= out
    tail *= tail
    np.cumsum(out, axis=1, out=out)
    np.cumsum(tail, axis=1, out=tail)
    out /= ks
    tail /= n - ks
    np.subtract(tss, out, out=out)
    out -= tail
    return out.T


def objective_row(values: np.ndarray, T: int) -> np.ndarray:
    """Row T of the objective table: every split at one truncation level.

    Parameters
    ----------
    values : float64 array of shape (n, d), n >= 4
    T : int in [1, d]

    Returns
    -------
    row : float64 array of shape (n - 3,)
        Equal, bit for bit, to ``objective_table(values[:, :T])[T - 1]``.

    Works on the first T columns, transposed to (T, n), and adds the
    energies over T one column at a time: the table's own order.  A
    numpy reduction over T (``np.sum``, ``np.add.reduce``) may sum
    pairwise instead, and then the last bits differ.
    """
    n = values.shape[0]
    ks = np.arange(2, n - 1)
    columns = np.ascontiguousarray(values[:, :T].T)
    head = np.cumsum(columns, axis=1)
    tss = np.cumsum(np.cumsum(columns * columns, axis=1)[:, -1])[-1]
    split_head = head[:, 1 : n - 2]
    tail = head[:, -1:] - split_head
    split_head *= split_head
    tail *= tail
    head_energy = split_head[0].copy()
    tail_energy = tail[0].copy()
    for t in range(1, T):
        head_energy += split_head[t]
        tail_energy += tail[t]
    return tss - head_energy / ks - tail_energy / (n - ks)


def subsample_argmins(values: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Best split of every row subset at every truncation level.

    Parameters
    ----------
    values : float64 array of shape (n, d)
    rows : integer array of shape (s, m), m >= 4; each row lists the
        sorted row indices of one subset of ``values``

    Returns
    -------
    argmins : intp array of shape (s, d)
        ``argmins[i, T - 1]`` equals
        ``argmin(objective_table(values[rows[i]])[T - 1])`` exactly.

    The loop runs over T, one column at a time, for all subsets at once,
    and keeps (s, m) and (s, d) buffers, never an (s, m, d) stack.  Every
    sum is accumulated in the same order as in ``objective_table``: down
    the rows within a column, then across the columns; so the values
    compared, and hence the first-minimum tie-break, are identical.
    """
    s, m = rows.shape
    d = values.shape[1]
    ks = np.arange(2, m - 1)
    rest = m - ks
    # Per-subset column sums of squares, summed down the sorted rows.
    sq = values * values
    col_sq = np.zeros((s, d))
    for i in range(m):
        col_sq += sq[rows[:, i]]
    tss = np.cumsum(col_sq, axis=1)
    columns = np.ascontiguousarray(values.T)
    head = np.empty((s, m))
    tail = np.empty((s, m - 3))
    head_energy = np.zeros((s, m - 3))
    tail_energy = np.zeros((s, m - 3))
    obj = np.empty((s, m - 3))
    scratch = np.empty((s, m - 3))
    out = np.empty((d, s), dtype=np.intp)
    for t in range(d):
        np.cumsum(columns[t][rows], axis=1, out=head)
        split_head = head[:, 1 : m - 2]
        np.subtract(head[:, -1:], split_head, out=tail)
        head_energy += np.multiply(split_head, split_head, out=scratch)
        tail_energy += np.multiply(tail, tail, out=scratch)
        np.divide(head_energy, ks, out=obj)
        np.subtract(tss[:, t : t + 1], obj, out=obj)
        obj -= np.divide(tail_energy, rest, out=scratch)
        out[t] = obj.argmin(axis=1)
    return out.T
