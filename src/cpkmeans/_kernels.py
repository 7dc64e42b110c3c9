"""Hot numeric kernels: the two-segment SSE table, one row of it, and method 2's argmins.

Every fit minimises, over the split row k in {2, ..., n-2}, the
within-segment sum of squares of the first T coordinates.  With each
column centred, ``c = Y - mean(Y)``, and ``S_k = c_1 + ... + c_k``, it is

    W(k, T) = tss_T - n / (k (n - k)) * sum_{t <= T} S_{k,t}^2,

the total sum of squares less the weighted CUSUM energy (Wang & Samworth
2018).  A column is centred in two steps that stay exact near a large
offset: it first loses its first value, giving x; then, with
``P_k = x_1 + ... + x_k``, ``S_k = P_k - (k / n) P_n`` and
``tss = sum x^2 - P_n^2 / n``.

``objective_table`` computes W for every (k, T) of one matrix;
``objective_row`` only the row of one T, as a fixed-T fit needs;
``subsample_argmins`` only the argmin over k of each row, for a stack
of row subsets at once.  All three do the same operations in the same
order (``sum x^2`` is numpy's pairwise sum over one contiguous column,
whose order depends only on n; P_k and the sums over T are running
sums), so the partial kernels equal the table's row and its per-subset
argmins bit for bit.  ``benchmarks/bench_objective_table.py`` times them.
"""

import numpy as np


def _shift(columns: np.ndarray) -> np.ndarray:
    """Subtract each row's first value from a C-ordered (..., n) array, in place.

    Returns each row's sum of squares after the shift.
    """
    columns -= columns[..., :1].copy()
    return np.add.reduce(columns * columns, axis=-1)


def _weights(n: int) -> np.ndarray:
    """CUSUM weights n / (k (n - k)) for the splits k = 2, ..., n - 2."""
    ks = np.arange(2, n - 1)
    return n / (ks * (n - ks))


def objective_table(values: np.ndarray) -> np.ndarray:
    """Two-segment within-group sum of squares for every split and truncation.

    Parameters
    ----------
    values : float64 array of shape (n, d), n >= 4

    Returns
    -------
    table : float64 array of shape (d, n - 3)
        ``table[T - 1, k - 2]`` is ``W(k, T)``: the total squared deviation
        of rows 1..k from their mean plus rows k+1..n from theirs, over the
        first T coordinates.  It is the transpose of a C-ordered
        (n - 3, d) block, so each row is a strided view of it.
    """
    n, d = values.shape
    ks = np.arange(2, n - 1)
    columns = np.array(values.T, order="C")
    squares = _shift(columns)
    prefix = np.empty((n, d))
    np.cumsum(columns.T, axis=0, out=prefix)
    total = prefix[-1]
    tss = np.cumsum(squares - total * total / n)
    out = prefix[1 : n - 2]
    out -= (ks / n)[:, None] * total
    out *= out
    np.cumsum(out, axis=1, out=out)
    out *= _weights(n)[:, None]
    np.subtract(tss, out, out=out)
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
    numpy reduction over T may sum pairwise instead.
    """
    n = values.shape[0]
    ks = np.arange(2, n - 1)
    columns = np.array(values[:, :T].T, order="C")
    squares = _shift(columns)
    np.cumsum(columns, axis=1, out=columns)
    total = columns[:, -1:]
    tss = np.cumsum(squares - total[:, 0] * total[:, 0] / n)[-1]
    cusum = columns[:, 1 : n - 2]
    cusum -= total * (ks / n)
    cusum *= cusum
    energy = cusum[0].copy()
    for t in range(1, T):
        energy += cusum[t]
    return tss - energy * _weights(n)


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
    and keeps (s, m) buffers, never an (s, m, d) stack.  Each subset's
    column is shifted by its own first value and centred on its own
    total, in the table's operations and order, so the values compared,
    and hence the first-minimum tie-break, are identical.  The shifted
    values are gathered from one small table per column, of the column
    less each distinct first value, in place of a subtraction per subset.
    """
    s, m = rows.shape
    n, d = values.shape
    ratios = np.arange(2, m - 1) / m
    weights = np.tile(_weights(m), (s, 1))
    firsts, slot = np.unique(rows[:, 0], return_inverse=True)
    index = rows + (slot * n)[:, None]
    columns = np.ascontiguousarray(values.T)
    tss = np.zeros((s, 1))
    energy = np.zeros((s, m - 3))
    obj = np.empty((s, m - 3))
    out = np.empty((d, s), dtype=np.intp)
    for t in range(d):
        column = columns[t]
        cusum = (column - column[firsts][:, None]).ravel()[index]
        squares = np.add.reduce(cusum * cusum, axis=1)
        np.cumsum(cusum, axis=1, out=cusum)
        total = cusum[:, -1:]
        tss[:, 0] += squares - total[:, 0] * total[:, 0] / m
        np.multiply(total, ratios, out=obj)
        np.subtract(cusum[:, 1 : m - 2], obj, out=obj)
        energy += np.multiply(obj, obj, out=obj)
        np.multiply(energy, weights, out=obj)
        np.subtract(tss, obj, out=obj)
        obj.argmin(axis=1, out=out[t])
    return out.T
