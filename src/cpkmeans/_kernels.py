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
``subsample_argmins`` only a minimiser over k of each row, for a stack
of row subsets at once: the first maximum of the weighted energy, the
float the table subtracts from tss_T, since tss_T does not depend on k.
All three do the same operations in the same order (``sum x^2`` is
numpy's pairwise sum over one contiguous column, whose order depends
only on n; P_k and the sums over T are running sums), so the row equals
the table's row bit for bit, and as ``fl(tss_T - x)`` never rises as x
grows, each pick is a minimiser of its per-subset row bit for bit.
``tests/test_kernels.py`` checks the table against the direct formula
in ``tests/helpers.py`` and each partial kernel against the table.
``studybench/run.py --trace 1`` times only ``objective_table``, the
sweep's kernel, so the traced ``kernel.*`` metrics of rate and
selection, whose fits call the other two, read 0.  The table comes back
row-contiguous, so a sweep takes the argmin of every row without a copy.

The table and the row take every buffer they make, the returned table
included, from a per-thread workspace, and so does
``model.generate_sample`` for its draw.  A buffer is asked for by role
and shape, and the role gets back the memory it last handed out if that
is large enough and no array on it is alive, and new memory otherwise.
So a result a caller holds, or any view of one, is never written again,
each call or study trial reuses the last one's memory, and the rows of
one sample at several T share it.  Arrays alive at the same time need
their own roles; a kernel drops a spent one before it asks its role
again.

A study calls the kernels thousands of times at a few shapes, and fresh
arrays of 150-320 KB would go back to the OS after each call and be
faulted in again on the next: some 100 page faults per sweep trial and
350 per rate trial at n = 4000, which cost more than the arithmetic.
The workspace keeps each role's memory for the thread's lifetime, up to
8 MB; a larger call allocates and frees its own arrays, so one large
call does not pin its size.
"""

import math
import threading
import weakref

import numpy as np


# Memory of up to this many float64 values (8 MB) is kept between calls.
_KEEP = 1 << 20


class _Workspace(threading.local):
    """One thread's memory, kept between calls: the float64 memory each role last handed out."""

    def __init__(self):
        self.handed = {}

    def empty(self, role: str, shape: tuple[int, ...]) -> np.ndarray:
        """Like ``np.empty(shape)``, but on the memory this role handed out last
        if that is large enough and no array on it is alive."""
        size = math.prod(shape)
        if size > _KEEP:
            return np.empty(shape)
        memory, flat = self.handed.get(role, (None, None))
        # Every view of ``flat`` has it as its base, so it lives while any of them does.
        if memory is None or len(memory) < size or flat() is not None:
            memory = memoryview(np.empty(size))
        array = np.frombuffer(memory)
        self.handed[role] = memory, weakref.ref(array)
        return array[:size].reshape(shape)


_workspace = _Workspace()


def _shift(columns: np.ndarray, squares: np.ndarray) -> np.ndarray:
    """Subtract each row's first value from a C-ordered (..., n) array, in place.

    Returns each row's sum of squares after the shift; ``squares``, a
    C-ordered array of the columns' shape, holds the squares themselves.
    """
    columns -= columns[..., :1].copy()
    return np.add.reduce(np.multiply(columns, columns, out=squares), axis=-1)


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
        first T coordinates.
    """
    n, d = values.shape
    ks = np.arange(2, n - 1)
    columns = _workspace.empty("scratch", (d, n))
    np.copyto(columns, values.T)
    prefix = _workspace.empty("table", (n, d))
    # The squares go to the output's memory, which the cumsum then overwrites.
    squares = _shift(columns, prefix.reshape(d, n))
    np.cumsum(columns.T, axis=0, out=prefix)
    total = prefix[-1]
    tss = np.cumsum(squares - total * total / n)
    out = prefix[1 : n - 2]
    del columns  # spent: the centring product takes their memory
    out -= np.multiply((ks / n)[:, None], total, out=_workspace.empty("scratch", out.shape))
    out *= out
    np.cumsum(out, axis=1, out=out)
    out *= _weights(n)[:, None]
    np.subtract(tss, out, out=out)
    # The centring product is dead, so its memory takes the rows of the table.
    table = _workspace.empty("scratch", (d, n - 3))
    np.copyto(table, out.T)
    return table


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
    columns = _workspace.empty("scratch", (T, n))
    np.copyto(columns, values[:, :T].T)
    squares = _shift(columns, _workspace.empty("squares", (T, n)))
    np.cumsum(columns, axis=1, out=columns)
    total = columns[:, -1:]
    tss = np.cumsum(squares - total[:, 0] * total[:, 0] / n)[-1]
    cusum = columns[:, 1 : n - 2]
    cusum -= np.multiply(total, ks / n, out=_workspace.empty("squares", cusum.shape))
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
        ``argmins[i, T - 1]``, the first maximiser of subset i's weighted
        energy at T, is a minimiser of ``objective_table(values[rows[i]])[T - 1]``
        bit for bit, and that row's ``argmin`` wherever its minimum is unique.

    The loop runs over T, one column at a time, for all subsets at once,
    and keeps (s, m) arrays, never an (s, m, d) stack.  Each subset's
    column is shifted by its own first value and centred on its own
    total, in the table's operations and order, so each energy is the
    float the table subtracts from tss_T.  The shifted
    values are gathered from one small table per column, of the column
    less each distinct first value, in place of a subtraction per subset.
    The distinct first values are the nonzero bins of their count, and
    each subset's slot in the table is a binary search among them, so
    nothing is sorted: a first ``np.unique`` call would add about 0.45 MB
    to the process's memory.
    """
    s, m = rows.shape
    n, d = values.shape
    ratios = np.arange(2, m - 1) / m
    weights = np.tile(_weights(m), (s, 1))
    firsts = np.flatnonzero(np.bincount(rows[:, 0], minlength=n))
    slot = np.searchsorted(firsts, rows[:, 0])
    index = rows + (slot * n)[:, None]
    columns = np.ascontiguousarray(values.T)
    energy = np.zeros((s, m - 3))
    obj = np.empty((s, m - 3))
    out = np.empty((d, s), dtype=np.intp)
    for t in range(d):
        column = columns[t]
        cusum = (column - column[firsts][:, None]).ravel()[index]
        np.cumsum(cusum, axis=1, out=cusum)
        total = cusum[:, -1:]
        np.multiply(total, ratios, out=obj)
        np.subtract(cusum[:, 1 : m - 2], obj, out=obj)
        energy += np.multiply(obj, obj, out=obj)
        np.multiply(energy, weights, out=obj)
        obj.argmax(axis=1, out=out[t])
    return out.T
