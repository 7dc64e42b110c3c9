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
only on n; P_k and the sums over T are running sums, in order also in
method 2's blocks of T), so the row equals the table's row bit for bit,
and as ``fl(tss_T - x)`` never rises as x grows, each pick is a
minimiser of its per-subset row bit for bit.
``tests/test_kernels.py`` checks the table against the direct formula
in ``tests/helpers.py`` and each partial kernel against the table.
``studybench/run.py --trace 1`` times only ``objective_table``, the
kernel of every trial with several rows, so its traced ``kernel.*``
metrics leave out only rate's fits and method 2, which call the other
two.  The table comes back row-contiguous, so ``sweep_estimate`` takes
the argmin of every row without a copy.

The table and the row take every buffer they make, the returned table
included, from a per-thread workspace, and so do
``model.generate_sample`` for its draw and method 2 for its blocks.  A
buffer is asked for by role and shape, and the role gets back the
memory it last handed out if that is large enough and no array on it
is alive, and new memory otherwise.
So a result a caller holds, or any view of one, is never written again,
each call or study trial reuses the last one's memory, and the rows of
one sample at several T share it.  Arrays alive at the same time need
their own roles; a kernel drops a spent one before it asks its role
again.

A study calls the kernels thousands of times at a few shapes, and fresh
arrays of 150-320 KB would go back to the OS after each call and be
faulted in again on the next: some 100 page faults per sweep trial and
350 per rate trial at n = 4000, which cost more than the arithmetic.
The workspace keeps each role's memory, up to 8 MB, until the thread
ends or ``release`` drops it, as ``experiments.run_study`` does once its
trials end; an array a caller still holds keeps its memory through its
base.  A larger call allocates and frees its own arrays, so one large
call does not pin its size.
"""

import math
import threading
import weakref

import numpy as np


# Memory of up to this many float64 values (8 MB) is kept between calls.
_KEEP = 1 << 20
# ``subsample_argmins`` works on blocks of this many T columns.
_BLOCK = 4


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

    def release(self):
        """Drop the memory this thread keeps; arrays still alive keep theirs."""
        self.handed = {}


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

    The loop runs over blocks of ``_BLOCK`` T columns for all subsets at
    once, on two buffers from the workspace's ``table`` and ``scratch``
    roles, which no table holds while method 2 runs in a study trial.
    Each running sum still adds left to right and each energy one T at
    a time, as in the table, so each energy is the float the table
    subtracts from tss_T, and the argmax over k keeps its first maximum.
    The shifted values are gathered from one small table per block, of
    the columns less each distinct first value.  The distinct first
    values are the nonzero bins of their count, and each subset's slot
    in the table is a binary search among them, so nothing is sorted: a
    first ``np.unique`` call would add about 0.45 MB to the process's
    memory.
    """
    (s, m), (n, d) = rows.shape, values.shape
    ratios = np.arange(2, m - 1)[:, None] / m
    weights = _weights(m)
    firsts = np.flatnonzero(np.bincount(rows[:, 0], minlength=n))
    slot = np.searchsorted(firsts, rows[:, 0])
    index = np.ascontiguousarray((rows + (slot * n)[:, None]).T)
    gathered = _workspace.empty("table", (m * s * _BLOCK,))
    squares = _workspace.empty("scratch", (m * s * _BLOCK,))
    energy = np.zeros((s, m - 3))
    out = np.empty((d, s), dtype=np.intp)
    for t in range(0, d, _BLOCK):
        width = min(_BLOCK, d - t)
        if t == 0 or width < _BLOCK:  # the first block, or a ragged last one
            sums = gathered[: m * s * width].reshape(m, s, width)
            running = list(sums)
        block = values[:, t : t + width]
        np.take((block - block[firsts][:, None]).reshape(-1, width), index, axis=0, out=sums)
        for prev, row in zip(running, running[1:]):
            np.add(prev, row, out=row)
        cusum = sums.reshape(m, s * width)[1 : m - 2]
        # The scratch memory takes the centring product, then, once spent, the T-first squares.
        square = squares[: cusum.size].reshape(width, s, m - 3)
        cusum -= np.multiply(ratios, sums[m - 1].reshape(-1), out=square.reshape(cusum.shape))
        cusum *= cusum
        np.copyto(square, cusum.reshape(m - 3, s, width).transpose(2, 1, 0))
        square[0] += energy
        for j in range(1, width):
            square[j] += square[j - 1]
        np.copyto(energy, square[-1])
        square *= weights
        square.argmax(axis=2, out=out[t : t + width])
    return out.T
