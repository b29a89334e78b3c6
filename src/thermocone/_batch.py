"""Vectorised curve and vertex kernels.

Rows of a sample matrix are treated as independent states, read through their
subset masses or their conjugates, so whole batches can be classified with no
sort and no Python-level loop over rows.  Extreme points of the cones are
built the same way, one row per level order.  A question about one state is
a one-row call of the same kernels: `catalysable_future_member`,
`catalysable_past_member`, `in_region_Ti` and `in_TN` classify the state as
the only row of a batch, so each question has one classifier, with the
tolerances and tie-breaks of the sampled estimates.
"""

from __future__ import annotations

import math
import mmap
import threading
from contextlib import contextmanager
from functools import cache
from itertools import permutations

import numpy as np

from .core import MAX_ENUM_DIM, _freeze, _simplex_rows

_BLOCK_BYTES = 8 << 20  # scratch stack of a Monte-Carlo call (64 row vectors of a full chunk), a multiple of 2 MiB


@cache
def perm_matrix(d: int) -> np.ndarray:
    """Read-only (d!, d) matrix of every level order, lexicographic, built once per d."""
    if d > MAX_ENUM_DIM:
        raise ValueError(f"dimension {d} above enumeration cap {MAX_ENUM_DIM}")
    return _freeze(np.array(list(permutations(range(d))), dtype=np.intp).reshape(-1, d))


def order_vertices(heights, gamma: np.ndarray, perms: np.ndarray) -> np.ndarray:
    """Extreme point of each level order in `perms`.

    `heights` maps the knots cumsum(gamma[order]) to the bounding curve as a
    fresh array; with the last height pinned to 1, the height increments,
    clamped at 0, are the populations.  They are written into the knots'
    memory instead of a third (n, d) array.  Adding the knots' columns in
    place, instead of numpy's accumulate along each short row, gives the
    same doubles and saves a tenth of a 5040-order call, but costs a few
    microseconds on the few-row calls of `cooling`, more than it saves.
    """
    knots = np.cumsum(gamma[perms], axis=1)
    h = heights(knots)
    h[:, -1] = 1.0
    h[:, 1:] = h[:, 1:] - h[:, :-1]
    knots[np.arange(len(perms))[:, None], perms] = np.maximum(h, 0.0, out=h)
    return knots


def distinct_vertices(heights, gamma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (int8 orders, checked vertices) over every order; equal vertices keep their first order.

    Two vertices are equal when their rows rounded to 10 decimals are (-0.0
    and 0.0 compare equal, in the lexsort too).  A stable lexsort puts equal
    keys next to each other in index order, so each run's first index is the
    order to keep; the orders come out in lexicographic order.  The lexsort
    reads the columns of the (n, d) keys with a stride; rounding into a
    contiguous (d, n) block first measured no faster.
    """
    perms = perm_matrix(gamma.size)
    rows = order_vertices(heights, gamma, perms)
    keys = np.round(rows, 10)
    idx = np.lexsort(keys.T)
    keys = keys[idx]
    first = np.ones(len(idx), dtype=bool)
    first[1:] = np.any(keys[1:] != keys[:-1], axis=1)
    keep = np.sort(idx[first])
    return _freeze(perms[keep].astype(np.int8)), _simplex_rows(rows[keep])


class Workspace(threading.local):
    """Scratch memory that the chunks of one Monte-Carlo call reuse, taken as a stack.

    `take(shape)` cuts an uninitialised array from the top of the stack, and
    `with ws.frame():` gives back, on exit, everything taken inside it: an
    array stays valid until the frame it was taken in ends, and a kernel
    takes the arrays it returns before it opens its own frame.
    `_over_chunks` runs each chunk in a frame, so every chunk of a call
    writes its temporaries into the same memory instead of allocating fresh
    chunk-sized arrays, which the allocator may hand back to the operating
    system after every chunk and fault in again for the next.  Each thread
    has its own stack, which lives as long as the workspace: callers make
    one per call and share it with no other call.

    The stack is a private anonymous mapping of `_BLOCK_BYTES` (more only if
    a chunk needs more; arrays already taken keep the old one alive), which
    the workspace unmaps when it goes: a call faults the pages it uses in
    once, its memory never outlives it, and it never lands in the heap the
    rest of the program allocates from.  The first 2 MiB, which a chunk of
    a few levels nearly fills, is advised for a transparent huge page, one
    fault instead of 512 where the kernel allows it; the rest stays in
    4 KiB pages, so a call holds little more memory than its stack's depth.
    """

    def __init__(self):
        self._block = np.empty(0, dtype=np.uint8)
        self._top = 0  # bytes of the block in use

    def take(self, shape: tuple[int, ...], dtype=float) -> np.ndarray:
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        start = self._top
        self._top = start + -(-nbytes // 64) * 64
        if self._top > self._block.size:
            self._block = _mapping(max(self._top, _BLOCK_BYTES))
        return self._block[start : start + nbytes].view(dtype).reshape(shape)

    @contextmanager
    def frame(self):
        top = self._top
        try:
            yield
        finally:
            self._top = top


class _Allocations:
    """The workspace of a kernel called on its own: fresh arrays, and frames that give nothing back."""

    take = staticmethod(np.empty)

    @contextmanager
    def frame(self):
        yield


FRESH = _Allocations()


def _mapping(nbytes: int) -> np.ndarray:
    # a fresh private anonymous mapping as bytes, unmapped once no array uses it
    if not hasattr(mmap, "MAP_PRIVATE"):  # no POSIX mmap
        return np.empty(nbytes, dtype=np.uint8)
    buf = mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    try:
        buf.madvise(mmap.MADV_HUGEPAGE, 0, min(nbytes, 2 << 20))
    except (AttributeError, OSError):  # no transparent huge pages here: 4 KiB pages
        pass
    return np.frombuffer(buf, dtype=np.uint8)


def subset_masses(cols: np.ndarray, ws: Workspace = FRESH) -> np.ndarray:
    """Mass of each column of the (d, n) array `cols` on every nonempty proper level subset.

    Row k of the (2^d - 2, n) result belongs to the subset with bitmask k + 1
    and sums its levels in increasing order.  It is built by doubling: the
    subsets whose highest level is b are those below 2^b plus level b, so d
    additions make every row.  No matrix product is used: one large enough
    goes through multithreaded BLAS, whose worker threads then spin on a
    second core after the call returns.  The result is taken from `ws`
    (`Workspace`).
    """
    d, n = cols.shape
    out = ws.take((1 << d, n))
    out[0] = 0.0
    for b in range(d):
        np.add(out[: 1 << b], cols[b], out=out[1 << b : 2 << b])
    return out[1:-1]


def extreme_slopes(cols: np.ndarray, gamma: np.ndarray, ws: Workspace = FRESH) -> tuple[np.ndarray, np.ndarray]:
    """Largest and smallest slope q_i / gamma_i of each column q of the (d, n) array `cols`.

    Both are taken from `ws` (`Workspace`).  A maximum or minimum is exact,
    so taking it level by level gives the doubles that `ratios.max(axis=0)`
    and `ratios.min(axis=0)` give.
    """
    n = cols.shape[1]
    s1, sd = ws.take((n,)), ws.take((n,))
    np.divide(cols[0], gamma[0], out=s1)
    sd[:] = s1
    with ws.frame():
        ratio = ws.take((n,))
        for q, g in zip(cols[1:], gamma[1:]):
            np.divide(q, g, out=ratio)
            np.maximum(s1, ratio, out=s1)
            np.minimum(sd, ratio, out=sd)
    return s1, sd


def tangent_cap(s1, sd, x, out: np.ndarray | None = None, tail: np.ndarray | None = None) -> np.ndarray:
    """min(s1 x, 1 - sd (1 - x)), the lower of a state's two tangent lines at x.

    s1 and sd are the largest and smallest slopes (scalars or one per row) and
    x the abscissae.  The result is written into `out` and the second line
    into `tail`, scratch of the result's shape (say from a `Workspace`), or
    into fresh arrays where they are None.  It is not clamped at 1, so
    callers that need heights in [0, 1] clamp it themselves.
    """
    tail = np.multiply(sd, np.subtract(1.0, x), out=tail)
    np.subtract(1.0, tail, out=tail)
    out = np.multiply(s1, x, out=out)
    return np.minimum(out, tail, out=out)


def conjugates(cols: np.ndarray, gamma: np.ndarray, slopes: np.ndarray, ws: Workspace = FRESH) -> np.ndarray:
    """phi_q(s) = sum_i max(q_i - s gamma_i, 0) for each column q of the (m, n) array `cols`.

    Column j of the (k, n) array `slopes` holds the k slopes at which column
    j of `cols` is read; a (k, 1) array holds k slopes shared by every
    column.  The (k, n) result is taken from `ws` (`Workspace`).
    phi_q is the hockey-stick form of thermomajorisation: it is convex and
    piecewise linear in s, with breakpoints at the slopes q_i / gamma_i, and
    it is the Legendre conjugate of q's curve, phi_q(s) = max_x [c_q(x) - s x].
    """
    phi = ws.take((len(slopes), cols.shape[1]))
    phi.fill(0.0)
    with ws.frame():
        term = ws.take(phi.shape)  # q_i - s gamma_i
        scaled = term if slopes.shape == phi.shape else ws.take(slopes.shape)  # s gamma_i
        for g, q in zip(gamma, cols):
            np.subtract(q, np.multiply(slopes, g, out=scaled), out=term)
            phi += np.maximum(term, 0.0, out=term)
    return phi


def dominance_margins(upper: np.ndarray, lower: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Margin by which each column P of the (m, n) array `upper` thermomajorises the same column Q of `lower`.

    The (n,) result is min over P's own slopes s = P_i / gamma_i of
    phi_P(s) - phi_Q(s) (`conjugates`), and P thermomajorises Q within tol
    (c_P >= c_Q - tol on [0, 1]) iff the margin is >= -tol: no curve is
    built and no column sorted.  `compare` reads both directions of a pair,
    and `search_qubit_catalyst` every grid point, from one call.

    Proof.  phi_P is the Legendre conjugate of P's concave curve,
    phi_P(s) = max_x [c_P(x) - s x] (the maximum sits at a knot, the mass of
    the prefix {i : P_i / gamma_i > s} of P's beta-order), and conversely
    c_P(x) = min over s >= 0 of [s x + phi_P(s)] by LP duality
    (`conjugate_rows`).  So c_P >= c_Q - tol everywhere gives
    phi_P(s) >= max_x [c_Q(x) - s x] - tol = phi_Q(s) - tol, and
    phi_P >= phi_Q - tol for every s >= 0 gives
    c_P(x) >= min_s [s x + phi_Q(s)] - tol = c_Q(x) - tol.  Both conjugates
    are convex and piecewise linear, equal to 1 at s = 0, and phi_P bends
    only at P's slopes.  Between s = 0 and the smallest slope, and between
    two consecutive slopes, phi_P is linear and phi_Q convex, so
    phi_P - phi_Q is concave there and smallest at an end: s = 0, where it
    is 0, or one of P's slopes.  Beyond the largest slope phi_P = 0 and
    -phi_Q does not fall, so the difference is smallest at that slope.  So
    the margin is the minimum over every s >= 0, and as the equivalence
    holds for every tol >= 0, it equals min_x [c_P(x) - c_Q(x)] in exact
    arithmetic.  This takes columns that sum to 1; a column that `Dist`
    accepts with a sum off 1 (by up to EPS_SUM) is still read at P's slopes
    only, with no curve pinned to (1, 1).

    Rounding.  Every unclamped term P_i - s gamma_i or Q_i - s gamma_i lies
    in (0, 1] with s gamma_i < 1, so each is off by at most about 1.5 ulps
    of 1, and each conjugate, a sum of m such terms, by about 2m: the
    margin is off by at most about 4m + 1 ulps of 1 (under 1.5e-14 up to
    m = 16, the joint states of the search at d = 8).  That is as small as
    the sorted curves' own interpolation error, so only a pair whose margin
    lies within that band of -tol can get another verdict than the
    sorted-curve test oracle (`curve_compare` in `tests/curve_oracles.py`)
    gives it.  Where the oracle's `tm_curve` refuses a curve (a Gibbs
    weight lost to rounding, or a knot off its hull) the margin answers.
    """
    slopes = upper / gamma[:, None]
    return np.min(conjugates(upper, gamma, slopes) - conjugates(lower, gamma, slopes), axis=0)


def conjugate_rows(cols: np.ndarray, gamma: np.ndarray, ws: Workspace = FRESH) -> tuple[np.ndarray, np.ndarray]:
    """Slopes r_j = q_j / gamma_j and conjugates phi_q(r_j) of each column q of the (d, n) array `cols`.

    The diagonal case of `conjugates`, each column read at its own slopes.
    Both results are (d, n), so each row's curve reads, with no sort, as

        c_q(x) = min(1, min_j [r_j x + phi_q(r_j)])   for x in [0, 1].

    Proof.  c_q(x) is the fractional knapsack max { q.w : gamma.w <= x,
    0 <= w <= 1 }: the greedy fill by falling slope q_i / gamma_i traces
    exactly the knots of the beta-ordered curve.  Its LP dual is
    min over r >= 0 of r x + phi_q(r), with equal value (strong duality; both
    sides are feasible and bounded).  r x + phi_q(r) is piecewise linear in r
    with breakpoints at the r_j and slope x - gamma({i : r_i > r}), which
    rises with r (convex) and is x >= 0 beyond max_j r_j; so its minimum over
    r >= 0 sits at r = 0, where it is sum_i q_i = 1, or at a breakpoint.

    Both results are taken from `ws` (`Workspace`).
    """
    r = np.divide(cols, gamma[:, None], out=ws.take(cols.shape))
    return r, conjugates(cols, gamma, r, ws)

