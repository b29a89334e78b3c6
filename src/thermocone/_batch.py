"""Vectorised curve and vertex kernels.

Rows of a sample matrix are treated as independent states; curves are held as
padded knot matrices so whole batches can be classified without Python-level
loops.  Extreme points of the cones are built the same way, one row per level
order.  Semantics match the scalar functions in `core`/`catalysis` exactly
(same tolerances, same tie-break).
"""

from __future__ import annotations

from functools import cache
from itertools import permutations

import numpy as np

from .core import EPS_CMP, MAX_ENUM_DIM, TMCurve, _freeze, _simplex_rows


@cache
def perm_matrix(d: int) -> np.ndarray:
    """Read-only (d!, d) matrix of every level order, lexicographic, built once per d."""
    if d > MAX_ENUM_DIM:
        raise ValueError(f"dimension {d} above enumeration cap {MAX_ENUM_DIM}")
    return _freeze(np.array(list(permutations(range(d))), dtype=np.intp).reshape(-1, d))


def order_vertices(heights, gamma: np.ndarray, perms: np.ndarray) -> np.ndarray:
    """Extreme point of each level order in `perms`.

    `heights` maps the knots cumsum(gamma[order]) (last pinned to 1) to the
    bounding curve; the height increments, clamped at 0, are the populations.
    """
    knots = np.cumsum(gamma[perms], axis=1)
    knots[:, -1] = 1.0
    h = heights(knots)
    h[:, -1] = 1.0
    h[:, 1:] = h[:, 1:] - h[:, :-1]
    out = np.empty_like(h)
    out[np.arange(len(perms))[:, None], perms] = np.maximum(h, 0.0)
    return out


def distinct_vertices(heights, gamma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(orders, checked vertices) over every order; equal vertices keep their first order.

    Rows rounded to 10 decimals are compared as tuples: `np.unique` would
    compare bytes, telling -0.0 from 0.0, and reorder the rows.
    """
    perms = perm_matrix(gamma.size)
    rows = order_vertices(heights, gamma, perms)
    first: dict[tuple, int] = {}
    for i, key in enumerate(map(tuple, np.round(rows, 10).tolist())):
        first.setdefault(key, i)
    keep = list(first.values())
    return perms[keep], _simplex_rows(rows[keep])


def batch_curves(samples: np.ndarray, gamma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Knot matrices (X, Y) of every row's curve, including the (0,0) knot."""
    ratios = samples / gamma
    order = np.argsort(-ratios, kind="stable", axis=1)
    n, d = samples.shape
    xs = np.cumsum(np.take_along_axis(np.broadcast_to(gamma, (n, d)), order, axis=1), axis=1)
    ys = np.cumsum(np.take_along_axis(samples, order, axis=1), axis=1)
    pad = np.zeros((n, 1))
    xs = np.hstack([pad, xs])
    ys = np.hstack([pad, ys])
    xs[:, -1] = 1.0
    ys[:, -1] = 1.0
    return xs, ys


def eval_rows_at(xs: np.ndarray, ys: np.ndarray, x0: float) -> np.ndarray:
    """Evaluate every row's piecewise-linear curve at the scalar abscissa x0."""
    nseg = xs.shape[1] - 1
    j = np.clip((xs <= x0 + 1e-15).sum(axis=1) - 1, 0, nseg - 1)
    rows = np.arange(xs.shape[0])
    x_lo = xs[rows, j]
    x_hi = xs[rows, j + 1]
    y_lo = ys[rows, j]
    y_hi = ys[rows, j + 1]
    t = (x0 - x_lo) / (x_hi - x_lo)
    return y_lo + t * (y_hi - y_lo)


def fixed_dominates_rows(curve: TMCurve, xs: np.ndarray, ys: np.ndarray, tol: float = EPS_CMP) -> np.ndarray:
    """Mask of rows whose curve lies everywhere below the fixed curve."""
    ok = np.all(np.interp(xs, curve.xs, curve.ys) >= ys - tol, axis=1)
    for x0, y0 in zip(curve.xs[1:-1], curve.ys[1:-1]):
        ok &= y0 >= eval_rows_at(xs, ys, float(x0)) - tol
    return ok


def _interp_rows(x: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Row k's curve (xs[k], ys[k]) at the points x[k], as `np.interp` computes it.

    x must lie in [0, 1] and each row of xs must increase strictly from 0 to 1.
    A point on a knot takes that knot's height; any other point takes
    slope * (x - x_lo) + y_lo on its segment, the formula and operand order of
    `np.interp`, so the values are bit-identical to a per-row `np.interp`.
    """
    rows = np.arange(xs.shape[0])[:, None]
    j = (xs[:, None, :] <= x[:, :, None]).sum(axis=2) - 1
    seg = np.minimum(j, xs.shape[1] - 2)
    slopes = (ys[:, 1:] - ys[:, :-1]) / (xs[:, 1:] - xs[:, :-1])
    inner = slopes[rows, seg] * (x - xs[rows, seg]) + ys[rows, seg]
    return np.where(xs[rows, j] == x, ys[rows, j], inner)


def rows_dominate_rows(
    px: np.ndarray, py: np.ndarray, qx: np.ndarray, qy: np.ndarray, tol: float = EPS_CMP
) -> np.ndarray:
    """Mask of rows k whose curve (px[k], py[k]) lies everywhere above (qx[k], qy[k]).

    Row-wise `curve_dominates`: each curve is evaluated at the other's knots,
    and a curve at its own knots is its knot heights, so together the checks
    cover the union of abscissae with the same tolerance and the same values.
    """
    return np.all(py >= _interp_rows(px, qx, qy) - tol, axis=1) & np.all(
        _interp_rows(qx, px, py) >= qy - tol, axis=1
    )


def rows_dominate_fixed(xs: np.ndarray, ys: np.ndarray, curve: TMCurve, tol: float = EPS_CMP) -> np.ndarray:
    """Mask of rows whose curve lies everywhere above the fixed curve."""
    ok = np.all(ys >= np.interp(xs, curve.xs, curve.ys) - tol, axis=1)
    for x0, y0 in zip(curve.xs[1:-1], curve.ys[1:-1]):
        ok &= eval_rows_at(xs, ys, float(x0)) >= y0 - tol
    return ok
