"""Sorted-curve oracles that the sort-free kernels are tested against.

Each reads curves from their knot matrices (`_batch.batch_curves`), the way
the library read them before the LP-dual kernels (`_batch.conjugate_rows`,
`_batch.conjugates`) replaced them: row-versus-row domination as
`curve_dominates` decides it, and domination of a fixed curve.  `segment_index`
picks the segment that `eval_rows_at` reads.

`curve_thermo_majorizes` and `curve_compare` are the bodies `thermo_majorizes`
and `compare` had before they read the conjugate margin
(`_batch.dominance_margins`): both states' sorted curves (`tm_curve`, which
refuses some curves at large beta) compared by `curve_dominates`.

The scalar classifiers at the end are the bodies `catalysable_future_member`,
`catalysable_past_member`, `in_region_Ti` and `in_TN` had before they became
one-row calls of the mask kernels: each builds the state's own curve
(`tm_curve`) or its decisive future extreme point (`vertex_for_order`) and
compares it as `curve_compare` and `curve_dominates` do.
"""

import numpy as np

from thermocone import (
    Relation,
    curve_dominates,
    tangent_bound_curve,
    tm_curve,
    unitary_entanglable,
    vertex_for_order,
)
from thermocone.core import EPS_CMP, TMCurve, _probs
from thermocone.entanglement import _DECISIVE_ORDER


def segment_index(xs: np.ndarray, x0: float) -> np.ndarray:
    """Index of the segment holding the abscissa x0 in each row of knots `xs` (last axis).

    A knot above x0 by at most 1e-15 relative counts as reached, so x0 read
    off a subset sum rounded differently still lands on that knot's segment.
    The slack is relative: knots below 1e-15 (Gibbs weights at large beta*dE)
    lie on segments with slopes near 1/gamma, where an absolute slack would
    skip whole segments.
    """
    return np.clip((xs <= x0 + 1e-15 * x0).sum(axis=-1) - 1, 0, xs.shape[-1] - 2)


def eval_rows_at(xs: np.ndarray, ys: np.ndarray, x0: float) -> np.ndarray:
    """Evaluate every row's piecewise-linear curve at the scalar abscissa x0 (`segment_index`).

    No library path calls it: the masks read curves through `conjugate_rows`.
    It stays as the sorted-curve oracle the tests compare them with.
    """
    j = segment_index(xs, x0)
    rows = np.arange(xs.shape[0])
    x_lo = xs[rows, j]
    x_hi = xs[rows, j + 1]
    y_lo = ys[rows, j]
    y_hi = ys[rows, j + 1]
    t = (x0 - x_lo) / (x_hi - x_lo)
    return y_lo + t * (y_hi - y_lo)


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
    """Mask of rows whose curve lies everywhere above the fixed curve.

    The test oracle of the past (`volume._Chunk.above`), which reads the same
    check off `conjugate_rows` with no sort; no library path calls it.
    """
    ok = np.all(ys >= np.interp(xs, curve.xs, curve.ys) - tol, axis=1)
    for x0, y0 in zip(curve.xs[1:-1], curve.ys[1:-1]):
        ok &= eval_rows_at(xs, ys, float(x0)) >= y0 - tol
    return ok


def curve_thermo_majorizes(p, q, spec):
    """True iff the curve of `p` lies above the curve of `q` everywhere."""
    return curve_dominates(tm_curve(p, spec), tm_curve(q, spec))


def curve_margin(p, q, spec):
    """Least gap c_p - c_q between the sorted curves, read at their union abscissae as `curve_dominates` reads them.

    `curve_thermo_majorizes` holds iff this is >= -EPS_CMP, up to the
    rounding of the one subtraction.
    """
    cp, cq = tm_curve(p, spec), tm_curve(q, spec)
    xs = np.union1d(cp.xs, cq.xs)
    return float(np.min(np.interp(xs, cp.xs, cp.ys) - np.interp(xs, cq.xs, cq.ys)))


def curve_compare(p, q, spec):
    """Relate `p` to `q`: Majorizes / MajorizedBy / Equivalent / Incomparable."""
    forward = curve_thermo_majorizes(p, q, spec)
    backward = curve_thermo_majorizes(q, p, spec)
    if forward and backward:
        return Relation.EQUIVALENT
    if forward:
        return Relation.MAJORIZES
    if backward:
        return Relation.MAJORIZED_BY
    return Relation.INCOMPARABLE


def in_region_Ti(q, p, spec, i):
    bound = tangent_bound_curve(p, spec, i)
    return curve_dominates(bound, tm_curve(q, spec))


def catalysable_future_member(q, p, spec):
    if curve_compare(p, q, spec) is not Relation.INCOMPARABLE:
        return False
    cq = tm_curve(q, spec)
    d = _probs(p).size
    return curve_dominates(tangent_bound_curve(p, spec, 1), cq) and curve_dominates(
        tangent_bound_curve(p, spec, d), cq
    )


def catalysable_past_member(q, p, spec):
    if curve_compare(p, q, spec) is not Relation.INCOMPARABLE:
        return False
    cq = tm_curve(q, spec)
    d = _probs(p).size
    return not curve_dominates(tangent_bound_curve(p, spec, 1), cq) and not curve_dominates(
        tangent_bound_curve(p, spec, d), cq
    )


def in_TN(p, cfg):
    vertex = vertex_for_order(p, cfg.spectrum(), _DECISIVE_ORDER)
    return not unitary_entanglable(vertex)
