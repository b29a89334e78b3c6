"""Catalysable regions, tangent vectors and catalyst bounds.

A strict catalyst is an auxiliary system returned exactly unchanged and
uncorrelated.  The region of incomparable targets that such a catalyst could
unlock is bounded by the futures of near-constant-slope "tangent" vectors; the
functions below build those vectors, test region membership, enumerate the
extreme points, and bound the dimension and populations of any viable
catalyst.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._batch import distinct_vertices, dominance_margins, order_vertices, tangent_cap
from .core import (
    Dist,
    EnergySpectrum,
    EPS_CMP,
    QuasiDist,
    Relation,
    TMCurve,
    _matched_gibbs,
    _perm,
    _probs,
    _simplex_rows,
    _slope_order,
    _tangent_bound,
    _union_xs,
    beta_order,
    compare,
    tensor,
    thermo_majorizes,
    tm_curve,
)
from .cones import ConeVertices
from .volume import _Bounds, _Chunk

__all__ = [
    "NotIncomparableError",
    "EmptyIntervalError",
    "TangentVector",
    "DimBound",
    "QubitWindow",
    "tangent_vector",
    "tangent_curve",
    "tangent_bound_curve",
    "project_simplex",
    "catalytic_condition",
    "in_region_Ti",
    "catalysable_future_member",
    "catalysable_past_member",
    "c_plus_vertex",
    "c_plus_vertices",
    "dim_bound",
    "qubit_window",
    "windows_from_bounds",
    "qubit_catalyst_spectrum",
    "verify_catalyst",
    "search_qubit_catalyst",
    "renyi_divergence",
    "alpha_free_energy_check",
]


class NotIncomparableError(ValueError):
    """The pair is comparable, so catalysis bounds do not apply."""


class EmptyIntervalError(ValueError):
    """The first curve never drops below the second one."""


@dataclass(frozen=True, eq=False)
class TangentVector:
    """Quasi-distribution of near-constant slope touching a reference curve.

    `entries` carries the level populations, `n` the 1-based rank of the
    touched segment of the reference state's curve, and `pi` the 0-based level
    order under which the tangent's own curve is drawn.
    """

    entries: QuasiDist
    n: int
    pi: tuple[int, ...]
    projected: bool = False


def tangent_vector(p, spec: EnergySpectrum, n: int, pi) -> TangentVector:
    """Tangent vector of `p` for segment rank `n` and target level order `pi`.

    The middle ranks of the result carry slope s_n; the first and last entries
    are fixed by tangency to the n-th segment of p's curve and by
    normalisation.  Entries may be negative.
    """
    probs = _probs(p)
    d = probs.size
    if d < 2:
        raise ValueError("tangent vectors need at least two levels")
    if not 1 <= n <= d:
        raise ValueError(f"segment rank n={n} outside 1..{d}")
    gamma = _matched_gibbs(spec, d)
    idx = _perm(pi, d)
    ratios, order = _slope_order(probs, gamma)
    s_n = ratios[order[n - 1]]
    p_sum = float(np.cumsum(probs[order])[n - 1])
    g_sum = float(np.cumsum(gamma[order])[n - 1])
    first = p_sum - s_n * (g_sum - gamma[idx[0]])
    entries = np.empty(d)
    entries[idx[0]] = first
    middle = idx[1:-1]
    entries[middle] = s_n * gamma[middle]
    entries[idx[-1]] = 1.0 - first - s_n * float(gamma[middle].sum())
    return TangentVector(QuasiDist(entries), n, tuple(int(i) for i in idx))


def tangent_curve(tv: TangentVector, spec: EnergySpectrum) -> TMCurve:
    """Curve of a tangent vector under its own level order."""
    return tm_curve(tv.entries, spec, order=tv.pi)


def tangent_bound_curve(p, spec: EnergySpectrum, i: int) -> TMCurve:
    """Pointwise-largest tangent curve of `p` over all level orders.

    Only the first (i=1) and last (i=d) ranks are meaningful: the i=1 curves
    all follow the line of maximal slope and differ only in where the final
    chord to (1,1) starts, the i=d curves all follow the minimal-slope line
    through (1,1) after an initial chord.  In both families the order putting
    the smallest Gibbs weight at the free end dominates every other choice, so
    the union of the tangent futures is a single curve's future.

    The i=1 knot sits at 1 - gamma_min, which rounds to 1.0 once gamma_min is
    below half an ulp of 1 (large beta*dE).  It is then placed at the largest
    double below 1, x0 = nextafter(1, 0) < 1 - gamma_min.  On [0, x0] both
    curves are the line s_1 x; they differ only on (x0, 1), which holds no
    double, so every knot of any other curve sees the same height, and so
    `curve_dominates` and the thresholds read off at Gibbs subsums give the
    same verdicts as for the exact knot.  Where 1 - gamma_min rounds below
    1 (gamma_min >= 1.1e-16 among them) the curve is unchanged.
    """
    probs = _probs(p)
    d = probs.size
    if i not in (1, d):
        raise ValueError("only the first and last tangent families bound the regions")
    gamma = _matched_gibbs(spec, d)
    ratios, order = _slope_order(probs, gamma)
    return _tangent_bound(ratios[order], gamma, i == 1)


def project_simplex(tv: TangentVector, spec: EnergySpectrum) -> Dist:
    """Project a tangent vector back onto the probability simplex.

    Clamps the elbow heights of its curve at one and rebuilds the populations
    from the clamped differences.
    """
    curve = tangent_curve(tv, spec)
    ys = np.minimum(curve.ys, 1.0)
    ys[-1] = 1.0
    diffs = np.maximum(np.diff(ys), 0.0)
    out = np.empty(len(tv.entries))
    out[list(tv.pi)] = diffs
    return Dist(out)


def catalytic_condition(p, q, spec: EnergySpectrum) -> bool:
    """Necessary slope condition for any strict catalyst taking p to q.

    Strict inequalities with a comparison margin biased toward "not
    catalysable", so boundary pairs are rejected.
    """
    sp = beta_order(p, spec).slopes
    sq = beta_order(q, spec).slopes
    return bool(sp[0] > sq[0] + EPS_CMP and sp[-1] < sq[-1] - EPS_CMP)


def _one_row(q, spec: EnergySpectrum) -> _Chunk:
    # `q`, checked against `spec`, as the only row of a chunk for the region kernels
    probs = _probs(q)
    return _Chunk(probs[None], _matched_gibbs(spec, probs.size))


def in_region_Ti(q, p, spec: EnergySpectrum, i: int) -> bool:
    """Membership of `q` in the convex hull of p's rank-i tangent vectors.

    Equals membership in the union of the tangent futures, which collapses to
    domination by the single bound curve (see `tangent_bound_curve`).  `q` is
    classified as the only row of a `region_masks` batch (`_Chunk.under`),
    so q's own curve is never built and never refused.
    """
    bound = tangent_bound_curve(p, spec, i)
    (inside,) = _one_row(q, spec).under((bound,))
    return bool(inside[0])


def catalysable_future_member(q, p, spec: EnergySpectrum) -> bool:
    """True iff `q` is incomparable with `p` yet inside both tangent regions.

    This is the region no strict catalyst can take `p` beyond; membership does
    not guarantee that a catalyst exists.  The answer is the "C+" mask of
    `region_masks` for `q` as a one-row batch, so it agrees with `mc_volume`
    and `region_masks` on every state; q's own curve is never built and
    never refused.
    """
    return bool(_Bounds.of(_probs(p), spec).region("C+", _one_row(q, spec))[0])


def catalysable_past_member(q, p, spec: EnergySpectrum) -> bool:
    """True iff `q` is incomparable with `p` and outside both tangent regions.

    The "C-" mask of `region_masks` for `q` as a one-row batch, like
    `catalysable_future_member`.
    """
    return bool(_Bounds.of(_probs(p), spec).region("C-", _one_row(q, spec))[0])


def _c_plus_heights(probs: np.ndarray, spec: EnergySpectrum):
    ratios, order = _slope_order(probs, _matched_gibbs(spec, probs.size))
    s1, sd = ratios[order[[0, -1]]]
    return lambda knots: np.minimum(tangent_cap(s1, sd, knots), 1.0)


def c_plus_vertex(p, spec: EnergySpectrum, pi) -> Dist:
    """Extreme point of the catalysable future with the given level order.

    Elbow heights are the pointwise minimum of the first- and last-rank
    tangent curves at the order's Gibbs subsums, clamped into the simplex.
    """
    probs = _probs(p)
    return Dist(order_vertices(_c_plus_heights(probs, spec), spec.gibbs, _perm(pi, probs.size)[None])[0])


def _c_plus_rows(probs: np.ndarray, spec: EnergySpectrum) -> tuple[np.ndarray, np.ndarray]:
    return distinct_vertices(_c_plus_heights(probs, spec), spec.gibbs)


def c_plus_vertices(p, spec: EnergySpectrum) -> ConeVertices:
    """Deduplicated extreme points of the catalysable future over all orders.

    One vectorised pass over every level order (d <= 8); vertices equal to
    1e-10 keep the lexicographically first order.
    """
    return ConeVertices(*_c_plus_rows(_probs(p), spec))


@dataclass(frozen=True)
class DimBound:
    """Catalyst dimension bound for an incomparable pair.

    Any catalyst enabling the transformation needs more than `k_star` levels
    (`math.inf` when no catalyst can work).  `a` contracts the slope ratios a
    viable catalyst may exhibit, `b` is the slope-ratio jump the catalyst must
    cover.  `L_interval` is the open interval where the source curve runs
    below the target curve; `L_prime` lists the 1-based source elbow ranks
    falling strictly inside it.
    """

    a: float
    b: float
    k_star: float
    L_interval: tuple[float, float]
    L_prime: tuple[int, ...]


def _slope_at(curve: TMCurve, x: float, side: str) -> float:
    # slope of the segment just to the given side ("left" or "right") of x
    shift = -1e-12 if side == "left" else 1e-12
    i = int(np.searchsorted(curve.xs, x + shift, side=side))
    i = min(max(i, 1), curve.xs.size - 1)
    return float((curve.ys[i] - curve.ys[i - 1]) / (curve.xs[i] - curve.xs[i - 1]))


def dim_bound(p, q, spec: EnergySpectrum) -> DimBound:
    """Lower bound on the dimension of a catalyst taking `p` to `q`.

    Locates the maximal interval where p's curve runs below q's (multiple sign
    changes are hulled into [first crossing, last crossing]), reads the
    adjacent slopes off the curves and combines them into the (a, b, k_star)
    triple.  a <= 1 encodes impossibility via k_star = inf.
    """
    if compare(p, q, spec) is not Relation.INCOMPARABLE:
        raise NotIncomparableError("dimension bounds require an incomparable pair")
    cp = tm_curve(p, spec)
    cq = tm_curve(q, spec)
    xs = _union_xs(cp, cq)
    g = np.interp(xs, cp.xs, cp.ys) - np.interp(xs, cq.xs, cq.ys)
    neg = g < -EPS_CMP
    if not neg.any():
        raise EmptyIntervalError("source curve never drops below the target curve")
    k_first = int(np.argmax(neg))
    k_last = xs.size - 1 - int(np.argmax(neg[::-1]))
    gl = max(float(g[k_first - 1]), 0.0)
    m = float(xs[k_first - 1] + (xs[k_first] - xs[k_first - 1]) * gl / (gl - g[k_first]))
    gr = max(float(g[k_last + 1]), 0.0)
    n = float(xs[k_last] + (xs[k_last + 1] - xs[k_last]) * (-g[k_last]) / (gr - g[k_last]))

    slopes = beta_order(p, spec).slopes
    s1, sd = float(slopes[0]), float(slopes[-1])
    f_left = _slope_at(cp, m, "left")
    f_right = _slope_at(cp, n, "right")
    a = min(
        math.inf if f_left == 0.0 else s1 / f_left,
        math.inf if sd == 0.0 else f_right / sd,
    )

    inner = cp.xs[1:-1]
    gaps = cp.ys[1:-1] - np.interp(inner, cq.xs, cq.ys)
    l_prime = tuple(l for l in range(1, inner.size + 1) if gaps[l - 1] < -EPS_CMP)
    b = 1.0
    for l in l_prime:
        hi, lo = float(slopes[l - 1]), float(slopes[l])
        b = max(b, math.inf if lo == 0.0 else hi / lo)

    # slack biased toward impossibility so boundary ratios of identical slopes
    # (recomputed through the curve, hence not bit-identical) land at a = 1
    if a <= 1.0 + 1e-12:
        k_star = math.inf
    else:
        k_star = math.log(b) / math.log(a) + 1.0 if math.isfinite(b) else math.inf
    return DimBound(a=a, b=b, k_star=k_star, L_interval=(m, n), L_prime=l_prime)


@dataclass(frozen=True)
class QubitWindow:
    """Admissible excited-population interval for a qubit catalyst.

    Empty windows are encoded as lo > hi.  `gibbs_r` is the catalyst's Gibbs
    weight on the excited level (1/2 for a trivial Hamiltonian).
    """

    lo: float
    hi: float
    gibbs_r: float

    @property
    def empty(self) -> bool:
        return self.lo > self.hi

    def contains(self, t: float, tol: float = 1e-12) -> bool:
        return self.lo - tol <= t <= self.hi + tol


def windows_from_bounds(a: float, b: float, gibbs_r: float) -> tuple[QubitWindow, QubitWindow]:
    """Qubit windows induced by a slope-bound pair (a, b); empty when b > a."""
    if not 0.0 < gibbs_r < 1.0:
        raise ValueError("gibbs_r must lie strictly between 0 and 1")
    g = gibbs_r

    def _lo_branch(c: float) -> float:
        return 0.0 if math.isinf(c) else g / (c * (1.0 - g) + g)

    def _hi_branch(c: float) -> float:
        return 1.0 if math.isinf(c) else 1.0 - (1.0 - g) / (c * g + 1.0 - g)

    low = QubitWindow(lo=_lo_branch(a), hi=_lo_branch(b), gibbs_r=g)
    high = QubitWindow(lo=_hi_branch(b), hi=_hi_branch(a), gibbs_r=g)
    return low, high


def qubit_window(p, q, spec: EnergySpectrum, gibbs_r: float = 0.5) -> tuple[QubitWindow, QubitWindow]:
    """Necessary windows for a qubit catalyst state r = (1-t, t).

    Returns the branch below the catalyst's Gibbs weight and the mirrored
    branch above it; the two map onto each other under t -> 1-t together with
    gibbs_r -> 1-gibbs_r.
    """
    db = dim_bound(p, q, spec)
    return windows_from_bounds(db.a, db.b, gibbs_r)


def qubit_catalyst_spectrum(beta: float, gibbs_r: float) -> EnergySpectrum:
    """Two-level spectrum whose excited Gibbs weight at `beta` is `gibbs_r`."""
    if not 0.0 < gibbs_r < 1.0:
        raise ValueError("gibbs_r must lie strictly between 0 and 1")
    if beta == 0.0:
        if abs(gibbs_r - 0.5) > 1e-12:
            raise ValueError("at beta=0 only gibbs_r=1/2 is realisable")
        return EnergySpectrum((0.0, 0.0), 0.0)
    gap = math.log((1.0 - gibbs_r) / gibbs_r) / beta
    return EnergySpectrum((0.0, gap), beta)


def verify_catalyst(p, q, spec: EnergySpectrum, r, spec_r: EnergySpectrum) -> bool:
    """True iff attaching catalyst `r` makes the joint transformation possible.

    The joint states are the products `_joint_cols` builds, in the same
    doubles, and the verdict is `compare`'s margin, so `search_qubit_catalyst`
    answers as this does at each of its grid points.
    """
    joint_p, joint_spec = tensor(p, spec, r, spec_r)
    joint_q, _ = tensor(q, spec, r, spec_r)
    return thermo_majorizes(joint_p, joint_q, joint_spec)


_GRID_BLOCK = 4096  # grid points per array pass; bounds memory for large grids


def _state_probs(s, spec: EnergySpectrum) -> np.ndarray:
    probs = _probs(s)
    if probs.size != spec.d:
        raise ValueError("state/spectrum dimension mismatch")
    return probs


def _joint_cols(probs: np.ndarray, catalysts: np.ndarray) -> np.ndarray:
    """probs ⊗ r for each column r of the (2, n) array `catalysts`, as columns, checked as `tensor` checks one."""
    cols = (probs[:, None, None] * catalysts).reshape(-1, catalysts.shape[1])
    _simplex_rows(cols.T)
    return cols


def search_qubit_catalyst(p, q, spec: EnergySpectrum, gibbs_r: float = 0.5, grid_n: int = 200) -> list[float]:
    """Grid-scan qubit catalysts r = (1-t, t) for t = k/grid_n, 0 < k < grid_n.

    Returns every grid point whose catalyst verifies the transformation; the
    grid is deterministic so results are reproducible.  The grid is
    evaluated in blocks of `_GRID_BLOCK` points: the joint states P = p⊗r
    and Q = q⊗r are stacked as columns over the joint Gibbs vector, and a
    point is a hit iff its `_batch.dominance_margins` margin is >= -EPS_CMP.
    `verify_catalyst` builds the same products (`tensor`) and reads the same
    margin (`compare`), so the hits are exactly the points at which it
    answers True.
    """
    if grid_n < 2:
        raise ValueError("grid_n must be at least 2")
    spec_r = qubit_catalyst_spectrum(spec.beta, gibbs_r)
    probs_p = _state_probs(p, spec)
    joint_spec = EnergySpectrum(tuple(np.add.outer(spec.energies, spec_r.energies).ravel()), spec.beta)
    probs_q = _state_probs(q, spec)
    gamma = _matched_gibbs(joint_spec, 2 * spec.d)
    hits = []
    for start in range(1, grid_n, _GRID_BLOCK):
        ts = np.arange(start, min(start + _GRID_BLOCK, grid_n)) / grid_n
        catalysts = np.vstack([1.0 - ts, ts])
        margin = dominance_margins(_joint_cols(probs_p, catalysts), _joint_cols(probs_q, catalysts), gamma)
        hits += ts[margin >= -EPS_CMP].tolist()
    return hits


def renyi_divergence(p, ref, alpha: float) -> float:
    """Classical Renyi divergence D_alpha(p || ref) for alpha >= 0."""
    probs = _probs(p)
    r = np.asarray(ref, dtype=float)
    if probs.size != r.size or np.any(r <= 0.0):
        raise ValueError("reference must be a strictly positive vector of matching length")
    if alpha < 0.0:
        raise ValueError("alpha must be >= 0")
    if alpha == 0.0:
        return -math.log(float(r[probs > 0.0].sum()))
    if alpha == 1.0:
        mask = probs > 0.0
        return float(np.sum(probs[mask] * np.log(probs[mask] / r[mask])))
    if math.isinf(alpha):
        return math.log(float(np.max(probs / r)))
    s = float(np.sum(np.where(probs > 0.0, probs**alpha * r ** (1.0 - alpha), 0.0)))
    return math.log(s) / (alpha - 1.0)


def alpha_free_energy_check(p, q, spec: EnergySpectrum, alphas) -> bool:
    """Necessary free-energy screen: divergence to the Gibbs state must not rise.

    The alpha free energies are increasing affine functions of the Renyi
    divergences to the Gibbs state, so the comparison is performed directly on
    the divergences (this also keeps beta=0 meaningful).
    """
    gamma = _matched_gibbs(spec, _probs(p).size)
    for alpha in alphas:
        if renyi_divergence(p, gamma, alpha) < renyi_divergence(q, gamma, alpha) - EPS_CMP:
            return False
    return True
