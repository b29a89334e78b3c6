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
from functools import cache

import numpy as np

from ._batch import distinct_rows, distinct_vertices, dominance_margins, order_vertices, subset_masses, tangent_cap, vertex_keys
from .core import (
    Dist,
    EnergySpectrum,
    EPS_CMP,
    MAX_ENUM_DIM,
    QuasiDist,
    Relation,
    TMCurve,
    _freeze,
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
    catalysable", so boundary pairs are rejected.  Each state's largest and
    smallest slope p_i / gamma_i are read with no sort (`_extreme_ratios`),
    p checked against `spec` before q.
    """
    s1p, sdp = _extreme_ratios(probs := _probs(p), _matched_gibbs(spec, probs.size))
    s1q, sdq = _extreme_ratios(probs := _probs(q), _matched_gibbs(spec, probs.size))
    return s1p > s1q + EPS_CMP and sdp < sdq - EPS_CMP


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
    return _cap(*_extreme_ratios(probs, _matched_gibbs(spec, probs.size)))


def _extreme_ratios(probs: np.ndarray, gamma: np.ndarray) -> tuple[float, float]:
    # the largest and smallest slope p_i / gamma_i: a max and a min are exact
    ratios = probs / gamma
    return float(ratios.max()), float(ratios.min())


def _cap(s1: float, sd: float):
    # the C+ bound min(1, s1 x, 1 - sd (1 - x)) at each knot
    return lambda knots: np.minimum(tangent_cap(s1, sd, knots), 1.0)


def c_plus_vertex(p, spec: EnergySpectrum, pi) -> Dist:
    """Extreme point of the catalysable future with the given level order.

    Elbow heights are the pointwise minimum of the first- and last-rank
    tangent curves at the order's Gibbs subsums, clamped into the simplex.
    """
    probs = _probs(p)
    return Dist(order_vertices(_c_plus_heights(probs, spec), spec.gibbs, _perm(pi, probs.size)[None])[0])


@cache
def _classes(d: int) -> tuple[np.ndarray, np.ndarray]:
    """(pairs, perms): every class (S, l) of d levels and its first order, built once per d.

    Column k of the (2, n) `pairs` holds the subsets S and S + {l} of the
    k-th class as bitmasks (level i is bit i), l outside S, and row k of
    `perms` its lexicographically first order: sorted(S), then l, then the
    other levels sorted, one argsort of ranks that put S first, l at d and
    the rest after it.  The classes come in lexicographic order of their
    orders, and both are read-only.
    """
    subsets = np.arange(1 << d)
    member = (subsets[:, None] >> np.arange(d)) & 1 == 1
    sets, levels = np.nonzero(~member)
    ranks = np.where(member[sets], np.arange(d), np.arange(d + 1, 2 * d + 1))
    ranks[np.arange(len(sets)), levels] = d
    perms = np.argsort(ranks, axis=1)
    first = np.lexsort(perms.T[::-1])
    pairs = np.stack((sets, sets | 1 << levels))[:, first]
    return _freeze(pairs), _freeze(perms[first])


def _c_plus_rows(probs: np.ndarray, spec: EnergySpectrum) -> tuple[np.ndarray, np.ndarray]:
    """The (orders, rows) that `distinct_vertices` gives for the C+ bound, read off its two pieces.

    Classes.  With s1 and sd the largest and smallest slopes p_i / gamma_i,
    the bound is h(x) = min(1, s1 x, 1 - sd (1 - x)).  Where sd < 1 < s1 its
    two lines meet at x* = (1 - sd) / (s1 - sd) in (0, 1), and h is s1 x up
    to x* (there s1 x <= s1 x* <= 1) and 1 - sd (1 - x) from x* to 1.  An
    order pi puts level pi_k at the knot X_k = gamma(pi_1) + ... +
    gamma(pi_k); with k the first position where X_k >= x* (or d if there
    is none), its class is S = {pi_1, ..., pi_k-1} and l = pi_k.  In exact
    arithmetic, with the last height pinned to 1, each level of S gets
    s1 gamma_i, l gets h(gamma(S + l)) - s1 gamma(S) (or 1 - s1 gamma(S)
    when S + l holds every level), and each level after l gets sd gamma_i,
    up to sigma = |1 - sum gamma|: the last level also gets sd (1 - sum
    gamma), and a knot past 1 is held at 1.  So every order of a class has
    the vertex v(S, l) up to sigma, and the class's lexicographically first
    order, sorted(S), then l, then the other levels sorted, stands for all
    of them.  Every class has gamma(S) <= x* <= gamma(S + l), or S + l
    holds every level.  The classes are read off the 2^d Gibbs subsums
    (`_classes`; `subset_masses` builds them).  With u = 2^-53, a subsum of
    positive terms is off by at most (d - 1) u of itself, in any order of
    its additions, and x* by 3 u of itself, so moving x* by
    8 d u of itself, down for gamma(S + l) and up for gamma(S), finds every
    class.  It may find a few more, which does no harm: each stands for a
    real order, with that order's real row.

    Spread.  The knots of `order_vertices` are sums of positive terms, so
    X_k is off by at most (k - 1) u X_k.  Then s1 X_k is off by at most
    k u s1 X_k, which matters only where s1 X_k is at most about 1, and
    1 - sd (1 - X_k) by at most (k + 2) u after its three roundings, so the
    least of the two lines and 1 is off by at most (k + 2) u.  The last
    height is exactly 1.  A population is the difference of two
    neighbouring heights, rounded once and then clamped at 0, which moves
    it no further from its exact value (never negative), so it is off by at
    most (2d + 2) u.  So each entry of a row is within (2d + 2) u + sigma
    of v(S, l), and two orders of one class differ by at most
    (4d + 4) u + 2 sigma: (2d + 2) ulps of 1, and 2 sigma.  Rounding to 10
    decimals (`vertex_keys`) is monotone.  So where an entry of a
    representative's row, moved down and up by tol = (4d + 8) u + 2 sigma
    (the extra 4 u covers the rounding of the two moves), has one key at
    both ends, every order of the class has that key there too.

    Result.  The representatives are sorted lexicographically (the
    `_classes` table is), and `order_vertices` gives each the row the
    enumeration computes for that order, bit for bit.  They end in
    `distinct_rows`, which keeps the first representative of each key, as
    the enumeration keeps the first order of each key.  That order's class
    representative comes no later and, the check having passed, has the
    same key, so it is that order.  So the representatives hold the first
    order of every key and nothing outside the enumeration, and the result
    is the enumeration's, byte for byte.  The enumeration
    (`distinct_vertices`), which is also the test oracle, decides instead
    in three cases: where an entry lies within tol of a rounding edge (a
    few states in a hundred); where x* is not inside (0, 1), in Gibbs states
    and states within rounding of Gibbs, whose slopes all lie on one side
    of 1; and at d < 3, where it is as cheap.  Above the enumeration cap it
    refuses d, as it did before there was a closed form.
    """
    gamma = _matched_gibbs(spec, probs.size)
    s1, sd = _extreme_ratios(probs, gamma)
    heights = _cap(s1, sd)
    d = gamma.size
    if 3 <= d <= MAX_ENUM_DIM and sd < 1.0 < s1 < math.inf:
        pairs, reps = _classes(d)
        x = (1.0 - sd) / (s1 - sd)
        slack = d * 2.0**-50
        # the subsums of every subset: 0 for none, and inf for every level, which reaches x* however they round
        mass = np.concatenate(([0.0], subset_masses(gamma[:, None])[:, 0], [math.inf]))[pairs]
        perms = reps[(mass[0] <= x * (1.0 + slack)) & (mass[1] >= x * (1.0 - slack))]
        rows = order_vertices(heights, gamma, perms)
        tol = (4 * d + 8) * 2.0**-53 + 2.0 * abs(1.0 - math.fsum(gamma.tolist()))
        if (vertex_keys(rows - tol) == vertex_keys(rows + tol)).all():
            return distinct_rows(perms, rows)
    return distinct_vertices(heights, gamma)


def c_plus_vertices(p, spec: EnergySpectrum) -> ConeVertices:
    """Deduplicated extreme points of the catalysable future over all orders.

    Vertices with equal `_batch.vertex_keys` keep the lexicographically
    first order, as an enumeration of every level order (d <= 8) would keep
    them, and they are that enumeration's bytes.  They are read off the
    bound's two pieces, a few dozen orders at d = 7 instead of 5,040
    (`_c_plus_rows`); the enumeration decides where that cannot be shown
    exact.
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


def _reference(probs: np.ndarray, ref) -> np.ndarray:
    r = np.asarray(ref, dtype=float)
    if probs.size != r.size or np.any(r <= 0.0):
        raise ValueError("reference must be a strictly positive vector of matching length")
    return r


def _renyi(probs: np.ndarray, r: np.ndarray, alpha: float) -> float:
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


def renyi_divergence(p, ref, alpha: float) -> float:
    """Classical Renyi divergence D_alpha(p || ref) for alpha >= 0."""
    probs = _probs(p)
    return _renyi(probs, _reference(probs, ref), alpha)


def alpha_free_energy_check(p, q, spec: EnergySpectrum, alphas) -> bool:
    """Necessary free-energy screen: divergence to the Gibbs state must not rise.

    The alpha free energies are increasing affine functions of the Renyi
    divergences to the Gibbs state, so the comparison is performed directly on
    the divergences (this also keeps beta=0 meaningful).  p, q and the Gibbs
    state are checked once, at the first alpha, in the order in which
    `renyi_divergence` for p and then for q checks them, so the errors are
    those of a `renyi_divergence` pair per alpha; with no alphas q is never
    read.
    """
    probs = _probs(p)
    gamma = _matched_gibbs(spec, probs.size)
    target = None  # q, checked after p's first divergence
    for alpha in alphas:
        d_p = _renyi(probs, gamma if target is not None else _reference(probs, gamma), alpha)
        if target is None:
            target = _probs(q)
            _reference(target, gamma)
        if d_p < _renyi(target, gamma, alpha) - EPS_CMP:
            return False
    return True
