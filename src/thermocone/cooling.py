"""Optimal heat extraction under thermal operations, with and without a catalyst.

Heat is counted from the system's side: negative values mean energy left the
system (cooling).  The non-catalytic optimum is attained at an extreme point
of the future thermal cone; the catalytic figure is a bound obtained from the
extreme points of the catalysable future (membership there does not guarantee
a catalyst exists, so the value bounds what any strict catalyst could do).
Both optima are the vertices of one level order, the stable ascending-energy
order np.argsort(energies, kind="stable"), and that is the order a report
names.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from ._batch import order_vertices
from .catalysis import _c_plus_heights
from .cones import _curve_heights
from .core import Dist, EnergySpectrum, _probs

__all__ = [
    "NoRootError",
    "CoolingReport",
    "heat_exchange",
    "optimal_cooling",
    "m_index",
    "critical_hot_betas",
]

_BISECT_TOL = 1e-8
_LOG_MAX = math.log(sys.float_info.max)  # the largest argument math.exp takes without overflowing, about 709.78
_BETA_MIN = 1e-7  # the first grid point beta 1e-9 is then at least 1e-16, where 1 - exp(-x) is not yet 0


class NoRootError(ValueError):
    """The requested inequality boundary never binds on (0, beta)."""


@dataclass(frozen=True, eq=False)
class CoolingReport:
    """Optimal heat exchange and targets; catalytic fields are bounds.

    `order` is the stable ascending-energy level order, np.argsort(energies,
    kind="stable"), whose future-cone vertex is `target`.  `q_c_catalytic`
    is None unless the catalytic bound was requested; when present it
    satisfies q_c_catalytic <= q_c, and `order_catalytic` equals `order`.
    """

    q_c: float
    target: Dist
    order: tuple[int, ...]
    q_c_catalytic: float | None = None
    target_catalytic: Dist | None = None
    order_catalytic: tuple[int, ...] | None = None


def heat_exchange(p, q, spec: EnergySpectrum) -> float:
    """Energy difference sum_i E_i (q_i - p_i) between final and initial state."""
    a = _probs(p)
    b = _probs(q)
    if a.size != b.size or a.size != spec.d:
        raise ValueError("dimension mismatch")
    e = np.asarray(spec.energies)
    return float(e @ (b - a))


def _ascending_vertex(heights, probs: np.ndarray, spec: EnergySpectrum) -> tuple[float, np.ndarray, np.ndarray]:
    """(heat, vertex, order) of the stable ascending-energy order on the curve `heights`.

    Proof that no state below the curve has a lower heat.  The curve f is
    concave and non-decreasing with f(0) = 0 and f(1) = 1: the state's own
    curve for the future cone, or the C+ bound min(1, s1 x, 1 - sd (1 - x))
    for the catalysable future.  By the subset lemma (`volume.region_masks`)
    a state q lies below f iff q(S) <= F(S) = f(gamma(S)) for every level
    subset S.  The heat is E.q - E.p.  List the levels in ascending energy,
    pi, and let Q_k be the population of the first k.  Then E.q = E_pi(d) -
    sum_k (E_pi(k+1) - E_pi(k)) Q_k, every coefficient is >= 0 and Q_k <=
    F(first k levels), so E.q >= E_pi(d) - sum_k (E_pi(k+1) - E_pi(k))
    F(first k levels).  The greedy vector of pi, whose k-th level gets
    F(first k levels) - F(first k - 1 levels), has exactly those Q_k, and
    `_batch.order_vertices` builds it from f at the order's Gibbs subsums.
    It lies below f: F is submodular, because for S inside T and a level i
    outside T, F(S + i) - F(S) >= F(T + i) - F(T) as gamma(S) <= gamma(T)
    and f is concave, so by Edmonds' greedy theorem (*Submodular functions,
    matroids and certain polyhedra*, 1970) the greedy vector of every order
    is a vertex of the base polytope {q : q(S) <= F(S), q(all) = 1}.
    Levels of equal energy may come in any order; the stable argsort keeps
    them in index order, so sorted spectra give (0, 1, ..., d - 1).

    In doubles, the rounding of the knots and the heights, the clamp of the
    increments at +0.0 and the pin of the last height to 1 move the vertex
    and its heat by a few ulps per level, so another order's computed heat
    can lie below this one's by rounding only.  The heat is float(e @ (row
    - p)), the same doubles as `heat_exchange(p, Dist(row), spec)`.
    """
    e = np.asarray(spec.energies)
    order = np.argsort(e, kind="stable")
    row = order_vertices(heights, spec.gibbs, order[None])[0]
    return float(e @ (row - probs)), row, order


def optimal_cooling(p, spec: EnergySpectrum, catalytic: bool = False) -> CoolingReport:
    """Minimise the heat exchange over the reachable extreme points.

    Both the future cone and the catalysable future are base polytopes of
    submodular functions, so the least heat over each is the vertex of the
    stable ascending-energy level order (`_ascending_vertex` holds the
    proof).  `order` is that order, np.argsort(energies, kind="stable"), and
    `target` its future-cone vertex (`vertex_for_order`).  The catalytic
    bound takes the same order's catalysable-future vertex (`c_plus_vertex`)
    only when its heat is below the future's by more than 1e-12; otherwise
    it repeats the future's heat and target, so ties go to the future and
    `order_catalytic` equals `order` either way.  One vertex is built per
    bound, so there is no cap on d.
    """
    probs = _probs(p)
    heat, row, order = _ascending_vertex(_curve_heights(probs, spec), probs, spec)
    report = CoolingReport(q_c=heat, target=Dist(row), order=tuple(order.tolist()))
    if not catalytic:
        return report
    c_heat, c_row, _ = _ascending_vertex(_c_plus_heights(probs, spec), probs, spec)
    if c_heat < heat - 1e-12:
        heat, row = c_heat, c_row
    return replace(report, q_c_catalytic=heat, target_catalytic=Dist(row), order_catalytic=report.order)


def _check_equidistant(spec: EnergySpectrum) -> None:
    e = np.asarray(spec.energies)
    if e.size < 2 or np.any(np.abs(np.diff(e) - (e[1] - e[0])) > 1e-9) or e[1] <= e[0]:
        raise ValueError("an ascending equidistant spectrum is required")


def m_index(j: int, spec_cold: EnergySpectrum, spec_hot: EnergySpectrum) -> int:
    """Smallest prefix length m of reversed Gibbs weights covering the top-j sum.

    Returns m with  sum_{i<=m} gamma_{d-i+1} <= sum_{i<=j} gamma_i
    <= sum_{i<=m+1} gamma_{d-i+1}.
    """
    _check_equidistant(spec_cold)
    _check_equidistant(spec_hot)
    if spec_hot.beta > spec_cold.beta:
        raise ValueError("the initial state must be hotter than the bath (beta_h <= beta)")
    d = spec_cold.d
    if not 0 <= j <= d:
        raise ValueError(f"j outside 0..{d}")
    gamma = spec_cold.gibbs
    top = float(gamma[:j].sum())
    rev = np.concatenate(([0.0], np.cumsum(gamma[::-1])))
    for m in range(d + 1):
        lower = rev[m]
        upper = rev[m + 1] if m + 1 <= d else math.inf
        if lower <= top + 1e-12 <= upper + 1e-12:
            return m
    raise RuntimeError("no sandwiching index found")  # unreachable: rev spans [0, 1]


def _geometric_sum(m: int, x: float) -> float:
    # sum_{n=0}^{m-1} exp(-n x), continuous in x with the x -> 0 limit filled in
    if m <= 0:
        return 0.0
    if x == 0.0:
        return float(m)
    return (1.0 - math.exp(-m * x)) / (1.0 - math.exp(-x))


def _advantage_margin(d: int, beta: float, m: int, beta_h: float) -> float:
    """Positive where the guarantee inequality holds."""
    z = _geometric_sum(d, beta)
    return math.exp((beta - beta_h) * (d - 1)) - z * _geometric_sum(m + 1, beta_h)


def _no_go_margin(d: int, beta: float, m: int, beta_h: float) -> float:
    """Positive where the no-go inequality holds."""
    z = _geometric_sum(d, beta)
    return z * _geometric_sum(m, beta_h) - math.exp((beta - beta_h) * (d - 1))


def _bisect_root(fn, lo: float, hi: float) -> float:
    flo = fn(lo)
    while hi - lo > _BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if (fn(mid) > 0.0) == (flo > 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _grid_margins(d: int, beta: float, m: int, grid: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(advantage, no-go, band): both margins at every grid point in numpy, and where their signs are sure.

    numpy's exp may differ from the scalar form's `math.exp` by a few ulps.
    That moves exp((beta - x)(d - 1)) by about 1e-15 of itself, and the
    geometric sums (1 - e^{-kx}) / (1 - e^{-x}) by about 2e-15 / (1 - e^{-x})
    of themselves, through the cancellation in 1 - e^{-x}.  So outside
    `band` = (1e-9 + 1e-13 / (1 - e^{-x})) (lead + upper), upper being the
    larger of the two sums, a grid value of either margin has the scalar
    form's sign; the band is relative because the terms reach e^280 at d = 8
    and beta = 40.  A value inside
    the band, and any inf or NaN (an overflow, which the scalar form raises
    as OverflowError, or x = 0), is evaluated again with the scalar form.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        tail = np.exp(-grid)
        lead = np.exp((beta - grid) * (d - 1))
        z = _geometric_sum(d, beta)
        upper = z * ((1.0 - np.exp(-(m + 1) * grid)) / (1.0 - tail))
        lower = z * ((1.0 - np.exp(-m * grid)) / (1.0 - tail)) if m > 0 else 0.0
        band = (1e-9 + 1e-13 / (1.0 - tail)) * (lead + upper)
    return lead - upper, lower - lead, band


def _boundary(fn, grid: np.ndarray, vals: np.ndarray, band: np.ndarray, name: str) -> float:
    """Bisected root of `fn` in the first grid cell where its sign flips (`_grid_margins`)."""
    for k in np.flatnonzero(~(np.abs(vals) > band)):
        vals[k] = fn(grid[k])
    signs = vals > 0.0
    flips = np.nonzero(signs[1:] != signs[:-1])[0]
    if flips.size == 0:
        held = "everywhere" if signs[0] else "nowhere"
        raise NoRootError(f"the {name} inequality binds {held} on (0, beta)")
    k = flips[0]
    return _bisect_root(fn, float(grid[k]), float(grid[k + 1]))


def critical_hot_betas(
    d: int,
    beta: float,
    linearised: bool = False,
    j: int = 1,
) -> tuple[float, float]:
    """Critical hot inverse temperatures for catalytic cooling of a thermal state.

    The system starts thermal at beta_h < beta on an equidistant spectrum.
    Below the first value the catalytic ground-population bound provably
    exceeds the non-catalytic optimum; above the second the no-go inequality
    holds.  With `linearised` the small-beta closed forms are returned instead
    of bisection roots.  `j` selects which population prefix the sandwiching
    index is computed for (1 = ground state).

    The roots are taken for beta in [1e-7, log(max double) / (d - 1)] only,
    and any other beta is refused with a ValueError that names that range.
    Above it exp(beta (d - 1)) is no double; below it the first grid point,
    beta 1e-9, is under 1e-16, where 1 - exp(-x) rounds to 0 and the
    geometric sums divide by it.
    """
    if d < 2:
        raise ValueError("d must be at least 2")
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    spec_cold = EnergySpectrum(tuple(float(n) for n in range(d)), beta)
    spec_hot = EnergySpectrum(spec_cold.energies, beta / 2.0)
    m = m_index(j, spec_cold, spec_hot)
    if linearised:
        down = (d * (3.0 * beta * (d - 1) - 2.0) * (m + 1) + 2.0) / (2.0 * d - m - 2.0)
        up = (d * (3.0 * beta * (d - 1) - 2.0) * m + 2.0) / (2.0 * d - m - 1.0)
        return down, up
    top = _LOG_MAX / (d - 1)
    if not _BETA_MIN <= beta <= top:
        raise ValueError(f"beta must lie in [{_BETA_MIN:g}, {top!r}] at d = {d}, where the margins are finite doubles")
    grid = np.linspace(beta * 1e-9, beta * (1.0 - 1e-9), 512)
    advantage, no_go, band = _grid_margins(d, beta, m, grid)
    down = _boundary(lambda x: _advantage_margin(d, beta, m, x), grid, advantage, band, "advantage")
    up = _boundary(lambda x: _no_go_margin(d, beta, m, x), grid, no_go, band, "no-go")
    return down, up
