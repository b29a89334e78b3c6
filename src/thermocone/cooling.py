"""Optimal heat extraction under thermal operations, with and without a catalyst.

Heat is counted from the system's side: negative values mean energy left the
system (cooling).  The non-catalytic optimum is attained at an extreme point
of the future thermal cone; the catalytic figure is a bound obtained from the
extreme points of the catalysable future (membership there does not guarantee
a catalyst exists, so the value bounds what any strict catalyst could do).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .catalysis import _c_plus_rows
from .cones import _future_rows
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


class NoRootError(ValueError):
    """The requested inequality boundary never binds on (0, beta)."""


@dataclass(frozen=True, eq=False)
class CoolingReport:
    """Optimal heat exchange and targets; catalytic fields are bounds.

    `q_c_catalytic` is None unless the catalytic bound was requested; when
    present it satisfies q_c_catalytic <= q_c.
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


def _lowest(heats: list[float]) -> int:
    best, best_k = math.inf, 0
    for k, heat in enumerate(heats):
        if heat < best - 1e-12:  # first order in lexicographic scan wins ties
            best, best_k = heat, k
    return best_k


def optimal_cooling(p, spec: EnergySpectrum, catalytic: bool = False) -> CoolingReport:
    """Minimise the heat exchange over the reachable extreme points.

    The future cone is enumerated once, in one vectorised pass over every level
    order (d <= 8), followed for the catalytic bound by the catalysable-future
    vertices; with the bound a call takes about 3 ms at d = 6, 20 ms at d = 7 and
    0.2 s at d = 8.  A later candidate must lower the heat by more than 1e-12,
    so ties go to the lexicographically first order and reports are deterministic.
    """
    probs = _probs(p)
    orders, rows = _future_rows(probs, spec)
    n_future = len(orders)
    if catalytic:
        c_orders, c_rows = _c_plus_rows(probs, spec)
        orders, rows = np.vstack((orders, c_orders)), np.vstack((rows, c_rows))
    e = np.asarray(spec.energies)
    # one dot per row, as in heat_exchange: a matrix-vector product rounds differently
    heats = [float(e @ row) for row in rows - probs]
    k = _lowest(heats[:n_future])
    report = CoolingReport(q_c=heats[k], target=Dist(rows[k]), order=tuple(orders[k].tolist()))
    if not catalytic:
        return report
    k = _lowest(heats)
    return replace(
        report, q_c_catalytic=heats[k], target_catalytic=Dist(rows[k]), order_catalytic=tuple(orders[k].tolist())
    )


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


def _boundary(fn, beta: float, name: str) -> float:
    grid = np.linspace(beta * 1e-9, beta * (1.0 - 1e-9), 512)
    vals = np.array([fn(x) for x in grid])
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
    down = _boundary(lambda x: _advantage_margin(d, beta, m, x), beta, "advantage")
    up = _boundary(lambda x: _no_go_margin(d, beta, m, x), beta, "no-go")
    return down, up
