"""Optimal heat extraction under thermal operations, with and without a catalyst.

Heat is counted from the system's side: negative values mean energy left the
system (cooling).  The non-catalytic optimum is attained at an extreme point
of the future thermal cone; the catalytic figure is a bound obtained from the
extreme points of the catalysable future (membership there does not guarantee
a catalyst exists, so the value bounds what any strict catalyst could do).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from ._batch import order_vertices, vertex_keys
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


def _search(heights, probs: np.ndarray, spec: EnergySpectrum, best: tuple | None = None) -> tuple:
    """(heat, vertex, order) that a lexicographic scan over the distinct vertices keeps.

    The scan it reproduces walks the vertices of the curve `heights` in
    lexicographic order of their level orders, skipping an order whose vertex
    has an earlier order's `vertex_keys` (`_batch.distinct_vertices`), and
    keeps a vertex only when its heat is below the kept one's by more than
    1e-12, so ties go to the first order; `best` is what an earlier scan kept.

    Bound.  With the energies sorted, E_(1) <= ... <= E_(d), the heat of q is
    E_(d) - sum_k (E_(k+1) - E_(k)) Q_k - E.p, where Q_k is the population of
    the k lowest levels, so each Q_k should be as large as possible.  Fixing a
    prefix of the order at Gibbs mass X fixes its levels' populations; the
    other levels follow the concave, non-decreasing curve g(x) = f(X + x) -
    f(X).  By the subset lemma (`volume.region_masks`) levels T outside the
    prefix hold at most g(gamma(T)), so Q_k is at most its prefix part plus g
    of the Gibbs mass of its other levels.  Completing the prefix with the
    remaining levels in ascending energy (stable) meets all of these bounds at
    once, so that completion's heat is the least of any order below the
    prefix; with an empty prefix it is the optimum.

    Search.  Once the kept heat is within 1e-12 of the optimum no later order
    can beat it, so the scan keeps the first order within 1e-12 of the
    optimum that it reaches while its kept heat is still more than 1e-12
    above that order's.  Descending through the first child whose bound is
    within 1e-12 of the optimum finds the first such order, and the bounds of
    the children passed on the way are the least heats of every order before
    it.  When they all lie more than 1e-12 above its heat and the scan sees
    the order (`_seen_by_scan`), it is the answer.  Otherwise (near-ties
    only) the scan itself is walked depth first (`_walk`).

    Every vertex comes from `_batch.order_vertices`, which already clamps at
    +0.0 what the scan's `_simplex_rows` would clamp, and its heat from the
    same `float(e @ (row - p))` as the scan's, so heats and decisions agree
    bit for bit.  The two can differ only where a heat lies within rounding
    of a 1e-12 threshold.  Each node is one `order_vertices` call on at most
    d completions.
    """
    gamma = spec.gibbs
    e = np.asarray(spec.energies)
    by_energy = np.argsort(e, kind="stable").tolist()

    def below(prefix: list[int], rest: list[int], firsts: list[int]) -> list[tuple]:
        """(r, order, vertex, heat) of the best completion of prefix + [r] for each r in firsts."""
        if not firsts:
            return []
        perms = np.array([prefix + [r] + [i for i in by_energy if i in rest and i != r] for r in firsts])
        rows = order_vertices(heights, gamma, perms)
        return list(zip(firsts, perms, rows, [float(e @ row) for row in rows - probs]))

    levels = list(range(probs.size))
    first = by_energy[0]  # the root's completion through `first` is the ascending-energy order
    current, *earlier = below([], levels, [first] + levels[:first])
    near = current[3] + 1e-12
    if best is not None and best[0] <= near:
        return best
    kept = math.inf if best is None else best[0]
    passed = []
    prefix, rest = [], levels
    while len(rest) > 1:
        # the first child whose bound is within 1e-12 of the optimum: one of
        # the children before the one the current completion continues with, or that one
        for child in earlier:
            if child[3] <= near:
                current = child
                break
            kept = min(kept, child[3])
            passed.append(child)
        prefix = current[1][: len(prefix) + 1].tolist()
        rest = [i for i in rest if i != prefix[-1]]
        if len(rest) > 1:
            nxt = int(current[1][len(prefix)])
            earlier = below(prefix, rest, [i for i in rest if i < nxt])
    _, order, row, heat = current
    seen = _seen_by_scan(heights, gamma)
    # an earlier order branches off this one through a passed child and gives the child's level
    # that child's population; two values with equal `vertex_keys` lie within 1e-10 of each
    # other, so unless one such population is within 2e-10 of this row's, the scan sees this order
    if heat < kept - 1e-12 and (all(abs(c[2][c[0]] - row[c[0]]) > 2e-10 for c in passed) or seen(order, row)):
        return heat, row, order
    return _walk(below, seen, gamma, near, best)


def _walk(below, seen, gamma: np.ndarray, near: float, best: tuple | None) -> tuple:
    """The scan itself, depth first: each level index in ascending order.

    A prefix is pruned when its bound is not below the kept heat by more than
    1e-12, and the walk stops once the kept heat is `near` the optimum.  An
    order that would be kept must be one the scan sees (`_seen_by_scan`).
    Near-equal vertices make many orders ones it does not see; a prefix is
    then skipped when a lexicographically earlier one holds the same levels
    at the same rounded populations and reaches the same knot: every
    completion gives both the same rounded vertex, so the scan sees none of
    the later prefix's.
    """
    d = gamma.size
    first_of: dict[tuple, list[int]] = {}

    def visit(prefix: list[int], rest: list[int]) -> bool:
        """Scan the orders below `prefix`; True once the kept heat is `near` the optimum."""
        nonlocal best
        children = below(prefix, rest, rest)
        knots = np.cumsum(gamma[np.array([perm for _, perm, _, _ in children])], axis=1)[:, len(prefix)]
        for (r, perm, row, heat), knot in zip(children, knots):
            # a leaf's whole order (its last level is forced) and its rounded vertex
            head = perm[: len(prefix) + 1].tolist() if len(rest) > 2 else perm.tolist()
            levels = sorted(head)
            key = (tuple(levels), tuple(vertex_keys(row[levels])), float(knot) if len(rest) > 2 else None)
            if first_of.setdefault(key, head) < head or best is not None and heat >= best[0] - 1e-12:
                continue
            if len(rest) > 2:
                if visit(head, [i for i in rest if i != r]):
                    return True
            elif seen(perm, row):
                best = (heat, row, perm)
                if heat <= near:
                    return True
        return False

    visit([], list(range(d)))
    return best


def _seen_by_scan(heights, gamma: np.ndarray):
    """A test seen(order, row): no order before `order` has a vertex with `row`'s `vertex_keys`.

    An order's population at position k depends only on its first k + 1
    levels, so orders are grown one level at a time, keeping a level only
    while its population's key is `row`'s.  Orders before `order` branch off
    it at some k with a smaller level; the first step tries every such
    branch.  Whether a prefix can still reach the rounded vertex depends only
    on its levels and its knot, so each such state is decided once per test
    function.
    """
    d = gamma.size
    reaches: dict[tuple, bool] = {}

    def seen(order: np.ndarray, row: np.ndarray) -> bool:
        key = vertex_keys(row)

        def grow(prefixes: list[list[int]]) -> list[tuple]:
            """(prefix, state) of the prefixes whose last level's population has its key in `key`."""
            perms = np.array([p + [i for i in range(d) if i not in p] for p in prefixes])
            at = (np.arange(len(perms)), np.array([len(p) - 1 for p in prefixes]))
            pops = vertex_keys(order_vertices(heights, gamma, perms)[at[0], perms[at]])
            knots = np.cumsum(gamma[perms], axis=1)[at].tolist()
            return [
                (p, (key.tobytes(), frozenset(p), x))
                for p, pop, x in zip(prefixes, pops, knots)
                if pop == key[p[-1]]
            ]

        def completes(prefix: list[int], state: tuple) -> bool:
            if len(prefix) == d:
                return True
            if state not in reaches:
                reaches[state] = any(completes(*c) for c in grow([prefix + [i] for i in range(d) if i not in prefix]))
            return reaches[state]

        branches = [order[:k].tolist() + [i] for k in range(d - 1) for i in order[k + 1 :].tolist() if i < order[k]]
        return not (branches and any(completes(*c) for c in grow(branches)))

    return seen


def optimal_cooling(p, spec: EnergySpectrum, catalytic: bool = False) -> CoolingReport:
    """Minimise the heat exchange over the reachable extreme points.

    The future-cone vertex is found by a lexicographic branch-and-bound over
    level orders (`_search`) that keeps what a scan of every vertex in
    lexicographic order would: a later order must lower the heat by more than
    1e-12, so ties go to the lexicographically first order and reports are
    deterministic.  The catalytic bound continues the same scan over the
    catalysable-future vertices.  No vertex set is enumerated, so there is no
    cap on d.  A search descends one level of the order per vectorised call
    on at most d orders.  Near-ties walk more of the tree.  The slowest are
    states within about 1e-10 of a straight curve (near Gibbs), whose
    vertices mostly agree to 10 decimals: the walk must show that the many
    orders the scan skips as repeats hold nothing better.
    """
    probs = _probs(p)
    heat, row, order = _search(_curve_heights(probs, spec), probs, spec)
    report = CoolingReport(q_c=heat, target=Dist(row), order=tuple(order.tolist()))
    if not catalytic:
        return report
    heat, row, order = _search(_c_plus_heights(probs, spec), probs, spec, (heat, row, order))
    return replace(report, q_c_catalytic=heat, target_catalytic=Dist(row), order_catalytic=tuple(order.tolist()))


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
