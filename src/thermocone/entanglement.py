"""Entanglement generation for two thermal qubits, with and without a catalyst.

Two identical qubits with level spacing one form a four-level system with a
degenerate middle pair; energy-preserving unitaries act freely inside that
subspace, so a state can be entangled unitarily iff 4*p1*p4 < (p2 - p3)^2.
Reachability under thermal operations reduces the question to a single future
extreme point; adding a strict catalyst extends it to the catalysable future.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from ._batch import FRESH, Workspace, conjugate_rows, extreme_slopes, tangent_cap
from .core import Dist, EnergySpectrum, EPS_CMP, _matched_gibbs, _probs
from .volume import DEFAULT_SEED, VolumeEstimate, _estimate, _kept_rows, _over_chunks

__all__ = [
    "TwoQubitConfig",
    "unitary_entanglable",
    "in_TN",
    "in_CN",
    "p_star",
    "p_star_star",
    "volume_ratio_CN_TN",
]

# target level order whose future extreme point decides entanglability (0-based)
_DECISIVE_ORDER = (1, 0, 2, 3)
# level orders whose C+ vertices `_cn_mask` tests: level 1 before level 2 (swapping the middle pair gives the rest)
_CN_ORDERS = tuple(pi for pi in permutations(range(4)) if pi.index(1) < pi.index(2))


@dataclass(frozen=True)
class TwoQubitConfig:
    """Two non-interacting qubits with unit level spacing at inverse temperature beta."""

    beta: float

    @property
    def energies(self) -> tuple[float, ...]:
        return (0.0, 1.0, 1.0, 2.0)

    def spectrum(self) -> EnergySpectrum:
        return EnergySpectrum(self.energies, self.beta)


def unitary_entanglable(p) -> bool:
    """Can energy-preserving unitaries alone entangle the state?"""
    probs = _probs(p)
    if probs.size != 4:
        raise ValueError("two-qubit populations have four entries")
    value = 4.0 * probs[0] * probs[3] - (probs[1] - probs[2]) ** 2
    return bool(value < -EPS_CMP)


def in_TN(p, cfg: TwoQubitConfig) -> bool:
    """True iff no thermal operation can make the state entanglable.

    Decided by the single future extreme point with the decisive level order,
    tested with `unitary_entanglable`'s margin.  Which of the degenerate
    middle pair holds more does not matter.  The state is classified as the
    only row of a `_tn_mask` batch, the kernel of `volume_ratio_CN_TN`, so
    its curve is read through `conjugate_rows` and never refused.
    """
    probs = _probs(p)
    return bool(_tn_mask(probs[None], _matched_gibbs(cfg.spectrum(), probs.size))[0])


def _non_entanglable(pi, f1: np.ndarray, f2: np.ndarray, f3: np.ndarray, ws: Workspace) -> np.ndarray:
    """Rows whose point with cumulative heights f1, f2, f3 along the level
    order `pi` is not unitarily entanglable (within EPS_CMP).

    The point's populations are the increments (f1, f2 - f1, f3 - f2, 1 - f3)
    of its levels taken in the order `pi`, and the test is
    `unitary_entanglable`'s margin 4 q_0 q_3 - (q_1 - q_2)^2 >= -EPS_CMP,
    with the same operations in the same order, evaluated in scratch taken
    from `ws`.
    """
    with ws.frame():
        q = ws.take((4, f1.size))
        for level, hi, lo in zip(pi, (f1, f2, f3, 1.0), (0.0, f1, f2, f3)):
            np.subtract(hi, lo, out=q[level])
        np.multiply(4.0, q[0], out=q[0])
        q[0] *= q[3]
        q[0] -= np.square(np.subtract(q[1], q[2], out=q[1]), out=q[1])
        return q[0] >= -EPS_CMP


def _tn_mask(samples: np.ndarray, gamma: np.ndarray, ws: Workspace = FRESH) -> np.ndarray:
    """Rows of `samples` in TN (`in_TN` is its one-row call), read off each row's curve with no sort.

    The decisive extreme point's populations are the increments of the row's
    curve c_q at the abscissae cumsum(gamma[_DECISIVE_ORDER]), and c_q there
    is min(1, min_j [r_j x + phi_q(r_j)]) (`conjugate_rows`).  No swap of the
    degenerate middle pair is needed: c_q depends only on the multiset of
    pairs {(q_i, gamma_i)}, the greedy fill by falling q_i / gamma_i, and the
    two middle levels have equal gamma, so swapping their populations leaves
    that multiset, and c_q, unchanged.

    The rows are read as the columns `samples.T`, with no copy (contiguous
    for draws laid out as `sample_simplex` lays them out); temporaries are
    taken from the workspace `ws`.
    """
    with ws.frame():
        r, phi = conjugate_rows(samples.T, gamma, ws)
        line, f = ws.take(r.shape), ws.take((3, r.shape[1]))
        for fk, x0 in zip(f, np.cumsum(gamma[list(_DECISIVE_ORDER)])[:3]):
            np.minimum(np.min(np.add(np.multiply(r, x0, out=line), phi, out=line), axis=0, out=fk), 1.0, out=fk)
        return _non_entanglable(_DECISIVE_ORDER, *f, ws)


def _cn_mask(samples: np.ndarray, gamma: np.ndarray, ws: Workspace = FRESH) -> np.ndarray:
    """Rows of `samples` whose whole catalysable future is thermally non-entanglable.

    For a row q with largest and smallest slopes s_1, s_d, the catalysable
    future below both tangent bounds, {q' : c_q' <= min(t_1, t_d)}, is
    R = {q' : c_q' <= h} with h(x) = min(s_1 x, 1 - s_d (1 - x), 1): both
    bounds are concave, so by the subset lemma (below) each set is decided
    at the Gibbs subsums gamma(S) of proper subsets, which lie in
    [gamma_min, 1 - gamma_min], where t_1 and t_d are the lines s_1 x and
    1 - s_d (1 - x).  The mask tests R ⊆ TN exactly, by testing R's extreme
    points against NE:

    - R is a base polytope.  h is concave, non-decreasing, h(0) = 0 and
      h(1) = 1, so F(S) = h(gamma(S)) is submodular.  By the subset lemma
      (`region_masks`: a concave h bounds c_q' iff q'(S) <= h(gamma(S)) for
      every level subset S), R = {q' : q'(S) <= F(S), q'(all) = 1}, the base
      polytope of F (q' >= 0 follows, as q'_i >= 1 - h(1 - gamma_i) >= 0).
      Its vertices are the greedy points (Edmonds, 1970): along a level order
      pi the populations are the increments of h at the knots
      cumsum(gamma[pi]), which is `order_vertices(_c_plus_heights)`, the C+
      vertices of `c_plus_vertices`.
    - R is closed under thermal operations: q'' in T+(q') means
      c_q'' <= c_q' <= h.
    - NE = {q' : 4 q'_0 q'_3 >= (q'_1 - q'_2)^2}, the states no
      energy-preserving unitary entangles, is convex on the simplex: with
      q'_0, q'_3 >= 0 it is a rotated second-order cone, at every beta.
    - So R ⊆ TN iff R ⊆ NE (TN ⊆ NE; and if R ⊆ NE, every q' in R has
      T+(q') ⊆ R ⊆ NE, so q' in TN) iff every C+ vertex lies in NE
      (R is their convex hull and NE is convex).

    Each vertex is tested with `unitary_entanglable`'s margin, so the mask is
    exact up to EPS_CMP at the vertices: a vertex whose margin lies in
    [-EPS_CMP, 0) is accepted as `unitary_entanglable` accepts it.  The
    tolerated set is not itself convex, so a point of R between such
    vertices can have a margin below -EPS_CMP, but not below
    -(2 s sqrt(EPS_CMP) + EPS_CMP) with s = (4 q'_0 + q'_3) / 2 <= 2.  (With
    x = 4 q'_0, y = q'_3, w = (x - y) / 2, z = q'_1 - q'_2 and
    r = |(w, z)|, the margin is s^2 - r^2; an accepted vertex has
    r - s <= sqrt(EPS_CMP), and r - s is convex in q', so its maximum over R
    is at a vertex; then s^2 - r^2 = (s - r)(s + r) gives the bound.)

    Only orders with level 1 before level 2 are tested (12 of 24): swapping
    the degenerate middle pair keeps the knots, so it only swaps q'_1 and
    q'_2, and the margin is symmetric in them.  Orders with equal Gibbs
    weights in the same places are not merged beyond that swap, because the
    margin, unlike TN, depends on which level holds which population.  The
    heights h are cached by their abscissae, so orders that share a knot
    reuse one array, equal to a fresh evaluation.  The rows are read as the
    columns `samples.T`, with no copy, and every row-sized array is taken
    from the workspace `ws`.
    """
    with ws.frame():
        s1, sd = extreme_slopes(samples.T, gamma, ws)
        heights = {}  # h at each knot abscissa, shared by the orders
        tail = ws.take(s1.shape)

        def h(x: np.float64) -> np.ndarray:
            if x not in heights:
                cap = heights[x] = tangent_cap(s1, sd, x, ws.take(s1.shape), tail)
                np.minimum(cap, 1.0, out=cap)
            return heights[x]

        out = np.ones(s1.size, dtype=bool)
        for pi in _CN_ORDERS:
            out &= _non_entanglable(pi, *map(h, np.cumsum(gamma[list(pi)])[:3]), ws)
            if not out.any():
                break
        return out


def in_CN(p, cfg: TwoQubitConfig, samples: int = 20_000, seed: int = DEFAULT_SEED) -> bool:
    """True iff not even a strict catalyst can open a path to entanglement.

    The state must lie in TN (`in_TN`), and its whole catalysable future R,
    the region between the first- and last-rank tangent bounds, must lie in
    TN, which `_cn_mask` decides exactly (up to EPS_CMP at the vertices) from
    R's extreme points, the C+ vertices; the proof is in its docstring.  No
    sample is drawn: `samples` and `seed` are accepted for callers of the
    sampled classifier and have no effect.

    The first screen is implied by the second (p lies in R), up to rounding,
    and stands for the screen of every future extreme point.  Proof.
    `in_TN(x)` holds iff no state of the future T+(x) is unitarily
    entanglable, which the decisive extreme point of T+(x) decides.  If
    `in_TN(p)`, every future extreme point v has T+(v) ⊆ T+(p), so
    `in_TN(v)`.  Conversely the decisive extreme point v* of T+(p) is one of
    them, and it is its own decisive extreme point (its slopes already fall
    along the decisive order), so `in_TN(v*)` is the test `in_TN(p)` makes.
    Hence every future extreme point lies in TN iff p does.
    """
    probs = _probs(p)
    return in_TN(probs, cfg) and bool(_cn_mask(probs[None], cfg.spectrum().gibbs)[0])


def p_star(beta: float) -> Dist:
    """Partially thermalised state whose whole future stays non-entanglable."""
    if beta < 0:
        raise ValueError("beta must be >= 0")
    z = 4.0 + 2.0 * math.cosh(beta)
    return Dist(np.array([math.exp(beta), 1.0, 1.0, 2.0 + math.exp(-beta)]) / z)


def p_star_star(beta: float) -> Dist:
    """Distinguished future extreme point of `p_star` (decisive level order)."""
    if beta < 0:
        raise ValueError("beta must be >= 0")
    z = 4.0 + 2.0 * math.cosh(beta)
    return Dist(np.array([math.exp(beta), 3.0, 1.0, math.exp(-beta)]) / z)


def volume_ratio_CN_TN(
    beta: float,
    samples: int = 100_000,
    seed: int = DEFAULT_SEED,
) -> tuple[VolumeEstimate, VolumeEstimate, float]:
    """Relative volumes of the catalytically and thermally non-entanglable sets.

    Classifies uniform simplex samples with `_tn_mask` (each sample's curve
    read at the decisive abscissae through `conjugate_rows`) and the vertex
    test `_cn_mask`, neither of which sorts a sample, on the samples in TN
    only, since V_CN counts the samples that pass both; returns
    (V_TN, V_CN, V_CN/V_TN).  The ratio is nan when no sample lands in the
    thermally non-entanglable set.
    """
    if samples < 10_000:
        raise ValueError("need at least 10000 samples")
    gamma = TwoQubitConfig(beta).spectrum().gibbs
    ws = Workspace()

    def hits(draws: np.ndarray) -> tuple[int, int]:
        # a row counts towards V_CN only if it is in TN, so `_cn_mask` (row by row) sees only those
        tn = _tn_mask(draws, gamma, ws)
        return int(tn.sum()), int(_cn_mask(_kept_rows(draws, tn, ws), gamma, ws).sum())

    tn_hits, cn_hits = map(sum, zip(*_over_chunks(4, samples, seed, hits, ws)))
    v_tn = _estimate(tn_hits, samples, seed)
    v_cn = _estimate(cn_hits, samples, seed)
    ratio = v_cn.value / v_tn.value if v_tn.value > 0 else math.nan
    return v_tn, v_cn, ratio
