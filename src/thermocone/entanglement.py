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

from ._batch import batch_curves, eval_rows_at
from .catalysis import c_plus_vertices, tangent_bound_curve
from .cones import future_cone_vertices, vertex_for_order
from .core import Dist, EnergySpectrum, EPS_CMP, _probs
from .volume import DEFAULT_SEED, VolumeEstimate, _Chunk, _estimate, _over_chunks

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


def _canonical(probs: np.ndarray) -> np.ndarray:
    # the degenerate middle levels are exchangeable; order them descending
    if probs[2] > probs[1]:
        out = probs.copy()
        out[1], out[2] = probs[2], probs[1]
        return out
    return probs


def in_TN(p, cfg: TwoQubitConfig) -> bool:
    """True iff no thermal operation can make the state entanglable.

    Decided by the single future extreme point with the decisive level order,
    after canonicalising the degenerate middle pair.
    """
    probs = _canonical(_probs(p))
    vertex = vertex_for_order(probs, cfg.spectrum(), _DECISIVE_ORDER)
    return not unitary_entanglable(vertex)


def _tn_mask(samples: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    swap = samples[:, 2] > samples[:, 1]
    canon = samples.copy()
    canon[swap, 1], canon[swap, 2] = samples[swap, 2], samples[swap, 1]
    xs, ys = batch_curves(canon, gamma)
    g2, g1, g3 = gamma[1], gamma[0], gamma[2]
    f1 = eval_rows_at(xs, ys, float(g2))
    f2 = eval_rows_at(xs, ys, float(g2 + g1))
    f3 = eval_rows_at(xs, ys, float(g2 + g1 + g3))
    w1 = f2 - f1
    w2 = f1
    w3 = f3 - f2
    w4 = 1.0 - f3
    return 4.0 * w1 * w4 - (w2 - w3) ** 2 >= -EPS_CMP


def _cn_mask(samples: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Vertex test: every extreme point of the catalysable future must stay
    thermally non-entanglable.  Exact whenever the non-entanglable set is
    convex (it is at beta=0, and numerically for beta > 0).

    The extreme point of level order pi has the fixed knots cumsum(gamma[pi])
    and the heights h(x) = min(s_1 x, 1 - s_d (1 - x), 1) there (s_1, s_d the
    row's largest and smallest slope).  h is concave and non-decreasing, so the
    point's populations are non-negative, its slopes fall along pi and its
    thermomajorisation curve is the chord through those knots.  `_tn_mask`
    first swaps the two degenerate middle levels into descending order; that
    swap exchanges two equal Gibbs weights, so it leaves the knots, and the
    curve, unchanged.  The curve is therefore read directly at the three
    abscissae of the decisive order, with no vertex built and no row sorted;
    its increments between them are the decisive point's populations.
    Heights and chords are cached by their abscissae, so orders that share a
    knot or a segment reuse one array, equal to what a fresh evaluation gives.
    """
    ratios = np.ascontiguousarray(samples.T) / gamma[:, None]
    s1, sd = ratios.max(axis=0), ratios.min(axis=0)
    heights = {0.0: 0.0, 1.0: 1.0}  # h at each knot abscissa, shared by the orders
    chords = {}  # the curve at a probe, keyed by the segment's two knots and the probe

    def chord(xs: np.ndarray, x0: np.float64) -> np.ndarray:
        # the curve through (xs, h(xs)) at x0, with the segment choice of `eval_rows_at`
        j = min(max(int((xs <= x0 + 1e-15).sum()) - 1, 0), xs.size - 2)
        lo, hi = xs[j], xs[j + 1]
        if (lo, hi, x0) not in chords:
            for x in (lo, hi):
                if x not in heights:
                    heights[x] = np.minimum(np.minimum(s1 * x, 1.0 - sd * (1.0 - x)), 1.0)
            chords[lo, hi, x0] = heights[lo] + (x0 - lo) / (hi - lo) * (heights[hi] - heights[lo])
        return chords[lo, hi, x0]

    probes = np.cumsum(gamma[list(_DECISIVE_ORDER)])[:3]
    out = np.ones(samples.shape[0], dtype=bool)
    seen: set[tuple[float, ...]] = set()
    for pi in permutations(range(4)):
        key = tuple(gamma[list(pi)])
        if key in seen:  # degenerate middle levels give duplicate knot sets
            continue
        seen.add(key)
        xs = np.concatenate(([0.0], np.cumsum(gamma[list(pi)])))
        xs[-1] = 1.0
        f1, f2, f3 = (chord(xs, x0) for x0 in probes)
        out &= 4.0 * (f2 - f1) * (1.0 - f3) - (f1 - (f3 - f2)) ** 2 >= -EPS_CMP
        if not out.any():
            break
    return out


def in_CN(p, cfg: TwoQubitConfig, samples: int = 20_000, seed: int = DEFAULT_SEED) -> bool:
    """True iff not even a strict catalyst can open a path to entanglement.

    One-sided numeric classifier (sound when False): every extreme point of
    the future and catalysable-future regions is screened, then rejection
    samples from the joint region are re-screened through `in_TN`.
    """
    probs = _probs(p)
    spec = cfg.spectrum()
    for vertices in (future_cone_vertices, c_plus_vertices):
        if not all(in_TN(v, cfg) for v in vertices(probs, spec).distinct()):
            return False
    gamma = spec.gibbs
    t1 = tangent_bound_curve(probs, spec, 1)
    td = tangent_bound_curve(probs, spec, 4)

    def stays_out(draws: np.ndarray) -> bool:
        (inside,) = _Chunk(draws, gamma).under((t1, td))
        return not inside.any() or bool(_tn_mask(draws[inside], gamma).all())

    return all(_over_chunks(4, samples, seed, stays_out))


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

    Classifies uniform simplex samples with the vertex test; returns
    (V_TN, V_CN, V_CN/V_TN).  The ratio is nan when no sample lands in the
    thermally non-entanglable set.
    """
    if samples < 10_000:
        raise ValueError("need at least 10000 samples")
    gamma = TwoQubitConfig(beta).spectrum().gibbs

    def hits(draws: np.ndarray) -> tuple[int, int]:
        tn = _tn_mask(draws, gamma)
        return int(tn.sum()), int((_cn_mask(draws, gamma) & tn).sum())

    tn_hits, cn_hits = map(sum, zip(*_over_chunks(4, samples, seed, hits)))
    v_tn = _estimate(tn_hits, samples, seed)
    v_cn = _estimate(cn_hits, samples, seed)
    ratio = v_cn.value / v_tn.value if v_tn.value > 0 else math.nan
    return v_tn, v_cn, ratio
