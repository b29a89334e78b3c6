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

from ._batch import FRESH, Workspace, conjugate_rows, extreme_slopes, segment_index
from .catalysis import tangent_bound_curve
from .cones import vertex_for_order
from .core import Dist, EnergySpectrum, EPS_CMP, _probs
from .volume import DEFAULT_SEED, VolumeEstimate, _Chunk, _estimate, _kept_rows, _over_chunks

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


def in_TN(p, cfg: TwoQubitConfig) -> bool:
    """True iff no thermal operation can make the state entanglable.

    Decided by the single future extreme point with the decisive level order.
    Which of the degenerate middle pair holds more does not matter (`_tn_mask`).
    """
    vertex = vertex_for_order(p, cfg.spectrum(), _DECISIVE_ORDER)
    return not unitary_entanglable(vertex)


def _non_entanglable(f1: np.ndarray, f2: np.ndarray, f3: np.ndarray, ws: Workspace) -> np.ndarray:
    """Rows whose decisive extreme point, with curve heights f1, f2, f3 at the
    decisive abscissae, is not unitarily entanglable (within EPS_CMP).

    The point's populations are (f1, f2 - f1, f3 - f2, 1 - f3) in the
    decisive order, and the test is `unitary_entanglable`'s margin
    4 p_1 p_4 - (p_2 - p_3)^2, evaluated in scratch taken from `ws`.
    """
    with ws.frame():
        a, b = ws.take((2, f1.size))
        np.multiply(4.0, np.subtract(f2, f1, out=a), out=a)
        a *= np.subtract(1.0, f3, out=b)
        np.subtract(f1, np.subtract(f3, f2, out=b), out=b)
        a -= np.square(b, out=b)
        return a >= -EPS_CMP


def _tn_mask(samples: np.ndarray, gamma: np.ndarray, ws: Workspace = FRESH) -> np.ndarray:
    """Rows of `samples` that `in_TN` accepts, read off each row's curve with no sort.

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
        return _non_entanglable(*f, ws)


def _cn_mask(samples: np.ndarray, gamma: np.ndarray, ws: Workspace = FRESH) -> np.ndarray:
    """Vertex test: every extreme point of the catalysable future must stay
    thermally non-entanglable.  Exact whenever the non-entanglable set is
    convex (it is at beta=0, and numerically for beta > 0).

    The extreme point of level order pi has the fixed knots cumsum(gamma[pi])
    and the heights h(x) = min(s_1 x, 1 - s_d (1 - x), 1) there (s_1, s_d the
    row's largest and smallest slope).  h is concave and non-decreasing, so the
    point's populations are non-negative, its slopes fall along pi and its
    thermomajorisation curve is the chord through those knots.  That curve is
    therefore read directly at the three abscissae of the decisive order, as
    `_tn_mask` reads a row's curve, with no vertex built and no row sorted;
    its increments between them are the decisive point's populations.
    Heights and chords are cached by their abscissae, so orders that share a
    knot or a segment reuse one array, equal to what a fresh evaluation gives.
    The rows are read as the columns `samples.T`, with no copy, and every
    row-sized array is taken from the workspace `ws`.
    """
    with ws.frame():
        s1, sd = extreme_slopes(samples.T, gamma, ws)
        heights = {0.0: 0.0, 1.0: 1.0}  # h at each knot abscissa, shared by the orders
        chords = {}  # the curve at a probe, keyed by the segment's two knots and the probe

        def chord(xs: np.ndarray, x0: np.float64) -> np.ndarray:
            # the curve through (xs, h(xs)) at x0, on the segment `segment_index` picks
            j = int(segment_index(xs, x0))
            lo, hi = xs[j], xs[j + 1]
            if (lo, hi, x0) not in chords:
                for x in (lo, hi):
                    if x not in heights:
                        h = ws.take(s1.shape)
                        with ws.frame():
                            tail = ws.take(s1.shape)
                            np.subtract(1.0, np.multiply(sd, 1.0 - x, out=tail), out=tail)
                            heights[x] = np.minimum(np.minimum(np.multiply(s1, x, out=h), tail, out=h), 1.0, out=h)
                c = ws.take(s1.shape)
                np.subtract(heights[hi], heights[lo], out=c)
                chords[lo, hi, x0] = np.add(heights[lo], np.multiply((x0 - lo) / (hi - lo), c, out=c), out=c)
            return chords[lo, hi, x0]

        probes = np.cumsum(gamma[list(_DECISIVE_ORDER)])[:3]
        out = np.ones(s1.size, dtype=bool)
        seen: set[tuple[float, ...]] = set()
        for pi in permutations(range(4)):
            key = tuple(gamma[list(pi)])
            if key in seen:  # degenerate middle levels give duplicate knot sets
                continue
            seen.add(key)
            xs = np.concatenate(([0.0], np.cumsum(gamma[list(pi)])))
            xs[-1] = 1.0
            out &= _non_entanglable(*(chord(xs, x0) for x0 in probes), ws)
            if not out.any():
                break
        return out


def in_CN(p, cfg: TwoQubitConfig, samples: int = 20_000, seed: int = DEFAULT_SEED) -> bool:
    """True iff not even a strict catalyst can open a path to entanglement.

    One-sided numeric classifier (sound when False).  Two screens come
    first: the state must lie in TN (`in_TN`), and every extreme point of
    its catalysable future must stay thermally non-entanglable, which
    `_cn_mask` reads off the state's row with no vertex built.  Rejection
    samples from the joint region are then re-screened as `in_TN` would, by
    `_tn_mask`, which sorts no sample.

    The first screen stands for the screen of every future extreme point.
    Proof.  `in_TN(x)` holds iff no state of the future T+(x) is unitarily
    entanglable, which the decisive extreme point of T+(x) decides.  If
    `in_TN(p)`, every future extreme point v has T+(v) ⊆ T+(p), so `in_TN(v)`.
    Conversely the decisive extreme point v* of T+(p) is one of them, and it
    is its own decisive extreme point (its slopes already fall along the
    decisive order), so `in_TN(v*)` is the test `in_TN(p)` makes.  Hence
    every future extreme point lies in TN iff p does.
    """
    probs = _probs(p)
    spec = cfg.spectrum()
    gamma = spec.gibbs
    if not (in_TN(probs, cfg) and _cn_mask(probs[None], gamma)[0]):
        return False
    t1 = tangent_bound_curve(probs, spec, 1)
    td = tangent_bound_curve(probs, spec, 4)
    ws = Workspace()

    def stays_out(draws: np.ndarray) -> bool:
        (inside,) = _Chunk(draws, gamma, ws).under((t1, td))
        return not inside.any() or bool(_tn_mask(_kept_rows(draws, inside, ws), gamma, ws).all())

    return all(_over_chunks(4, samples, seed, stays_out, ws))


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
