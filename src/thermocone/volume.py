"""Relative volumes of thermal and catalysable regions by Monte-Carlo sampling.

Samples are drawn uniformly from the probability simplex (normalised
exponential draws, a Dirichlet(1,...,1) sample) with a counter-based generator
keyed on (seed, chunk), so estimates are bit-for-bit reproducible and chunks
may be processed in parallel without changing the result.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._batch import batch_curves, fixed_dominates_rows, rows_dominate_fixed
from .catalysis import tangent_bound_curve
from .core import EnergySpectrum, _matched_gibbs, _probs, tm_curve

__all__ = [
    "DEFAULT_SEED",
    "DEFAULT_SAMPLES",
    "VolumeEstimate",
    "REGIONS",
    "sample_simplex",
    "region_masks",
    "mc_volume",
    "exact_area_d3",
    "isovolume_grid",
]

DEFAULT_SEED = 1729
DEFAULT_SAMPLES = 100_000
_CHUNK = 1 << 14

REGIONS = ("T+", "T-", "T0", "C+", "C-")
_REGION_ALIASES = {"T∅": "T0", "Tnull": "T0"}


def _threads() -> int:
    try:
        return max(1, int(os.environ.get("THERMOCONE_THREADS", "1")))
    except ValueError:
        return 1


def sample_simplex(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform simplex samples via normalised exponential draws."""
    g = rng.exponential(size=(n, d))
    return g / g.sum(axis=1, keepdims=True)


def _over_chunks(d: int, samples: int, seed: int, fn):
    """`fn(draws)` for each chunk of `samples` uniform draws from the d-simplex, in order.

    Chunk i holds up to `_CHUNK` draws from Philox(key=[seed, i]), so results
    do not depend on `THERMOCONE_THREADS`.  With one thread they come lazily
    (a caller may stop early); with more, all chunks run on a thread pool.
    """

    def _run(chunk: int):
        rng = np.random.Generator(np.random.Philox(key=[seed, chunk]))
        return fn(sample_simplex(d, min(_CHUNK, samples - chunk * _CHUNK), rng))

    chunks = range(-(-samples // _CHUNK))
    workers = _threads()
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_run, chunks))
    return map(_run, chunks)


@dataclass(frozen=True)
class VolumeEstimate:
    """Hit-ratio estimate of a region's relative volume."""

    value: float
    stderr: float
    samples: int
    seed: int


def _estimate(hits: int, samples: int, seed: int) -> VolumeEstimate:
    v = hits / samples
    return VolumeEstimate(value=v, stderr=math.sqrt(v * (1.0 - v) / samples), samples=samples, seed=seed)


def region_masks(p, spec: EnergySpectrum, samples: np.ndarray) -> dict[str, np.ndarray]:
    """Boolean membership masks of every region for a batch of simplex samples."""
    probs = _probs(p)
    d = probs.size
    _matched_gibbs(spec, d)
    gamma = spec.gibbs
    curve = tm_curve(probs, spec)
    t1 = tangent_bound_curve(probs, spec, 1)
    td = tangent_bound_curve(probs, spec, d)
    xs, ys = batch_curves(samples, gamma)
    future = fixed_dominates_rows(curve, xs, ys)
    past = rows_dominate_fixed(xs, ys, curve)
    incomparable = ~future & ~past
    in_t1 = fixed_dominates_rows(t1, xs, ys)
    in_td = fixed_dominates_rows(td, xs, ys)
    return {
        "T+": future,
        "T-": past,
        "T0": incomparable,
        "C+": incomparable & in_t1 & in_td,
        "C-": incomparable & ~in_t1 & ~in_td,
    }


def _canonical_region(region: str) -> str:
    name = _REGION_ALIASES.get(region, region)
    if name not in REGIONS:
        raise ValueError(f"unknown region {region!r}; expected one of {REGIONS}")
    return name


def mc_volume(
    p,
    spec: EnergySpectrum,
    region: str,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> VolumeEstimate:
    """Relative volume of a region of the simplex around the state `p`.

    Regions: "T+" (future), "T-" (past), "T0" (incomparable), "C+"
    (catalysable future), "C-" (catalysable past).
    """
    if samples < 1000:
        raise ValueError("need at least 1000 samples")
    name = _canonical_region(region)
    probs = _probs(p)

    def hits(draws: np.ndarray) -> int:
        return int(region_masks(probs, spec, draws)[name].sum())

    return _estimate(sum(_over_chunks(probs.size, samples, seed, hits)), samples, seed)


def exact_area_d3(vertices) -> float:
    """Area of a convex polygon of 3-level states, relative to the simplex.

    Vertices are taken in the (p_1, p_2) plane; the ratio to the full simplex
    area is affine-invariant, so this plane is as good as any embedding.
    Degenerate polygons give 0.
    """
    pts = np.array([np.asarray(v, dtype=float)[:2] for v in vertices])
    if pts.ndim != 2 or pts.shape[0] < 3:
        return 0.0
    centre = pts.mean(axis=0)
    angles = np.arctan2(pts[:, 1] - centre[1], pts[:, 0] - centre[0])
    ordered = pts[np.argsort(angles, kind="stable")]
    x, y = ordered[:, 0], ordered[:, 1]
    area = 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))
    return area / 0.5


def isovolume_grid(
    spec: EnergySpectrum,
    resolution: int = 10,
    samples: int = 20_000,
    seed: int = DEFAULT_SEED,
) -> np.ndarray:
    """Catalysable-future volume over a barycentric grid of 3-level states.

    Returns rows (p_1, p_2, relative volume), where volumes are normalised by
    the grid maximum (all-zero grids are left at zero).  Grid states with an
    empty third population are included; they are valid non-full-rank states.
    """
    if spec.d != 3:
        raise ValueError("isovolume grids are defined for three-level systems")
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    rows = []
    for i in range(resolution + 1):
        for j in range(resolution + 1 - i):
            p1 = i / resolution
            p2 = j / resolution
            p3 = 1.0 - p1 - p2
            est = mc_volume((p1, p2, p3), spec, "C+", samples=max(samples, 1000), seed=seed)
            rows.append((p1, p2, est.value))
    table = np.array(rows)
    peak = table[:, 2].max()
    if peak > 0.0:
        table[:, 2] /= peak
    return table
