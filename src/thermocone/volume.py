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
from functools import cached_property

import numpy as np

from ._batch import batch_curves, rows_dominate_fixed, subset_masses
from .catalysis import tangent_bound_curve
from .core import EPS_CMP, EnergySpectrum, TMCurve, _matched_gibbs, _probs, tm_curve

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
_SUBSET_DIM = 6  # largest d whose 2^d - 2 subset masses are built for every row
_MASS_BYTES = 1 << 21  # subset masses held at once per chunk
_SLACK = 1e-12  # rounding allowance of the tangent screen in `_Chunk.above`

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


class _Chunk:
    """A chunk of draws with every row's mass on a family of level subsets.

    Up to `_SUBSET_DIM` levels the family is every nonempty proper subset,
    built by `subset_masses`, whose abscissae gamma(S) are shared by all rows,
    taken in row blocks of at most `_MASS_BYTES` of masses.  Above
    `_SUBSET_DIM`, where 2^d - 2 subsets cost more than a sort, the family is
    each row's own knot subsets, read off its sorted curve.  Either family
    contains every row's knot subsets, which is all `under` needs (see
    `region_masks`).  Masses are held as (subset, row), so tests over the
    subsets run along the long axis.
    """

    def __init__(self, draws: np.ndarray, gamma: np.ndarray, share_curves: bool = False):
        self.draws = draws
        self.gamma = gamma
        self.cols = np.ascontiguousarray(draws.T)
        self.curves = batch_curves(draws, gamma) if share_curves or gamma.size > _SUBSET_DIM else None

    def _family(self):
        # (rows, masses on the family as (subset, row), abscissae) block by block
        if self.gamma.size > _SUBSET_DIM:
            xs, ys = self.curves
            yield slice(None), ys[:, 1:-1].T, xs[:, 1:-1].T
            return
        x = subset_masses(self.gamma[:, None])
        step = _MASS_BYTES // (8 << self.gamma.size)
        for lo in range(0, len(self.draws), step):
            yield slice(lo, lo + step), subset_masses(self.cols[:, lo : lo + step]), x

    def under(self, *groups: tuple[TMCurve, ...]) -> list[np.ndarray]:
        """Per group of curves, the rows whose curve lies below all of them (within EPS_CMP).

        A group's threshold is the pointwise minimum of its curves; the test
        `mass <= min(a, b) + EPS_CMP` equals the two tests against a and b,
        because rounding the sums a + EPS_CMP and b + EPS_CMP is monotone.
        """
        out = [np.empty(len(self.draws), dtype=bool) for _ in groups]
        for rows, mass, x in self._family():
            for mask, curves in zip(out, groups):
                thr = np.interp(x, curves[0].xs, curves[0].ys)
                for c in curves[1:]:
                    thr = np.minimum(thr, np.interp(x, c.xs, c.ys))
                mask[rows] = np.all(mass <= thr + EPS_CMP, axis=0)
        return out

    @cached_property
    def slopes(self) -> tuple[np.ndarray, np.ndarray]:
        """Every row's largest and smallest slope p_i / gamma_i."""
        ratios = self.cols / self.gamma[:, None]
        return ratios.max(axis=0), ratios.min(axis=0)

    def above(self, curve: TMCurve, rows: np.ndarray) -> np.ndarray:
        """Rows, among `rows`, whose curve lies above `curve` (within EPS_CMP).

        A row's curve lies below its tangents min(s_1 x, 1 - s_d (1 - x)), so
        rows whose tangents already fall short at one of `curve`'s knots are
        dropped before the sorted curves are compared.
        """
        x = curve.xs[1:-1, None]
        s1, sd = self.slopes
        reach = np.minimum(x * s1, 1.0 - (1.0 - x) * sd)
        rows = rows & np.all(reach >= curve.ys[1:-1, None] - (EPS_CMP + _SLACK), axis=0)
        out = np.zeros(len(self.draws), dtype=bool)
        if rows.any():
            if self.curves is None:
                xs, ys = batch_curves(self.draws[rows], self.gamma)
            else:
                xs, ys = self.curves[0][rows], self.curves[1][rows]
            out[rows] = rows_dominate_fixed(xs, ys, curve)
        return out


@dataclass(frozen=True)
class _Bounds:
    """The three curves that bound a state's regions: its own, t_1 and t_d."""

    curve: TMCurve
    t1: TMCurve
    td: TMCurve

    @classmethod
    def of(cls, probs: np.ndarray, spec: EnergySpectrum) -> "_Bounds":
        d = probs.size
        return cls(tm_curve(probs, spec), tangent_bound_curve(probs, spec, 1), tangent_bound_curve(probs, spec, d))

    def region(self, name: str, chunk: _Chunk) -> np.ndarray:
        """Membership mask of one region; the past is checked only where it decides."""
        n = len(chunk.draws)
        if name == "T-":
            return chunk.above(self.curve, np.ones(n, dtype=bool))
        if name in ("T+", "T0"):
            (future,) = chunk.under((self.curve,))
            if name == "T+":
                return future
            rows = ~future
        elif name == "C+":
            future, inside = chunk.under((self.curve,), (self.t1, self.td))
            rows = inside & ~future
        else:
            future, in_t1, in_td = chunk.under((self.curve,), (self.t1,), (self.td,))
            rows = ~in_t1 & ~in_td & ~future
        return rows & ~chunk.above(self.curve, rows)


def region_masks(p, spec: EnergySpectrum, samples: np.ndarray) -> dict[str, np.ndarray]:
    """Boolean membership masks of every region for a batch of simplex samples.

    The future and the tangent masks need no sorting, by the subset lemma:
    a concave curve f bounds the curve c_q of a state q iff
    q(S) <= f(gamma(S)) for every level subset S.

    Proof.  Every point (gamma(S), q(S)) lies on or below c_q, which is the
    upper boundary of the hull of these points; so c_q <= f gives
    q(S) <= c_q(gamma(S)) <= f(gamma(S)).  Conversely, the knots of c_q are
    the points of the prefix subsets of q's beta-order, where the condition
    holds by assumption.  Between two consecutive knots c_q is linear and f
    is concave, so f - c_q is concave there and takes its minimum at one of
    the two knots.  Hence f >= c_q everywhere.  Only the knots of c_q enter
    the proof: the interior knots of f need no check of their own, because
    concavity covers them.  The same holds for f + EPS_CMP, which is how the
    tolerance enters.

    So each row needs its masses on the subsets (`subset_masses`), and each
    state one threshold row interp(gamma(S), f) shared by all rows.  The
    curves used here are concave: the state's own curve (the future, T+),
    t_1 (slope s_1 >= 1 up to 1 - gamma_min, then the chord to (1, 1)) and
    t_d (a chord, then slope s_d <= 1).  The catalysable future needs the
    row below both tangents, that is below the concave min(t_1, t_d), so
    one threshold row serves it; and `mass <= min(a, b) + EPS_CMP` is
    exactly `mass <= a + EPS_CMP and mass <= b + EPS_CMP` because rounding
    is monotone.  The catalysable past needs the row above *both* tangents
    somewhere, the complement of a union, which no single threshold row
    describes, so it keeps the two masks.

    The past (T-) asks the reverse, c_q >= c_p, which the lemma turns into a
    check of c_q at the knots of c_p.  That needs each row's sorted curve.
    Rows whose tangents min(s_1 x, 1 - s_d (1 - x)), which bound c_q from
    above, already fall short at a knot of c_p are dropped first.
    """
    probs = _probs(p)
    gamma = _matched_gibbs(spec, probs.size)
    bounds = _Bounds.of(probs, spec)
    chunk = _Chunk(samples, gamma, share_curves=True)
    future, in_t1, in_td = chunk.under((bounds.curve,), (bounds.t1,), (bounds.td,))
    past = chunk.above(bounds.curve, np.ones(len(samples), dtype=bool))
    incomparable = ~future & ~past
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
    gamma = _matched_gibbs(spec, probs.size)
    bounds = _Bounds.of(probs, spec)

    def hits(draws: np.ndarray) -> int:
        return int(bounds.region(name, _Chunk(draws, gamma)).sum())

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
    Every grid point uses the same seed, so one pass over the draws serves
    them all: each chunk's subset masses and sorted curves are built once and
    each grid point counts its hits on them, as `mc_volume` would.
    """
    if spec.d != 3:
        raise ValueError("isovolume grids are defined for three-level systems")
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    n = max(samples, 1000)
    grid = [(i / resolution, j / resolution) for i in range(resolution + 1) for j in range(resolution + 1 - i)]
    bounds = [_Bounds.of(_probs((p1, p2, 1.0 - p1 - p2)), spec) for p1, p2 in grid]

    def hits(draws: np.ndarray) -> list[int]:
        chunk = _Chunk(draws, spec.gibbs, share_curves=True)
        return [int(b.region("C+", chunk).sum()) for b in bounds]

    counts = [sum(c) for c in zip(*_over_chunks(3, n, seed, hits))]
    rows = [(p1, p2, c / n) for (p1, p2), c in zip(grid, counts)]
    table = np.array(rows)
    peak = table[:, 2].max()
    if peak > 0.0:
        table[:, 2] /= peak
    return table
