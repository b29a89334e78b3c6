"""Relative volumes of thermal and catalysable regions by Monte-Carlo sampling.

Samples are drawn uniformly from the probability simplex (normalised
exponential draws, a Dirichlet(1,...,1) sample) with a counter-based generator
keyed on (seed, chunk), so estimates are bit-for-bit reproducible and chunks
may be processed in parallel without changing the result.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._batch import FRESH, Workspace, conjugate_rows, conjugates, extreme_slopes, subset_masses, tangent_cap
from .core import EPS_CMP, EnergySpectrum, TMCurve, _beta_curve, _matched_gibbs, _probs, _slope_order, _tangent_bound

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
_SUBSET_DIM = 5  # largest d whose 2^d - 2 subset masses are built for every row; above it `under` reads conjugates
_MASS_BYTES = 1 << 21  # subset masses held at once per chunk
_SLACK = 1e-12  # rounding allowance of the tangent screen in `_Chunk.above`

REGIONS = ("T+", "T-", "T0", "C+", "C-")


def _threads() -> int:
    try:
        return max(1, int(os.environ.get("THERMOCONE_THREADS", "1")))
    except ValueError:
        return 1


def sample_simplex(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform simplex samples via normalised exponential draws.

    The (n, d) result holds the doubles of g / g.sum(axis=1, keepdims=True)
    for g = rng.exponential(size=(n, d)), laid out by column: it is the
    transpose of a C-contiguous (d, n) array, so each level's populations are
    contiguous and `result.T` is that array, with no copy.
    """
    return _draw(rng, np.empty((d, n)))


def _draw(rng: np.random.Generator, cols: np.ndarray, ws: Workspace = FRESH) -> np.ndarray:
    # fills the (d, n) array `cols` as `sample_simplex` does and returns cols.T; scratch from `ws`
    d, n = cols.shape
    with ws.frame():
        g = rng.standard_exponential(out=ws.take((n, d)))  # = rng.exponential(size=(n, d)): scale 1 is exact
        total = ws.take((n,))
        if d < 8:  # numpy adds fewer than 8 entries in order, so adding columns gives its row sums, 8x faster
            np.copyto(total, g[:, 0])
            for j in range(1, d):
                total += g[:, j]
        else:  # from 8 entries numpy sums in 8 lanes; reduce the row buffer itself
            np.sum(g, axis=1, out=total)
        np.divide(g.T, total, out=cols)
    return cols.T


def _over_chunks(d: int, samples: int, seed: int, fn, ws: Workspace | None = None):
    """`fn(draws)` for each chunk of `samples` uniform draws from the d-simplex, in order.

    Chunk i holds up to `_CHUNK` draws from Philox(key=[seed, i]), so results
    do not depend on `THERMOCONE_THREADS`.  With one thread they come lazily
    (a caller may stop early); with more, all chunks run on a thread pool.
    Each chunk is laid out as `sample_simplex` lays it out and runs in a frame
    of the workspace `ws` (a fresh one if None; callers pass the one their
    kernels use), so the chunks of one call (per thread) are drawn into the
    same memory: `fn` must not keep `draws`, or any view of it, past its own
    return; a copy is safe.
    """
    ws = ws or Workspace()

    def _run(chunk: int):
        rng = np.random.Generator(np.random.Philox(key=[seed, chunk]))
        with ws.frame():
            return fn(_draw(rng, ws.take((d, min(_CHUNK, samples - chunk * _CHUNK))), ws))

    chunks = range(-(-samples // _CHUNK))
    workers = _threads()
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor  # here, so that importing thermocone loads no logging

        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_run, chunks))
    return map(_run, chunks)


def _kept_rows(draws: np.ndarray, keep: np.ndarray, ws: Workspace) -> np.ndarray:
    """The rows of `draws` where `keep` holds, laid out as `sample_simplex` lays them out, taken from `ws`."""
    return np.compress(keep, draws.T, axis=1, out=ws.take((draws.shape[1], np.count_nonzero(keep)))).T


@dataclass(frozen=True)
class VolumeEstimate:
    """Hit-ratio estimate of a region's relative volume."""

    value: float
    stderr: float
    samples: int
    seed: int


def _support(curve: TMCurve) -> tuple[np.ndarray, np.ndarray]:
    """A concave curve f's positive segment slopes s, and phi_f(s) + EPS_CMP, phi_f(s) = max_k (y_k - s x_k).

    The maximum over every knot, not only the segment's own two, keeps the
    test right where rounding dents f: t_d of a state within rounding of
    Gibbs can have a first slope below its second.
    """
    s = np.diff(curve.ys) / np.diff(curve.xs)
    s = s[s > 0.0]
    return s, np.max(curve.ys - s[:, None] * curve.xs, axis=1) + EPS_CMP


def _estimate(hits: int, samples: int, seed: int) -> VolumeEstimate:
    v = hits / samples
    return VolumeEstimate(value=v, stderr=math.sqrt(v * (1.0 - v) / samples), samples=samples, seed=seed)


class _Chunk:
    """A chunk of draws, and the tests of its rows against fixed curves.

    `under` asks whether a row's curve lies below a concave curve f, in one
    of two ways (both exact in exact arithmetic; see `region_masks`).  Up to
    `_SUBSET_DIM` levels it builds every row's masses on every nonempty
    proper level subset (`subset_masses`), whose abscissae gamma(S) are
    shared by all rows, in row blocks of at most `_MASS_BYTES` of masses,
    held as (subset, row) so tests over the subsets run along the long axis;
    one set of masses serves every curve of an `under` call.  Above it, where
    2^d - 2 subsets cost more than the few slopes of the curves, it reads
    each row's conjugate phi_q (`conjugates`) at f's positive slopes.  No row
    is sorted either way.  The rows are read as the columns `draws.T`, with
    no copy; they are contiguous for draws laid out as `sample_simplex` lays
    them out.  Chunk-sized temporaries are taken from the workspace `ws`,
    which the chunks of one call share; each method gives back what it
    took, except `slopes`, which lasts as long as the frame it was first
    read in (`above` reads it before opening its own).
    """

    def __init__(self, draws: np.ndarray, gamma: np.ndarray, ws: Workspace = FRESH):
        self.draws = draws
        self.gamma = gamma
        self.cols = draws.T
        self.ws = ws

    def under(self, *groups: tuple[TMCurve, ...]) -> list[np.ndarray]:
        """Per group of curves, the rows whose curve lies below all of them (within EPS_CMP).

        Up to `_SUBSET_DIM` levels a group's threshold is the pointwise
        minimum of its curves at the subsets' abscissae; the test
        `mass <= min(a, b) + EPS_CMP` equals the two tests against a and b,
        because rounding the sums a + EPS_CMP and b + EPS_CMP is monotone.

        Above it, a row q lies below a curve f iff
        phi_q(s) <= phi_f(s) + EPS_CMP at each of f's segment slopes s > 0,
        where phi_f(s) = max_k (y_k - s x_k) over f's knots (`_support`):
        this is `dominance_margins`' test with f in place of the upper
        column (proof in `region_masks`), and a row lies below a group iff it
        lies below each of its curves.  A slope s <= 0 is never read: there
        both conjugates are near 1 - s in exact arithmetic, but in doubles
        they round at ulp(|s|), which t_1's final chord at large beta makes
        as large as about 1e-3.

        Rounding (above `_SUBSET_DIM`).  Each unclamped term
        q_i - s gamma_i of phi_q lies in (0, 1] with s gamma_i < 1, so it is
        off by at most about 1.5 ulps of 1, and phi_q by about 2d.
        phi_f(s) >= 0 is attained at a knot with s x_k <= y_k <= 1, off by
        about 1 ulp, except for t_1's knot, which lies above 1 at large
        beta: it is read only at t_1's first slope s = y / x, where y - s x
        is exactly 0 for y = s_1 x as `_tangent_bound` builds it
        (`tests/test_conjugate_masks.py` checks this), so the origin's exact
        0 is the maximum.  Reading the slope s itself off the knots moves
        each side by about 1 ulp of 1 more, as s gamma(S) < q(S) <= 1 on the
        levels S that phi_q sums.  So a row is decided as the sorted-curve
        test oracle decides it (`fixed_dominates_rows` in
        `tests/curve_oracles.py`) unless its curve comes within about
        (2d + 3) ulps of 1 (under 1e-14 up to d = 8) of f + EPS_CMP, as
        small as the sorted curves' own interpolation error.
        """
        if self.gamma.size > _SUBSET_DIM:
            return [self._below(curves) for curves in groups]
        out = [np.empty(len(self.draws), dtype=bool) for _ in groups]
        x = subset_masses(self.gamma[:, None])
        step = _MASS_BYTES // (8 << self.gamma.size)
        for lo in range(0, len(self.draws), step):
            with self.ws.frame():
                mass = subset_masses(self.cols[:, lo : lo + step], self.ws)
                below = self.ws.take(mass.shape, bool)
                for mask, curves in zip(out, groups):
                    thr = np.interp(x, curves[0].xs, curves[0].ys)
                    for c in curves[1:]:
                        thr = np.minimum(thr, np.interp(x, c.xs, c.ys))
                    np.all(np.less_equal(mass, thr + EPS_CMP, out=below), axis=0, out=mask[lo : lo + step])
        return out

    def _below(self, curves: tuple[TMCurve, ...]) -> np.ndarray:
        # rows whose conjugate lies below phi_f + EPS_CMP at every positive slope of every curve f
        slopes, bound = (np.concatenate(a) for a in zip(*map(_support, curves)))
        with self.ws.frame():
            phi = conjugates(self.cols, self.gamma, slopes[:, None], self.ws)
            return np.all(np.less_equal(phi, bound[:, None], out=self.ws.take(phi.shape, bool)), axis=0)

    @cached_property
    def slopes(self) -> tuple[np.ndarray, np.ndarray]:
        """Every row's largest and smallest slope p_i / gamma_i."""
        return extreme_slopes(self.cols, self.gamma, self.ws)

    def above(self, curve: TMCurve, rows: np.ndarray) -> np.ndarray:
        """Rows, among `rows`, whose curve lies above `curve` (within EPS_CMP).

        By `region_masks`, c_q >= c_p - EPS_CMP holds everywhere iff it holds
        at each interior knot (x_k, y_k) of c_p = `curve`, and by
        `conjugate_rows` c_q(x_k) = min(1, min_j [r_j x_k + phi_q(r_j)]).
        The cap 1 >= y_k - EPS_CMP always holds, so a row is above iff
        r_j x_k + phi_q(r_j) >= y_k - EPS_CMP for every level j and knot k.
        Near that edge r_j x_k <= 1, and every unclamped term q_i - r_j gamma_i
        lies in (0, q_i], so the left side is off by at most about (3d + 3)
        ulps of 1 (under 1e-14 up to d = 8), as small as the sorted curve's
        own interpolation error: only a row within that of the edge can be
        classified otherwise than the sorted-curve test oracle
        (`rows_dominate_fixed` in `tests/curve_oracles.py`) classifies it.
        A row's curve lies below its tangents min(s_1 x, 1 - s_d (1 - x)), so
        rows whose tangents already fall short at a knot are dropped first.
        """
        ws = self.ws
        knots = list(zip(curve.xs[1:-1], curve.ys[1:-1]))
        s1, sd = self.slopes
        out = np.zeros(len(self.draws), dtype=bool)
        with ws.frame():
            rows = rows.copy()
            cap, tail = ws.take((2, s1.size))
            for xk, yk in knots:
                rows &= tangent_cap(s1, sd, xk, cap, tail) >= yk - (EPS_CMP + _SLACK)
        if rows.any():
            with ws.frame():
                r, phi = conjugate_rows(_kept_rows(self.draws, rows, ws).T, self.gamma, ws)
                line, line_ok = ws.take(r.shape), ws.take(r.shape, bool)
                ok = np.ones(r.shape[1], dtype=bool)
                for xk, yk in knots:
                    np.add(np.multiply(r, xk, out=line), phi, out=line)
                    ok &= np.all(np.greater_equal(line, yk - EPS_CMP, out=line_ok), axis=0)
            out[rows] = ok
        return out


@dataclass(frozen=True)
class _Bounds:
    """The three curves that bound a state's regions: its own, t_1 and t_d."""

    curve: TMCurve
    t1: TMCurve
    td: TMCurve

    @classmethod
    def of(cls, probs: np.ndarray, spec: EnergySpectrum) -> "_Bounds":
        """The curves of checked populations `probs`: `tm_curve` and the two `tangent_bound_curve`s.

        The state is checked and beta-ordered once for all three.
        """
        gamma = _matched_gibbs(spec, probs.size)
        ratios, order = _slope_order(probs, gamma)
        slopes = ratios[order]
        return cls(
            _beta_curve(probs, gamma, order), _tangent_bound(slopes, gamma, True), _tangent_bound(slopes, gamma, False)
        )

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

    The future and the tangent masks need no sorting.  Up to `_SUBSET_DIM`
    levels they follow from the subset lemma:
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

    Above `_SUBSET_DIM` levels the 2^d - 2 subsets cost more than reading
    each row's conjugate phi_q(s) = sum_i max(q_i - s gamma_i, 0) at the
    few positive slopes s of the curves (`_Chunk.under`): c_q <= f + tol
    everywhere (tol = EPS_CMP) iff phi_q(s) <= phi_f(s) + tol at each
    slope s > 0 of f, with phi_f(s) = max_x [f(x) - s x], the maximum over
    f's knots.

    Proof (`dominance_margins`' proof with f in place of the upper column).
    phi_q is the Legendre conjugate of c_q, and c_q(x) is the minimum over
    s >= 0 of [s x + phi_q(s)] (`conjugate_rows`).  Let g be f up to its
    peak and flat after it, the least nondecreasing concave curve above f;
    for s >= 0, phi_g(s) = phi_f(s) and g(x) is the minimum over s >= 0 of
    [s x + phi_f(s)].  If c_q <= f + tol, then
    phi_q(s) = max_x [c_q(x) - s x] <= phi_f(s) + tol for every s.
    Conversely, if that holds for every s >= 0, then
    c_q(x) <= min_s [s x + phi_f(s)] + tol = g(x) + tol; and g differs from
    f only beyond f's peak, where f falls to f(1) = 1 >= c_q, so
    c_q <= f + tol.  Dropping the slopes s <= 0 is thus clamping f at 1.
    phi_f bends only at f's slopes: between s = 0 and f's least positive
    slope, and between two consecutive ones, phi_f is linear and phi_q
    convex, so phi_f - phi_q is concave there and smallest at an end.  At
    s = 0 it is max f - 1 >= 0, and beyond f's largest slope phi_f = 0 and
    -phi_q does not fall, so the difference is smallest at that slope.  So
    f's positive slopes are all that need checking, and for a group of
    curves, each curve's.

    The past (T-) asks the reverse, c_q >= c_p - EPS_CMP, and the same
    argument with the roles swapped makes it a check at the knots of c_p:
    between two consecutive knots c_p is linear and c_q is concave, so
    c_q - c_p is concave there and takes its minimum at a knot, and at (0,0)
    and (1,1) the curves meet.  c_q at a knot needs no sort either: by LP
    duality (`conjugate_rows`) c_q(x) = min(1, min_j [r_j x + phi_q(r_j)]),
    with r_j = q_j / gamma_j and phi_q(r) = sum_i max(q_i - r gamma_i, 0), so
    each row needs its d values phi_q(r_j) and nothing else (`_Chunk.above`).
    Rows whose tangents min(s_1 x, 1 - s_d (1 - x)), which bound c_q from
    above, already fall short at a knot of c_p are dropped first.
    """
    probs = _probs(p)
    gamma = _matched_gibbs(spec, probs.size)
    bounds = _Bounds.of(probs, spec)
    chunk = _Chunk(samples, gamma)
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
    if region not in REGIONS:
        raise ValueError(f"unknown region {region!r}; expected one of {REGIONS}")
    probs = _probs(p)
    gamma = _matched_gibbs(spec, probs.size)
    bounds = _Bounds.of(probs, spec)
    ws = Workspace()

    def hits(draws: np.ndarray) -> int:
        return int(bounds.region(region, _Chunk(draws, gamma, ws)).sum())

    return _estimate(sum(_over_chunks(probs.size, samples, seed, hits, ws)), samples, seed)


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
    them all: each chunk's subset masses are built once, by one `under` call
    that takes every grid point's curves, and each grid point counts its hits
    on them, as `mc_volume` would; the past reads each candidate row's
    conjugates (`conjugate_rows`), so no row is sorted.
    """
    if spec.d != 3:
        raise ValueError("isovolume grids are defined for three-level systems")
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    n = max(samples, 1000)
    grid = [(i / resolution, j / resolution) for i in range(resolution + 1) for j in range(resolution + 1 - i)]
    bounds = [_Bounds.of(_probs((p1, p2, 1.0 - p1 - p2)), spec) for p1, p2 in grid]
    ws = Workspace()

    def hits(draws: np.ndarray) -> list[int]:
        # the C+ of `_Bounds.region`, with every grid point's groups in one `under` call
        chunk = _Chunk(draws, spec.gibbs, ws)
        masks = chunk.under(*(group for b in bounds for group in ((b.curve,), (b.t1, b.td))))
        rows = [inside & ~future for future, inside in zip(masks[::2], masks[1::2])]
        return [int((r & ~chunk.above(b.curve, r)).sum()) for b, r in zip(bounds, rows)]

    counts = [sum(c) for c in zip(*_over_chunks(3, n, seed, hits, ws))]
    rows = [(p1, p2, c / n) for (p1, p2), c in zip(grid, counts)]
    table = np.array(rows)
    peak = table[:, 2].max()
    if peak > 0.0:
        table[:, 2] /= peak
    return table
