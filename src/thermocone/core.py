"""Core thermomajorisation machinery.

Energy spectra with their Gibbs states, beta-ordering, thermomajorisation
curves, the thermomajorisation preorder and tensor products of systems.

States are probability vectors over the energy eigenbasis.  Functions accept
plain sequences, numpy arrays or the wrapper types below, never mutate their
inputs, and are pure (safe to call concurrently).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "EPS_SUM",
    "EPS_NEG",
    "EPS_CMP",
    "EPS_SLOPE",
    "MAX_ENUM_DIM",
    "EnergySpectrum",
    "Dist",
    "QuasiDist",
    "SlopeVector",
    "TMCurve",
    "Relation",
    "gibbs_vector",
    "beta_order",
    "tm_curve",
    "curve_eval",
    "curve_dominates",
    "thermo_majorizes",
    "compare",
    "tensor",
]

EPS_SUM = 1e-9     # normalisation slack on probability vectors
EPS_NEG = 1e-12    # negative entries up to this magnitude are clamped to 0
EPS_CMP = 1e-10    # absolute tolerance when comparing curve heights
EPS_SLOPE = 1e-10  # concavity tolerance on consecutive segment slopes
HULL_SLACK = 4 * np.finfo(float).eps  # height a beta-ordered knot may lie off its curve's hull
MAX_ENUM_DIM = 8   # hard cap for permutation-enumerating operations (8! = 40320)


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _gibbs_probs(energies: tuple[float, ...], beta: float) -> np.ndarray:
    e = np.asarray(energies, dtype=float)
    if math.isinf(beta):
        # symbolic zero-temperature limit: all weight on the minimal energy
        hit = (e == e.min()).astype(float)
        return hit / hit.sum()
    # shifting by min(E) guards against overflow at large beta
    w = np.exp(-beta * (e - e.min()))
    if np.any(w == 0.0):
        raise ValueError(
            "beta too large for this spectrum in double precision; "
            "pass beta=math.inf for the sharp limit"
        )
    return w / w.sum()


@dataclass(frozen=True, eq=False)
class EnergySpectrum:
    """Energy levels of a d-level system plus the bath inverse temperature.

    ``beta=math.inf`` is accepted as a symbolic flag: the Gibbs vector is then
    the sharp ground-state limit and only :func:`gibbs_vector` is meaningful
    (beta-ordering would divide by zero Gibbs weights).
    """

    energies: tuple[float, ...]
    beta: float

    def __post_init__(self):
        energies = tuple(float(e) for e in np.atleast_1d(np.asarray(self.energies, dtype=float)))
        if len(energies) < 1:
            raise ValueError("spectrum needs at least one energy level")
        if not all(math.isfinite(e) for e in energies):
            raise ValueError("energies must be finite")
        beta = float(self.beta)
        if math.isnan(beta) or beta < 0.0:
            raise ValueError("beta must be >= 0")
        object.__setattr__(self, "energies", energies)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "_gibbs", _freeze(_gibbs_probs(energies, beta)))

    @property
    def d(self) -> int:
        return len(self.energies)

    @property
    def gibbs(self) -> np.ndarray:
        """Thermal distribution exp(-beta*E_i)/Z as a read-only array."""
        return self._gibbs


@dataclass(frozen=True, eq=False, slots=True)
class Dist:
    """Probability vector: entries >= 0 (tiny negatives clamped), sum == 1.

    Slotted, with no per-instance `__dict__`: a walk over a vertex set wraps
    every row in one (`_row_dist`), and the slot saves an allocation per
    vertex.
    """

    probs: np.ndarray

    def __post_init__(self):
        p = np.array(self.probs, dtype=float).reshape(-1)
        if p.size < 1:
            raise ValueError("empty distribution")
        object.__setattr__(self, "probs", _simplex_rows(p))

    def __len__(self) -> int:
        return self.probs.size

    def __getitem__(self, i):
        return self.probs[i]

    def __array__(self, dtype=None, copy=None):
        return np.array(self.probs, dtype=dtype)

    def __repr__(self) -> str:
        return f"Dist({np.array2string(self.probs, precision=6, separator=', ')})"


def _simplex_rows(m: np.ndarray) -> np.ndarray:
    """Check every row of `m` by Dist's rules at once; clamps in place, then read-only.

    The rows run along the last axis, so a 1-d `m` is one row (`Dist`): its
    sum and, through `m[bad][0]`, its message are those of the row.
    """
    if not np.isfinite(m).all():
        raise ValueError("distribution entries must be finite")
    if m.min() < -EPS_NEG:
        raise ValueError(f"negative probability {m.min():.3e} below -{EPS_NEG:.0e}")
    np.maximum(m, 0.0, out=m)  # np.clip with no upper bound, less its Python wrappers
    bad = np.abs(m.sum(axis=-1) - 1.0) > EPS_SUM
    if bad.any():
        raise ValueError(f"probabilities sum to {float(m[bad][0].sum()):.12g}, not 1")
    return _freeze(m)


def _row_dist(row: np.ndarray) -> Dist:
    """Dist around a row of `_simplex_rows` output, without checking it again."""
    dist = object.__new__(Dist)
    object.__setattr__(dist, "probs", row)
    return dist


@dataclass(frozen=True, eq=False)
class QuasiDist:
    """Signed vector summing to one; entries may be negative."""

    entries: np.ndarray

    def __post_init__(self):
        t = np.array(self.entries, dtype=float).reshape(-1)
        if t.size < 1:
            raise ValueError("empty quasi-distribution")
        if not np.all(np.isfinite(t)):
            raise ValueError("entries must be finite")
        if abs(t.sum() - 1.0) > EPS_SUM:
            raise ValueError(f"entries sum to {float(t.sum()):.12g}, not 1")
        object.__setattr__(self, "entries", _freeze(t))

    def __len__(self) -> int:
        return self.entries.size

    def __getitem__(self, i):
        return self.entries[i]

    def __array__(self, dtype=None, copy=None):
        return np.array(self.entries, dtype=dtype)


def _probs(p) -> np.ndarray:
    """Validated probability entries of a Dist or array-like."""
    if isinstance(p, Dist):
        return p.probs
    if isinstance(p, QuasiDist):
        raise TypeError("a proper probability distribution is required here")
    return Dist(p).probs


def _entries(p) -> np.ndarray:
    """Entries of a Dist, QuasiDist or array-like summing to one."""
    if isinstance(p, Dist):
        return p.probs
    if isinstance(p, QuasiDist):
        return p.entries
    return QuasiDist(p).entries


def _matched_gibbs(spec: EnergySpectrum, d: int) -> np.ndarray:
    if spec.d != d:
        raise ValueError(f"state has {d} levels but spectrum has {spec.d}")
    if math.isinf(spec.beta):
        raise ValueError("beta=inf spectra only support gibbs_vector")
    return spec.gibbs


def _perm(order, d: int) -> np.ndarray:
    idx = np.asarray(order, dtype=int).reshape(-1)
    if idx.size != d or sorted(idx.tolist()) != list(range(d)):
        raise ValueError(f"order {order!r} is not a permutation of 0..{d - 1}")
    return idx


class Relation(Enum):
    """Thermomajorisation relation of a state pair, seen from the first state."""

    MAJORIZES = "Majorizes"
    MAJORIZED_BY = "MajorizedBy"
    EQUIVALENT = "Equivalent"
    INCOMPARABLE = "Incomparable"


@dataclass(frozen=True, eq=False)
class SlopeVector:
    """Non-increasing slopes p_i/gamma_i together with the realising order.

    ``order[k]`` is the 0-based level occupying rank ``k``; equal slopes are
    broken by ascending level index.
    """

    slopes: np.ndarray
    order: np.ndarray


def gibbs_vector(spec: EnergySpectrum) -> Dist:
    """Thermal distribution of `spec` (uniform at beta=0, sharp at beta=inf)."""
    return Dist(spec.gibbs)


def beta_order(p, spec: EnergySpectrum) -> SlopeVector:
    """Sort the slopes p_i/gamma_i non-increasingly.

    Ties are broken by ascending level index; the induced curve does not
    depend on the choice.
    """
    probs = _probs(p)
    ratios, order = _slope_order(probs, _matched_gibbs(spec, probs.size))
    return SlopeVector(slopes=_freeze(ratios[order]), order=_freeze(order))


def _slope_order(probs: np.ndarray, gamma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # slopes p_i/gamma_i of checked arrays and their stable non-increasing order
    ratios = probs / gamma
    return ratios, np.argsort(-ratios, kind="stable")


@dataclass(frozen=True, eq=False)
class TMCurve:
    """Piecewise-linear curve from (0,0) to (1,1) given by its elbows."""

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        ys = np.asarray(self.ys, dtype=float)
        if xs.shape != ys.shape or xs.ndim != 1 or xs.size < 2:
            raise ValueError("curve needs matching 1-d elbow arrays")
        if abs(xs[0]) > EPS_SUM or abs(xs[-1] - 1.0) > EPS_SUM:
            raise ValueError("curve must span x in [0, 1]")
        if np.any(np.diff(xs) <= 0):
            raise ValueError("elbow abscissae must increase strictly")
        object.__setattr__(self, "xs", _freeze(np.array(xs)))
        object.__setattr__(self, "ys", _freeze(np.array(ys)))

    def eval(self, x):
        return curve_eval(self, x)


def tm_curve(p, spec: EnergySpectrum, order=None) -> TMCurve:
    """Thermomajorisation curve of `p` against the Gibbs weights of `spec`.

    Without `order` the beta-order of `p` is used; `p` must then be a proper
    distribution and the result is concave (see below).  Quasi-distributions
    (e.g. tangent vectors) must supply their level order explicitly, and the
    resulting curve may be non-concave.

    On the beta-ordered path the curve is concave in exact arithmetic, but a
    level whose Gibbs weight is within a few ulps of its running sum leaves a
    gap so narrow that rounding in the heights can break concavity by more
    than EPS_SLOPE.  Such a curve is replaced by the upper hull of its knots
    (`_upper_hull`) when every knot lies within HULL_SLACK of the hull; every
    other curve is returned unchanged.  A curve that breaks concavity by more
    than that, or repeats an abscissa (a weight lost to rounding altogether),
    is refused.
    """
    if order is None:
        probs = _probs(p)
        gamma = _matched_gibbs(spec, probs.size)
        return _beta_curve(probs, gamma, _slope_order(probs, gamma)[1])
    probs = _entries(p)
    gamma = _matched_gibbs(spec, probs.size)
    return TMCurve(*_knots(probs, gamma, _perm(order, probs.size)))


def _knots(probs: np.ndarray, gamma: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # knots of the curve that fills the levels in the order `idx`
    xs = np.concatenate(([0.0], np.cumsum(gamma[idx])))
    ys = np.concatenate(([0.0], np.cumsum(probs[idx])))
    xs[-1] = 1.0
    ys[-1] = 1.0
    return xs, ys


def _beta_curve(probs: np.ndarray, gamma: np.ndarray, idx: np.ndarray) -> TMCurve:
    """`tm_curve` of checked populations in their beta-order `idx`, with its concavity check."""
    xs, ys = _knots(probs, gamma, idx)
    dx = np.diff(xs)
    if np.any(np.diff(np.diff(ys) / dx) > EPS_SLOPE):
        hull = _upper_hull(xs, ys) if np.all(dx > 0.0) else None
        if hull is None or np.any(np.abs(np.interp(xs, *hull) - ys) > HULL_SLACK):
            raise RuntimeError("non-concave curve from a beta-ordered distribution")
        xs, ys = hull
    return TMCurve(xs, ys)


def _tangent_bound(slopes: np.ndarray, gamma: np.ndarray, first: bool) -> TMCurve:
    """t_1 (`first`) or t_d of a state whose slopes, non-increasing, are `slopes` (`tangent_bound_curve`)."""
    if gamma.size == 1:
        return TMCurve(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    gmin = float(gamma.min())
    if first:
        x0 = min(1.0 - gmin, np.nextafter(1.0, 0.0))
        return TMCurve(np.array([0.0, x0, 1.0]), np.array([0.0, slopes[0] * x0, 1.0]))
    return TMCurve(
        np.array([0.0, gmin, 1.0]),
        np.array([0.0, 1.0 - slopes[-1] * (1.0 - gmin), 1.0]),
    )


def _upper_hull(xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Knots of the upper hull of a curve's knots, whose abscissae increase strictly.

    A knot is dropped when the slope rises after it by more than EPS_SLOPE.
    The slopes are computed as `tm_curve` computes them, so what is left
    passes its concavity test.
    """
    keep = [0]
    for i in range(1, xs.size):
        while len(keep) > 1:
            a, b = keep[-2], keep[-1]
            if (ys[i] - ys[b]) / (xs[i] - xs[b]) - (ys[b] - ys[a]) / (xs[b] - xs[a]) <= EPS_SLOPE:
                break
            keep.pop()
        keep.append(i)
    return xs[keep], ys[keep]


def curve_eval(curve: TMCurve, x):
    """Evaluate a curve at `x` in [0, 1] by linear interpolation."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr < -1e-12) or np.any(arr > 1.0 + 1e-12):
        raise ValueError("curve argument outside [0, 1]")
    out = np.interp(np.clip(arr, 0.0, 1.0), curve.xs, curve.ys)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def _union_xs(c1: TMCurve, c2: TMCurve) -> np.ndarray:
    """The sorted union of two curves' abscissae, as `np.union1d` gives it.

    Merged by a sort and a dedup on exact equality, instead of `np.union1d`,
    whose `np.unique` imports `numpy.ma` (about 12 ms) on its first call.
    """
    xs = np.sort(np.concatenate((c1.xs, c2.xs)))
    return xs[np.concatenate(([True], xs[1:] != xs[:-1]))]


def curve_dominates(upper: TMCurve, lower: TMCurve, tol: float = EPS_CMP) -> bool:
    """True iff `upper` >= `lower` - tol at every elbow abscissa of either curve.

    Exact for piecewise-linear curves: between consecutive union abscissae both
    curves are linear, so elbow comparison decides pointwise dominance.
    """
    xs = _union_xs(upper, lower)
    hi = np.interp(xs, upper.xs, upper.ys)
    lo = np.interp(xs, lower.xs, lower.ys)
    return bool(np.all(hi >= lo - tol))


def _pair(p, q, spec: EnergySpectrum) -> tuple[np.ndarray, np.ndarray]:
    """The checked states as the columns [p, q], and their Gibbs weights; p is checked first."""
    a = _probs(p)
    gamma = _matched_gibbs(spec, a.size)
    b = _probs(q)
    _matched_gibbs(spec, b.size)
    return np.stack((a, b), axis=1), gamma


def thermo_majorizes(p, q, spec: EnergySpectrum) -> bool:
    """True iff the curve of `p` lies above the curve of `q` everywhere (within EPS_CMP; see `compare`).

    Only the forward margin is read: the first column of `compare`'s call.
    """
    from ._batch import dominance_margins  # _batch imports this module

    pair, gamma = _pair(p, q, spec)
    return bool(dominance_margins(pair[:, :1], pair[:, 1:], gamma)[0] >= -EPS_CMP)


def compare(p, q, spec: EnergySpectrum) -> Relation:
    """Relate `p` to `q`: Majorizes / MajorizedBy / Equivalent / Incomparable.

    Both directions are read from one `_batch.dominance_margins` call on the
    columns [p, q] against [q, p]: a direction holds iff its margin, the
    least gap between the two curves, is >= -EPS_CMP.  No curve is built, so
    none is refused.  Only a pair within about 1e-14 of that edge (the
    rounding band stated there) can be decided otherwise than by comparing
    the sorted curves with `curve_dominates`.
    """
    from ._batch import dominance_margins  # _batch imports this module

    pair, gamma = _pair(p, q, spec)
    forward, backward = dominance_margins(pair, pair[:, ::-1], gamma) >= -EPS_CMP
    if forward and backward:
        return Relation.EQUIVALENT
    if forward:
        return Relation.MAJORIZES
    if backward:
        return Relation.MAJORIZED_BY
    return Relation.INCOMPARABLE


def tensor(p_a, spec_a: EnergySpectrum, p_b, spec_b: EnergySpectrum) -> tuple[Dist, EnergySpectrum]:
    """Product state and composite spectrum of two systems at a common beta.

    Level (i, j) of the composite maps to flat index i * d_b + j with energy
    E_i + E_j.
    """
    if spec_a.beta != spec_b.beta:
        raise ValueError("cannot tensor systems at different inverse temperatures")
    a = _probs(p_a)
    b = _probs(p_b)
    if a.size != spec_a.d or b.size != spec_b.d:
        raise ValueError("state/spectrum dimension mismatch")
    probs = np.outer(a, b).ravel()
    energies = np.add.outer(np.asarray(spec_a.energies), np.asarray(spec_b.energies)).ravel()
    return Dist(probs), EnergySpectrum(tuple(energies), spec_a.beta)
