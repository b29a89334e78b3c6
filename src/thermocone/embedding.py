"""Embedding of thermomajorisation into plain majorisation.

Replicating level i into D_i equal blocks, where D_i/D approximates the Gibbs
weight gamma_i, turns curve comparison into ordinary majorisation of the
embedded vectors.  This module is the independent verification path used by
the test-suite; production comparisons go through `compare`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dist, EnergySpectrum, EPS_CMP, _probs, thermo_majorizes, tm_curve, _union_xs

__all__ = [
    "RationalGibbs",
    "OracleReport",
    "rationalize",
    "embed",
    "classical_majorizes",
    "oracle_report",
    "oracle_check",
]


@dataclass(frozen=True)
class RationalGibbs:
    """Common-denominator rational approximation D_i/D of a Gibbs vector."""

    numerators: tuple[int, ...]
    denominator: int
    delta: float  # achieved max_i |gamma_i - D_i/D|

    def __post_init__(self):
        if self.denominator < 1 or any(n < 1 for n in self.numerators):
            raise ValueError("numerators and denominator must be positive")
        if sum(self.numerators) != self.denominator:
            raise ValueError("numerators must sum to the denominator")


_DENOM_BLOCK = 4096  # denominators rounded per array pass; bounds memory for large bounds


def _rounded_numerators(gamma: np.ndarray, denoms: np.ndarray) -> np.ndarray:
    """Numerator row for each denominator: rounded weights, at least 1, summing to it."""
    col = denoms[:, None]
    num = np.rint(gamma * col).astype(int)
    np.clip(num, 1, None, out=num)
    # push each row's rounding surplus/deficit, one unit at a time, onto the
    # entry that profits most; rows already summing to their denominator rest
    rows = np.arange(denoms.size)
    diff = denoms - num.sum(axis=1)
    while np.any(diff):
        err = gamma - num / col
        up = diff > 0
        down = diff < 0
        num[rows[up], np.argmax(err[up], axis=1)] += 1
        num[rows[down], np.argmin(np.where(num[down] > 1, err[down], np.inf), axis=1)] -= 1
        diff = denoms - num.sum(axis=1)
    return num


def rationalize(gamma, max_denominator: int) -> RationalGibbs:
    """Best simultaneous rational approximation with denominator <= bound.

    Rounds every weight for every denominator from d upward, repairing each
    total, in blocks of denominators; keeps the first denominator achieving the
    smallest max error and stops after the block where that error reaches 0.
    """
    g = _probs(gamma)
    d = g.size
    if max_denominator < d:
        raise ValueError("max_denominator must be at least the dimension")
    best: RationalGibbs | None = None
    for start in range(d, max_denominator + 1, _DENOM_BLOCK):
        denoms = np.arange(start, min(start + _DENOM_BLOCK, max_denominator + 1))
        num = _rounded_numerators(g, denoms)
        deltas = np.abs(g - num / denoms[:, None]).max(axis=1)
        i = int(np.argmin(deltas))
        if best is None or deltas[i] < best.delta:
            best = RationalGibbs(tuple(num[i].tolist()), int(denoms[i]), float(deltas[i]))
        if best.delta == 0.0:
            break
    return best


def embed(p, rg: RationalGibbs) -> Dist:
    """Spread each entry p_i into D_i equal blocks of p_i / D_i."""
    probs = _probs(p)
    num = np.asarray(rg.numerators, dtype=int)
    if probs.size != num.size:
        raise ValueError("dimension mismatch between state and rational Gibbs vector")
    return Dist(np.repeat(probs / num, num))


def classical_majorizes(u, v, tol: float = EPS_CMP) -> bool:
    """Plain majorisation test via sorted prefix sums (independent of curves)."""
    a = np.sort(np.asarray(u, dtype=float))[::-1]
    b = np.sort(np.asarray(v, dtype=float))[::-1]
    if a.size != b.size:
        raise ValueError("majorisation needs equal lengths")
    return bool(np.all(np.cumsum(a) >= np.cumsum(b) - tol))


@dataclass(frozen=True)
class OracleReport:
    """Both verdicts plus the margin diagnostics of one embedded comparison."""

    thermo: bool
    embedded: bool
    margin: float      # smallest interior curve gap |f_p - f_q|
    threshold: float   # d * delta of the rational approximation
    inconclusive: bool  # margin below threshold: verdicts may legitimately differ
    rational: RationalGibbs


def oracle_report(p, q, spec: EnergySpectrum, max_denominator: int) -> OracleReport:
    rg = rationalize(spec.gibbs, max_denominator)
    lhs = embed(p, rg)
    rhs = embed(q, rg)
    cp = tm_curve(p, spec)
    cq = tm_curve(q, spec)
    xs = _union_xs(cp, cq)
    interior = (xs > 1e-15) & (xs < 1.0 - 1e-15)
    gaps = np.abs(np.interp(xs, cp.xs, cp.ys) - np.interp(xs, cq.xs, cq.ys))
    margin = float(gaps[interior].min()) if np.any(interior) else 0.0
    threshold = spec.d * rg.delta
    return OracleReport(
        thermo=thermo_majorizes(p, q, spec),
        embedded=classical_majorizes(lhs, rhs),
        margin=margin,
        threshold=threshold,
        inconclusive=margin < threshold,
        rational=rg,
    )


def oracle_check(p, q, spec: EnergySpectrum, max_denominator: int) -> bool:
    """Majorisation verdict on the embedded vectors (see `oracle_report`)."""
    return oracle_report(p, q, spec, max_denominator).embedded
