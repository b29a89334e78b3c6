"""Thermal cones: the extreme points of a state's future."""

from __future__ import annotations

import numpy as np

from ._batch import distinct_vertices, order_vertices
from .core import (
    Dist,
    EnergySpectrum,
    _beta_curve,
    _matched_gibbs,
    _perm,
    _probs,
    _row_dist,
    _slope_order,
)

__all__ = ["ConeVertices", "future_cone_vertices", "vertex_for_order"]


class ConeVertices:
    """Extreme points of a future thermal cone keyed by target level order.

    `orders` is the read-only (k, d) matrix of level orders, 0-based,
    listing levels by rank, and row i of the read-only (k, d) matrix `rows`,
    already checked as a distribution, is the vertex of order i; only the
    lexicographically first order of each distinct vertex is kept, and the
    rows follow their orders lexicographically (`_batch.distinct_vertices`).
    The orders are int8, which holds every level up to the enumeration cap
    in an eighth of intp's memory: a vertex set keeps them beside its dict.

    `vertices` maps each order, as a tuple, to its vertex as a `Dist` around
    its row.  It is built on first use and kept in a slot, without a lock:
    two threads taking it first at once may both build it, and get equal
    dicts.  `len()` builds nothing.
    """

    __slots__ = ("orders", "rows", "_vertices")

    def __init__(self, orders: np.ndarray, rows: np.ndarray):
        self.orders, self.rows, self._vertices = orders, rows, None

    @property
    def vertices(self) -> dict[tuple[int, ...], Dist]:
        if self._vertices is None:
            self._vertices = dict(zip(map(tuple, self.orders.tolist()), map(_row_dist, self.rows)))
        return self._vertices

    def __len__(self) -> int:
        return self.rows.shape[0]

    def __iter__(self):
        return iter(self.vertices.items())

    def distinct(self) -> list[Dist]:
        return list(self.vertices.values())


def _curve_heights(probs: np.ndarray, spec: EnergySpectrum):
    gamma = _matched_gibbs(spec, probs.size)
    curve = _beta_curve(probs, gamma, _slope_order(probs, gamma)[1])
    return lambda knots: np.interp(knots, curve.xs, curve.ys)


def vertex_for_order(p, spec: EnergySpectrum, order) -> Dist:
    """Future-cone extreme point whose beta-order is the given level order."""
    probs = _probs(p)
    return Dist(order_vertices(_curve_heights(probs, spec), spec.gibbs, _perm(order, probs.size)[None])[0])


def _future_rows(probs: np.ndarray, spec: EnergySpectrum) -> tuple[np.ndarray, np.ndarray]:
    return distinct_vertices(_curve_heights(probs, spec), spec.gibbs)


def future_cone_vertices(p, spec: EnergySpectrum) -> ConeVertices:
    """All extreme points of the future thermal cone of `p`.

    The populations of every level order (d <= 8) are read off the curve of
    `p` at the order's Gibbs subsums, once per distinct prefix of the orders
    (`_batch.lex_rows`); vertices with equal `_batch.vertex_keys` keep the
    lexicographically first order.
    """
    return ConeVertices(*_future_rows(_probs(p), spec))
