"""Thermal cones: the extreme points of a state's future."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._batch import distinct_vertices, order_vertices
from .core import (
    Dist,
    EnergySpectrum,
    _perm,
    _probs,
    _row_dist,
    tm_curve,
)

__all__ = ["ConeVertices", "future_cone_vertices"]


@dataclass(frozen=True, eq=False)
class ConeVertices:
    """Extreme points of a future thermal cone keyed by target level order.

    Orders are 0-based tuples listing levels by rank; only the
    lexicographically first order of each distinct vertex is kept.
    """

    vertices: dict[tuple[int, ...], Dist]

    @classmethod
    def from_rows(cls, orders: np.ndarray, rows: np.ndarray) -> ConeVertices:
        """Wrap the (orders, vertices) matrices of `_batch.distinct_vertices`."""
        return cls({tuple(pi): _row_dist(v) for pi, v in zip(orders.tolist(), rows)})

    def __len__(self) -> int:
        return len(self.vertices)

    def __iter__(self):
        return iter(self.vertices.items())

    def distinct(self) -> list[Dist]:
        return list(self.vertices.values())


def _curve_heights(probs: np.ndarray, spec: EnergySpectrum):
    curve = tm_curve(probs, spec)
    return lambda knots: np.interp(knots, curve.xs, curve.ys)


def vertex_for_order(p, spec: EnergySpectrum, order) -> Dist:
    """Future-cone extreme point whose beta-order is the given level order."""
    probs = _probs(p)
    return Dist(order_vertices(_curve_heights(probs, spec), spec.gibbs, _perm(order, probs.size)[None])[0])


def _future_rows(probs: np.ndarray, spec: EnergySpectrum) -> tuple[np.ndarray, np.ndarray]:
    return distinct_vertices(_curve_heights(probs, spec), spec.gibbs)


def future_cone_vertices(p, spec: EnergySpectrum) -> ConeVertices:
    """All extreme points of the future thermal cone of `p`.

    One vectorised pass over every level order (d <= 8) reads the populations
    off the curve of `p` at the order's Gibbs subsums; vertices equal to 1e-10
    keep the lexicographically first order.
    """
    return ConeVertices.from_rows(*_future_rows(_probs(p), spec))
