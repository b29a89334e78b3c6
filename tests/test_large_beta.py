"""Curves whose Gibbs weights come within a few ulps of 1 or of 0 (large beta * dE).

A weight that small either leaves a gap between knots so narrow that rounding
in the heights breaks concavity, or sits below the 1e-15 scale that fixed
absolute slacks assume.  These states are valid and must be handled.
"""

import math

import numpy as np
import pytest

from thermocone import (
    EnergySpectrum,
    Relation,
    compare,
    isovolume_grid,
    mc_volume,
    optimal_cooling,
    tangent_bound_curve,
    tm_curve,
)
from thermocone import core
from thermocone.core import EPS_SLOPE

from curve_oracles import eval_rows_at, segment_index
from test_cooling_search import enum_cooling, fields

# levels 2 and 3 carry Gibbs weights near 7e-16 and 5e-16: the last gap of
# the curve is 4.4e-16 wide, and its height rounds from 1 - 1.1e-16 to 1
NARROW = EnergySpectrum((0.0, 1.0, 34.6, 35.0), 1.0)
P_NARROW = (0.1, 0.2, 0.7, 0.0)


def test_narrow_gap_curve_is_the_concave_hull_of_its_knots():
    curve = tm_curve(P_NARROW, NARROW)
    slopes = np.diff(curve.ys) / np.diff(curve.xs)
    assert np.all(np.diff(curve.xs) > 0.0)
    assert not np.any(np.diff(slopes) > EPS_SLOPE)
    gamma = NARROW.gibbs
    order = [2, 1, 0, 3]
    exact_x = np.concatenate(([0.0], np.cumsum(gamma[order])))
    exact_y = np.concatenate(([0.0], np.cumsum(np.asarray(P_NARROW)[order])))
    # every exact knot lies on or below the hull by no more than rounding
    assert np.all(np.interp(exact_x, curve.xs, curve.ys) >= exact_y - 1e-15)


def test_narrow_gap_state_can_be_compared_and_cooled():
    assert compare(P_NARROW, (0.25,) * 4, NARROW) is Relation.MAJORIZES
    report = optimal_cooling(P_NARROW, NARROW, catalytic=True)
    assert fields(report) == enum_cooling(P_NARROW, NARROW)


def test_ordinary_curves_are_unchanged():
    rng = np.random.default_rng(2)
    for _ in range(50):
        d = int(rng.integers(2, 7))
        spec = EnergySpectrum(tuple(rng.uniform(0.0, 3.0, d)), float(rng.uniform(0.0, 3.0)))
        p = rng.dirichlet(np.ones(d))
        order = np.argsort(-(p / spec.gibbs), kind="stable")
        xs = np.concatenate(([0.0], np.cumsum(spec.gibbs[order])))
        ys = np.concatenate(([0.0], np.cumsum(p[order])))
        xs[-1] = ys[-1] = 1.0
        curve = tm_curve(p, spec)
        assert curve.xs.tobytes() == xs.tobytes() and curve.ys.tobytes() == ys.tobytes()


def test_clearly_non_concave_beta_ordered_curve_is_still_refused(monkeypatch):
    # a slope order turned upside down gives a convex curve: a fault, not rounding
    slope_order = core._slope_order

    def upside_down(probs, gamma):
        ratios, order = slope_order(probs, gamma)
        return ratios, order[::-1]

    monkeypatch.setattr(core, "_slope_order", upside_down)
    with pytest.raises(RuntimeError, match="non-concave"):
        tm_curve((0.5, 0.3, 0.2), EnergySpectrum((0.0, 1.0, 2.0), 1.0))
    with pytest.raises(RuntimeError, match="non-concave"):
        tm_curve(P_NARROW, NARROW)


def test_weight_lost_to_rounding_is_still_refused():
    # 1 - 8.7e-27 rounds to 1: the curve would repeat its last abscissa
    spec = EnergySpectrum((0.0, 1.0, 2.0), 30.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="increase strictly"):
            tm_curve((0.6, 0.4, 0.0), spec)


@pytest.mark.parametrize("beta", [0.5, 20.0, 30.0, 36.0, 60.0])
def test_first_tangent_knot_stays_below_one(beta):
    spec = EnergySpectrum((0.0, 1.0, 2.0), beta)
    p = (0.5, 0.3, 0.2)
    gmin = float(spec.gibbs.min())
    curve = tangent_bound_curve(p, spec, 1)
    assert curve.xs[1] < 1.0
    if gmin >= 1.1e-16:  # 1 - gmin is a double below 1: the knot is not moved
        assert curve.xs[1] == 1.0 - gmin
    else:
        assert curve.xs[1] == math.nextafter(1.0, 0.0)


def test_catalysable_future_volume_at_large_beta():
    spec = EnergySpectrum((0.0, 1.0, 2.0), 30.0)
    estimate = mc_volume((0.5, 0.3, 0.2), spec, "C+", samples=20000)
    assert 0.0 <= estimate.value <= 1.0
    table = isovolume_grid(EnergySpectrum((0.0, 1.0, 2.0), 20.0), resolution=4, samples=2000)
    assert np.all((0.0 <= table[:, 2]) & (table[:, 2] <= 1.0))


def test_eval_rows_at_reads_knots_below_the_old_absolute_slack():
    xs = np.array([[0.0, 1.8e-40, 4.0e-27, 7.9e-12, 1.0]])
    ys = np.array([[0.0, 0.565, 0.635, 0.651, 1.0]])
    for x0, y0 in zip(xs[0], ys[0]):
        assert eval_rows_at(xs, ys, float(x0))[0] == pytest.approx(y0, abs=1e-15)


def test_segment_index_reads_one_row_as_it_reads_the_matrix():
    xs = np.array([[0.0, 1.8e-40, 4.0e-27, 7.9e-12, 1.0], [0.0, 0.2, 0.5, 0.5 + 1e-16, 1.0]])
    for x0 in (0.0, 1.8e-40, 4.0e-27 * (1 - 1e-16), 0.2, 0.5, 0.5 + 1e-16, 0.7, 1.0):
        both = segment_index(xs, x0)
        assert [int(segment_index(row, x0)) for row in xs] == both.tolist()
        assert np.all((0 <= both) & (both <= xs.shape[1] - 2))
