import math
import sys

import numpy as np
import pytest

from thermocone import (
    EnergySpectrum,
    NoRootError,
    beta_order,
    c_plus_vertex,
    critical_hot_betas,
    gibbs_vector,
    heat_exchange,
    m_index,
    optimal_cooling,
    vertex_for_order,
)

from thermocone import cooling
from thermocone.cooling import _advantage_margin, _bisect_root, _no_go_margin

from conftest import random_dist

SPEC3 = EnergySpectrum((0.0, 1.0, 2.0), 0.2)
P_COOL = (0.1, 0.2, 0.7)


def scalar_boundary(fn, beta, name):
    """The grid scan `critical_hot_betas` made before its grid went to numpy: one scalar call per point."""
    grid = np.linspace(beta * 1e-9, beta * (1.0 - 1e-9), 512)
    vals = np.array([fn(x) for x in grid])
    signs = vals > 0.0
    flips = np.nonzero(signs[1:] != signs[:-1])[0]
    if flips.size == 0:
        held = "everywhere" if signs[0] else "nowhere"
        raise NoRootError(f"the {name} inequality binds {held} on (0, beta)")
    k = flips[0]
    return _bisect_root(fn, float(grid[k]), float(grid[k + 1]))


def scalar_critical_hot_betas(d, beta, j=1):
    spec_cold = EnergySpectrum(tuple(float(n) for n in range(d)), beta)
    m = m_index(j, spec_cold, EnergySpectrum(spec_cold.energies, beta / 2.0))
    down = scalar_boundary(lambda x: _advantage_margin(d, beta, m, x), beta, "advantage")
    up = scalar_boundary(lambda x: _no_go_margin(d, beta, m, x), beta, "no-go")
    return down, up


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the error must match too
        return type(exc), str(exc)


def hot_state(d, beta_h):
    w = np.exp(-beta_h * np.arange(float(d)))
    return w / w.sum()


class TestHeatExchange:
    def test_no_change_no_heat(self, rng):
        p = random_dist(rng, 3)
        assert heat_exchange(p, p, SPEC3) == 0.0

    def test_full_drop(self):
        assert heat_exchange((0, 0, 1), (1, 0, 0), SPEC3) == pytest.approx(-2.0)

    def test_worked_cone_vertex(self):
        target = vertex_for_order(P_COOL, SPEC3, (0, 1, 2))
        assert heat_exchange(P_COOL, target, SPEC3) == pytest.approx(-1.3135, abs=5e-4)


class TestOptimalCooling:
    def test_gibbs_cannot_cool(self):
        report = optimal_cooling(gibbs_vector(SPEC3), SPEC3)
        assert report.q_c == pytest.approx(0.0, abs=1e-9)
        np.testing.assert_allclose(report.target.probs, SPEC3.gibbs, atol=1e-9)

    def test_worked_example_without_catalyst(self):
        report = optimal_cooling(P_COOL, SPEC3)
        assert report.q_c == pytest.approx(-1.3135, abs=5e-4)
        np.testing.assert_allclose(report.target.probs, [0.78, 0.15, 0.07], atol=5e-3)
        assert report.order == (0, 1, 2)
        assert report.q_c_catalytic is None

    def test_worked_example_with_catalyst(self):
        report = optimal_cooling(P_COOL, SPEC3, catalytic=True)
        assert report.q_c_catalytic == pytest.approx(-1.38, abs=5e-3)
        np.testing.assert_allclose(report.target_catalytic.probs, [0.85, 0.08, 0.07], atol=5e-3)

    def test_catalyst_never_worsens(self, rng):
        for _ in range(40):
            d = int(rng.integers(2, 5))
            spec = EnergySpectrum(tuple(float(i) for i in range(d)), float(rng.uniform(0.1, 1.5)))
            report = optimal_cooling(random_dist(rng, d), spec, catalytic=True)
            assert report.q_c_catalytic <= report.q_c + 1e-10

    def test_cooling_is_never_heating(self, rng):
        for _ in range(20):
            report = optimal_cooling(random_dist(rng, 3), SPEC3)
            assert report.q_c <= 1e-12

    def test_ground_population_bound_at_catalytic_target(self, rng):
        for _ in range(40):
            d = int(rng.integers(2, 5))
            spec = EnergySpectrum(tuple(float(i) for i in range(d)), float(rng.uniform(0.1, 1.5)))
            p = random_dist(rng, d)
            report = optimal_cooling(p, spec, catalytic=True)
            bound = beta_order(p, spec).slopes[0] * spec.gibbs[0]
            assert report.target_catalytic.probs[0] <= bound + 1e-10


class TestSandwichIndex:
    def test_prefix_sandwich_holds(self):
        for beta, beta_h in ((0.2, 0.05), (1.0, 0.3), (2.0, 1.0)):
            for d in (3, 4, 5):
                cold = EnergySpectrum(tuple(float(i) for i in range(d)), beta)
                hot = EnergySpectrum(cold.energies, beta_h)
                gamma = np.asarray(cold.gibbs)
                rev = np.concatenate(([0.0], np.cumsum(gamma[::-1])))
                for j in range(d + 1):
                    m = m_index(j, cold, hot)
                    top = gamma[:j].sum()
                    assert rev[m] <= top + 1e-9
                    if m < d:
                        assert top <= rev[m + 1] + 1e-9

    def test_monotone_in_j(self):
        cold = EnergySpectrum((0.0, 1.0, 2.0), 0.2)
        hot = EnergySpectrum(cold.energies, 0.05)
        ms = [m_index(j, cold, hot) for j in range(4)]
        assert ms == sorted(ms)

    def test_equal_temperatures_collapse_the_sandwich(self):
        cold = EnergySpectrum((0.0, 1.0, 2.0), 0.7)
        m = m_index(1, cold, cold)
        gamma = np.asarray(cold.gibbs)
        rev = np.concatenate(([0.0], np.cumsum(gamma[::-1])))
        assert rev[m] <= gamma[0] <= rev[m + 1]

    def test_rejects_colder_initial_state(self):
        cold = EnergySpectrum((0.0, 1.0, 2.0), 0.2)
        hot = EnergySpectrum(cold.energies, 0.5)
        with pytest.raises(ValueError):
            m_index(1, cold, hot)

    def test_rejects_uneven_spectrum(self):
        with pytest.raises(ValueError):
            m_index(1, EnergySpectrum((0.0, 1.0, 3.0), 0.2), EnergySpectrum((0.0, 1.0, 3.0), 0.1))


def exact_guarantee_threshold(d, beta, m):
    """Independent reduced form of the guarantee boundary.

    Ground populations satisfy: catalytic bound >= non-catalytic upper bound
    iff sum_{n=0}^{m} exp(n*beta_h) <= exp(beta*(d-1)); the left side is
    increasing in beta_h, so the boundary is a single root.
    """
    target = math.exp(beta * (d - 1))

    def lhs(x):
        return sum(math.exp(n * x) for n in range(m + 1))

    if lhs(0.0) > target:
        return None
    if lhs(beta) <= target:
        return beta
    lo, hi = 0.0, beta
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if lhs(mid) <= target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestCriticalBetas:
    def test_roots_exist_for_cold_baths(self):
        down, up = critical_hot_betas(3, 2.0)
        assert 0.0 < down < 2.0
        assert 0.0 < up < 2.0

    def test_guarantee_side_verified_by_populations(self):
        # below the advantage threshold the catalytic ground population must
        # strictly beat the best non-catalytic one
        d, beta = 3, 2.0
        spec = EnergySpectrum(tuple(float(i) for i in range(d)), beta)
        down, _ = critical_hot_betas(d, beta)
        for frac in (0.2, 0.5, 0.9):
            beta_h = down * frac
            p = hot_state(d, beta_h)
            non_cat = vertex_for_order(p, spec, tuple(range(d))).probs[0]
            cat = c_plus_vertex(p, spec, tuple(range(d))).probs[0]
            assert cat >= non_cat - 1e-12

    def test_guarantee_is_sufficient_for_the_exact_reduced_form(self):
        # the printed inequality is stricter than the reduced prefix-sum form,
        # so its root can only sit below the exact threshold
        for d, beta in ((3, 2.0), (4, 1.5), (5, 1.2)):
            spec_cold = EnergySpectrum(tuple(float(i) for i in range(d)), beta)
            spec_hot = EnergySpectrum(spec_cold.energies, beta / 2)
            m = m_index(1, spec_cold, spec_hot)
            exact = exact_guarantee_threshold(d, beta, m)
            try:
                down, _ = critical_hot_betas(d, beta)
            except NoRootError:
                continue
            assert exact is not None
            assert down <= exact + 1e-6

    def test_no_root_for_hot_baths(self):
        with pytest.raises(NoRootError):
            critical_hot_betas(3, 0.2)

    def test_linearised_closed_forms(self):
        # frozen arithmetic of the small-beta expressions with d=3, m=1
        d, beta = 3, 0.01
        spec_cold = EnergySpectrum((0.0, 1.0, 2.0), beta)
        assert m_index(1, spec_cold, EnergySpectrum(spec_cold.energies, beta / 2)) == 1
        down, up = critical_hot_betas(d, beta, linearised=True)
        assert down == pytest.approx((3 * (3 * beta * 2 - 2) * 2 + 2) / 3, abs=1e-12)
        assert up == pytest.approx((3 * (3 * beta * 2 - 2) * 1 + 2) / 4, abs=1e-12)

    def test_roots_and_refusals_equal_the_scalar_grid_bit_for_bit(self):
        rng = np.random.default_rng(18)
        kinds = set()
        for _ in range(150):
            d = int(rng.integers(2, 9))
            beta = float(np.exp(rng.uniform(math.log(0.01), math.log(40.0))))
            j = int(rng.integers(1, d + 1))
            want = outcome(scalar_critical_hot_betas, d, beta, j)
            assert outcome(critical_hot_betas, d, beta, False, j) == want, (d, beta, j)
            kinds.add(want[0] if isinstance(want[0], type) else float)
        assert kinds == {float, NoRootError}
        # where exp(beta (d - 1)) overflows or 1 - exp(-beta 1e-9) is 0 the scalar form raises an
        # arithmetic error, and the library refuses the beta with the range it takes
        for d, beta, error in ((2, 711.0, OverflowError), (3, 360.0, OverflowError), (3, 1e-300, ZeroDivisionError)):
            assert outcome(scalar_critical_hot_betas, d, beta)[0] is error
            top = math.log(sys.float_info.max) / (d - 1)
            assert outcome(critical_hot_betas, d, beta) == (
                ValueError,
                f"beta must lie in [1e-07, {top!r}] at d = {d}, where the margins are finite doubles",
            )
        # at both ends of the range the answers are the scalar form's
        for d in (2, 3, 8):
            for beta in (1e-7, math.log(sys.float_info.max) / (d - 1)):
                assert outcome(critical_hot_betas, d, beta) == outcome(scalar_critical_hot_betas, d, beta)

    def test_grid_values_inside_the_band_are_read_with_the_scalar_form(self):
        d, beta, m = 4, 2.0, 1
        grid = np.linspace(beta * 1e-9, beta * (1.0 - 1e-9), 512)
        advantage, no_go, band = cooling._grid_margins(d, beta, m, grid)
        scalar = [np.array([fn(d, beta, m, x) for x in grid]) for fn in (_advantage_margin, _no_go_margin)]
        for vals, exact in zip((advantage, no_go), scalar):
            assert np.all((vals > 0.0) == (exact > 0.0))
            assert np.all(np.abs(vals - exact) <= band)
        # with every sign made unsure and wrong, the scan reads each point with the scalar form
        fn = lambda x: _advantage_margin(d, beta, m, x)  # noqa: E731
        got = cooling._boundary(fn, grid, -1e-300 * np.sign(advantage), np.ones(512), "advantage")
        assert got == scalar_boundary(fn, beta, "advantage")

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            critical_hot_betas(1, 1.0)
        with pytest.raises(ValueError):
            critical_hot_betas(3, 0.0)
