import numpy as np
import pytest

from thermocone import (
    EnergySpectrum,
    Relation,
    compare,
    future_cone_vertices,
    gibbs_vector,
    thermo_majorizes,
    vertex_for_order,
)

from conftest import random_dist, random_spectrum

SPEC3 = EnergySpectrum((0.0, 1.0, 2.0), 0.2)


class TestFutureVertices:
    def test_future_of_gibbs_is_gibbs(self):
        verts = future_cone_vertices(gibbs_vector(SPEC3), SPEC3)
        assert len(verts) == 1
        np.testing.assert_allclose(verts.distinct()[0].probs, SPEC3.gibbs, atol=1e-12)

    def test_identity_order_reproduces_state_at_beta_zero(self):
        spec = EnergySpectrum((0.0, 1.0, 2.0, 3.0), 0.0)
        p = (0.43, 0.37, 0.18, 0.02)
        verts = dict(iter(future_cone_vertices(p, spec)))
        np.testing.assert_allclose(verts[(0, 1, 2, 3)].probs, p, atol=1e-12)

    def test_cooling_vertex_value(self):
        v = vertex_for_order((0.1, 0.2, 0.7), SPEC3, (0, 1, 2))
        np.testing.assert_allclose(v.probs, [0.78, 0.15, 0.07], atol=5e-3)

    def test_every_vertex_in_future(self, rng):
        for d in (2, 3, 4):
            for _ in range(20):
                spec = random_spectrum(rng, d)
                p = random_dist(rng, d)
                for _, v in future_cone_vertices(p, spec):
                    assert thermo_majorizes(p, v, spec)

    def test_convex_combinations_stay_inside(self, rng):
        for _ in range(30):
            d = int(rng.integers(2, 5))
            spec = random_spectrum(rng, d)
            p = random_dist(rng, d)
            verts = np.asarray([v.probs for _, v in future_cone_vertices(p, spec)])
            w = rng.dirichlet(np.ones(len(verts)))
            assert thermo_majorizes(p, w @ verts, spec)

    def test_vertex_count_bounded_by_factorial(self, rng):
        import math

        for d in (2, 3, 4, 5):
            spec = random_spectrum(rng, d)
            assert len(future_cone_vertices(random_dist(rng, d), spec)) <= math.factorial(d)

    def test_dimension_cap(self):
        spec = EnergySpectrum(tuple(range(9)), 0.1)
        with pytest.raises(ValueError):
            future_cone_vertices(np.full(9, 1 / 9), spec)


class TestClassify:
    def test_gibbs_in_future(self, rng):
        p = random_dist(rng, 3)
        assert compare(p, SPEC3.gibbs, SPEC3) in (Relation.MAJORIZES, Relation.EQUIVALENT)

    def test_constructed_past_point(self, rng):
        # mixing p toward a sharp state often yields a state strictly above it
        triggered = 0
        for _ in range(40):
            p = random_dist(rng, 3)
            q = 0.5 * p + 0.5 * np.array([1.0, 0.0, 0.0])
            if thermo_majorizes(q, p, SPEC3) and not thermo_majorizes(p, q, SPEC3):
                assert compare(p, q, SPEC3) is Relation.MAJORIZED_BY
                triggered += 1
        assert triggered > 0

    def test_worked_incomparable_pair(self):
        assert compare((0.42, 0.51, 0.07), (0.52, 0.43, 0.05), SPEC3) is Relation.INCOMPARABLE
