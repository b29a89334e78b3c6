import numpy as np
import pytest

from thermocone import (
    EnergySpectrum,
    TwoQubitConfig,
    c_plus_vertices,
    exact_area_d3,
    future_cone_vertices,
    in_CN,
    isovolume_grid,
    mc_volume,
    region_masks,
    sample_simplex,
    volume_ratio_CN_TN,
)
from thermocone.volume import _over_chunks

from conftest import random_dist

SPEC3 = EnergySpectrum((0.0, 1.0, 2.0), 0.2)
FIG_STATE = (0.34, 0.59, 0.07)


def test_estimates_live_in_unit_interval(rng):
    p = random_dist(rng, 3)
    for region in ("T+", "T-", "T0", "C+", "C-"):
        est = mc_volume(p, SPEC3, region, samples=2000, seed=1)
        assert 0.0 <= est.value <= 1.0
        assert est.stderr == pytest.approx(
            np.sqrt(est.value * (1 - est.value) / est.samples), abs=1e-15
        )


def test_unknown_region_rejected():
    with pytest.raises(ValueError):
        mc_volume(FIG_STATE, SPEC3, "X+", samples=2000)


def test_sample_floor_enforced():
    with pytest.raises(ValueError):
        mc_volume(FIG_STATE, SPEC3, "C+", samples=10)


def test_future_of_sharp_ground_state_fills_the_simplex():
    # at beta=0 a sharp state tops the majorisation order, so its future is everything
    spec = EnergySpectrum((0.0, 1.0, 2.0), 0.0)
    est = mc_volume((1.0, 0.0, 0.0), spec, "T+", samples=20_000, seed=2)
    assert est.value == pytest.approx(1.0, abs=1e-12)
    # at finite temperature high-level-heavy states escape, but most remain reachable
    est = mc_volume((1.0, 0.0, 0.0), SPEC3, "T+", samples=20_000, seed=2)
    assert est.value > 0.8


def test_sharp_states_have_no_catalysable_future():
    for d, beta in ((3, 0.2), (4, 0.5)):
        spec = EnergySpectrum(tuple(float(i) for i in range(d)), beta)
        for k in range(d):
            p = np.zeros(d)
            p[k] = 1.0
            est = mc_volume(p, spec, "C+", samples=20_000, seed=3)
            assert est.value <= 3 * est.stderr + 1e-12


def test_gibbs_like_nonfullrank_state_cannot_be_catalysed():
    g = np.asarray(SPEC3.gibbs).copy()
    g[-1] = 0.0
    g /= g.sum()
    est = mc_volume(g, SPEC3, "C+", samples=20_000, seed=4)
    assert est.value <= 3 * est.stderr + 1e-12


def test_nonfullrank_states_have_no_catalysable_past(rng):
    for _ in range(3):
        p = random_dist(rng, 3)
        p[int(rng.integers(3))] = 0.0
        p /= p.sum()
        est = mc_volume(p, SPEC3, "C-", samples=20_000, seed=5)
        assert est.value <= 3 * est.stderr + 1e-12


def test_partition_sums_to_one():
    vals = {r: mc_volume(FIG_STATE, SPEC3, r, samples=30_000, seed=6) for r in ("T+", "T-", "T0")}
    total = sum(v.value for v in vals.values())
    spread = 3 * np.sqrt(sum(v.stderr**2 for v in vals.values()))
    assert abs(total - 1.0) <= spread + 1e-12


def test_masks_are_consistent(rng):
    draws = sample_simplex(3, 500, rng)
    masks = region_masks(FIG_STATE, SPEC3, draws)
    assert np.all(masks["C+"] <= masks["T0"])
    assert np.all(masks["C-"] <= masks["T0"])
    assert np.all((masks["T+"] | masks["T-"] | masks["T0"]))


def test_seeded_estimates_are_bitwise_reproducible():
    a = mc_volume(FIG_STATE, SPEC3, "C+", samples=15_000, seed=7)
    b = mc_volume(FIG_STATE, SPEC3, "C+", samples=15_000, seed=7)
    assert a.value == b.value
    c = mc_volume(FIG_STATE, SPEC3, "C+", samples=15_000, seed=8)
    assert a.value != c.value  # different seed should move the estimate


def test_threaded_estimates_match_serial(monkeypatch):
    serial = mc_volume(FIG_STATE, SPEC3, "C+", samples=40_000, seed=9)
    monkeypatch.setenv("THERMOCONE_THREADS", "4")
    threaded = mc_volume(FIG_STATE, SPEC3, "C+", samples=40_000, seed=9)
    assert serial.value == threaded.value


def test_threaded_entanglement_estimates_match_serial(monkeypatch, rng):
    cfg = TwoQubitConfig(0.5)
    gibbs = cfg.spectrum().gibbs
    # states near Gibbs pass the vertex screen, so every chunk is sampled
    states = [(0.0, 1.0, 0.0, 0.0), gibbs] + [0.3 * random_dist(rng, 4) + 0.7 * gibbs for _ in range(3)]
    serial_cn = [in_CN(p, cfg, samples=40_000, seed=11) for p in states]
    serial_ratio = volume_ratio_CN_TN(0.5, samples=40_000, seed=11)
    monkeypatch.setenv("THERMOCONE_THREADS", "2")
    assert [in_CN(p, cfg, samples=40_000, seed=11) for p in states] == serial_cn
    assert volume_ratio_CN_TN(0.5, samples=40_000, seed=11) == serial_ratio


def test_serial_chunks_run_lazily(monkeypatch):
    monkeypatch.setenv("THERMOCONE_THREADS", "1")
    calls = []

    def count(draws):
        calls.append(draws.shape)
        return draws.shape[0]

    results = iter(_over_chunks(3, 5 * (1 << 14), 1, count))
    assert next(results) == 1 << 14
    assert calls == [(1 << 14, 3)]


class TestExactArea:
    def test_full_simplex(self):
        corners = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        assert exact_area_d3(corners) == pytest.approx(1.0, abs=1e-12)

    def test_single_point(self):
        assert exact_area_d3([(0.2, 0.3, 0.5)]) == 0.0

    def test_catalysable_polygon_matches_monte_carlo(self):
        # region area as (bounded future region) minus (plain future), both convex
        joint = [v.probs for _, v in c_plus_vertices(FIG_STATE, SPEC3)]
        future = [v.probs for _, v in future_cone_vertices(FIG_STATE, SPEC3)]
        area = exact_area_d3(joint) - exact_area_d3(future)
        est = mc_volume(FIG_STATE, SPEC3, "C+", samples=100_000, seed=10)
        assert abs(area - est.value) <= 3 * est.stderr


def test_catalysable_volume_fades_at_temperature_extremes():
    # raw (unnormalised) volumes: sizeable at moderate beta, tiny at large beta
    p = (0.34, 0.59, 0.07)
    mid = mc_volume(p, EnergySpectrum((0.0, 1.0, 2.0), 0.2), "C+", samples=50_000, seed=21)
    cold = mc_volume(p, EnergySpectrum((0.0, 1.0, 2.0), 8.0), "C+", samples=50_000, seed=21)
    assert mid.value > 0.01
    assert cold.value < mid.value
    assert cold.value < 0.01


class TestIsovolumeGrid:
    def test_beta_zero_vanishes_everywhere(self):
        table = isovolume_grid(EnergySpectrum((0.0, 1.0, 2.0), 0.0), resolution=6, samples=2000, seed=11)
        assert table[:, 2].max() == 0.0

    def test_chamber_boundary_states_have_zero_volume(self):
        # on a slope-tie line the curve keeps touching both tangent families,
        # so the catalysable future collapses
        for beta in (0.2, 1.0, 5.0):
            spec = EnergySpectrum((0.0, 1.0, 2.0), beta)
            g = np.asarray(spec.gibbs)
            for mass, pair in ((0.8, (0, 1)), (0.55, (1, 2))):
                p = np.zeros(3)
                scale = mass / (g[pair[0]] + g[pair[1]])
                p[pair[0]] = scale * g[pair[0]]
                p[pair[1]] = scale * g[pair[1]]
                p[3 - pair[0] - pair[1]] = 1.0 - mass
                est = mc_volume(p, spec, "C+", samples=20_000, seed=12)
                assert est.value <= 3 * est.stderr + 1e-12

    def test_grid_shape_and_determinism(self):
        spec = EnergySpectrum((0.0, 1.0, 2.0), 1.0)
        a = isovolume_grid(spec, resolution=5, samples=2000, seed=13)
        b = isovolume_grid(spec, resolution=5, samples=2000, seed=13)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (21, 3)
        assert a[:, 2].max() == pytest.approx(1.0)  # normalised by the grid peak

    def test_requires_three_levels(self):
        with pytest.raises(ValueError):
            isovolume_grid(EnergySpectrum((0.0, 1.0), 1.0))
