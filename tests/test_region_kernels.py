"""Sort-free region masks against the curve-based code they replace.

The oracles below are the previous implementations, kept verbatim: the
region masks that compared every sample's sorted curve with the fixed curves
at the knots of both (through `fixed_dominates_rows` and `rows_dominate_fixed`
in `curve_oracles`), and the `_cn_mask` that built each catalysable-future
extreme point and classified it through `_tn_mask`.
"""

from itertools import permutations

import numpy as np
import pytest

from thermocone import (
    EnergySpectrum,
    c_plus_vertices,
    future_cone_vertices,
    isovolume_grid,
    mc_volume,
    region_masks,
    sample_simplex,
    tangent_bound_curve,
    tm_curve,
)
from thermocone._batch import subset_masses
from thermocone.entanglement import TwoQubitConfig, _cn_mask, _tn_mask
from thermocone.volume import _SUBSET_DIM, _over_chunks

from curve_oracles import batch_curves, fixed_dominates_rows, rows_dominate_fixed

REGIONS = ("T+", "T-", "T0", "C+", "C-")


def old_region_masks(p, spec, samples):
    probs = np.asarray(p, dtype=float)
    d = probs.size
    gamma = spec.gibbs
    curve = tm_curve(probs, spec)
    t1 = tangent_bound_curve(probs, spec, 1)
    td = tangent_bound_curve(probs, spec, d)
    xs, ys = batch_curves(samples, gamma)
    future = fixed_dominates_rows(curve, xs, ys)
    past = rows_dominate_fixed(xs, ys, curve)
    incomparable = ~future & ~past
    in_t1 = fixed_dominates_rows(t1, xs, ys)
    in_td = fixed_dominates_rows(td, xs, ys)
    return {
        "T+": future,
        "T-": past,
        "T0": incomparable,
        "C+": incomparable & in_t1 & in_td,
        "C-": incomparable & ~in_t1 & ~in_td,
    }


def old_cn_mask(samples, gamma):
    ratios = samples / gamma
    s1 = ratios.max(axis=1)
    sd = ratios.min(axis=1)
    n = samples.shape[0]
    seen = set()
    out = np.ones(n, dtype=bool)
    for pi in permutations(range(4)):
        key = tuple(gamma[list(pi)])
        if key in seen:
            continue
        seen.add(key)
        knots = np.cumsum(gamma[list(pi)])[:3]
        heights = []
        for x in knots:
            heights.append(np.minimum(np.minimum(s1 * x, 1.0 - sd * (1.0 - x)), 1.0))
        v = np.empty((n, 4))
        v[:, pi[0]] = heights[0]
        v[:, pi[1]] = heights[1] - heights[0]
        v[:, pi[2]] = heights[2] - heights[1]
        v[:, pi[3]] = 1.0 - heights[2]
        out &= _tn_mask(v, gamma)
        if not out.any():
            break
    return out


def _energies(rng, d, kind):
    if kind == "sorted":
        return np.sort(rng.uniform(0.0, 2.0, d))
    if kind == "unsorted":
        return rng.permutation(np.arange(d, dtype=float)) + rng.uniform(0.0, 0.3, d)
    return rng.integers(0, 2, d).astype(float)  # degenerate: two-valued spectrum


def _state(rng, spec, kind):
    d = spec.d
    if kind == "random":
        return rng.dirichlet(np.ones(d))
    if kind == "near_gibbs":
        return 0.8 * np.asarray(spec.gibbs) + 0.2 * rng.dirichlet(np.ones(d))
    p = rng.dirichlet(np.ones(d))  # rank-deficient
    p[rng.choice(d, size=max(1, d // 3), replace=False)] = 0.0
    return p / p.sum()


def _both(fn, *args):
    try:
        return fn(*args)
    except (ValueError, RuntimeError) as exc:  # extreme beta can collapse the state's knots
        return repr(exc)


def _assert_same_masks(old, new):
    if isinstance(old, str) or isinstance(new, str):
        assert old == new
        return
    for name in REGIONS:
        np.testing.assert_array_equal(new[name], old[name], err_msg=name)


@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8])
@pytest.mark.parametrize("beta", [0.0, 1.0, 30.0])
@pytest.mark.parametrize("energies", ["sorted", "unsorted", "degenerate"])
def test_masks_equal_the_curve_based_oracle(d, beta, energies):
    rng = np.random.default_rng([d, int(beta), len(energies)])
    spec = EnergySpectrum(tuple(_energies(rng, d, energies)), beta)
    draws = sample_simplex(d, 3000, rng)
    for kind in ("random", "near_gibbs", "rank_deficient"):
        p = _state(rng, spec, kind)
        _assert_same_masks(_both(old_region_masks, p, spec, draws), _both(region_masks, p, spec, draws))


def test_one_level_system_equals_the_oracle():
    spec = EnergySpectrum((0.0,), 1.0)
    _assert_same_masks(old_region_masks((1.0,), spec, np.ones((5, 1))), region_masks((1.0,), spec, np.ones((5, 1))))
    assert [mc_volume((1.0,), spec, r, samples=1000).value for r in REGIONS] == [1.0, 1.0, 0.0, 0.0, 0.0]


def _near_ties(rng, p, spec):
    """Rows on the region boundaries: extreme points, p itself, Gibbs and sharp states."""
    d = spec.d
    rows = [np.asarray(p), np.asarray(spec.gibbs)]
    rows += [v.probs for _, v in future_cone_vertices(p, spec)]
    rows += [v.probs for _, v in c_plus_vertices(p, spec)]
    rows += list(np.eye(d))
    rows = np.array(rows)
    nudged = []
    for eps in (1e-11, -1e-11):
        for row in rows:
            i, j = rng.choice(d, size=2, replace=False)
            step = min(abs(eps), row[j] if eps > 0 else row[i])
            shifted = row.copy()
            shifted[i] += np.sign(eps) * step
            shifted[j] -= np.sign(eps) * step
            nudged.append(shifted)
    return np.vstack([rows, nudged])


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7])
@pytest.mark.parametrize("beta", [0.0, 0.7, 3.0])
def test_near_tie_rows_equal_the_oracle(d, beta):
    rng = np.random.default_rng([d, int(10 * beta), 7])
    for energies in ("sorted", "unsorted", "degenerate"):
        spec = EnergySpectrum(tuple(_energies(rng, d, energies)), beta)
        for kind in ("random", "near_gibbs", "rank_deficient"):
            p = _state(rng, spec, kind)
            rows = _near_ties(rng, p, spec)
            old, new = old_region_masks(p, spec, rows), region_masks(p, spec, rows)
            _assert_same_masks(old, new)
            assert new["T+"][0] and new["T-"][0]  # p is its own future and past


def test_subset_masses_sum_each_proper_subset_in_level_order():
    rng = np.random.default_rng(3)
    for d in range(2, _SUBSET_DIM + 1):
        cols = rng.dirichlet(np.ones(d), 50).T
        masses = subset_masses(cols)
        assert masses.shape == (2**d - 2, 50)
        for k, row in enumerate(masses):
            total = np.zeros(50)
            for level in range(d):
                if (k + 1) >> level & 1:
                    total = total + cols[level]
            np.testing.assert_array_equal(row, total)


@pytest.mark.parametrize("beta", [0.0, 0.25, 0.5, 1.0, 2.0, 5.0])
def test_fixed_knot_cn_mask_equals_the_vertex_loop(beta):
    rng = np.random.default_rng([11, int(4 * beta)])
    gamma = np.asarray(TwoQubitConfig(beta).spectrum().gibbs)
    draws = sample_simplex(4, 20_000, rng)
    for rows in (draws, 0.5 * draws + 0.5 * gamma, 0.1 * draws + 0.9 * gamma):
        np.testing.assert_array_equal(_cn_mask(rows, gamma), old_cn_mask(rows, gamma))


@pytest.mark.parametrize("beta", [0.2, 1.0, 5.0])
def test_shared_isovolume_pass_equals_per_point_estimates(beta):
    spec = EnergySpectrum((0.0, 1.0, 2.0), beta)
    table = isovolume_grid(spec, resolution=6, samples=20_000, seed=5)
    values = np.array(
        [mc_volume((p1, p2, 1.0 - p1 - p2), spec, "C+", samples=20_000, seed=5).value for p1, p2 in table[:, :2]]
    )
    np.testing.assert_array_equal(table[:, 2], values / values.max())


def test_threaded_regions_and_isovolume_equal_serial(monkeypatch):
    rng = np.random.default_rng(13)
    cases = []
    for d in (3, 4, 6, 7):
        spec = EnergySpectrum(tuple(np.sort(rng.uniform(0.0, 2.0, d))), 0.8)
        cases.append((rng.dirichlet(np.ones(d)), spec))
    iso = EnergySpectrum((0.0, 1.0, 2.0), 1.0)

    def run():
        volumes = [mc_volume(p, spec, r, samples=40_000, seed=3).value for p, spec in cases for r in REGIONS]
        return volumes, isovolume_grid(iso, resolution=5, samples=40_000, seed=3)

    monkeypatch.setenv("THERMOCONE_THREADS", "1")
    serial = run()
    monkeypatch.setenv("THERMOCONE_THREADS", "2")
    threaded = run()
    assert threaded[0] == serial[0]
    np.testing.assert_array_equal(threaded[1], serial[1])


@pytest.mark.parametrize("d", [2, 3, 4, 6, 7])
def test_single_region_estimates_count_the_mask_hits(d):
    # mc_volume builds only the region asked for; its hits are region_masks' hits
    rng = np.random.default_rng([d, 17])
    spec = EnergySpectrum(tuple(np.sort(rng.uniform(0.0, 2.0, d))), 0.6)
    for p in (rng.dirichlet(np.ones(d)), _state(rng, spec, "near_gibbs"), _state(rng, spec, "rank_deficient")):
        hits = dict.fromkeys(REGIONS, 0)
        for masks in _over_chunks(d, 20_000, 9, lambda draws: region_masks(p, spec, draws)):
            for name in REGIONS:
                hits[name] += int(masks[name].sum())
        for name in REGIONS:
            assert mc_volume(p, spec, name, samples=20_000, seed=9).value == hits[name] / 20_000
