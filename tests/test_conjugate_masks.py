"""The conjugate (LP-dual) curve reading against the sorted curves it replaces.

`conjugate_rows` gives each row's slopes r_j = q_j / gamma_j and conjugates
phi_q(r_j) = sum_i max(q_i - r_j gamma_i, 0), and the curve reads as
c_q(x) = min(1, min_j [r_j x + phi_q(r_j)]).  The past (`_Chunk.above`) and
`_tn_mask` use it instead of sorting.  The oracles are the sorted-curve code:
`rows_dominate_fixed(batch_curves(...))` for the past and, verbatim, the
previous `_tn_mask`, which swapped the degenerate middle pair and sorted.
"""

import numpy as np
import pytest

from thermocone import EPS_CMP, EnergySpectrum, region_masks, sample_simplex, tm_curve
from thermocone._batch import batch_curves, conjugate_rows
from thermocone.entanglement import TwoQubitConfig, _tn_mask
from thermocone.volume import _Chunk

from curve_oracles import eval_rows_at, rows_dominate_fixed

BETAS = (0.0, 0.3, 1.0, 5.0, 30.0)
TN_BETAS = (0.0, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0)


def old_tn_mask(samples, gamma):
    swap = samples[:, 2] > samples[:, 1]
    canon = samples.copy()
    canon[swap, 1], canon[swap, 2] = samples[swap, 2], samples[swap, 1]
    xs, ys = batch_curves(canon, gamma)
    g2, g1, g3 = gamma[1], gamma[0], gamma[2]
    f1 = eval_rows_at(xs, ys, float(g2))
    f2 = eval_rows_at(xs, ys, float(g2 + g1))
    f3 = eval_rows_at(xs, ys, float(g2 + g1 + g3))
    w1 = f2 - f1
    w2 = f1
    w3 = f3 - f2
    w4 = 1.0 - f3
    return 4.0 * w1 * w4 - (w2 - w3) ** 2 >= -EPS_CMP


def conjugate_curve(q, gamma, x):
    r, phi = conjugate_rows(np.asarray(q, dtype=float)[:, None], np.asarray(gamma))
    return np.minimum((r * np.asarray(x)[None, :] + phi).min(axis=0), 1.0)


def _energies(rng, d, kind, span=2.0):
    # at beta * span = 30 the lightest Gibbs weight is about 1e-13: small, but
    # not lost in a running sum, which would make `tm_curve` refuse the state
    e = rng.uniform(0.0, span, d)
    if kind == "sorted":
        return np.sort(e)
    if kind == "unsorted":
        return e
    return span * rng.integers(0, 2, d)  # degenerate: two-valued spectrum


def _everywhere_above(draws, gamma, curve):
    return _Chunk(draws, gamma).above(curve, np.ones(len(draws), dtype=bool))


@pytest.mark.parametrize("beta", BETAS)
@pytest.mark.parametrize("energies", ["sorted", "unsorted", "degenerate"])
def test_conjugate_reading_equals_the_sorted_curve(beta, energies):
    rng = np.random.default_rng([int(10 * beta), len(energies), 1])
    for d in range(1, 9):
        spec = EnergySpectrum(tuple(_energies(rng, d, energies, span=1.0)), beta)
        gamma = spec.gibbs
        for zeros in range(min(d, 3)):
            q = rng.dirichlet(np.ones(d))
            # zero populations on the heaviest levels: a zero on a level whose
            # weight is below half an ulp of 1 makes `tm_curve` refuse the state
            q[np.argsort(-gamma, kind="stable")[:zeros]] = 0.0
            q /= q.sum()
            x = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 200), np.cumsum(gamma)[:-1]])
            np.testing.assert_allclose(conjugate_curve(q, gamma, x), tm_curve(q, spec).eval(x), rtol=0, atol=1e-14)


def test_conjugates_are_the_knapsack_sums():
    rng = np.random.default_rng(2)
    gamma = rng.dirichlet(np.ones(5))
    cols = rng.dirichlet(np.ones(5), 40).T
    r, phi = conjugate_rows(cols, gamma)
    np.testing.assert_array_equal(r, cols / gamma[:, None])
    for j in range(5):
        want = np.maximum(cols - r[j] * gamma[:, None], 0.0).sum(axis=0)
        np.testing.assert_allclose(phi[j], want, rtol=0, atol=1e-15)


def _near(rng, p, n, spread):
    """Rows mixed toward p by up to `spread`, so their curves lie within about `spread` of p's."""
    t = spread * rng.uniform(0.0, 1.0, (n, 1))
    return (1.0 - t) * p + t * sample_simplex(p.size, n, rng)


def _sharpened(rng, p, spec, n):
    """Rows in p's past: p mixed toward the sharp state on its steepest level."""
    top = np.zeros(p.size)
    top[np.argmax(p / spec.gibbs)] = 1.0
    t = 1e-6 * rng.uniform(0.0, 1.0, (n, 1))
    return (1.0 - t) * p + t * top


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8])
def test_past_equals_the_sorted_oracle_on_a_million_rows(d):
    rng = np.random.default_rng([d, 3])
    rows = hits = 0
    for case in range(10):
        kind = ("sorted", "unsorted", "degenerate")[case % 3]
        spec = EnergySpectrum(tuple(_energies(rng, d, kind)), float(rng.choice([0.0, 0.3, 1.0, 3.0, 10.0])))
        p = rng.dirichlet(np.full(d, rng.uniform(0.3, 3.0)))
        if case % 4 == 3:
            p[rng.integers(d)] = 0.0
            p /= p.sum()
        curve = tm_curve(p, spec)
        draws = np.vstack(
            [
                sample_simplex(d, 8192, rng),
                _near(rng, p, 2048, 0.05),
                _near(rng, p, 3072, 1e-9),  # straddles the 1e-10 tolerance
                _sharpened(rng, p, spec, 3072),
            ]
        )
        new = _everywhere_above(draws, spec.gibbs, curve)
        np.testing.assert_array_equal(new, rows_dominate_fixed(*batch_curves(draws, spec.gibbs), curve))
        rows += len(draws)
        hits += int(new.sum())
    assert rows * 7 >= 1_000_000
    assert hits > rows // 5  # the rows near p make the check more than the tangent screen


def _edge_rows(p, spec, margins):
    """p with knot k of its curve moved by each margin, every other knot kept.

    Moving mass m from the level after knot k to the level before it raises
    the prefix mass at knot k alone by m; the beta-order stays p's because
    p's slopes are far apart compared with m.
    """
    order = np.argsort(-(p / spec.gibbs), kind="stable")
    rows, moved = [], []
    for k in range(p.size - 1):
        for m in margins:
            q = p.copy()
            q[order[k]] += m
            q[order[k + 1]] -= m
            rows.append(q)
            moved.append(m)
    return np.array(rows), np.array(moved)


@pytest.mark.parametrize("d", [2, 3, 4, 6, 8])
@pytest.mark.parametrize("beta", [0.0, 0.5, 2.0])
def test_rows_at_the_tolerance_edge_are_classified_as_the_oracle_does(d, beta):
    rng = np.random.default_rng([d, int(10 * beta), 5])
    margins = [s * (EPS_CMP + e) for s in (1.0, -1.0) for e in (1e-12, -1e-12)]
    for _ in range(20):
        spec = EnergySpectrum(tuple(np.sort(rng.uniform(0.0, 2.0, d))), beta)
        p = spec.gibbs * np.cumsum(rng.uniform(0.2, 1.0, d))[::-1]
        p = p / p.sum()  # slopes p_i / gamma_i falling by at least 0.2 / sum, so the margins keep the order
        rows, moved = _edge_rows(p, spec, margins)
        curve = tm_curve(p, spec)
        new = _everywhere_above(rows, spec.gibbs, curve)
        np.testing.assert_array_equal(new, rows_dominate_fixed(*batch_curves(rows, spec.gibbs), curve))
        np.testing.assert_array_equal(new, moved >= -EPS_CMP)  # below by 1e-10 - 1e-12: still above
        # the future's edge sits at the same rows, the other way round
        np.testing.assert_array_equal(region_masks(p, spec, rows)["T+"], moved <= EPS_CMP)


@pytest.mark.parametrize("beta", TN_BETAS)
def test_tn_mask_equals_the_sorting_version(beta):
    rng = np.random.default_rng([int(100 * beta), 7])
    gamma = np.asarray(TwoQubitConfig(beta).spectrum().gibbs)
    draws = sample_simplex(4, 50_000, rng)
    swapped = draws[:, [0, 2, 1, 3]]
    for rows in (draws, swapped, 0.5 * draws + 0.5 * gamma, 0.05 * draws + 0.95 * gamma):
        np.testing.assert_array_equal(_tn_mask(rows, gamma), old_tn_mask(rows, gamma))
    mask = _tn_mask(draws, gamma)
    assert 0 < mask.sum() < len(draws)
    np.testing.assert_array_equal(_tn_mask(swapped, gamma), mask)  # the middle pair's order does not matter


def _tn_edge_rows(rng, gamma, margin, n):
    """States that are their own decisive extreme point, at 4 q0 q3 - (q1 - q2)^2 = margin.

    Their slopes fall along (1, 0, 2, 3), the decisive order, so the decisive
    point is the state itself and `_tn_mask` reads the margin off it.  Given
    q2 and q3 = b, the margin fixes q0 = a through q1 = 1 - a - b - q2: with
    c = 1 - b - 2 q2, 4 a b - (c - a)^2 = margin has the root
    a = c + 2b - sqrt(4b (b + c) - margin), where q1 - q2 = c - a > 0.
    """
    rows = []
    while len(rows) < n:
        q2 = np.exp(rng.uniform(np.log(1e-3), np.log(0.3)))
        b = q2 * gamma[3] / gamma[2] * rng.uniform(0.2, 0.9)
        c = 1.0 - b - 2.0 * q2
        a = c + 2.0 * b - np.sqrt(4.0 * b * (b + c) - margin)
        q = np.array([a, 1.0 - a - b - q2, q2, b])
        ratios = q / gamma
        if a > 0.0 and ratios[1] > ratios[0] > ratios[2] > ratios[3]:
            rows.append(q)
    return np.array(rows)


@pytest.mark.parametrize("beta", TN_BETAS)
def test_tn_rows_at_the_tolerance_edge_are_classified_as_the_oracle_does(beta):
    rng = np.random.default_rng([int(100 * beta), 9])
    gamma = np.asarray(TwoQubitConfig(beta).spectrum().gibbs)
    for margin in [s * (EPS_CMP + e) for s in (1.0, -1.0) for e in (1e-12, -1e-12)]:
        rows = _tn_edge_rows(rng, gamma, margin, 50)
        for batch in (rows, rows[:, [0, 2, 1, 3]]):
            new = _tn_mask(batch, gamma)
            np.testing.assert_array_equal(new, old_tn_mask(batch, gamma))
            np.testing.assert_array_equal(new, margin >= -EPS_CMP)


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_region_masks_partition_the_simplex(d):
    rng = np.random.default_rng([d, 11])
    spec = EnergySpectrum(tuple(np.sort(rng.uniform(0.0, 2.0, d))), 0.8)
    p = rng.dirichlet(np.ones(d))
    draws = np.vstack([sample_simplex(d, 20_000, rng), _near(rng, p, 2000, 1e-9), _sharpened(rng, p, spec, 2000)])
    masks = region_masks(p, spec, draws)
    assert np.all(masks["T+"] | masks["T-"] | masks["T0"])
    assert not np.any(masks["T0"] & (masks["T+"] | masks["T-"]))
    assert not np.any(masks["C+"] & masks["C-"])
    assert not np.any((masks["C+"] | masks["C-"]) & ~masks["T0"])
    assert all(masks[name].any() for name in ("T+", "T-", "T0"))


def test_monte_carlo_paths_sort_no_sample(monkeypatch):
    # a state's own curve sorts its d levels once; nothing may sort the draws
    import thermocone.volume
    from thermocone import in_CN, isovolume_grid, mc_volume, volume_ratio_CN_TN

    argsort = np.argsort

    def small_argsort(a, *args, **kwargs):
        assert np.size(a) <= 8, f"argsort over {np.shape(a)}"
        return argsort(a, *args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("sorted every sample")

    monkeypatch.setattr(np, "argsort", small_argsort)
    monkeypatch.setattr(thermocone.volume, "batch_curves", refuse)
    rng = np.random.default_rng(17)
    for d in (2, 3, 4, 6):
        spec = EnergySpectrum(tuple(np.sort(rng.uniform(0.0, 2.0, d))), 0.8)
        p = rng.dirichlet(np.ones(d))
        for name in ("T+", "T-", "T0", "C+", "C-"):
            mc_volume(p, spec, name, samples=20_000, seed=3)
        region_masks(p, spec, sample_simplex(d, 5000, rng))
    isovolume_grid(EnergySpectrum((0.0, 1.0, 2.0), 1.0), resolution=4, samples=20_000, seed=3)
    cfg = TwoQubitConfig(0.5)
    in_CN(0.9 * np.asarray(cfg.spectrum().gibbs) + 0.1 * rng.dirichlet(np.ones(4)), cfg, samples=20_000, seed=3)
    volume_ratio_CN_TN(0.5, samples=20_000, seed=3)
