"""The batched qubit-catalyst search against the per-point scalar path.

`search_qubit_catalyst` evaluates its whole grid in one array pass; the
reference below is the loop it replaced, one `verify_catalyst` call per grid
point.  Hit lists must be equal as lists of floats, and the row-versus-row
domination kernel must agree with `curve_dominates` row by row.
"""

import numpy as np
import pytest

import thermocone.catalysis as catalysis
from thermocone import (
    EnergySpectrum,
    Relation,
    TMCurve,
    c_plus_vertex,
    compare,
    curve_dominates,
    future_cone_vertices,
    qubit_catalyst_spectrum,
    search_qubit_catalyst,
    tensor,
    tm_curve,
    verify_catalyst,
)
from thermocone._batch import batch_curves

from curve_oracles import _interp_rows, rows_dominate_rows

BETAS = (0.0, 0.3, 1.0, 5.0)
GIBBS_R = (0.3, 0.5, 0.7)
GRID = 25


def reference_search(p, q, spec, gibbs_r, grid_n):
    spec_r = qubit_catalyst_spectrum(spec.beta, gibbs_r)
    hits = []
    for k in range(1, grid_n):
        t = k / grid_n
        if verify_catalyst(p, q, spec, (1.0 - t, t), spec_r):
            hits.append(t)
    return hits


def spectrum(rng, d, beta, kind):
    if kind == "sorted":
        energies = np.sort(rng.uniform(0.0, 2.0, d))
    elif kind == "unsorted":
        energies = rng.uniform(0.0, 2.0, d)
    else:
        energies = rng.integers(0, 2, d).astype(float)
    return EnergySpectrum(tuple(energies), beta)


def realisable(beta):
    return (0.5,) if beta == 0.0 else GIBBS_R


def near_c_plus(rng, p, spec):
    # criterion 7's construction: a target next to a catalysable-future vertex
    v = c_plus_vertex(p, spec, rng.permutation(spec.d)).probs
    return 0.9 * v + 0.1 * spec.gibbs


@pytest.mark.parametrize("kind", ["sorted", "unsorted", "degenerate"])
@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("beta", BETAS)
def test_batch_equals_scalar_loop(beta, d, kind):
    rng = np.random.default_rng([d, BETAS.index(beta), len(kind)])
    spec = spectrum(rng, d, beta, kind)
    for _ in range(2):
        p = rng.dirichlet(np.ones(d))
        for q in (rng.dirichlet(np.ones(d)), near_c_plus(rng, p, spec)):
            for gibbs_r in realisable(beta):
                expected = reference_search(p, q, spec, gibbs_r, GRID)
                assert search_qubit_catalyst(p, q, spec, gibbs_r, GRID) == expected


@pytest.mark.parametrize("beta", BETAS)
def test_comparable_pair_hits_every_grid_point(beta):
    rng = np.random.default_rng(7)
    for d in (2, 3, 4, 5):
        spec = spectrum(rng, d, beta, "unsorted")
        p = rng.dirichlet(np.ones(d))
        q = np.mean([v.probs for _, v in future_cone_vertices(p, spec)], axis=0)
        for gibbs_r in realisable(beta):
            hits = search_qubit_catalyst(p, q, spec, gibbs_r, GRID)
            assert len(hits) == GRID - 1
            assert hits == reference_search(p, q, spec, gibbs_r, GRID)


@pytest.mark.parametrize("beta", BETAS)
def test_two_point_grid(beta):
    rng = np.random.default_rng(3)
    spec = spectrum(rng, 3, beta, "sorted")
    for _ in range(10):
        p, q = rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(3))
        for gibbs_r in realisable(beta):
            hits = search_qubit_catalyst(p, q, spec, gibbs_r, 2)
            assert hits == reference_search(p, q, spec, gibbs_r, 2)
            assert hits in ([], [0.5])


def test_catalysable_targets_give_non_empty_hit_lists():
    rng = np.random.default_rng(11)
    non_empty = 0
    for trial in range(60):
        d = 3 + trial % 3
        spec = spectrum(rng, d, (0.3, 1.0, 5.0)[trial % 3], ("sorted", "unsorted")[trial % 2])
        p = rng.dirichlet(np.ones(d))
        q = near_c_plus(rng, p, spec)
        if compare(p, q, spec) is not Relation.INCOMPARABLE:
            continue
        for gibbs_r in GIBBS_R:
            hits = search_qubit_catalyst(p, q, spec, gibbs_r, 60)
            assert hits == reference_search(p, q, spec, gibbs_r, 60)
            non_empty += bool(hits)
    assert non_empty >= 10


@pytest.mark.parametrize("block", [1, 5, 24])
def test_grid_blocks_concatenate_to_the_same_hits(monkeypatch, block):
    monkeypatch.setattr(catalysis, "_GRID_BLOCK", block)
    rng = np.random.default_rng(5)
    spec = spectrum(rng, 3, 1.0, "sorted")
    found = 0
    while found < 3:
        p = rng.dirichlet(np.ones(3))
        q = near_c_plus(rng, p, spec)
        hits = search_qubit_catalyst(p, q, spec, 0.5, 40)
        assert hits == reference_search(p, q, spec, 0.5, 40)
        found += bool(hits)


def test_negligible_gibbs_weight_is_answered_like_the_scalar_path():
    # 1 + 1.9e-22 rounds to 1, so the joint curves have a repeated abscissa, which `tm_curve` refuses; the
    # conjugate margins answer: q's excited slope 0.1 / 1.9e-22 lifts q's curve to 0.1 at once, above p's
    # curve y = x, and a catalyst does not change that
    spec = EnergySpectrum((0.0, 50.0), 1.0)
    p, q = (1.0, 0.0), (0.9, 0.1)
    spec_r = qubit_catalyst_spectrum(1.0, 0.5)
    joint_p, joint_spec = tensor(p, spec, (0.5, 0.5), spec_r)
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="increase strictly"):
        tm_curve(joint_p, joint_spec)
    assert verify_catalyst(p, q, spec, (0.5, 0.5), spec_r) is False
    assert search_qubit_catalyst(p, q, spec, 0.5, 4) == reference_search(p, q, spec, 0.5, 4) == []


def test_bad_inputs_are_refused():
    spec = EnergySpectrum((0.0, 1.0, 2.0), 0.2)
    with pytest.raises(ValueError, match="grid_n"):
        search_qubit_catalyst((0.5, 0.3, 0.2), (0.4, 0.4, 0.2), spec, 0.5, 1)
    with pytest.raises(ValueError, match="dimension mismatch"):
        search_qubit_catalyst((0.5, 0.5), (0.4, 0.4, 0.2), spec, 0.5, 10)
    with pytest.raises(ValueError, match="sum"):
        search_qubit_catalyst((0.5, 0.3, 0.2), (0.4, 0.4, 0.4), spec, 0.5, 10)


def curve_rows(rng, gamma, n):
    return batch_curves(rng.dirichlet(np.ones(gamma.size) * rng.uniform(0.2, 3.0), size=n), gamma)


class TestRowsDominateRows:
    def check(self, px, py, qx, qy):
        mask = rows_dominate_rows(px, py, qx, qy)
        expected = [
            curve_dominates(TMCurve(px[k], py[k]), TMCurve(qx[k], qy[k])) for k in range(len(px))
        ]
        assert mask.tolist() == expected
        return mask

    def test_random_rows_over_one_gibbs_vector(self):
        # rows in the same beta-order share every knot
        rng = np.random.default_rng(1)
        seen = set()
        for d in (2, 3, 4, 6, 8):
            gamma = rng.dirichlet(np.ones(d))
            for _ in range(20):
                seen.update(self.check(*curve_rows(rng, gamma, 50), *curve_rows(rng, gamma, 50)).tolist())
        assert seen == {True, False}

    def test_rows_of_different_widths(self):
        rng = np.random.default_rng(2)
        px, py = curve_rows(rng, rng.dirichlet(np.ones(3)), 200)
        qx, qy = curve_rows(rng, rng.dirichlet(np.ones(5)), 200)
        self.check(px, py, qx, qy)
        self.check(qx, qy, px, py)

    def test_shared_and_nearly_shared_knots_at_the_tolerance_edge(self):
        # rows 0-24 share q's knots exactly, 25-74 are one ulp off, 75-99 1e-13 or 1e-10 off
        rng = np.random.default_rng(3)
        gamma = rng.dirichlet(np.ones(4))
        px, py = curve_rows(rng, gamma, 100)
        qx = px.copy()
        qx[25:75, 1:-1] = np.nextafter(qx[25:75, 1:-1], np.where(rng.random((50, 3)) < 0.5, 0.0, 1.0))
        qx[75:, 1:-1] += rng.choice([-1e-13, 1e-13, -1e-10, 1e-10], (25, 3))
        for shift in (0.0, 1e-10, -1e-10, 2e-10, -2e-10, np.nextafter(1e-10, 1.0)):
            qy = py.copy()
            qy[:, 1:-1] += shift
            mask = self.check(px, py, qx, qy)
            self.check(qx, qy, px, py)
            if shift <= 0.0:
                assert mask[:25].all()
            if shift >= 2e-10:
                assert not mask[:25].any()

    def test_interpolation_matches_np_interp_bit_for_bit(self):
        rng = np.random.default_rng(4)
        xs, ys = curve_rows(rng, rng.dirichlet(np.ones(5)), 30)
        x = np.hstack([rng.uniform(0.0, 1.0, (30, 9)), xs, np.nextafter(xs[:, 1:-1], 0.0)])
        values = _interp_rows(x, xs, ys)
        for k in range(30):
            assert np.array_equal(values[k], np.interp(x[k], xs[k], ys[k]))
