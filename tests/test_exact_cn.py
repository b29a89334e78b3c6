"""`in_CN` is exact: the catalysable future is a base polytope, so its vertices decide.

The region between a state's first- and last-rank tangent bounds is the
convex hull of its C+ vertices, it is closed under thermal operations, and
the unitarily non-entanglable set is convex, so `_cn_mask` tests the C+
vertices themselves and `in_CN` draws no sample (proof in `_cn_mask`).
"""

import numpy as np
import pytest

import thermocone.entanglement as entanglement
from thermocone import TwoQubitConfig, c_plus_vertices, in_CN, in_TN, unitary_entanglable
from thermocone.entanglement import _CN_ORDERS, _cn_mask, _tn_mask

from test_dual_screens import edge_states

BETAS = (0.0, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0)


def states(beta, n_random=40):
    cfg = TwoQubitConfig(beta)
    rng = np.random.default_rng([int(4 * beta), 61])
    gamma = np.asarray(cfg.spectrum().gibbs)
    mixed = [w * rng.dirichlet(np.ones(4)) + (1 - w) * gamma for w in (0.05, 0.2, 0.5) for _ in range(n_random // 4)]
    return cfg, edge_states(rng, cfg) + list(rng.dirichlet(np.ones(4), n_random)) + mixed


def test_the_orders_are_one_per_swap_of_the_middle_pair():
    assert len(_CN_ORDERS) == 12
    swapped = {tuple({1: 2, 2: 1}.get(level, level) for level in pi) for pi in _CN_ORDERS}
    assert swapped.isdisjoint(_CN_ORDERS)


@pytest.mark.parametrize("beta", BETAS)
def test_cn_mask_is_the_c_plus_vertex_screen(beta):
    cfg, rows = states(beta)
    spec = cfg.spectrum()
    verdicts = []
    for p in rows:
        expected = all(not unitary_entanglable(v) for v in c_plus_vertices(p, spec).distinct())
        assert bool(_cn_mask(np.asarray(p)[None], spec.gibbs)[0]) == expected
        verdicts.append(expected)
    assert True in verdicts
    if beta <= 2.0:
        assert False in verdicts


@pytest.mark.parametrize("beta", BETAS)
def test_convex_combinations_of_accepted_vertices_stay_in_TN(beta):
    # the hull of the C+ vertices is the region the sampling stage drew from
    cfg, rows = states(beta)
    spec = cfg.spectrum()
    accepted = [p for p in rows if in_CN(p, cfg)]
    assert accepted
    rng = np.random.default_rng([int(4 * beta), 67])
    per_state = -(-10_000 // len(accepted))
    for p in accepted:
        vertices = np.array([v.probs for v in c_plus_vertices(p, spec).distinct()])
        alpha = rng.choice([0.2, 1.0])  # sparse weights put points near the hull's faces
        combos = rng.dirichlet(np.full(len(vertices), alpha), per_state) @ vertices
        combos /= combos.sum(axis=1, keepdims=True)
        assert _tn_mask(combos, spec.gibbs).all()
        assert all(in_TN(q, cfg) for q in combos[:20])


@pytest.mark.parametrize("beta", (0.0, 0.5, 2.0))
def test_in_CN_draws_no_samples(beta, monkeypatch):
    cfg, rows = states(beta, n_random=12)
    verdicts = [in_CN(p, cfg, 0) for p in rows]
    assert verdicts == [in_CN(p, cfg, 40_000, 7) for p in rows]

    def refuse(*args, **kwargs):
        raise AssertionError("in_CN drew samples")

    monkeypatch.setattr(entanglement, "_over_chunks", refuse)
    assert [in_CN(p, cfg) for p in rows] == verdicts
    assert True in verdicts and False in verdicts
