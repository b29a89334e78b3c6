"""Optimal cooling by branch-and-bound against the enumeration it replaced.

`enum_cooling` is the previous `optimal_cooling`: it builds every deduplicated
future-cone and catalysable-future vertex with the vectorised kernel, takes
each heat as float(e @ (row - p)) and keeps a vertex only when its heat is
below the kept one's by more than 1e-12 (`lowest`).  The search must return
the same six report fields bit for bit.  Above d = 8, where nothing can be
enumerated, the report is checked against the ascending-energy vertex, which
is the optimum.
"""

import math

import numpy as np
import pytest

from thermocone import (
    Dist,
    EnergySpectrum,
    c_plus_vertex,
    c_plus_vertices,
    future_cone_vertices,
    heat_exchange,
    optimal_cooling,
    thermo_majorizes,
    vertex_for_order,
)
from thermocone._batch import distinct_rows, distinct_vertices, order_vertices, perm_matrix
from thermocone.catalysis import _c_plus_heights, _c_plus_rows
from thermocone.cones import _curve_heights, _future_rows

ENERGY_KINDS = ("sorted", "unsorted", "paired", "equal", "near_degenerate", "integer")
STATE_KINDS = ("gibbs", "full_rank", "rank_deficient", "pure")


def lowest(heats):
    best, best_k = math.inf, 0
    for k, heat in enumerate(heats):
        if heat < best - 1e-12:  # first order in lexicographic scan wins ties
            best, best_k = heat, k
    return best_k


def enum_cooling(p, spec):
    """The six report fields of the enumerating optimal_cooling(p, spec, catalytic=True)."""
    probs = Dist(p).probs
    orders, rows = _future_rows(probs, spec)
    n_future = len(orders)
    c_orders, c_rows = _c_plus_rows(probs, spec)
    orders, rows = np.vstack((orders, c_orders)), np.vstack((rows, c_rows))
    e = np.asarray(spec.energies)
    heats = [float(e @ row) for row in rows - probs]
    k, kc = lowest(heats[:n_future]), lowest(heats)
    return (
        heats[k].hex(), Dist(rows[k]).probs.tobytes(), tuple(orders[k].tolist()),
        heats[kc].hex(), Dist(rows[kc]).probs.tobytes(), tuple(orders[kc].tolist()),
    )


def fields(report):
    return (
        report.q_c.hex(), report.target.probs.tobytes(), report.order,
        report.q_c_catalytic.hex(), report.target_catalytic.probs.tobytes(), report.order_catalytic,
    )


def energies(kind, d, rng):
    if kind == "sorted":
        return np.sort(rng.uniform(0.0, 2.0, d))
    if kind == "unsorted":
        return rng.uniform(0.0, 2.0, d)
    if kind == "paired":  # equal pairs, in a random level order
        return rng.permutation(np.repeat(np.sort(rng.uniform(0.0, 2.0, (d + 1) // 2)), 2)[:d])
    if kind == "equal":
        return np.zeros(d)
    if kind == "near_degenerate":  # levels 1e-13 apart: heats tie within 1e-12
        return float(rng.uniform(0.0, 2.0)) + rng.integers(0, 3, d) * 1e-13
    return rng.integers(0, 3, d).astype(float)


def state(kind, spec, rng):
    d = spec.d
    if kind == "gibbs":
        return spec.gibbs.copy()
    if kind == "pure":
        return np.eye(d)[rng.integers(d)]
    p = rng.dirichlet(np.ones(d))
    if kind == "rank_deficient":
        p[rng.choice(d, size=max(1, d // 2), replace=False)] = 0.0
        p /= p.sum()
    return p


def random_cases(d, n):
    rng = np.random.default_rng([11, d])
    cases = []
    for i in range(n):
        beta = float(rng.choice([0.0, 0.3, 1.0, 3.0]))
        spec = EnergySpectrum(tuple(energies(ENERGY_KINDS[i % 6], d, rng)), beta)
        cases.append((state(STATE_KINDS[i // 6 % 4], spec, rng), spec))
    return cases


@pytest.mark.parametrize("d,n", [(2, 84), (3, 84), (4, 84), (5, 84), (6, 84), (7, 84), (8, 24)])
def test_search_equals_the_enumeration(d, n):
    for p, spec in random_cases(d, n):
        report = optimal_cooling(p, spec, catalytic=True)
        assert fields(report) == enum_cooling(p, spec)
        plain = optimal_cooling(p, spec)
        assert fields(report)[:3] == (plain.q_c.hex(), plain.target.probs.tobytes(), plain.order)
        assert plain.q_c_catalytic is None


# At beta = 0 the vertex of order pi puts 0.5, 0.3 and 0.2 on levels pi[0], pi[1]
# and pi[2], so on energies (2 delta, delta, 0) the six vertices are distinct with
# heats 0.6, 0.5, 0.4, 0.2, 0.1 and 0 delta above the optimum, in lexicographic
# order.  The scan keeps (0, 1, 2) and then the first order more than 1e-12 below
# it; at delta = 2.2e-12 the first order within 1e-12 of the optimum, (1, 0, 2),
# is not that order.
@pytest.mark.parametrize(
    "delta,order", [(0.9e-12, (0, 1, 2)), (1.5e-12, (0, 1, 2)), (2.2e-12, (2, 0, 1)), (3.3e-12, (1, 2, 0))]
)
@pytest.mark.parametrize("offset", [0.0, 1.0])
def test_near_tie_chain_keeps_what_the_scan_keeps(delta, order, offset):
    spec = EnergySpectrum((offset + 2 * delta, offset + delta, offset), 0.0)
    p = (0.5, 0.3, 0.2)
    heats = sorted(heat_exchange(p, vertex_for_order(p, spec, pi), spec) for pi in perm_matrix(3))
    assert len(set(heats)) == 6 and 0.5e-12 < heats[-1] - heats[0] < 2e-12
    report = optimal_cooling(p, spec, catalytic=True)
    assert fields(report) == enum_cooling(p, spec)
    assert report.order == report.order_catalytic == order


def test_random_near_ties_equal_the_enumeration():
    rng = np.random.default_rng(3)
    for _ in range(60):
        d = int(rng.integers(3, 7))
        delta = float(rng.choice([0.3e-12, 0.5e-12, 1e-12, 2e-12, 4e-12]))
        e = float(rng.choice([0.0, 1.0])) + rng.integers(0, 6, d) * delta
        spec = EnergySpectrum(tuple(e), float(rng.choice([0.0, 1.0])))
        p = rng.dirichlet(np.ones(d))
        assert fields(optimal_cooling(p, spec, catalytic=True)) == enum_cooling(p, spec)


def test_near_equal_vertices_keep_the_first_order_of_their_rounded_row():
    # both orders give (0.5, 0.5) to 10 decimals: the scan only sees (0, 1), at
    # heat 0, although (1, 0) puts 4e-11 more on the lower level
    spec = EnergySpectrum((1.0, 0.0), 0.0)
    p = (0.5 + 2e-11, 0.5 - 2e-11)
    report = optimal_cooling(p, spec, catalytic=True)
    assert fields(report) == enum_cooling(p, spec)
    assert report.order == report.order_catalytic == (0, 1) and report.q_c == 0.0
    assert heat_exchange(p, vertex_for_order(p, spec, (1, 0)), spec) < -1e-11


def near_gibbs_cases(d, n):
    rng = np.random.default_rng([13, d])
    cases = []
    for i in range(n):
        spec = EnergySpectrum(tuple(energies(("unsorted", "integer")[i % 2], d, rng)), float(rng.choice([0.0, 0.3, 1.0, 3.0])))
        scale = float(rng.choice([1e-12, 1e-11, 3e-11, 1e-10]))
        dp = rng.normal(0.0, 1.0, d) if i % 3 else np.eye(d)[0] - np.eye(d)[1]
        dp -= dp.mean()
        p = spec.gibbs + scale * dp / np.abs(dp).max()
        cases.append((p, spec))
    return cases


# states within 1e-10 of Gibbs: many orders give vertices equal to 10 decimals
# with heats further apart than 1e-12, and the scan sees only the first of each
@pytest.mark.parametrize("d,n", [(2, 40), (3, 40), (4, 40), (5, 30), (6, 12), (7, 4)])
def test_near_gibbs_states_equal_the_enumeration(d, n):
    for p, spec in near_gibbs_cases(d, n):
        report = optimal_cooling(p, spec, catalytic=True)
        assert fields(report) == enum_cooling(p, spec)
        future = future_cone_vertices(p, spec).vertices
        assert report.target.probs.tobytes() == future[report.order].probs.tobytes()
        c_plus = c_plus_vertices(p, spec).vertices
        kept = [cv[report.order_catalytic].probs.tobytes() for cv in (future, c_plus) if report.order_catalytic in cv]
        assert report.target_catalytic.probs.tobytes() in kept


@pytest.mark.parametrize("d", [9, 10])
@pytest.mark.parametrize("kind", ["sorted", "unsorted", "paired"])
@pytest.mark.parametrize("beta", [0.0, 0.5, 2.0])
def test_report_above_the_enumeration_cap_is_the_ascending_energy_optimum(d, kind, beta):
    rng = np.random.default_rng([d, len(kind), int(10 * beta)])
    spec = EnergySpectrum(tuple(energies(kind, d, rng)), beta)
    p = rng.dirichlet(np.ones(d))
    report = optimal_cooling(p, spec, catalytic=True)
    ascending = np.argsort(spec.energies, kind="stable")
    optimum = heat_exchange(p, vertex_for_order(p, spec, ascending), spec)
    assert abs(report.q_c - optimum) <= 1e-12
    assert report.q_c == heat_exchange(p, report.target, spec)
    assert report.target.probs.tobytes() == vertex_for_order(p, spec, report.order).probs.tobytes()
    assert thermo_majorizes(p, report.target, spec)
    assert report.q_c_catalytic <= report.q_c
    c_optimum = heat_exchange(p, c_plus_vertex(p, spec, ascending), spec)
    assert abs(report.q_c_catalytic - min(report.q_c, c_optimum)) <= 1e-12
    for pi in (rng.permutation(d) for _ in range(100)):
        assert heat_exchange(p, vertex_for_order(p, spec, pi), spec) >= report.q_c - 1e-12
        assert heat_exchange(p, c_plus_vertex(p, spec, pi), spec) >= report.q_c_catalytic - 1e-12


def dict_dedup(rows):
    first = {}
    for i, key in enumerate(map(tuple, np.round(rows, 10).tolist())):
        first.setdefault(key, i)
    return list(first.values())


@pytest.mark.parametrize("d", range(2, 9))
def test_distinct_vertices_keep_the_first_order_of_each_rounded_row(d):
    rng = np.random.default_rng([5, d])
    kinds = ("equal", "paired", "unsorted") if d < 8 else ("paired",)
    for kind in kinds:
        spec = EnergySpectrum(tuple(energies(kind, d, rng)), 0.0 if kind != "unsorted" else 1.0)
        for p in (state("full_rank", spec, rng), state("rank_deficient", spec, rng)):
            for heights in (_curve_heights(p, spec), _c_plus_heights(p, spec)):
                rows = order_vertices(heights, spec.gibbs, perm_matrix(d))
                keep = dict_dedup(rows)
                orders, kept = distinct_vertices(heights, spec.gibbs)
                assert np.array_equal(orders, perm_matrix(d)[keep])
                assert kept.tobytes() == rows[keep].tobytes()


def test_rows_in_one_rounding_bucket_are_one_vertex():
    # order (1, 0) gives (0.3 - 1e-13, 0.7 + 1e-13): the same row to 10 decimals
    gamma, perms = np.array([0.5, 0.5]), perm_matrix(2)
    heights = lambda knots: np.array([[0.3, 1.0], [0.7 + 1e-13, 1.0]])
    orders, kept = distinct_rows(perms, order_vertices(heights, gamma, perms))
    assert orders.tolist() == [[0, 1]]
    assert kept.tolist() == [[0.3, 0.7]]
