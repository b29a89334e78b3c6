"""Optimal cooling as the ascending-energy vertex, against the scan and every order.

`optimal_cooling` reports the vertex of the stable ascending-energy level
order for each bound (`cooling._ascending_vertex` proves it optimal).  Two
oracles check it:

- `enum_cooling` is the enumerating `optimal_cooling` of earlier versions: it
  builds every deduplicated future-cone and catalysable-future vertex with the
  vectorised kernel, takes each heat as float(e @ (row - p)) and keeps a vertex
  only when its heat is below the kept one's by more than 1e-12 (`lowest`), so
  ties go to the lexicographically first order.  When the energies ascend with
  the level index, the ascending-energy order is that first order, and the six
  report fields must equal the scan's bit for bit.
- `least_heats` is the least heat over every level order's vertex, with no
  dedup.  The report's heat may lie above it by rounding only (`heat_slack`).
"""

import math

import numpy as np
import pytest

from thermocone import (
    Dist,
    EnergySpectrum,
    c_plus_vertex,
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


def least_heats(p, spec):
    """(future, both): the least heat over every order's future vertex, and over its C+ vertex too; no dedup."""
    probs = Dist(p).probs
    e = np.asarray(spec.energies)
    perms = perm_matrix(spec.d)
    least = [
        min(float(e @ row) for row in order_vertices(heights, spec.gibbs, perms) - probs)
        for heights in (_curve_heights(probs, spec), _c_plus_heights(probs, spec))
    ]
    return least[0], min(least)


def heat_slack(spec):
    """How far a reported heat may lie above another order's computed heat, from rounding alone.

    A population is the difference of two curve heights read at Gibbs
    subsums.  A subsum of k weights is off by at most k ulps of itself, the
    interpolation adds a few ulps of 1, and a concave curve through the
    origin has slope at most y / x, so a height is off by at most (d + 3)
    ulps of 1 and a population by twice that.  With the subtraction and the
    d-term dot product, a heat sum_i E_i (q_i - p_i) is then off by at most
    (3 d + 7) eps sum_i |E_i|, and the gap between two computed heats by
    twice that, which 32 (d + 1) eps (1 + sum_i |E_i|) exceeds at every d.
    """
    return 32 * (spec.d + 1) * np.finfo(float).eps * (1.0 + float(np.abs(spec.energies).sum()))


def ascends(spec):
    return bool(np.all(np.diff(spec.energies) >= 0.0))


def assert_promises(p, spec, report):
    """Every promise of `optimal_cooling`'s docstring, for a catalytic report."""
    order = tuple(np.argsort(spec.energies, kind="stable").tolist())
    assert report.order == report.order_catalytic == order
    assert report.target.probs.tobytes() == vertex_for_order(p, spec, order).probs.tobytes()
    assert report.q_c == heat_exchange(p, report.target, spec)
    c_vertex = c_plus_vertex(p, spec, order)
    kept = c_vertex if heat_exchange(p, c_vertex, spec) < report.q_c - 1e-12 else report.target
    assert report.target_catalytic.probs.tobytes() == kept.probs.tobytes()
    assert report.q_c_catalytic == heat_exchange(p, kept, spec)
    assert report.q_c_catalytic <= report.q_c
    if spec.d <= 8:
        future, both = least_heats(p, spec)
        assert report.q_c <= future + heat_slack(spec)
        assert report.q_c_catalytic <= both + 1e-12 + heat_slack(spec)


def assert_report(p, spec, report):
    """The promises, and the scan's six fields bit for bit on an ascending spectrum.

    Elsewhere the report's heats are never above the scan's by more than the
    slack, and the catalytic one by more than the 1e-12 tie rule on top.
    """
    assert_promises(p, spec, report)
    want = enum_cooling(p, spec)
    if ascends(spec):
        assert fields(report) == want
    assert report.q_c <= float.fromhex(want[0]) + heat_slack(spec)
    assert report.q_c_catalytic <= float.fromhex(want[3]) + 1e-12 + heat_slack(spec)


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
def test_report_is_the_ascending_energy_vertex(d, n):
    for p, spec in random_cases(d, n):
        report = optimal_cooling(p, spec, catalytic=True)
        assert_report(p, spec, report)
        plain = optimal_cooling(p, spec)
        assert fields(report)[:3] == (plain.q_c.hex(), plain.target.probs.tobytes(), plain.order)
        assert plain.q_c_catalytic is None


# At beta = 0 the vertex of order pi puts 0.5, 0.3 and 0.2 on levels pi[0], pi[1]
# and pi[2], so on energies (2 delta, delta, 0) the six vertices are distinct with
# heats 0.6, 0.5, 0.4, 0.2, 0.1 and 0 delta above the optimum, in lexicographic
# order.  The ascending-energy order (2, 1, 0) is the optimum at every delta; a
# scan that keeps a later order only 1e-12 below the kept one stops above it.
@pytest.mark.parametrize("delta", [0.9e-12, 1.5e-12, 2.2e-12, 3.3e-12])
@pytest.mark.parametrize("offset", [0.0, 1.0])
def test_near_tie_chain_reports_the_optimum(delta, offset):
    spec = EnergySpectrum((offset + 2 * delta, offset + delta, offset), 0.0)
    p = (0.5, 0.3, 0.2)
    heats = sorted(heat_exchange(p, vertex_for_order(p, spec, pi), spec) for pi in perm_matrix(3))
    assert len(set(heats)) == 6 and 0.5e-12 < heats[-1] - heats[0] < 2e-12
    report = optimal_cooling(p, spec, catalytic=True)
    assert_report(p, spec, report)
    assert report.order == report.order_catalytic == (2, 1, 0)
    assert report.q_c == heats[0] <= float.fromhex(enum_cooling(p, spec)[0])


def test_random_near_ties_keep_every_promise():
    rng = np.random.default_rng(3)
    for _ in range(60):
        d = int(rng.integers(3, 7))
        delta = float(rng.choice([0.3e-12, 0.5e-12, 1e-12, 2e-12, 4e-12]))
        e = float(rng.choice([0.0, 1.0])) + rng.integers(0, 6, d) * delta
        spec = EnergySpectrum(tuple(e), float(rng.choice([0.0, 1.0])))
        p = rng.dirichlet(np.ones(d))
        assert_report(p, spec, optimal_cooling(p, spec, catalytic=True))


def test_near_equal_vertices_report_the_lower_heat():
    # both orders give (0.5, 0.5) to 10 decimals, so the deduplicating scan sees
    # only (0, 1), at heat 0; (1, 0) puts 4e-11 more on the lower level
    spec = EnergySpectrum((1.0, 0.0), 0.0)
    p = (0.5 + 2e-11, 0.5 - 2e-11)
    report = optimal_cooling(p, spec, catalytic=True)
    assert_report(p, spec, report)
    assert report.order == report.order_catalytic == (1, 0)
    assert report.q_c == heat_exchange(p, vertex_for_order(p, spec, (1, 0)), spec) < -1e-11
    assert float.fromhex(enum_cooling(p, spec)[0]) == 0.0


def test_the_dedup_no_longer_hides_the_optimum():
    # near Gibbs, the optimal order's vertex has the rounded key of a vertex
    # the scan meets first, at a heat 1e-10 higher; the scan reported -9.94e-11
    spec = EnergySpectrum((1.0, 2.0, 2.0, 0.0, 0.0, 0.0, 0.0), 0.3)
    p = np.array([0.1268862969178409, 0.093999680691016, 0.09399968070434818, 0.1712785854762642,
                  0.17127858539779522, 0.17127858535204077, 0.17127858546069463])
    report = optimal_cooling(p, spec, catalytic=True)
    e = np.asarray(spec.energies)
    rows = order_vertices(_curve_heights(p, spec), spec.gibbs, perm_matrix(7))
    assert report.q_c == min(float(e @ row) for row in rows - p) == -2.0466395245222202e-10
    assert report.order == (3, 4, 5, 6, 0, 1, 2)
    assert float.fromhex(enum_cooling(p, spec)[0]) > report.q_c + 1e-10


# Near-Gibbs states on a rounding edge.  The two level prefixes listed with
# each state hold the same levels, so they reach the same knot in exact
# arithmetic, but their Gibbs weights summed in different orders, such as
# (gamma_2 + gamma_0) + gamma_3 and (gamma_2 + gamma_3) + gamma_0, differ in the
# last bit; one population of the completions then lies on a 10-decimal
# rounding edge, so the two prefixes give vertices that round apart.  They were
# found by moving a population onto the edge by bisection.
ROUNDING_EDGE_CASES = [
    ([0.2271576558133299, 0.16199242635000013, 0.18484338763189195, 0.22863323955931805, 0.19737329064546008],
     (0.632514102200751, 1.7594964747739383, 1.3196320427290549, 0.61093126793978, 1.101005713196972), 0.3,
     ((0, 2, 3), (0, 3, 2))),
    ([0.22715765581333003, 0.16199242635000005, 0.18484338763189198, 0.22863323955931802, 0.19737329064546008],
     (0.632514102200751, 1.7594964747739383, 1.3196320427290549, 0.61093126793978, 1.101005713196972), 0.3,
     ((0, 2, 3), (0, 3, 2))),
    ([0.016062551121224837, 0.016062551251520146, 0.32262496596368245, 0.3226249659135724, 0.32262496575000005],
     (1.0, 1.0, 0.0, 0.0, 0.0), 3.0, ((2, 0, 3), (2, 3, 0))),
    ([0.016062551149999743, 0.016062551243859854, 0.32262496594358686, 0.32262496589642464, 0.32262496576612876],
     (1.0, 1.0, 0.0, 0.0, 0.0), 3.0, ((2, 0, 3), (2, 3, 0))),
    ([0.016062551049999745, 0.016062551270481278, 0.322624966013424, 0.3226249659560175, 0.3226249657100774],
     (1.0, 1.0, 0.0, 0.0, 0.0), 3.0, ((2, 0, 3), (2, 3, 0))),
    ([0.016062551049999915, 0.016062551270481232, 0.3226249660134239, 0.3226249659560174, 0.32262496571007754],
     (1.0, 1.0, 0.0, 0.0, 0.0), 3.0, ((2, 0, 3), (2, 3, 0))),
]


@pytest.mark.parametrize("p,energies,beta,heads", ROUNDING_EDGE_CASES)
def test_states_on_a_rounding_edge_keep_every_promise(p, energies, beta, heads):
    spec = EnergySpectrum(energies, beta)
    first, later = (np.cumsum(spec.gibbs[list(head)])[-1] for head in heads)
    assert first != later and np.nextafter(first, later) == later
    p = np.array(p)
    report = optimal_cooling(p, spec, catalytic=True)
    assert_report(p, spec, report)
    assert thermo_majorizes(p, report.target, spec)


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
# with heats further apart than 1e-12, of which the scan sees only the first
@pytest.mark.parametrize("d,n", [(2, 40), (3, 40), (4, 40), (5, 30), (6, 12), (7, 4)])
def test_near_gibbs_states_keep_every_promise(d, n):
    for p, spec in near_gibbs_cases(d, n):
        report = optimal_cooling(p, spec, catalytic=True)
        assert_report(p, spec, report)
        assert thermo_majorizes(p, report.target, spec)


@pytest.mark.parametrize("d", [9, 10])
@pytest.mark.parametrize("kind", ["sorted", "unsorted", "paired"])
@pytest.mark.parametrize("beta", [0.0, 0.5, 2.0])
def test_report_above_the_enumeration_cap_is_the_ascending_energy_optimum(d, kind, beta):
    rng = np.random.default_rng([d, len(kind), int(10 * beta)])
    spec = EnergySpectrum(tuple(energies(kind, d, rng)), beta)
    p = rng.dirichlet(np.ones(d))
    report = optimal_cooling(p, spec, catalytic=True)
    assert_promises(p, spec, report)
    assert thermo_majorizes(p, report.target, spec)
    for pi in (rng.permutation(d) for _ in range(100)):
        assert heat_exchange(p, vertex_for_order(p, spec, pi), spec) >= report.q_c - heat_slack(spec)
        assert heat_exchange(p, c_plus_vertex(p, spec, pi), spec) >= report.q_c_catalytic - 1e-12 - heat_slack(spec)


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
