"""The vectorised vertex kernel against the per-order loops it replaced.

The reference below builds one extreme point per level order, walks the orders
in lexicographic order and keeps the first order of each vertex, keyed on its
populations rounded to 10 decimals.  The kernel must reproduce it bit for bit:
same kept orders in the same order, same vertex bits, same cooling reports.
"""

import math
from itertools import permutations

import numpy as np
import pytest

from thermocone import (
    Dist,
    EnergySpectrum,
    beta_order,
    c_plus_vertex,
    c_plus_vertices,
    future_cone_vertices,
    heat_exchange,
    optimal_cooling,
    tm_curve,
    vertex_for_order,
)
from thermocone._batch import perm_matrix


def _dedup_key(v):
    return tuple(np.round(v, 10))


def ref_vertex_for_order(p, spec, order):
    probs = np.asarray(p, dtype=float)
    gamma = spec.gibbs
    curve = tm_curve(probs, spec)
    idx = np.asarray(order, dtype=int)
    xs = np.cumsum(gamma[idx])
    xs[-1] = 1.0
    heights = np.interp(xs, curve.xs, curve.ys)
    heights[-1] = 1.0
    diffs = np.diff(np.concatenate(([0.0], heights)))
    out = np.empty_like(probs)
    out[idx] = np.maximum(diffs, 0.0)
    return Dist(out)


def ref_c_plus_vertex(p, spec, order):
    probs = np.asarray(p, dtype=float)
    gamma = spec.gibbs
    idx = np.asarray(order, dtype=int)
    sv = beta_order(probs, spec)
    xs = np.cumsum(gamma[idx])
    xs[-1] = 1.0
    y_first = sv.slopes[0] * xs
    y_first[-1] = 1.0
    y_last = 1.0 - sv.slopes[-1] * (1.0 - xs)
    heights = np.minimum(np.minimum(y_first, y_last), 1.0)
    heights[-1] = 1.0
    diffs = np.maximum(np.diff(np.concatenate(([0.0], heights))), 0.0)
    out = np.empty(probs.size)
    out[idx] = diffs
    return Dist(out)


def ref_vertices(vertex, p, spec):
    out = {}
    seen = set()
    for pi in permutations(range(spec.d)):
        v = vertex(p, spec, pi)
        key = _dedup_key(v.probs)
        if key not in seen:
            seen.add(key)
            out[pi] = v
    return out


def ref_cooling(p, spec):
    """(q_c, target, order) without and with the catalysable-future vertices."""

    def best(candidates):
        best_q, best_heat, best_pi = None, math.inf, None
        for pi, vertex in candidates:
            heat = heat_exchange(p, vertex, spec)
            if heat < best_heat - 1e-12:
                best_heat, best_q, best_pi = heat, vertex, pi
        return best_heat, best_q, best_pi

    future = list(ref_vertices(ref_vertex_for_order, p, spec).items())
    c_plus = list(ref_vertices(ref_c_plus_vertex, p, spec).items())
    return best(future), best(future + c_plus)


def _spectrum(kind, d, rng):
    if kind == "equidistant":
        energies = np.arange(d) * float(rng.uniform(0.2, 1.0))
    elif kind == "paired":
        energies = np.repeat(np.sort(rng.uniform(0.0, 2.0, (d + 1) // 2)), 2)[:d]
    else:  # unsorted
        energies = rng.uniform(0.0, 2.0, d)
    return energies


def _state(kind, spec, rng):
    d = spec.d
    if kind == "gibbs":
        return spec.gibbs.copy()
    p = rng.dirichlet(np.ones(d))
    if kind == "rank_deficient":
        p[rng.choice(d, size=max(1, d // 2), replace=False)] = 0.0
        p /= p.sum()
    return p


def _cases():
    rng = np.random.default_rng(4)
    cases = []
    for d in (2, 3, 4, 5, 6):
        for spectrum in ("equidistant", "paired", "unsorted"):
            for beta in (0.0, float(rng.uniform(0.1, 3.0))):
                for state in ("gibbs", "full_rank", "rank_deficient"):
                    spec = EnergySpectrum(tuple(_spectrum(spectrum, d, rng)), beta)
                    cases.append(pytest.param(_state(state, spec, rng), spec,
                                              id=f"d{d}-{spectrum}-beta{beta:.2f}-{state}"))
    spec7 = EnergySpectrum(tuple(_spectrum("unsorted", 7, rng)), 0.8)
    cases.append(pytest.param(_state("full_rank", spec7, rng), spec7, id="d7-unsorted-full_rank"))
    return cases


CASES = _cases()


def assert_same_vertices(got, want):
    assert list(got.vertices) == list(want)
    for pi, v in want.items():
        assert np.array_equal(got.vertices[pi].probs, v.probs)
        assert got.vertices[pi].probs.tobytes() == v.probs.tobytes()


@pytest.mark.parametrize("p,spec", CASES)
def test_future_cone_vertices_match_per_order_loop(p, spec):
    want = ref_vertices(ref_vertex_for_order, p, spec)
    assert_same_vertices(future_cone_vertices(p, spec), want)
    for pi, v in want.items():
        assert vertex_for_order(p, spec, pi).probs.tobytes() == v.probs.tobytes()


@pytest.mark.parametrize("p,spec", CASES)
def test_c_plus_vertices_match_per_order_loop(p, spec):
    want = ref_vertices(ref_c_plus_vertex, p, spec)
    assert_same_vertices(c_plus_vertices(p, spec), want)
    for pi, v in want.items():
        assert c_plus_vertex(p, spec, pi).probs.tobytes() == v.probs.tobytes()


def _same_pick(heat, target, order, want):
    w_heat, w_target, w_order = want
    assert order == w_order
    assert heat.hex() == w_heat.hex()
    assert target.probs.tobytes() == w_target.probs.tobytes()


@pytest.mark.parametrize("p,spec", [c for c in CASES if c.values[1].d <= 5] + CASES[-1:])
def test_optimal_cooling_matches_greedy_scan(p, spec):
    want, want_cat = ref_cooling(p, spec)
    plain = optimal_cooling(p, spec)
    report = optimal_cooling(p, spec, catalytic=True)
    _same_pick(plain.q_c, plain.target, plain.order, want)
    _same_pick(report.q_c, report.target, report.order, want)
    _same_pick(report.q_c_catalytic, report.target_catalytic, report.order_catalytic, want_cat)
    assert plain.q_c_catalytic is None


@pytest.mark.parametrize("beta", [0.0, 0.3, 1.0, 4.0])
def test_cooling_tie_goes_to_lexicographically_first_order(beta):
    # the Gibbs state is its own only future vertex, so every order ties; the
    # ascending-energy order (1, 2, 0) must not win over (0, 1, 2)
    spec = EnergySpectrum((2.0, 0.0, 1.0), beta)
    report = optimal_cooling(spec.gibbs, spec, catalytic=True)
    assert report.order == (0, 1, 2)
    assert report.order_catalytic == (0, 1, 2)
    want, want_cat = ref_cooling(spec.gibbs, spec)
    _same_pick(report.q_c, report.target, report.order, want)
    _same_pick(report.q_c_catalytic, report.target_catalytic, report.order_catalytic, want_cat)


class TestPermMatrix:
    @pytest.mark.parametrize("d", range(1, 7))
    def test_rows_are_orders_in_lexicographic_order(self, d):
        perms = perm_matrix(d)
        assert perms.shape == (math.factorial(d), d)
        assert [tuple(r) for r in perms.tolist()] == list(permutations(range(d)))

    def test_cached_and_read_only(self):
        assert perm_matrix(4) is perm_matrix(4)
        with pytest.raises(ValueError):
            perm_matrix(4)[0, 0] = 1

    def test_refused_above_cap(self):
        with pytest.raises(ValueError, match="enumeration cap"):
            perm_matrix(9)


def _ref_cooling_cases():
    rng = np.random.default_rng(8)
    cases = []
    for d in (6, 7):
        for name, energies, beta in (
            ("equal", np.zeros(d), 0.0),
            ("paired", _spectrum("paired", d, rng), 0.0),
            ("unsorted", _spectrum("unsorted", d, rng), 0.7),
        ):
            spec = EnergySpectrum(tuple(energies), beta)
            for state in ("full_rank", "rank_deficient") if d == 6 else ("full_rank",):
                cases.append(pytest.param(_state(state, spec, rng), spec, id=f"d{d}-{name}-{state}"))
    # one d = 8 case: the per-order loop takes seconds there; tests/test_cooling_search.py
    # checks more d = 8 cases against the vectorised enumeration
    spec = EnergySpectrum(tuple(_spectrum("paired", 8, rng)), 0.0)
    cases.append(pytest.param(_state("full_rank", spec, rng), spec, id="d8-paired-full_rank"))
    return cases


@pytest.mark.parametrize("p,spec", _ref_cooling_cases())
def test_optimal_cooling_matches_greedy_scan_at_higher_d(p, spec):
    want, want_cat = ref_cooling(p, spec)
    report = optimal_cooling(p, spec, catalytic=True)
    _same_pick(report.q_c, report.target, report.order, want)
    _same_pick(report.q_c_catalytic, report.target_catalytic, report.order_catalytic, want_cat)
