"""Closed-form C+ vertices and prefix-tree rows against the enumeration they replace.

`c_plus_vertices` reads its vertices off the two pieces of the C+ bound, one
class (S, l) of level orders at a time (`catalysis._c_plus_rows`), and
`distinct_vertices` builds the rows of every level order on the prefix tree
(`_batch.lex_rows`).  The oracles are the enumeration itself: every order's
row from `order_vertices`, deduplicated by `distinct_rows`.  Both must agree
with it byte for byte, on the states where the closed form answers and on
those where it hands over to the enumeration.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from thermocone import EnergySpectrum, c_plus_vertices, catalysis
from thermocone._batch import distinct_rows, lex_rows, order_vertices, perm_matrix
from thermocone.catalysis import _c_plus_heights, _c_plus_rows
from thermocone.cones import _curve_heights

ENERGIES = ("sorted", "unsorted", "equidistant", "paired", "equal")
STATES = ("full_rank", "rank_deficient", "gibbs", "near_gibbs")


def energies(kind, d, rng):
    if kind == "equidistant":
        return np.arange(d) * float(rng.uniform(0.2, 1.0))
    if kind == "paired":  # degenerate pairs: many orders give the same vertex
        return np.repeat(np.sort(rng.uniform(0.0, 2.0, (d + 1) // 2)), 2)[:d]
    if kind == "equal":
        return np.full(d, 0.5)
    e = rng.uniform(0.0, 2.0, d)
    return np.sort(e) if kind == "sorted" else e


def state(kind, spec, rng):
    d = spec.d
    if kind == "gibbs":
        return spec.gibbs.copy()
    if kind == "near_gibbs":  # slopes within 1e-13..1e-7 of 1, on both sides
        p = spec.gibbs * (1.0 + 10.0 ** rng.uniform(-13, -7) * rng.standard_normal(d))
        return p / p.sum()
    p = rng.dirichlet(np.ones(d))
    if kind == "rank_deficient" and d > 1:
        p[rng.choice(d, int(rng.integers(1, d)), replace=False)] = 0.0
        p /= p.sum()
    return p


def enumerated(heights, gamma):
    perms = perm_matrix(gamma.size)
    return distinct_rows(perms, order_vertices(heights, gamma, perms))


def spy_on_the_enumeration(monkeypatch):
    calls = []
    enumerate_all = catalysis.distinct_vertices
    monkeypatch.setattr(catalysis, "distinct_vertices", lambda h, g: calls.append(g.size) or enumerate_all(h, g))
    return calls


@given(
    d=st.integers(1, 8),
    beta=st.floats(0.0, 40.0),
    energy=st.sampled_from(ENERGIES),
    kind=st.sampled_from(STATES),
    seed=st.integers(0, 2**32 - 1),
)
def test_c_plus_vertices_equal_the_enumeration_byte_for_byte(d, beta, energy, kind, seed):
    rng = np.random.default_rng(seed)
    spec = EnergySpectrum(tuple(energies(energy, d, rng)), beta)
    p = state(kind, spec, rng)
    want_orders, want_rows = enumerated(_c_plus_heights(p, spec), spec.gibbs)
    cv = c_plus_vertices(p, spec)
    assert cv.orders.tobytes() == want_orders.tobytes()
    assert cv.rows.tobytes() == want_rows.tobytes()


@pytest.mark.parametrize("d", range(1, 9))
@pytest.mark.parametrize("energy", ["unsorted", "paired"])
def test_prefix_tree_rows_equal_order_vertices_bit_for_bit(d, energy):
    rng = np.random.default_rng([d, len(energy)])
    for beta in (0.0, 1.0, 30.0):
        spec = EnergySpectrum(tuple(energies(energy, d, rng)), beta)
        for kind in ("full_rank", "rank_deficient"):
            p = state(kind, spec, rng)
            # at beta = 30 a state's curve can lose a Gibbs weight against 1, which `tm_curve` refuses
            for make in (_curve_heights, _c_plus_heights) if beta < 30.0 else (_c_plus_heights,):
                heights = make(p, spec)
                want = order_vertices(heights, spec.gibbs, perm_matrix(d))
                got = lex_rows(heights, spec.gibbs)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_an_entry_on_a_rounding_edge_hands_over_to_the_enumeration(monkeypatch):
    # level 2 has the largest slope and lies before x*, so every class that puts it first gives it
    # s1 gamma_2, within an ulp of p_2 = 0.30000000005: halfway between two 10-decimal keys
    spec = EnergySpectrum((0.0, 1.0, 2.0), 1.0)
    calls = spy_on_the_enumeration(monkeypatch)
    for p2, handed_over in ((0.30000000005, [3]), (0.3000001, [])):
        p = np.array([0.5, 0.5 - p2, p2])
        ratios = p / spec.gibbs
        s1, sd = ratios.max(), ratios.min()
        assert sd < 1.0 < s1 and spec.gibbs[2] < (1.0 - sd) / (s1 - sd)  # not a Gibbs hand-over
        calls.clear()
        cv = c_plus_vertices(p, spec)
        assert calls == handed_over
        want_orders, want_rows = enumerated(_c_plus_heights(p, spec), spec.gibbs)
        assert cv.orders.tobytes() == want_orders.tobytes()
        assert cv.rows.tobytes() == want_rows.tobytes()


@pytest.mark.parametrize("d", [1, 2])
def test_gibbs_states_and_small_d_hand_over_to_the_enumeration(monkeypatch, d):
    calls = spy_on_the_enumeration(monkeypatch)
    spec = EnergySpectrum(tuple(np.linspace(0.0, 1.0, 4)), 1.0)
    c_plus_vertices(spec.gibbs, spec)  # every slope is 1: x* is no point of (0, 1)
    spec = EnergySpectrum(tuple(np.linspace(0.0, 1.0, d)), 1.0)
    c_plus_vertices(np.random.default_rng(d).dirichlet(np.ones(d)), spec)
    assert calls == [4, d]


def test_above_the_enumeration_cap_the_vertex_set_is_refused():
    spec = EnergySpectrum(tuple(np.linspace(0.0, 1.0, 9)), 1.0)
    with pytest.raises(ValueError, match="enumeration cap"):
        c_plus_vertices(np.random.default_rng(9).dirichlet(np.ones(9)), spec)


def exact_classes(p, spec):
    """The class (S, l) of every order of perm_matrix(d), in exact arithmetic on the doubles."""
    gamma = [Fraction(g) for g in spec.gibbs.tolist()]
    ratios = p / spec.gibbs
    s1, sd = Fraction(ratios.max()), Fraction(ratios.min())
    x = (1 - sd) / (s1 - sd)
    out = []
    for order in perm_matrix(spec.d).tolist():
        knot = Fraction(0)
        for k, level in enumerate(order):
            knot += gamma[level]
            if knot >= x or k == len(order) - 1:
                out.append((frozenset(order[:k]), level))
                break
    return out


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_orders_of_one_class_lie_within_the_spread_bound(d):
    # the docstring's bound: two orders of one class differ by at most (4d + 4) u + 2 |1 - sum gamma|
    rng = np.random.default_rng([d, 19])
    for energy in ("sorted", "unsorted", "paired"):
        for beta in (0.3, 2.0, 20.0):
            spec = EnergySpectrum(tuple(energies(energy, d, rng)), beta)
            p = state("full_rank", spec, rng)
            rows = order_vertices(_c_plus_heights(p, spec), spec.gibbs, perm_matrix(d))
            sigma = abs(1.0 - math.fsum(spec.gibbs.tolist()))
            bound = (4 * d + 4) * 2.0**-53 + 2.0 * sigma
            classes = {}
            for cls, row in zip(exact_classes(p, spec), rows):
                classes.setdefault(cls, []).append(row)
            for members in classes.values():
                members = np.array(members)
                assert (members.max(axis=0) - members.min(axis=0)).max() <= bound


def test_the_closed_form_reads_a_few_dozen_orders_at_d_7(monkeypatch):
    seen = []
    kernel = catalysis.order_vertices
    monkeypatch.setattr(catalysis, "order_vertices", lambda h, g, perms: seen.append(len(perms)) or kernel(h, g, perms))
    rng = np.random.default_rng(7)
    spec = EnergySpectrum(tuple(np.sort(rng.uniform(0.0, 2.0, 7))), 1.0)
    p = rng.dirichlet(np.ones(7))
    orders, rows = _c_plus_rows(p, spec)
    assert len(seen) == 1 and len(orders) <= seen[0] < 200
