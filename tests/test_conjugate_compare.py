"""`compare` and `thermo_majorizes` read one conjugate margin (`_batch.dominance_margins`).

They must give the verdicts of the sorted-curve oracles (`curve_compare`,
`curve_thermo_majorizes`) wherever the oracle's margin lies off the rounding
band around -EPS_CMP, and answer where the oracle's `tm_curve` refuses a
curve: there they are checked against the margin in exact rational
arithmetic.  `verify_catalyst` reads the same margin, so it answers as
`search_qubit_catalyst` does also for states whose sum is off 1 by more than
rounding.
"""

from fractions import Fraction

import numpy as np
import pytest

from thermocone import (
    EPS_CMP,
    EnergySpectrum,
    Relation,
    compare,
    qubit_catalyst_spectrum,
    search_qubit_catalyst,
    tensor,
    thermo_majorizes,
    vertex_for_order,
    verify_catalyst,
)

from curve_oracles import curve_compare, curve_margin, curve_thermo_majorizes

BETAS = (0.0, 0.3, 1.0, 5.0, 20.0)
BAND = 1e-13  # off this band around -EPS_CMP, rounding cannot tip a verdict (`_batch.dominance_margins`)


def outcome(fn):
    """What a call gives: its value, or the type of what it raised."""
    try:
        with np.errstate(all="ignore"):
            return fn()
    except Exception as exc:  # the type is the answer compared
        return type(exc)


def exact_margin(p, q, gamma) -> Fraction:
    """min over p's slopes s = p_i / gamma_i of phi_p(s) - phi_q(s), in exact rational arithmetic."""
    p, q, g = ([Fraction(float(v)) for v in a] for a in (p, q, gamma))

    def phi(x, s):
        return sum(max(xi - s * gi, Fraction(0)) for xi, gi in zip(x, g))

    return min(phi(p, pi / gi) - phi(q, pi / gi) for pi, gi in zip(p, g))


RELATION = {  # (forward, backward) -> relation
    (True, True): Relation.EQUIVALENT,
    (True, False): Relation.MAJORIZES,
    (False, True): Relation.MAJORIZED_BY,
    (False, False): Relation.INCOMPARABLE,
}


def near_edge(rng, p, spec, gap):
    """p with `gap` moved between two adjacent levels of its beta-order: one knot of the curve moves by `gap`."""
    order = np.argsort(-(p / spec.gibbs), kind="stable")
    k = rng.integers(p.size - 1)
    q = p.copy()
    q[order[k]] += gap
    q[order[k + 1]] -= gap
    return q if q.min() >= 0.0 else None


def pairs(rng, d, spec):
    """Random pairs, pairs from p's future, equal pairs, and pairs 1e-10 +- 1e-12 from the tolerance edge."""
    for _ in range(30):
        p = rng.dirichlet(np.ones(d))
        yield p, rng.dirichlet(np.ones(d))
        yield p, 0.9 * vertex_for_order(p, spec, rng.permutation(d)).probs + 0.1 * p
        yield p, p
        for _ in range(2):
            gap = rng.choice([1.0, -1.0]) * (EPS_CMP + rng.choice([-1e-12, 1e-12]))
            q = near_edge(rng, p, spec, gap)
            if q is not None:
                yield p, q


@pytest.mark.parametrize("beta", BETAS)
@pytest.mark.parametrize("d", range(2, 9))
def test_compare_equals_the_curve_oracle_off_the_rounding_band(d, beta):
    rng = np.random.default_rng([d, int(10 * beta), 61])
    spec = EnergySpectrum(tuple(np.sort(rng.uniform(0.0, 2.0, d))), beta)
    checked, at_edge, relations = 0, 0, set()
    for p, q in pairs(rng, d, spec):
        margins = outcome(lambda: (curve_margin(p, q, spec), curve_margin(q, p, spec)))
        if isinstance(margins, type):  # the oracle refused a curve; see the refusal tests below
            continue
        if min(abs(m + EPS_CMP) for m in margins) <= BAND:
            continue
        got = compare(p, q, spec)
        assert got is curve_compare(p, q, spec)
        assert thermo_majorizes(p, q, spec) is curve_thermo_majorizes(p, q, spec)
        assert thermo_majorizes(q, p, spec) is curve_thermo_majorizes(q, p, spec)
        checked += 1
        at_edge += min(abs(m + EPS_CMP) for m in margins) < 2e-12
        relations.add(got)
    assert checked >= 100 and at_edge >= 10
    assert {Relation.EQUIVALENT, Relation.MAJORIZES} <= relations
    assert Relation.INCOMPARABLE in relations or d == 2  # two-level states are totally ordered


def test_equal_rank_deficient_states_are_equivalent_where_the_curve_is_refused():
    # exp(-60) is below half an ulp of 1, so the empty top level repeats the last abscissa of the curve
    spec = EnergySpectrum((0.0, 1.0, 2.0), 30.0)
    p = (0.6, 0.4, 0.0)
    assert outcome(lambda: curve_compare(p, p, spec)) is ValueError
    assert compare(p, p, spec) is Relation.EQUIVALENT
    assert thermo_majorizes(p, p, spec)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_compare_answers_where_the_curve_oracle_refuses(d):
    # beta * dE up to 40, half the states with an empty level: the oracle refuses some curves, compare answers
    # every pair, as the exact margin does off the rounding band, and antisymmetrically
    rng = np.random.default_rng([d, 67])
    answered = 0
    for trial in range(120):
        spread = (10.0, 30.0, 37.0, 40.0)[trial % 4]
        spec = EnergySpectrum(tuple(np.sort(np.r_[0.0, spread, rng.uniform(0.0, spread, d - 2)])), 1.0)
        states = [rng.dirichlet(np.ones(d)) for _ in range(2)]
        if trial % 2:
            for s in states:
                s[d - 1 if rng.random() < 0.5 else rng.integers(d)] = 0.0
                s /= s.sum()
        p, q = states
        if rng.random() < 0.3:  # a future extreme point of p (where p's curve is not refused), or p itself
            vertex = outcome(lambda: vertex_for_order(p, spec, rng.permutation(d)).probs)
            q = p if isinstance(vertex, type) or trial % 3 == 0 else vertex
        forward, backward = thermo_majorizes(p, q, spec), thermo_majorizes(q, p, spec)
        got = compare(p, q, spec)
        assert got is RELATION[forward, backward] and compare(q, p, spec) is RELATION[backward, forward]
        expected = outcome(lambda: curve_compare(p, q, spec))
        if isinstance(expected, type):
            margins = [exact_margin(p, q, spec.gibbs), exact_margin(q, p, spec.gibbs)]
            if all(abs(float(m) + EPS_CMP) > BAND for m in margins):
                assert (forward, backward) == tuple(m >= -EPS_CMP for m in margins)
                answered += 1
        elif all(abs(m + EPS_CMP) > BAND for m in (curve_margin(p, q, spec), curve_margin(q, p, spec))):
            assert got is expected
    assert answered


def test_states_off_normalisation_are_answered_as_the_search_answers():
    # a state whose sum is off 1 by up to EPS_SUM: the last segment of its pinned joint curve absorbs the
    # deficit, and the sorted curve is refused as non-concave for many of them; both paths read the margin now
    rng = np.random.default_rng(71)
    spec = EnergySpectrum(tuple(np.sort(rng.uniform(0.0, 2.0, 3))), 1.0)
    spec_r = qubit_catalyst_spectrum(1.0, 0.5)
    refused, hits = 0, 0
    for _ in range(200):
        p = rng.dirichlet(np.ones(3)) * (1.0 + rng.choice([-9e-10, 9e-10]))
        q = rng.dirichlet(np.ones(3))
        verdict = verify_catalyst(p, q, spec, (0.5, 0.5), spec_r)
        assert verdict == (search_qubit_catalyst(p, q, spec, 0.5, 2) == [0.5])
        joint_p, joint_spec = tensor(p, spec, (0.5, 0.5), spec_r)
        joint_q, _ = tensor(q, spec, (0.5, 0.5), spec_r)
        refused += outcome(lambda: curve_thermo_majorizes(joint_p, joint_q, joint_spec)) is RuntimeError
        hits += verdict
    assert refused >= 20 and hits
