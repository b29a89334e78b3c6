"""The scalar membership tests are one-row calls of the mask kernels.

`catalysable_future_member`, `catalysable_past_member`, `in_region_Ti` and
`in_TN` classify one state as the only row of the batch kernels that
`region_masks`, `mc_volume` and `volume_ratio_CN_TN` run.  Their previous
bodies, which built the state's own curve, live on as oracles in
`curve_oracles.py`; the two agree wherever the oracle answers, and the
kernels also answer where `tm_curve` refused the state's curve.
"""

import numpy as np
import pytest

import curve_oracles as oracle
from thermocone import (
    EnergySpectrum,
    TMCurve,
    TwoQubitConfig,
    catalysable_future_member,
    catalysable_past_member,
    curve_dominates,
    in_region_Ti,
    in_TN,
    region_masks,
    sample_simplex,
    tangent_bound_curve,
    unitary_entanglable,
)
from thermocone.entanglement import _tn_mask

from test_dual_screens import edge_states
from test_region_kernels import _energies, _near_ties, _state

KINDS = ("random", "near_gibbs", "rank_deficient")


def _outcome(fn, *args):
    """The answer of `fn`, or the type of the error it raised."""
    try:
        return fn(*args)
    except (ValueError, RuntimeError) as exc:
        return type(exc)


def _rows(rng, p, spec, n_ties=16, n_random=6):
    """Some of p's near-tie rows (`_near_ties`) and a few uniform draws."""
    ties = _near_ties(rng, p, spec)
    ties = ties[rng.choice(len(ties), min(n_ties, len(ties)), replace=False)]
    return np.vstack([ties, sample_simplex(spec.d, n_random, rng)])


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7])
@pytest.mark.parametrize("beta", [0.0, 0.7, 3.0])
def test_members_equal_the_curve_oracles(d, beta):
    rng = np.random.default_rng([d, int(10 * beta), 21])
    for energies in ("sorted", "unsorted", "degenerate"):
        spec = EnergySpectrum(tuple(_energies(rng, d, energies)), beta)
        for kind in KINDS:
            p = _state(rng, spec, kind)
            for q in _rows(rng, p, spec):
                assert catalysable_future_member(q, p, spec) == oracle.catalysable_future_member(q, p, spec)
                assert catalysable_past_member(q, p, spec) == oracle.catalysable_past_member(q, p, spec)
                for i in (1, d):
                    assert in_region_Ti(q, p, spec, i) == oracle.in_region_Ti(q, p, spec, i)


@pytest.mark.parametrize("beta", [0.0, 0.7, 3.0])
def test_in_TN_equals_the_vertex_oracle(beta):
    cfg = TwoQubitConfig(beta)
    spec = cfg.spectrum()
    rng = np.random.default_rng([int(10 * beta), 22])
    for kind in KINDS:
        p = _state(rng, spec, kind)
        for q in _rows(rng, p, spec, n_ties=60, n_random=20):
            assert in_TN(q, cfg) == oracle.in_TN(q, cfg)


@pytest.mark.parametrize("beta", [0.0, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0])
def test_in_TN_equals_the_vertex_oracle_on_edge_states(beta):
    # a state that `Dist` refuses (clipped near-Gibbs rows whose sum drifts past EPS_SUM) is refused by both
    cfg = TwoQubitConfig(beta)
    rng = np.random.default_rng([int(4 * beta), 23])
    answered = 0
    for s in edge_states(rng, cfg) + list(rng.dirichlet(np.ones(4), 40)):
        got, want = _outcome(in_TN, s, cfg), _outcome(oracle.in_TN, s, cfg)
        assert got is want or isinstance(want, type) and isinstance(got, bool)
        answered += isinstance(want, bool)
    assert answered >= 40


def test_in_TN_refuses_a_dimension_mismatch_as_before():
    cfg = TwoQubitConfig(1.0)
    for s in ((0.5, 0.5), (0.2, 0.2, 0.2, 0.2, 0.2)):
        with pytest.raises(ValueError) as old:
            oracle.in_TN(s, cfg)
        with pytest.raises(ValueError, match=f"state has {len(s)} levels but spectrum has 4") as new:
            in_TN(s, cfg)
        assert str(new.value) == str(old.value)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # the oracle divides by the repeated gap
def test_a_level_lost_to_rounding_is_answered_as_region_masks_answers():
    # gamma_2 = e^-60 / Z is below half an ulp of 1, so a q empty on level 2 repeats an abscissa
    spec = EnergySpectrum((0.0, 1.0, 2.0), 30.0)
    assert 1.0 - spec.gibbs[2] == 1.0
    p = np.array([0.7, 0.2, 0.1])
    for q in ([0.5, 0.5, 0.0], [0.9, 0.1, 0.0], [0.3, 0.7, 0.0], [1.0, 0.0, 0.0]):
        q = np.array(q)
        with pytest.raises(ValueError, match="abscissae"):
            oracle.in_region_Ti(q, p, spec, 1)
        masks = region_masks(p, spec, q[None])
        assert catalysable_future_member(q, p, spec) == masks["C+"][0]
        assert catalysable_past_member(q, p, spec) == masks["C-"][0]
        xs, ys = (k[0] for k in oracle.batch_curves(q[None], spec.gibbs))
        last = np.append(np.diff(xs) > 0.0, True)  # the last knot of each run of equal abscissae
        curve = TMCurve(xs[last], ys[last])
        for i in (1, 3):
            assert in_region_Ti(q, p, spec, i) == curve_dominates(tangent_bound_curve(p, spec, i), curve)


def test_in_TN_answers_where_the_vertex_oracle_refused():
    cfg = TwoQubitConfig(30.0)
    gamma = cfg.spectrum().gibbs
    assert 1.0 - gamma[3] == 1.0
    for s in ([0.5, 0.3, 0.2, 0.0], [0.6, 0.2, 0.2, 0.0], [0.4, 0.3, 0.3, 0.0]):
        s = np.array(s)
        with pytest.raises((ValueError, RuntimeError)):
            oracle.in_TN(s, cfg)
        got = in_TN(s, cfg)
        assert got == _tn_mask(s[None], gamma)[0]
        assert not (got and unitary_entanglable(s))  # a state lies in its own future
