"""Every promise of `optimal_cooling`'s docstring, on generated states at d = 2..8.

The report names the stable ascending-energy order, its targets are that
order's vertices (`vertex_for_order`, and `c_plus_vertex` when the catalysable
future is lower by more than 1e-12), its heats are `heat_exchange` of its
targets, and no order's vertex has a computed heat lower than the report's by
more than rounding (`test_cooling_search.heat_slack`, fixed by its proof).

At beta = 30 some states have a curve that `tm_curve` refuses, because a
Gibbs weight below half an ulp of 1 repeats an abscissa (ROADMAP item 1).
`optimal_cooling` reads the same curve, so it must refuse those states with
the same error, and answer every other state.
"""

import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from thermocone import EnergySpectrum, optimal_cooling, tm_curve

from test_cooling_search import ENERGY_KINDS, assert_promises, energies, state

STATES = ("gibbs", "near_gibbs", "full_rank", "rank_deficient", "pure")


def generated_state(kind, spec, rng):
    if kind == "near_gibbs":  # within 1e-13..1e-9 of Gibbs, on both sides
        dp = rng.standard_normal(spec.d)
        dp -= dp.mean()
        p = spec.gibbs + 10.0 ** rng.uniform(-13, -9) * spec.gibbs * dp / np.abs(dp).max()
        return p / p.sum()
    return state(kind, spec, rng)


@given(
    d=st.integers(2, 8),
    energy=st.sampled_from(ENERGY_KINDS),
    beta=st.sampled_from([0.0, 0.3, 1.0, 3.0, 30.0]),
    kind=st.sampled_from(STATES),
    seed=st.integers(0, 2**32 - 1),
)
def test_optimal_cooling_keeps_every_promise(d, energy, beta, kind, seed):
    rng = np.random.default_rng(seed)
    spec = EnergySpectrum(tuple(energies(energy, d, rng)), beta)
    p = generated_state(kind, spec, rng)
    try:
        tm_curve(p, spec)
    except (ValueError, RuntimeWarning) as refusal:
        with pytest.raises(type(refusal), match=re.escape(str(refusal))):
            optimal_cooling(p, spec, catalytic=True)
        return
    assert_promises(p, spec, optimal_cooling(p, spec, catalytic=True))
