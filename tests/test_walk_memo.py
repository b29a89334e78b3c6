"""The knot in the prefix memo of `cooling._walk`.

The walk skips a prefix when an earlier one holds the same levels at the same
rounded populations and reaches the same knot.  Two prefixes with the same
levels reach the same knot in exact arithmetic, but their Gibbs weights are
summed in different orders: on each state below, the knots of the two
prefixes listed with it, such as (gamma_2 + gamma_0) + gamma_3 and
(gamma_2 + gamma_3) + gamma_0, differ in the last bit.  The completions of
the two prefixes then differ in the last bits too, and one of their
populations lies on a rounding edge, so they round to different vertices.  A memo keyed without the knot skips the later prefix and misses
the vertex that a scan of every distinct vertex keeps.  The states are near
Gibbs (so the walk runs) and were found by moving a population onto a
rounding edge by bisection.
"""

import math

import numpy as np
import pytest

from thermocone import EnergySpectrum, c_plus_vertices, cooling, future_cone_vertices, optimal_cooling

EDGE_CASES = [
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


def scan(p, spec):
    """(heat, vertex bytes, order) kept by a scan of the future vertices, then of both vertex sets."""
    e = np.asarray(spec.energies)
    kept = []
    best, pick = math.inf, None
    for cv in (future_cone_vertices(p, spec), c_plus_vertices(p, spec)):
        for order, v in cv:
            heat = float(e @ (v.probs - p))
            if heat < best - 1e-12:  # ties go to the first order scanned
                best, pick = heat, (heat.hex(), v.probs.tobytes(), order)
        kept.append(pick)
    return kept


@pytest.mark.parametrize("p,energies,beta,heads", EDGE_CASES)
def test_prefixes_whose_knots_differ_in_the_last_bit_are_both_walked(monkeypatch, p, energies, beta, heads):
    spec = EnergySpectrum(energies, beta)
    first, later = (np.cumsum(spec.gibbs[list(head)])[-1] for head in heads)
    assert first != later and np.nextafter(first, later) == later
    walked = []
    walk = cooling._walk
    monkeypatch.setattr(cooling, "_walk", lambda *args: walked.append(1) or walk(*args))
    p = np.array(p)
    report = optimal_cooling(p, spec, catalytic=True)
    assert walked
    got = [
        (report.q_c.hex(), report.target.probs.tobytes(), report.order),
        (report.q_c_catalytic.hex(), report.target_catalytic.probs.tobytes(), report.order_catalytic),
    ]
    assert got == scan(p, spec)
