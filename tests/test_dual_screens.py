"""One test per question: the catalyst search and `in_CN`'s screens on the sort-free kernels.

`search_qubit_catalyst` reads the joint states through their conjugate
margins (`_batch.dominance_margins`) and must answer, and raise, as one
`verify_catalyst` call per grid point does; off the rounding band it must
also answer as the sorted joint curves do.  `in_CN` screens a state with
`in_TN` and `_cn_mask` and must answer as the enumerated screen over every
future and catalysable-future extreme point did, followed by the same
sampling stage.
"""

import io
import json
from contextlib import redirect_stdout

import numpy as np
import pytest

from thermocone import (
    EPS_CMP,
    EnergySpectrum,
    TwoQubitConfig,
    beta_order,
    c_plus_vertex,
    c_plus_vertices,
    curve_eval,
    future_cone_vertices,
    in_CN,
    in_TN,
    p_star,
    p_star_star,
    qubit_catalyst_spectrum,
    search_qubit_catalyst,
    tangent_bound_curve,
    tangent_curve,
    tangent_vector,
    tm_curve,
    tensor,
    verify_catalyst,
)
from thermocone.cli import run
from thermocone.entanglement import _tn_mask
from thermocone.volume import DEFAULT_SEED, Workspace, _Chunk, _kept_rows, _over_chunks

from curve_oracles import curve_margin
from test_cli import STATE3, TWOQUBIT

# verify_catalyst answers False at every grid point; the sorted batch refused a curve that rounding made non-concave
REPRODUCER = ((0.05, 0.2, 0.75, 0.0), (0.3, 0.2, 0.4, 0.1), EnergySpectrum((0, 0.5, 1, 12), 1.0))
SPREADS = (0.0, 1.0, 5.0, 12.0, 20.0, 27.0, 30.0, 34.0, 37.0, 40.0)  # beta * dE at beta = 1
GRID = 20
TINY_GIBBS = 1e-12  # joint Gibbs weights below this sit within a few ulps of the running sums of a curve's knots
BAND = 1e-13  # off this band around -EPS_CMP, rounding cannot tip a verdict (`_batch.dominance_margins`)


def outcome(fn):
    """What a call gives: its value, or the type of what it raised."""
    try:
        with np.errstate(all="ignore"):
            return fn()
    except Exception as exc:  # the type is the answer compared
        return type(exc)


def scalar_search(p, q, spec, gibbs_r, grid_n):
    spec_r = qubit_catalyst_spectrum(spec.beta, gibbs_r)
    return [t for t in (k / grid_n for k in range(1, grid_n)) if verify_catalyst(p, q, spec, (1.0 - t, t), spec_r)]


def sweep_pair(rng, d, spec, rank_deficient):
    p = rng.dirichlet(np.ones(d))
    if rng.random() < 0.5:
        q = 0.9 * c_plus_vertex(p, spec, rng.permutation(d)).probs + 0.1 * spec.gibbs
    else:
        q = rng.dirichlet(np.ones(d))
    if rank_deficient:  # an empty level, often the top one, whose Gibbs weight is the smallest
        for s in (p, q):
            s[d - 1 if rng.random() < 0.5 else rng.integers(d)] = 0.0
            s /= s.sum()
    return p, q


@pytest.mark.parametrize("rank_deficient", [False, True], ids=["full_rank", "rank_deficient"])
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_search_equals_the_scalar_loop_in_hits_and_refusals(d, rank_deficient):
    rng = np.random.default_rng([d, rank_deficient, 41])
    seen = {"hits": 0, "empty": 0, "refused": 0, "tiny_gibbs": 0}
    for spread in SPREADS:
        for _ in range(2):
            spec = EnergySpectrum(tuple(np.sort(np.r_[0.0, spread, rng.uniform(0.0, spread, d - 2)])), 1.0)
            p, q = sweep_pair(rng, d, spec, rank_deficient)
            for gibbs_r in (0.3, 0.5, 0.7):
                expected = outcome(lambda: scalar_search(p, q, spec, gibbs_r, GRID))
                assert outcome(lambda: search_qubit_catalyst(p, q, spec, gibbs_r, GRID)) == expected
                key = "refused" if isinstance(expected, type) else "hits" if expected else "empty"
                seen[key] += 1
                seen["tiny_gibbs"] += spec.gibbs.min() * min(gibbs_r, 1 - gibbs_r) < TINY_GIBBS
    assert seen["hits"] and seen["empty"] and seen["tiny_gibbs"]


def joint_margins(p, q, spec, gibbs_r, grid_n):
    """The sorted joint curves' margin (`curve_margin`) at each grid point of the search."""
    spec_r = qubit_catalyst_spectrum(spec.beta, gibbs_r)
    margins = []
    for t in (k / grid_n for k in range(1, grid_n)):
        joint_p, joint_spec = tensor(p, spec, (1.0 - t, t), spec_r)
        joint_q, _ = tensor(q, spec, (1.0 - t, t), spec_r)
        margins.append(curve_margin(joint_p, joint_q, joint_spec))
    return np.array(margins)


def test_search_equals_the_scalar_loop_at_the_tolerance_edge():
    # q is p with one knot of its curve moved by about EPS_CMP (scaled by the catalyst's weights), so many
    # joint margins land within rounding of -EPS_CMP; off that band the hits are those of the sorted joint curves
    rng = np.random.default_rng(59)
    near = 0
    for trial in range(80):
        d = 2 + trial % 4
        spec = EnergySpectrum(tuple(np.sort(rng.uniform(0.0, 2.0, d))), (0.0, 0.3, 1.0, 5.0)[trial // 4 % 4])
        p = rng.dirichlet(np.ones(d))
        order = np.argsort(-(p / spec.gibbs), kind="stable")
        k = rng.integers(d - 1)
        m = rng.choice([1.0, -1.0]) * EPS_CMP * (1.0 + rng.choice([-1e-2, 0.0, 1e-2])) / rng.choice([1.0, 0.3, 0.5, 0.7])
        q = p.copy()
        q[order[k]] += m
        q[order[k + 1]] -= m
        for gibbs_r in (0.5,) if spec.beta == 0.0 else (0.3, 0.5, 0.7):
            hits = search_qubit_catalyst(p, q, spec, gibbs_r, GRID)
            assert hits == scalar_search(p, q, spec, gibbs_r, GRID)
            margins = joint_margins(p, q, spec, gibbs_r, GRID)
            off_band = np.abs(margins + EPS_CMP) > BAND
            near += int((~off_band).sum())
            ts = np.arange(1, GRID) / GRID
            assert np.array_equal(np.isin(ts, hits)[off_band], (margins >= -EPS_CMP)[off_band])
    assert near


def test_reproducer_is_answered_not_refused():
    p, q, spec = REPRODUCER
    assert spec.gibbs.min() * 0.5 > 1e3 * TINY_GIBBS  # no joint Gibbs weight near rounding
    assert scalar_search(p, q, spec, 0.5, 200) == []
    assert search_qubit_catalyst(p, q, spec) == []


def enumerated_in_CN(p, cfg, samples, seed):
    """`in_CN` as it was: every future and catalysable-future extreme point through `in_TN`, then sampling."""
    probs = np.asarray(p, dtype=float)
    spec = cfg.spectrum()
    for vertices in (future_cone_vertices, c_plus_vertices):
        if not all(in_TN(v, cfg) for v in vertices(probs, spec).distinct()):
            return False
    gamma = spec.gibbs
    t1 = tangent_bound_curve(probs, spec, 1)
    td = tangent_bound_curve(probs, spec, 4)
    ws = Workspace()

    def stays_out(draws):
        (inside,) = _Chunk(draws, gamma, ws).under((t1, td))
        return not inside.any() or bool(_tn_mask(_kept_rows(draws, inside, ws), gamma, ws).all())

    return all(_over_chunks(4, samples, seed, stays_out, ws))


def edge_states(rng, cfg):
    gamma = np.asarray(cfg.spectrum().gibbs)
    states = [np.eye(4)[i] for i in range(4)]
    states += [gamma, np.asarray(p_star(cfg.beta)), np.asarray(p_star_star(cfg.beta))]
    for _ in range(6):
        s = rng.dirichlet(np.ones(4))
        s[rng.integers(4)] = 0.0
        states.append(s / s.sum())
        step = rng.normal(size=4) * 1e-9
        states.append(np.clip(gamma + step - step.mean(), 0.0, None))
        states.append(0.5 * np.asarray(p_star(cfg.beta)) + 0.5 * rng.dirichlet(np.ones(4)))
    return states


@pytest.mark.parametrize("beta", [0.0, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0])
def test_in_CN_screens_equal_the_enumerated_screens(beta):
    cfg = TwoQubitConfig(beta)
    rng = np.random.default_rng([int(4 * beta), 43])
    states = edge_states(rng, cfg) + list(rng.dirichlet(np.ones(4), 60))
    verdicts = []
    for s in states:
        verdicts.append(in_CN(s, cfg, samples=0))
        assert verdicts[-1] == enumerated_in_CN(s, cfg, 0, DEFAULT_SEED)
    if beta <= 2.0:
        assert True in verdicts and False in verdicts
    for s in states[:: len(states) // 8]:
        assert in_CN(s, cfg, samples=3000, seed=5) == enumerated_in_CN(s, cfg, 3000, 5)


def test_in_CN_at_beta_30_raises_only_where_in_TN_raises():
    cfg = TwoQubitConfig(30.0)
    rng = np.random.default_rng(47)
    states = edge_states(rng, cfg) + list(rng.dirichlet(np.ones(4), 150))
    states.append(np.array(json.loads(open(TWOQUBIT).read())["state"], dtype=float))
    for s in states:
        got = outcome(lambda: in_CN(s, cfg, samples=0))
        if isinstance(got, type):
            assert outcome(lambda: in_TN(s, cfg)) is got


def cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(argv)
    return code, buf.getvalue()


def test_cli_search_catalyst_answers_the_reproducer(tmp_path):
    p, q, spec = REPRODUCER
    path = tmp_path / "reproducer.json"
    path.write_text(json.dumps({"energies": list(spec.energies), "beta": spec.beta, "state": p, "target": q}))
    code, text = cli(["search-catalyst", "--input", str(path)])
    assert code == 0
    assert json.loads(text)["t_values"] == []


def test_cli_entangle_at_beta_30_exits_0():
    code, text = cli(["entangle", "--input", TWOQUBIT, "--beta", "30"])
    assert code == 0
    assert json.loads(text)["in_TN"] is False


def test_cli_volume_refuses_the_old_region_aliases(capsys):
    for alias in ("Tnull", "T∅"):
        assert run(["volume", "--input", STATE3, "--region", alias, "--samples", "2000"]) == 1
        err = capsys.readouterr().err
        assert "unknown region" in err and alias in err


@pytest.mark.parametrize("d", [9, 10])
def test_tangent_vectors_above_the_enumeration_cap(d):
    # tangency under the state's own order and dominance over sampled orders, as at d <= 4
    rng = np.random.default_rng([d, 53])
    spec = EnergySpectrum(tuple(np.sort(rng.uniform(0.0, 2.0, d))), 0.7)
    for _ in range(3):
        p = rng.dirichlet(np.ones(d))
        cp = tm_curve(p, spec)
        own = tuple(beta_order(p, spec).order.tolist())
        for n in range(1, d + 1):
            for pi in [rng.permutation(d) for _ in range(12)]:
                ct = tangent_curve(tangent_vector(p, spec, n, pi), spec)
                assert np.all(ct.ys >= curve_eval(cp, ct.xs) - 1e-10)
            ct = tangent_curve(tangent_vector(p, spec, n, own), spec)
            for k in (n - 1, n):
                assert ct.ys[k] == pytest.approx(cp.ys[k], abs=1e-10)
