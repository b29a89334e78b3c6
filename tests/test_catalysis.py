import math
from itertools import permutations

import numpy as np
import pytest

from thermocone import (
    EmptyIntervalError,
    EnergySpectrum,
    NotIncomparableError,
    Relation,
    alpha_free_energy_check,
    beta_order,
    c_plus_vertex,
    c_plus_vertices,
    catalysable_future_member,
    catalysable_past_member,
    catalytic_condition,
    compare,
    curve_dominates,
    curve_eval,
    dim_bound,
    future_cone_vertices,
    gibbs_vector,
    in_region_Ti,
    project_simplex,
    qubit_catalyst_spectrum,
    qubit_window,
    renyi_divergence,
    search_qubit_catalyst,
    tangent_curve,
    tangent_vector,
    thermo_majorizes,
    tm_curve,
    verify_catalyst,
    windows_from_bounds,
)

from thermocone.core import EPS_CMP, _matched_gibbs, _probs

from conftest import random_dist, random_spectrum

SPEC3 = EnergySpectrum((0.0, 1.0, 2.0), 0.2)
SPEC4_FLAT = EnergySpectrum((0.0, 1.0, 2.0, 3.0), 0.0)
P3 = (0.42, 0.51, 0.07)
# normalisation-consistent reading of the worked three-level target (the other
# candidate reading fails the necessary slope condition, see the brute-force
# test below)
Q3 = (0.52, 0.13, 0.35)
FIG3_STATE = (0.43, 0.37, 0.18, 0.02)
TRIVIAL_QUBIT = EnergySpectrum((0.0, 0.0), 0.2)


def in_Ti_enumerated(q, p, spec, i):
    """Literal union-over-orders membership test (oracle for the bound curve)."""
    d = np.asarray(p, dtype=float).size
    cq = tm_curve(q, spec)
    return any(
        curve_dominates(tangent_curve(tangent_vector(p, spec, i, pi), spec), cq)
        for pi in permutations(range(d))
    )


class TestTangentVectors:
    def test_gibbs_is_its_own_tangent(self):
        g = gibbs_vector(SPEC3)
        for n in (1, 2, 3):
            for pi in permutations(range(3)):
                tv = tangent_vector(g, SPEC3, n, pi)
                np.testing.assert_allclose(tv.entries.entries, SPEC3.gibbs, atol=1e-12)

    def test_flat_spectrum_first_rank(self):
        tv = tangent_vector(FIG3_STATE, SPEC4_FLAT, 1, (0, 1, 2, 3))
        np.testing.assert_allclose(tv.entries.entries, [0.43, 0.43, 0.43, -0.29], atol=1e-12)

    def test_flat_spectrum_last_rank(self):
        tv = tangent_vector(FIG3_STATE, SPEC4_FLAT, 4, (0, 1, 2, 3))
        np.testing.assert_allclose(tv.entries.entries, [0.94, 0.02, 0.02, 0.02], atol=1e-12)

    def test_tangency_and_dominance(self, rng):
        # the tangent's curve sits on or above the source curve at the
        # tangent's own elbows for every order; under the source's own order
        # it meets the touched segment's endpoints exactly
        for _ in range(25):
            d = int(rng.integers(2, 5))
            spec = random_spectrum(rng, d)
            p = random_dist(rng, d)
            cp = tm_curve(p, spec)
            own = tuple(beta_order(p, spec).order.tolist())
            for n in range(1, d + 1):
                for pi in permutations(range(d)):
                    ct = tangent_curve(tangent_vector(p, spec, n, pi), spec)
                    assert np.all(ct.ys >= curve_eval(cp, ct.xs) - 1e-10)
                ct = tangent_curve(tangent_vector(p, spec, n, own), spec)
                for k in (n - 1, n):
                    assert ct.ys[k] == pytest.approx(cp.ys[k], abs=1e-10)


class TestProjectSimplex:
    def test_proper_distribution_unchanged(self, rng):
        p = random_dist(rng, 3)
        tv = tangent_vector(gibbs_vector(SPEC3), SPEC3, 1, (0, 1, 2))
        np.testing.assert_allclose(project_simplex(tv, SPEC3).probs, SPEC3.gibbs, atol=1e-12)

    def test_clamps_cumulative_sums(self):
        tv = tangent_vector(FIG3_STATE, SPEC4_FLAT, 1, (0, 1, 2, 3))
        np.testing.assert_allclose(
            project_simplex(tv, SPEC4_FLAT).probs, [0.43, 0.43, 0.14, 0.0], atol=1e-12
        )

    def test_sharp_state_projections_stay_extreme(self):
        # projecting the first-rank tangents of a sharp state lands on the
        # state itself or on an extreme point of its future cone
        sharp = np.array([0.0, 1.0, 0.0])
        verts = [v.probs for _, v in future_cone_vertices(sharp, SPEC3)]
        for pi in permutations(range(3)):
            proj = project_simplex(tangent_vector(sharp, SPEC3, 1, pi), SPEC3).probs
            assert any(np.abs(proj - v).max() < 1e-10 for v in verts)


class TestCatalyticCondition:
    def test_equal_states_fail(self, rng):
        p = random_dist(rng, 3)
        assert not catalytic_condition(p, p, SPEC3)

    def test_worked_pair_passes(self):
        assert catalytic_condition(P3, Q3, SPEC3)

    @pytest.mark.parametrize("beta", (0.0, 1.0, 30.0))
    def test_equals_the_sorted_slope_form(self, rng, beta):
        # the largest and smallest slope are a max and a min, so they are the
        # ends of beta_order's sorted slopes to the last bit
        def sorted_form(p, q, spec):
            sp, sq = beta_order(p, spec).slopes, beta_order(q, spec).slopes
            return bool(sp[0] > sq[0] + EPS_CMP and sp[-1] < sq[-1] - EPS_CMP)

        verdicts = set()
        for d in (2, 3, 5, 8):
            spec = random_spectrum(rng, d, beta)
            states = [random_dist(rng, d) for _ in range(6)] + [spec.gibbs]
            for _ in range(3):
                deficient = random_dist(rng, d)
                deficient[rng.choice(d, size=rng.integers(1, d), replace=False)] = 0.0
                states.append(deficient / deficient.sum())
            for p in states:
                for q in states:
                    verdict = catalytic_condition(p, q, spec)
                    assert verdict is sorted_form(p, q, spec)
                    verdicts.add(verdict)
        assert verdicts == {False, True}
        # p's dimension is checked before q is read, in both forms
        spec = random_spectrum(rng, 3, beta)
        for p, q in ((random_dist(rng, 3), random_dist(rng, 4)), (random_dist(rng, 4), (0.5, 0.5, 0.5))):
            errors = []
            for form in (catalytic_condition, sorted_form):
                with pytest.raises(ValueError) as err:
                    form(p, q, spec)
                errors.append(str(err.value))
            assert errors[0] == errors[1]

    def test_rejected_reading_fails_brute_force(self):
        # the mis-normalised printed target: incomparable but violates the
        # necessary slope condition, and indeed no qubit catalyst works
        bad_q = (0.52, 0.43, 0.05)
        assert compare(P3, bad_q, SPEC3) is Relation.INCOMPARABLE
        assert not catalytic_condition(P3, bad_q, SPEC3)
        assert search_qubit_catalyst(P3, bad_q, SPEC3, 0.5, 50) == []

    def test_two_level_incomparable_never_passes(self):
        for beta in (0.1, 0.5, 1.0, 2.0):
            spec = EnergySpectrum((0.0, 1.0), beta)
            grid = np.linspace(0.02, 0.98, 25)
            seen = 0
            for p1 in grid:
                for q1 in grid:
                    p, q = (p1, 1 - p1), (q1, 1 - q1)
                    if compare(p, q, spec) is Relation.INCOMPARABLE:
                        seen += 1
                        assert not catalytic_condition(p, q, spec)
            assert seen > 0


class TestRegionMembership:
    def test_gibbs_inside_both(self, rng):
        p = random_dist(rng, 3)
        for i in (1, 3):
            assert in_region_Ti(SPEC3.gibbs, p, SPEC3, i)

    def test_state_inside_its_own_regions(self, rng):
        p = random_dist(rng, 3)
        for i in (1, 3):
            assert in_region_Ti(p, p, SPEC3, i)

    def test_steeper_start_excluded_from_first_region(self):
        p = (0.42, 0.51, 0.07)
        sharp = (0.0, 1.0, 0.0)  # max slope 1/gamma_2 exceeds s_1(p)
        assert beta_order(sharp, SPEC3).slopes[0] > beta_order(p, SPEC3).slopes[0]
        assert not in_region_Ti(sharp, p, SPEC3, 1)

    def test_matches_enumeration(self, rng):
        for _ in range(120):
            d = int(rng.integers(2, 5))
            spec = random_spectrum(rng, d)
            p, q = random_dist(rng, d), random_dist(rng, d)
            for i in (1, d):
                assert in_region_Ti(q, p, spec, i) == in_Ti_enumerated(q, p, spec, i)

    def test_rejects_middle_ranks(self):
        with pytest.raises(ValueError):
            in_region_Ti(SPEC3.gibbs, (0.5, 0.3, 0.2), SPEC3, 2)


class TestCatalysableMembership:
    def test_worked_pair_in_future_region(self):
        assert catalysable_future_member(Q3, P3, SPEC3)

    def test_future_states_excluded(self, rng):
        p = random_dist(rng, 3)
        assert not catalysable_future_member(SPEC3.gibbs, p, SPEC3)
        assert not catalysable_future_member(p, p, SPEC3)

    def test_past_region_examples(self, rng):
        p = random_dist(rng, 3)
        assert not catalysable_past_member(SPEC3.gibbs, p, SPEC3)
        assert not catalysable_past_member(p, p, SPEC3)

    def test_nonfullrank_past_region_empty(self, rng):
        p = np.array([0.55, 0.45, 0.0])
        hits = 0
        for _ in range(4000):
            q = random_dist(rng, 3)
            hits += catalysable_past_member(q, p, SPEC3)
        assert hits == 0

    def test_beta_zero_three_level_catalysis_is_empty(self, rng):
        spec = EnergySpectrum((0.0, 1.0, 2.0), 0.0)
        for _ in range(40):
            p = random_dist(rng, 3)
            assert all(
                not catalysable_future_member(random_dist(rng, 3), p, spec) for _ in range(100)
            )


class TestCPlusVertices:
    def test_gibbs_vertices_collapse_to_gibbs(self):
        verts = c_plus_vertices(gibbs_vector(SPEC3), SPEC3)
        assert len(verts) == 1
        np.testing.assert_allclose(verts.distinct()[0].probs, SPEC3.gibbs, atol=1e-12)

    def test_cooling_vertex_value(self):
        v = c_plus_vertex((0.1, 0.2, 0.7), SPEC3, (0, 1, 2))
        np.testing.assert_allclose(v.probs, [0.85, 0.08, 0.07], atol=5e-3)

    def test_sharp_state_vertices_coincide_with_future(self):
        sharp = np.array([0.0, 0.0, 1.0])
        fut = [v.probs for _, v in future_cone_vertices(sharp, SPEC3)]
        for _, v in c_plus_vertices(sharp, SPEC3):
            assert any(np.abs(v.probs - f).max() < 1e-10 for f in fut)

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_extreme_point_count_bound(self, d, rng):
        bound = math.ceil(d / 2) * math.comb(d, math.ceil(d / 2))
        for _ in range(25):
            spec = random_spectrum(rng, d, beta=float(rng.uniform(0.05, 2.0)))
            verts = c_plus_vertices(random_dist(rng, d), spec)
            assert len(verts) <= bound


class TestDimBound:
    def test_worked_pair_allows_a_qubit(self):
        db = dim_bound(P3, Q3, SPEC3)
        assert db.a > 1.0
        assert db.k_star < 2.0
        assert db.L_interval[0] < db.L_interval[1]

    def test_lemma_violating_pair_is_impossible(self):
        bad_q = (0.52, 0.43, 0.05)
        db = dim_bound(P3, bad_q, SPEC3)
        assert db.a <= 1.0 + 1e-12
        assert math.isinf(db.k_star)

    def test_comparable_pair_rejected(self):
        with pytest.raises(NotIncomparableError):
            dim_bound(P3, SPEC3.gibbs, SPEC3)
        # both refusal modes are value errors a caller can catch together
        assert issubclass(NotIncomparableError, ValueError)
        assert issubclass(EmptyIntervalError, ValueError)

    def test_beta_zero_matches_prefix_sum_formulas(self, rng):
        # independent implementation from sorted prefix sums
        spec = EnergySpectrum((0.0, 1.0, 2.0, 3.0), 0.0)
        checked = 0
        while checked < 100:
            p = np.sort(random_dist(rng, 4))[::-1]
            q = np.sort(random_dist(rng, 4))[::-1]
            pref = np.cumsum(p) - np.cumsum(q)
            if pref.min() > -1e-8 or pref.max() < 1e-8:
                continue
            lset = [l for l in range(1, 4) if pref[l - 1] < 0]
            if not lset:
                continue
            m, n = min(lset), max(lset)
            a_ref = min(p[0] / p[m - 1], p[n] / p[3])
            b_ref = max(p[l - 1] / p[l] for l in lset)
            k_ref = math.inf if a_ref <= 1 else math.log(b_ref) / math.log(a_ref) + 1
            db = dim_bound(p, q, spec)
            assert db.a == pytest.approx(a_ref, rel=1e-10)
            assert db.b == pytest.approx(b_ref, rel=1e-10)
            if math.isinf(k_ref):
                assert math.isinf(db.k_star)
            else:
                assert db.k_star == pytest.approx(k_ref, rel=1e-10)
            checked += 1

    def test_dimension_bound_is_necessary(self, rng):
        # whenever some qubit catalyses the transformation the bound must allow k=2
        found = 0
        while found < 10:
            p, q = random_dist(rng, 3), random_dist(rng, 3)
            if compare(p, q, SPEC3) is not Relation.INCOMPARABLE:
                continue
            hits = search_qubit_catalyst(p, q, SPEC3, 0.5, 40)
            if not hits:
                continue
            assert dim_bound(p, q, SPEC3).k_star < 2.0
            found += 1


class TestQubitWindows:
    def test_equal_bounds_degenerate_to_a_point(self):
        low, high = windows_from_bounds(1.5, 1.5, 0.5)
        assert low.lo == low.hi == pytest.approx(0.4)
        assert high.lo == high.hi == pytest.approx(0.6)

    def test_worked_pair_window_contains_the_known_catalyst(self):
        low, high = qubit_window(P3, Q3, SPEC3, 0.5)
        assert low.contains(0.45)
        assert not low.empty
        assert low.hi == pytest.approx(0.5)

    def test_gibbs_symmetry(self):
        a, b = 1.7, 1.2
        for g in (0.3, 0.5, 0.62):
            low, high = windows_from_bounds(a, b, g)
            low_m, high_m = windows_from_bounds(a, b, 1.0 - g)
            assert high_m.lo == pytest.approx(1.0 - low.hi, abs=1e-12)
            assert high_m.hi == pytest.approx(1.0 - low.lo, abs=1e-12)
            assert low_m.lo == pytest.approx(1.0 - high.hi, abs=1e-12)
            assert low_m.hi == pytest.approx(1.0 - high.lo, abs=1e-12)

    def test_empty_window_when_b_exceeds_a(self):
        low, high = windows_from_bounds(1.1, 1.9, 0.5)
        assert low.empty and high.empty

    def test_window_containment_of_found_catalysts(self, rng):
        # every successful trivial-Hamiltonian qubit lies inside the window
        found = 0
        while found < 8:
            p, q = random_dist(rng, 3), random_dist(rng, 3)
            if compare(p, q, SPEC3) is not Relation.INCOMPARABLE:
                continue
            hits = search_qubit_catalyst(p, q, SPEC3, 0.5, 50)
            if not hits:
                continue
            low, high = qubit_window(p, q, SPEC3, 0.5)
            assert all(low.contains(t, 1e-9) or high.contains(t, 1e-9) for t in hits)
            found += 1


class TestVerifyCatalyst:
    def test_worked_example(self):
        assert verify_catalyst(P3, Q3, SPEC3, (0.55, 0.45), TRIVIAL_QUBIT)

    def test_one_level_catalyst_reduces_to_plain_comparison(self, rng):
        trivial = EnergySpectrum((0.0,), 0.2)
        for _ in range(30):
            p, q = random_dist(rng, 3), random_dist(rng, 3)
            assert verify_catalyst(p, q, SPEC3, (1.0,), trivial) == thermo_majorizes(p, q, SPEC3)

    def test_comparable_pairs_accept_any_catalyst(self, rng):
        for _ in range(20):
            p = random_dist(rng, 3)
            verts = [v.probs for _, v in future_cone_vertices(p, SPEC3)]
            w = rng.dirichlet(np.ones(len(verts)))
            q = w @ np.asarray(verts)
            r = random_dist(rng, 2)
            assert verify_catalyst(p, q, SPEC3, r, TRIVIAL_QUBIT)

    def test_necessity_of_the_slope_condition(self, rng):
        # catalysis between incomparable states implies the slope condition
        seen = 0
        for _ in range(4000):
            p, q = random_dist(rng, 3), random_dist(rng, 3)
            if compare(p, q, SPEC3) is not Relation.INCOMPARABLE:
                continue
            r = random_dist(rng, int(rng.integers(2, 4)))
            spec_r = random_spectrum(rng, len(r), beta=SPEC3.beta)
            if verify_catalyst(p, q, SPEC3, r, spec_r):
                assert catalytic_condition(p, q, SPEC3)
                seen += 1
        assert seen > 0

    def test_found_targets_live_in_the_catalysable_future(self, rng):
        # soundness harness: search over random small catalysts only finds
        # targets inside the bounded region (or the plain future)
        seen = 0
        for _ in range(3000):
            p, q = random_dist(rng, 3), random_dist(rng, 3)
            r = random_dist(rng, int(rng.integers(2, 4)))
            spec_r = random_spectrum(rng, len(r), beta=SPEC3.beta)
            if verify_catalyst(p, q, SPEC3, r, spec_r):
                assert thermo_majorizes(p, q, SPEC3) or catalysable_future_member(q, p, SPEC3)
                seen += 1
        assert seen > 50


class TestSearchQubitCatalyst:
    def test_comparable_pair_accepts_every_grid_point(self, rng):
        p = random_dist(rng, 3)
        verts = [v.probs for _, v in future_cone_vertices(p, SPEC3)]
        q = np.mean(np.asarray(verts), axis=0)
        assert len(search_qubit_catalyst(p, q, SPEC3, 0.5, 20)) == 19

    def test_two_level_incomparable_finds_nothing(self):
        spec = EnergySpectrum((0.0, 1.0), 0.7)
        p, q = (0.8, 0.2), (0.55, 0.45)
        assert compare(p, q, spec) is Relation.INCOMPARABLE
        assert search_qubit_catalyst(p, q, spec, 0.5, 60) == []

    def test_worked_pair_grid(self):
        hits = search_qubit_catalyst(P3, Q3, SPEC3, 0.5, 200)
        assert hits
        assert any(abs(t - 0.45) < 1e-12 for t in hits)
        low, high = qubit_window(P3, Q3, SPEC3, 0.5)
        assert all(low.contains(t, 1e-9) or high.contains(t, 1e-9) for t in hits)

    def test_nontrivial_catalyst_spectrum(self):
        spec_r = qubit_catalyst_spectrum(0.2, 0.3)
        np.testing.assert_allclose(spec_r.gibbs, [0.7, 0.3], atol=1e-12)
        with pytest.raises(ValueError):
            qubit_catalyst_spectrum(0.0, 0.3)


class TestAlphaFreeEnergies:
    ALPHAS = (0.0, 0.5, 1.0, 2.0, math.inf)

    def test_gibbs_minimises_every_divergence(self, rng):
        p = random_dist(rng, 3)
        assert alpha_free_energy_check(p, SPEC3.gibbs, SPEC3, self.ALPHAS)

    def test_reflexive(self, rng):
        p = random_dist(rng, 3)
        assert alpha_free_energy_check(p, p, SPEC3, self.ALPHAS)

    def test_verdicts_and_errors_equal_a_divergence_pair_per_alpha(self, rng):
        # the screen before it checked p, q and the Gibbs state once per alpha and state
        def per_alpha(p, q, spec, alphas):
            gamma = _matched_gibbs(spec, _probs(p).size)
            for alpha in alphas:
                if renyi_divergence(p, gamma, alpha) < renyi_divergence(q, gamma, alpha) - EPS_CMP:
                    return False
            return True

        def outcome(fn, *args):
            try:
                return fn(*args)
            except Exception as exc:  # the error must match too
                return type(exc), str(exc)

        cold = EnergySpectrum((0.0, 1.0, 2.0), math.inf)  # no Gibbs vector to compare with
        cases = [
            ((0.2, 0.3, 0.5), (0.2, 0.3), SPEC3, self.ALPHAS),  # q of the wrong length
            ((0.2, 0.3, 0.5), (0.2, 0.3, 0.6), SPEC3, self.ALPHAS),  # q off the simplex
            ((0.2, 0.3, 0.5), (0.2, 0.3, 0.6), SPEC3, ()),  # no alpha reads q
            ((0.2, 0.3, 0.5), (0.2, 0.3, 0.5), SPEC3, (1.0, -1.0)),
            ((0.2, 0.3, 0.5), (0.2, 0.3, 0.6), SPEC3, (-1.0,)),  # the alpha is refused before q
            ((0.2, 0.3, 0.5), (0.5, 0.3, 0.2), cold, self.ALPHAS),
            ((0.2, 0.3), (0.2, 0.8), SPEC3, self.ALPHAS),
        ]
        for _ in range(200):
            p, q = random_dist(rng, 3), random_dist(rng, 3)
            cases.append((p, q, SPEC3, tuple(rng.choice(self.ALPHAS + (3.5, 0.25), 3))))
        for case in cases:
            assert outcome(alpha_free_energy_check, *case) == outcome(per_alpha, *case), case
        assert {outcome(alpha_free_energy_check, *case) for case in cases[200:]} == {True, False}

    def test_catalysed_targets_pass_the_screen(self, rng):
        seen = 0
        for _ in range(2000):
            p, q = random_dist(rng, 3), random_dist(rng, 3)
            r = random_dist(rng, 2)
            if verify_catalyst(p, q, SPEC3, r, TRIVIAL_QUBIT):
                assert alpha_free_energy_check(p, q, SPEC3, self.ALPHAS)
                seen += 1
        assert seen > 0
