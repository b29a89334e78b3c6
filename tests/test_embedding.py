import numpy as np
import pytest

import thermocone.core as core
import thermocone.embedding as embedding
from thermocone import (
    EnergySpectrum,
    RationalGibbs,
    embed,
    gibbs_vector,
    oracle_check,
    oracle_report,
    rationalize,
    thermo_majorizes,
)

from conftest import random_dist


def exact_rational_spectrum(numerators, beta=1.0):
    """Spectrum whose Gibbs vector is exactly numerators / sum(numerators)."""
    num = np.asarray(numerators, dtype=float)
    gamma = num / num.sum()
    energies = -np.log(gamma) / beta
    return EnergySpectrum(tuple(energies), beta)


def reference_numerators(g, denom):
    """Rounded weights, repaired one unit at a time until they sum to `denom`."""
    num = np.clip(np.rint(g * denom).astype(int), 1, None)
    while (diff := denom - int(num.sum())) != 0:
        err = g - num / denom
        if diff > 0:
            num[int(np.argmax(err))] += 1
        else:
            num[int(np.argmin(np.where(num > 1, err, np.inf)))] -= 1
    return num


def reference_rationalize(gamma, max_denominator):
    """The per-denominator scan `rationalize` batches: first strict improvement wins."""
    g = np.asarray(gamma, dtype=float)
    best = None
    for denom in range(g.size, max_denominator + 1):
        num = reference_numerators(g, denom)
        delta = float(np.abs(g - num / denom).max())
        if best is None or delta < best.delta:
            best = RationalGibbs(tuple(int(n) for n in num), denom, delta)
        if best.delta == 0.0:
            break
    return best


def oracle_gibbs_vectors():
    rng = np.random.default_rng(6)
    vectors = [np.full(d, 1.0 / d) for d in range(2, 7)]
    for d in range(2, 7):
        vectors.append(gibbs_vector(EnergySpectrum(tuple(rng.integers(0, 3, d).astype(float)), 0.7)).probs)
        vectors += [rng.dirichlet(np.ones(d)) for _ in range(4)]
    return vectors


ORACLE_GAMMAS = oracle_gibbs_vectors()
ORACLE_IDS = [f"d{g.size}-{i}" for i, g in enumerate(ORACLE_GAMMAS)]


class TestRationalize:
    def test_already_rational(self):
        rg = rationalize([1 / 2, 1 / 3, 1 / 6], 6)
        assert rg.denominator == 6
        assert rg.numerators == (3, 2, 1)
        assert rg.delta == 0.0

    def test_uniform_four_levels(self):
        rg = rationalize([0.25] * 4, 8)
        assert rg.denominator == 4
        assert rg.numerators == (1, 1, 1, 1)

    def test_grid_search_quality(self):
        gamma = gibbs_vector(EnergySpectrum((0.0, 1.0, 2.0), 0.2)).probs
        rg = rationalize(gamma, 1000)
        assert rg.delta <= 1e-3
        assert sum(rg.numerators) == rg.denominator <= 1000

    def test_rejects_small_bound(self):
        with pytest.raises(ValueError):
            rationalize([0.5, 0.5], 1)


class TestEmbed:
    def test_gibbs_embeds_to_uniform(self):
        rg = rationalize([1 / 2, 1 / 3, 1 / 6], 6)
        hat = embed([1 / 2, 1 / 3, 1 / 6], rg)
        np.testing.assert_allclose(hat.probs, 1 / 6, atol=1e-15)

    def test_sharp_state_blocks(self):
        rg = RationalGibbs((3, 2, 1), 6, 0.0)
        hat = embed([1.0, 0.0, 0.0], rg)
        np.testing.assert_allclose(hat.probs, [1 / 3, 1 / 3, 1 / 3, 0, 0, 0], atol=1e-15)

    def test_probability_preserved(self, rng):
        gamma = gibbs_vector(EnergySpectrum((0.0, 1.0, 2.0), 0.2)).probs
        rg = rationalize(gamma, 500)
        for _ in range(20):
            p = random_dist(rng, 3)
            assert abs(embed(p, rg).probs.sum() - 1.0) <= 1e-12


class TestOracle:
    def test_trivial_verdicts(self):
        spec = exact_rational_spectrum([3, 2, 1])
        p = random_dist(np.random.default_rng(1), 3)
        assert oracle_check(p, p, spec, 60)
        assert oracle_check(p, spec.gibbs, spec, 60)

    def test_agreement_on_exact_rational_gibbs(self, rng):
        # smaller sibling of the acceptance run: verdicts must coincide whenever
        # the interior curve gaps clear the approximation margin
        checked = 0
        while checked < 200:
            d = int(rng.integers(2, 5))
            numerators = rng.integers(1, 16, size=d)
            spec = exact_rational_spectrum(numerators)
            p, q = random_dist(rng, d), random_dist(rng, d)
            report = oracle_report(p, q, spec, 60)
            if report.margin < 1e-6:
                continue
            assert report.embedded == thermo_majorizes(p, q, spec)
            checked += 1

    def test_each_curve_is_built_once(self, monkeypatch, rng):
        calls = []
        real = embedding.tm_curve

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        # core's own callers (thermo_majorizes) see the wrapper too
        monkeypatch.setattr(embedding, "tm_curve", counted)
        monkeypatch.setattr(core, "tm_curve", counted)
        for d in (2, 3, 4):
            spec = exact_rational_spectrum(rng.integers(1, 16, size=d))
            pairs = [(random_dist(rng, d), random_dist(rng, d)) for _ in range(20)]
            pairs += [(p, p) for p, _ in pairs[:3]] + [(np.asarray(spec.gibbs), q) for _, q in pairs[:3]]
            for p, q in pairs:
                calls.clear()
                report = oracle_report(p, q, spec, 60)
                assert len(calls) == 2
                assert report.thermo == thermo_majorizes(p, q, spec)

    def test_near_tie_is_flagged(self):
        spec = exact_rational_spectrum([3, 2, 1])
        p = gibbs_vector(spec).probs
        report = oracle_report(p, p, spec, 60)
        assert report.inconclusive or report.threshold == 0.0


class TestRationalizeAgainstScalarScan:
    @pytest.mark.parametrize("gamma", ORACLE_GAMMAS, ids=ORACLE_IDS)
    def test_equal_to_the_scalar_scan(self, gamma):
        for max_denominator in (gamma.size, 7, 60, 1000):
            if max_denominator >= gamma.size:
                rg = rationalize(gamma, max_denominator)
                assert rg == reference_rationalize(gamma, max_denominator)
                assert type(rg.denominator) is int and type(rg.delta) is float
                assert all(type(n) is int for n in rg.numerators)

    @pytest.mark.parametrize("gamma", ORACLE_GAMMAS, ids=ORACLE_IDS)
    def test_every_denominator_is_repaired_like_the_scalar_loop(self, gamma):
        denoms = np.arange(gamma.size, 300)
        expected = [reference_numerators(gamma, int(denom)) for denom in denoms]
        assert np.array_equal(embedding._rounded_numerators(gamma, denoms), expected)

    @pytest.mark.parametrize("block", [1, 2, 7])
    def test_blocks_keep_the_first_strict_improvement(self, monkeypatch, block):
        monkeypatch.setattr(embedding, "_DENOM_BLOCK", block)
        for gamma in ORACLE_GAMMAS[::3]:
            assert rationalize(gamma, 80) == reference_rationalize(gamma, 80)

    def test_exact_denominator_past_the_first_block(self):
        gamma = [1 / 4100, 4099 / 4100]
        rg = rationalize(gamma, 5000)
        assert rg == reference_rationalize(gamma, 5000)
        assert (rg.denominator, rg.delta) == (4100, 0.0)
