"""Monte-Carlo chunks drawn column-native into per-call scratch.

`_over_chunks` draws each chunk into memory that the chunks of one call (per
thread) share, and the kernels take their temporaries from the same
`Workspace` stack.  These tests pin the draws' bits against the plain numpy
expression, the sharing and its limits (no chunk sees another's draws, no
call keeps its memory), the stack's frames, equal results at one and two
threads, and `_Bounds.of` against the three scalar curve builders.
"""

import gc
import weakref

import numpy as np
import pytest

from thermocone import (
    EnergySpectrum,
    in_CN,
    isovolume_grid,
    mc_volume,
    sample_simplex,
    tangent_bound_curve,
    tm_curve,
    volume_ratio_CN_TN,
)
from thermocone import _batch
from thermocone._batch import Workspace
from thermocone.core import _probs
from thermocone.entanglement import TwoQubitConfig
from thermocone.volume import _CHUNK, _Bounds, _over_chunks

REGIONS = ("T+", "T-", "T0", "C+", "C-")


def _reference(d, n, seed, chunk):
    # the draws as the sampler documents them: normalised rng.exponential rows
    rng = np.random.Generator(np.random.Philox(key=[seed, chunk]))
    g = rng.exponential(size=(n, d))
    return g / g.sum(axis=1, keepdims=True)


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


# --- the sampler's bits -----------------------------------------------------


@pytest.mark.parametrize("d", range(1, 13))
@pytest.mark.parametrize("n", [1, 5, 3616, 16384])
def test_chunks_and_sample_simplex_equal_normalised_exponentials(d, n):
    # numpy sums rows of 8 or more in eight lanes, so only summing the row
    # buffer itself (not column by column) reproduces these bits from d = 8 on
    seed = 1000 * d + n
    ref = _reference(d, n, seed, 0)
    chunks = list(_over_chunks(d, n, seed, lambda draws: draws.copy()))
    assert len(chunks) == 1
    np.testing.assert_array_equal(_bits(chunks[0]), _bits(ref))
    drawn = sample_simplex(d, n, np.random.Generator(np.random.Philox(key=[seed, 0])))
    np.testing.assert_array_equal(_bits(drawn), _bits(ref))


@pytest.mark.parametrize("d", [3, 8, 11])
def test_every_chunk_of_a_call_has_its_own_bits(d):
    samples = 2 * _CHUNK + 3616
    chunks = list(_over_chunks(d, samples, 7, lambda draws: draws.copy()))
    assert [len(c) for c in chunks] == [_CHUNK, _CHUNK, 3616]
    for i, c in enumerate(chunks):
        np.testing.assert_array_equal(_bits(c), _bits(_reference(d, len(c), 7, i)))


@pytest.mark.parametrize("d", [1, 4, 9])
def test_draws_are_laid_out_by_column(d):
    layouts = _over_chunks(d, _CHUNK + 5, 3, lambda draws: (draws.shape, draws.T.flags.c_contiguous))
    assert list(layouts) == [((_CHUNK, d), True), ((5, d), True)]
    drawn = sample_simplex(d, 100, np.random.default_rng(0))
    assert drawn.shape == (100, d) and drawn.T.flags.c_contiguous


# --- reuse, and no leaks ----------------------------------------------------


def test_serial_chunks_share_the_first_chunks_memory(monkeypatch):
    monkeypatch.setenv("THERMOCONE_THREADS", "1")
    kept = []  # keeping `draws` breaks the contract on purpose, to see where later chunks land

    def keep(draws):
        kept.append(draws)
        return draws.copy()

    copies = list(_over_chunks(4, 4 * _CHUNK + 100, 5, keep))
    assert len(kept) == 5
    assert all(np.shares_memory(k, kept[0]) for k in kept[1:])
    # the copies still hold each chunk's own draws
    for i, c in enumerate(copies):
        np.testing.assert_array_equal(_bits(c), _bits(_reference(4, len(c), 5, i)))
    assert not any(np.array_equal(copies[0][:100], c[:100]) for c in copies[1:])


def test_two_calls_share_no_memory(monkeypatch):
    monkeypatch.setenv("THERMOCONE_THREADS", "1")
    first, second = [], []
    list(_over_chunks(3, 2 * _CHUNK, 1, first.append))
    list(_over_chunks(3, 2 * _CHUNK, 1, second.append))
    assert not np.shares_memory(first[0], second[0])


@pytest.mark.parametrize("threads", ["1", "2"])
def test_a_call_maps_one_block_per_thread_and_unmaps_it(monkeypatch, threads):
    monkeypatch.setenv("THERMOCONE_THREADS", threads)
    blocks = []
    mapping = _batch._mapping

    def record(nbytes):
        block = mapping(nbytes)
        blocks.append(weakref.ref(block))
        return block

    monkeypatch.setattr(_batch, "_mapping", record)
    spec = EnergySpectrum((0.0, 0.3, 0.7, 1.1, 1.6, 2.0), 0.8)
    p = np.array([0.3, 0.25, 0.2, 0.12, 0.08, 0.05])
    for region in REGIONS:
        blocks.clear()
        mc_volume(p, spec, region, samples=100_000, seed=4)
        assert 1 <= len(blocks) <= int(threads), region  # every chunk of the call fits one block
        gc.collect()
        assert all(ref() is None for ref in blocks), region  # nothing outlives the call


def test_unused_scratch_does_not_change_results(monkeypatch):
    # scratch memory comes uninitialised: filling fresh blocks with NaN must not move any estimate
    spec = EnergySpectrum((0.0, 0.4, 1.0, 1.3), 1.2)
    p = np.array([0.4, 0.3, 0.2, 0.1])
    plain = [mc_volume(p, spec, r, samples=40_000, seed=8).value for r in REGIONS]
    plain_ratio = volume_ratio_CN_TN(0.5, samples=40_000, seed=8)
    mapping = _batch._mapping

    def poisoned(nbytes):
        block = mapping(nbytes)
        block.view(np.uint8)[:] = 0xFF  # every double a NaN
        return block

    monkeypatch.setattr(_batch, "_mapping", poisoned)
    assert [mc_volume(p, spec, r, samples=40_000, seed=8).value for r in REGIONS] == plain
    assert volume_ratio_CN_TN(0.5, samples=40_000, seed=8) == plain_ratio


# --- the stack --------------------------------------------------------------


def test_a_frame_gives_back_what_it_took():
    ws = Workspace()
    outer = ws.take((3, 10))
    outer[:] = 1.0
    with ws.frame():
        inner = ws.take((4, 10))
        inner[:] = 2.0
        assert not np.shares_memory(inner, outer)
    again = ws.take((4, 10))
    assert np.shares_memory(again, inner)  # the frame's memory is reused
    assert np.all(outer == 1.0)


def test_frames_nest_and_a_taken_array_has_its_shape_and_type():
    ws = Workspace()
    a = ws.take((5,), bool)
    assert a.shape == (5,) and a.dtype == bool
    with ws.frame():
        b = ws.take((2, 3))
        with ws.frame():
            c = ws.take((7,))
        d = ws.take((7,))
        assert np.shares_memory(c, d) and not np.shares_memory(b, d)
    assert np.shares_memory(ws.take((2, 3)), b)


def test_growing_past_the_block_keeps_earlier_arrays():
    ws = Workspace()
    small = ws.take((1000,))
    small[:] = np.arange(1000.0)
    big = ws.take((_batch._BLOCK_BYTES // 8,))  # does not fit behind `small`
    big[:] = -1.0
    assert not np.shares_memory(small, big)
    np.testing.assert_array_equal(small, np.arange(1000.0))


def test_kernels_give_back_their_scratch():
    # a kernel leaves on the stack only the arrays it returns, so a chunk's stack stays shallow
    from thermocone._batch import conjugate_rows, extreme_slopes, subset_masses
    from thermocone.entanglement import _cn_mask, _tn_mask
    from thermocone.volume import _Chunk

    rng = np.random.default_rng(3)
    gamma = TwoQubitConfig(0.5).spectrum().gibbs
    draws = sample_simplex(4, 5000, rng)
    row = -(-5000 * 8 // 64) * 64  # bytes of one row vector on the stack
    ws = Workspace()
    for kernel, left in [
        (lambda: conjugate_rows(draws.T, gamma, ws), 8 * row),
        (lambda: extreme_slopes(draws.T, gamma, ws), 2 * row),
        (lambda: subset_masses(draws.T, ws), 16 * row),
        (lambda: _tn_mask(draws, gamma, ws), 0),
        (lambda: _cn_mask(draws, gamma, ws), 0),
    ]:
        with ws.frame():
            kernel()
            assert ws._top == left
    chunk = _Chunk(draws, gamma, ws)
    curve = tm_curve((0.4, 0.3, 0.2, 0.1), TwoQubitConfig(0.5).spectrum())
    chunk.under((curve,), (curve, curve))
    assert ws._top == 0
    chunk.above(curve, np.ones(5000, dtype=bool))
    assert ws._top == 2 * row  # the slopes, kept for the chunk's later calls


def test_each_thread_has_its_own_stack():
    from concurrent.futures import ThreadPoolExecutor
    from threading import Barrier

    ws = Workspace()
    barrier = Barrier(2)

    def grab(_):
        a = ws.take((100,))
        barrier.wait()  # both threads hold their array at once
        return a

    with ThreadPoolExecutor(max_workers=2) as pool:
        a, b = pool.map(grab, range(2))
    assert not np.shares_memory(a, b)


# --- one and two threads ----------------------------------------------------


def _two_runs(monkeypatch, run):
    monkeypatch.setenv("THERMOCONE_THREADS", "1")
    serial = run()
    monkeypatch.setenv("THERMOCONE_THREADS", "2")
    return serial, run()


@pytest.mark.parametrize("d", [3, 4, 6, 7])
def test_every_region_is_equal_at_one_and_two_threads(monkeypatch, d):
    rng = np.random.default_rng([d, 41])
    spec = EnergySpectrum(tuple(rng.uniform(0.0, 2.0, d)), 0.9)
    p = rng.dirichlet(np.ones(d))

    def run():
        return [mc_volume(p, spec, r, samples=3 * _CHUNK + 77, seed=12) for r in REGIONS]

    serial, threaded = _two_runs(monkeypatch, run)
    assert threaded == serial


def test_isovolume_grid_is_equal_at_one_and_two_threads(monkeypatch):
    spec = EnergySpectrum((0.0, 1.0, 2.0), 0.7)
    serial, threaded = _two_runs(monkeypatch, lambda: isovolume_grid(spec, 5, samples=3 * _CHUNK, seed=2))
    np.testing.assert_array_equal(threaded, serial)


def test_entanglement_estimates_are_equal_at_one_and_two_threads(monkeypatch):
    cfg = TwoQubitConfig(0.4)
    gibbs = cfg.spectrum().gibbs
    states = [gibbs, 0.9 * gibbs + 0.1 * np.array([0.1, 0.2, 0.3, 0.4])]

    def run():
        return [in_CN(p, cfg, samples=3 * _CHUNK, seed=6) for p in states], volume_ratio_CN_TN(
            0.4, samples=3 * _CHUNK, seed=6
        )

    serial, threaded = _two_runs(monkeypatch, run)
    assert threaded == serial


# --- `_Bounds.of` -------------------------------------------------------------


def _spectra():
    return [
        EnergySpectrum((0.0, 1.0, 2.0), 0.0),
        EnergySpectrum((0.0, 1.0, 2.0), 1.0),
        EnergySpectrum((0.0, 1.0, 2.0), 30.0),
        EnergySpectrum((0.0, 0.5, 0.5, 1.5), 2.0),  # degenerate
        EnergySpectrum((1.7, 0.2, 0.9, 0.0, 1.1), 0.8),  # unsorted
        EnergySpectrum((0.0, 1.0, 1.0, 2.0), 0.5),  # two qubits
        EnergySpectrum((2.189, 1.015, 0.163, 3.212), 30.0),  # unsorted, tiny Gibbs weights
        EnergySpectrum((0.4,), 1.0),
    ]


def _states(rng, spec):
    d = spec.d
    out = [np.full(d, 1.0 / d), np.asarray(spec.gibbs), rng.dirichlet(np.ones(d))]
    if d > 1:
        pure = np.zeros(d)
        pure[rng.integers(d)] = 1.0
        deficient = rng.dirichlet(np.ones(d))
        deficient[rng.choice(d, size=max(1, d // 2), replace=False)] = 0.0
        out += [pure, deficient / deficient.sum(), np.r_[np.ones(d - 1) / (d - 1), 0.0]]
    return out


def _outcome(fn, *args):
    try:
        with np.errstate(divide="ignore", invalid="ignore"):  # zero gaps at beta = 30
            return fn(*args)
    except (ValueError, RuntimeError) as exc:  # a repeated abscissa is refused by every builder alike
        return repr(exc)


@pytest.mark.parametrize("spec", _spectra(), ids=lambda s: f"d{s.d}-beta{s.beta}")
def test_bounds_equal_the_three_curve_builders_bit_for_bit(spec):
    rng = np.random.default_rng([spec.d, int(spec.beta * 10)])
    for p in _states(rng, spec):
        bounds = _outcome(_Bounds.of, _probs(p), spec)
        expected = [
            _outcome(tm_curve, p, spec),
            _outcome(tangent_bound_curve, p, spec, 1),
            _outcome(tangent_bound_curve, p, spec, spec.d),
        ]
        if isinstance(bounds, str):
            assert bounds in expected
            continue
        for got, want in zip((bounds.curve, bounds.t1, bounds.td), expected):
            assert not isinstance(want, str)
            np.testing.assert_array_equal(_bits(got.xs), _bits(want.xs))
            np.testing.assert_array_equal(_bits(got.ys), _bits(want.ys))
