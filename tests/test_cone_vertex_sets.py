"""Array-native vertex sets against the eager wrapping and the kernel they replaced.

`ConeVertices` keeps the (orders, rows) matrices of `_batch.distinct_vertices`
and builds its `vertices` dict on first use.  The oracle below is the earlier
pipeline, kept whole: the kernel with its last knot pinned to 1 and a fresh
output array, the lexsort of the rounded rows with -0.0 folded into 0.0, and
one `Dist` per kept row wrapped at once.  Every view of a vertex set must
equal it bit for bit.
"""

import sys
import threading

import numpy as np
import pytest

from thermocone import EnergySpectrum, c_plus_vertices, cones, future_cone_vertices
from thermocone._batch import distinct_vertices, order_vertices, perm_matrix
from thermocone.catalysis import _c_plus_heights
from thermocone.cones import _curve_heights
from thermocone.core import _row_dist, _simplex_rows

BETAS = (0.0, 1.0, 30.0)
SPECTRA = ("equidistant", "random", "paired")
VERTEX_SETS = {"future": (future_cone_vertices, _curve_heights), "c_plus": (c_plus_vertices, _c_plus_heights)}


def earlier_order_vertices(heights, gamma, perms):
    knots = np.cumsum(gamma[perms], axis=1)
    knots[:, -1] = 1.0
    h = heights(knots)
    h[:, -1] = 1.0
    h[:, 1:] = h[:, 1:] - h[:, :-1]
    out = np.empty_like(h)
    out[np.arange(len(perms))[:, None], perms] = np.maximum(h, 0.0)
    return out


def earlier_distinct_vertices(heights, gamma):
    perms = perm_matrix(gamma.size)
    rows = earlier_order_vertices(heights, gamma, perms)
    keys = np.round(rows, 10)
    keys += 0.0
    idx = np.lexsort(keys.T)
    keys = keys[idx]
    first = np.ones(len(idx), dtype=bool)
    first[1:] = np.any(keys[1:] != keys[:-1], axis=1)
    keep = np.sort(idx[first])
    return perms[keep], _simplex_rows(rows[keep])


def eager_from_rows(orders, rows):
    return {tuple(pi): _row_dist(v) for pi, v in zip(orders.tolist(), rows)}


def spectrum(kind, d, beta, rng):
    if kind == "equidistant":
        energies = np.arange(d) * float(rng.uniform(0.2, 0.4))
    elif kind == "paired":  # degenerate pairs: many orders give the same vertex
        energies = np.repeat(np.sort(rng.uniform(0.0, 2.0, (d + 1) // 2)), 2)[:d]
    elif kind == "sorted":
        energies = np.sort(rng.uniform(0.0, 2.0, d))
    else:
        energies = rng.uniform(0.0, 2.0, d)
    return EnergySpectrum(tuple(energies), beta)


def cases(dims):
    out = []
    for d in dims:
        for kind in SPECTRA:
            for beta in BETAS:
                rng = np.random.default_rng([d, len(kind), int(beta)])
                p = rng.dirichlet(np.ones(d))
                out.append(pytest.param(p, spectrum(kind, d, beta, rng), id=f"d{d}-{kind}-beta{beta:g}"))
    return out


def as_bytes(pairs):
    return [(pi, v.probs.tobytes()) for pi, v in pairs]


@pytest.mark.parametrize("which", sorted(VERTEX_SETS))
@pytest.mark.parametrize("p,spec", cases(range(2, 8)))
def test_vertex_set_equals_the_eager_wrapping(monkeypatch, which, p, spec):
    build, heights = VERTEX_SETS[which]
    want = eager_from_rows(*earlier_distinct_vertices(heights(p, spec), spec.gibbs))
    wrapped = []
    monkeypatch.setattr(cones, "_row_dist", lambda row: wrapped.append(row) or _row_dist(row))
    cv = build(p, spec)
    assert len(cv) == len(want)
    assert not wrapped  # neither the call nor len() builds the dict
    assert as_bytes(cv) == as_bytes(want.items())
    assert len(wrapped) == len(want)
    assert list(cv.vertices) == list(want)
    assert as_bytes(cv.vertices.items()) == as_bytes(want.items())
    assert [v.probs.tobytes() for v in cv.distinct()] == [v.probs.tobytes() for v in want.values()]
    assert cv.vertices is cv.vertices


@pytest.mark.parametrize("which", sorted(VERTEX_SETS))
def test_matrices_are_read_only_and_back_the_dict(which):
    build, _ = VERTEX_SETS[which]
    spec = EnergySpectrum((0.0, 0.3, 0.9, 1.4), 1.0)
    cv = build((0.1, 0.2, 0.3, 0.4), spec)
    assert cv.orders.dtype == np.int8 and cv.rows.dtype == float
    assert cv.orders.shape == cv.rows.shape == (len(cv), 4)
    for a in (cv.orders, cv.rows):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0] = 0
    for (pi, v), order, row in zip(cv, cv.orders, cv.rows):
        assert pi == tuple(order.tolist())
        assert np.shares_memory(v.probs, row) and not v.probs.flags.writeable


@pytest.mark.parametrize("which", sorted(VERTEX_SETS))
def test_two_threads_taking_the_first_dict_get_equal_dicts(which):
    build, _ = VERTEX_SETS[which]
    spec = EnergySpectrum(tuple(np.linspace(0.0, 1.5, 7)), 0.7)
    p = np.random.default_rng(9).dirichlet(np.ones(7))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            cv = build(p, spec)
            barrier = threading.Barrier(2)
            got = [None, None]

            def take(k):
                barrier.wait()
                got[k] = cv.vertices

            threads = [threading.Thread(target=take, args=(k,)) for k in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert as_bytes(got[0].items()) == as_bytes(got[1].items())
            assert as_bytes(cv.vertices.items()) == as_bytes(got[0].items())
    finally:
        sys.setswitchinterval(interval)


def cone_highd_cases():
    """States and spectra drawn the way perfbench's `cone_highd` draws them, plus beta = 30."""
    out = []
    for d in range(3, 9):
        rng = np.random.default_rng([d, 12])
        for kind in ("equidistant", "paired", "sorted"):
            for beta in (float(rng.uniform(0.1, 2.0)), 30.0):
                spec = spectrum(kind, d, beta, rng)
                out.append(pytest.param(rng.dirichlet(np.ones(d)), spec, id=f"d{d}-{kind}-beta{beta:.2f}"))
    return out


@pytest.mark.parametrize("p,spec", cone_highd_cases())
def test_kernel_and_dedup_equal_the_earlier_pipeline_bit_for_bit(p, spec):
    gamma = spec.gibbs
    perms = perm_matrix(spec.d)
    rng = np.random.default_rng(spec.d)
    few = np.array([rng.permutation(spec.d) for _ in range(spec.d)])  # as the cooling search asks
    for make in (_curve_heights, _c_plus_heights):
        heights = make(p, spec)
        for orders in (perms, few):
            seen = []
            got = order_vertices(lambda knots: seen.append(knots.copy()) or heights(knots), gamma, orders)
            assert seen[0].tobytes() == np.cumsum(gamma[orders], axis=1).tobytes()
            assert got.flags.c_contiguous
            assert got.tobytes() == earlier_order_vertices(heights, gamma, orders).tobytes()
        kept, rows = distinct_vertices(heights, gamma)
        want_kept, want_rows = earlier_distinct_vertices(heights, gamma)
        assert np.array_equal(kept, want_kept)
        assert rows.tobytes() == want_rows.tobytes()


def test_rows_differing_in_the_sign_of_a_zero_are_one_vertex():
    # order (0, 1) gives (-0.0, 1.0) and order (1, 0) gives (0.0, 1.0): the lexsort
    # and the run comparison both take -0.0 for 0.0
    gamma = np.array([0.5, 0.5])
    orders, kept = distinct_vertices(lambda knots: np.array([[-0.0, 1.0], [1.0, 1.0]]), gamma)
    assert orders.tolist() == [[0, 1]]
    assert kept.tolist() == [[0.0, 1.0]]

