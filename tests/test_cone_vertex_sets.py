"""Array-native vertex sets against the eager wrapping and the kernel they replaced.

`ConeVertices` keeps the (orders, rows) matrices of `_batch.distinct_vertices`
and builds its `vertices` dict on first use.  The oracle below is the earlier
pipeline, kept whole: the kernel with its last knot pinned to 1 and a fresh
output array, the lexsort of the rounded rows with -0.0 folded into 0.0, and
one `Dist` per kept row wrapped at once.  Every view of a vertex set must
equal it bit for bit, and so must the hashed dedup that replaced the lexsort,
also where every hash collides and the lexsort decides again.
"""

import math
import sys
import threading

import numpy as np
import pytest

from thermocone import EnergySpectrum, _batch, c_plus_vertices, cones, future_cone_vertices
from thermocone._batch import distinct_rows, distinct_vertices, order_vertices, perm_matrix
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
    return earlier_dedup(perms, earlier_order_vertices(heights, gamma, perms))


def earlier_dedup(perms, rows):
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
    # order (0, 1) gives (-0.0, 1.0) and order (1, 0) gives (0.0, 1.0): the fold
    # into 0.0 gives both rows the same bits, and so the same hash
    gamma, perms = np.array([0.5, 0.5]), perm_matrix(2)
    orders, kept = distinct_rows(perms, order_vertices(lambda knots: np.array([[-0.0, 1.0], [1.0, 1.0]]), gamma, perms))
    assert orders.tolist() == [[0, 1]]
    assert kept.tolist() == [[0.0, 1.0]]


@pytest.mark.parametrize("which", sorted(VERTEX_SETS))
@pytest.mark.parametrize("beta", BETAS)
@pytest.mark.parametrize("kind", SPECTRA)
def test_d8_vertex_sets_equal_the_earlier_pipeline(which, beta, kind):
    rng = np.random.default_rng([8, len(kind), int(beta)])
    p, spec = rng.dirichlet(np.ones(8)), spectrum(kind, 8, beta, rng)
    build, heights = VERTEX_SETS[which]
    want_orders, want_rows = earlier_distinct_vertices(heights(p, spec), spec.gibbs)
    cv = build(p, spec)
    assert cv.orders.tobytes() == want_orders.astype(np.int8).tobytes()
    assert cv.rows.tobytes() == want_rows.tobytes()


def spy_on_the_lexsort(monkeypatch):
    calls = []
    lexsort = _batch._lexsort_firsts
    monkeypatch.setattr(_batch, "_lexsort_firsts", lambda keys: calls.append(len(keys)) or lexsort(keys))
    return calls


@pytest.mark.parametrize("which", sorted(VERTEX_SETS))
@pytest.mark.parametrize("p,spec", cone_highd_cases()[::5])
def test_colliding_hashes_fall_back_to_the_lexsort(monkeypatch, which, p, spec):
    _, make = VERTEX_SETS[which]
    heights = make(p, spec)
    want_orders, want_rows = earlier_distinct_vertices(heights, spec.gibbs)
    calls = spy_on_the_lexsort(monkeypatch)
    orders, rows = distinct_vertices(heights, spec.gibbs)
    assert calls == []  # distinct rows with equal hashes: not in these cases
    monkeypatch.setattr(_batch, "_row_hashes", lambda keys: np.zeros(len(keys), dtype=np.uint64))
    got_orders, got_rows = distinct_vertices(heights, spec.gibbs)
    assert len(want_rows) == 1 or calls == [math.factorial(spec.d)]
    for o, r in ((orders, rows), (got_orders, got_rows)):
        assert o.tobytes() == want_orders.astype(np.int8).tobytes()
        assert r.tobytes() == want_rows.tobytes()


def edge_rows(d, rng):
    """d! rows drawn from a few values one ulp apart across 10-decimal rounding edges, and signed zeros."""
    near = []
    for edge in (0.1234567890 + 0.5e-10, 0.5e-10, 0.25 + 0.5e-10):
        x = np.float64(edge)
        near.append([np.nextafter(x, -1.0), x, np.nextafter(x, 2.0)])
    zeros = [0.0, -0.0, -1e-300]  # -1e-300 rounds to -0.0
    n = math.factorial(d)
    rows = np.empty((n, d))
    for j in range(d - 1):
        pool = near[j] if j < len(near) else zeros
        rows[:, j] = np.array(pool)[rng.integers(0, len(pool), n)]
    rows[:, -1] = 1.0 - rows[:, :-1].sum(axis=1)
    return rows


@pytest.mark.parametrize("d", [5, 6, 7])
def test_rows_across_a_rounding_edge_and_signed_zeros_dedup_as_the_lexsort(monkeypatch, d):
    rows = edge_rows(d, np.random.default_rng(d))
    keys = np.round(rows, 10) + 0.0
    for j in range(3):  # each trio of values straddles its edge: two keys, and one ulp decides
        assert len(np.unique(keys[:, j])) == 2
    assert np.signbit(rows[:, 3:-1]).any() and not np.signbit(rows[:, 3:-1]).all()
    want_orders, want_rows = earlier_dedup(perm_matrix(d), rows.copy())
    calls = spy_on_the_lexsort(monkeypatch)
    orders, got = distinct_rows(perm_matrix(d), rows.copy())
    assert calls == [] and 1 < len(got) < len(rows)
    assert orders.tobytes() == want_orders.astype(np.int8).tobytes()
    assert got.tobytes() == want_rows.tobytes()
