"""`Dist` is slotted: a vertex walk allocates no per-vertex `__dict__`."""

import numpy as np
import pytest

from thermocone import Dist
from thermocone.core import _row_dist, _simplex_rows


def test_a_dist_has_no_dict():
    d = Dist([0.2, 0.3, 0.5])
    assert not hasattr(d, "__dict__")


def test_row_dist_gives_the_row_read_only_and_equal():
    rows = _simplex_rows(np.array([[0.2, 0.3, 0.5], [0.6, 0.4, 0.0]]))
    for row in rows:
        dist = _row_dist(row)
        assert not hasattr(dist, "__dict__")
        assert dist.probs is row
        assert not dist.probs.flags.writeable
        np.testing.assert_array_equal(dist.probs, Dist(row).probs)
        with pytest.raises(ValueError):
            dist.probs[0] = 1.0
