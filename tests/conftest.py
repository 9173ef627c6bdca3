import itertools

import pytest

from canideal.indexsets import MinkowskiPoint


def _pairwise_sum(index_set):
    """The Minkowski sum by its definition: every unordered pair of index
    points (repetition allowed) summed, sorted by (T, rho)."""
    points = {
        MinkowskiPoint(a.N + b.N, a.mu + b.mu) for a, b in itertools.combinations_with_replacement(index_set, 2)
    }
    return tuple(sorted(points, key=lambda m: (m.T, m.rho)))


@pytest.fixture(scope="session")
def pairwise_sum():
    return _pairwise_sum
