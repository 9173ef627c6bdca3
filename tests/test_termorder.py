import copy
import functools
import itertools
import pickle
import random
from collections import Counter

import pytest

from canideal.errors import UnknownTieBreak, ZeroPolynomial
from canideal.termorder import (
    TIE_BREAK_ALT,
    TIE_BREAK_DEFAULT,
    IndexPair,
    Monomial,
    format_monomial,
    leading_term,
    sort_monomials,
    term_key,
)


def z(N, mu):
    return IndexPair(N=N, mu=mu)


def mono(*pairs):
    return Monomial(tuple(z(*p) for p in pairs))


def test_monomials_are_sorted_tuples_of_index_pairs():
    m = mono((2, 3), (0, 1))
    assert m == mono((0, 1), (2, 3)) and hash(m) == hash(mono((0, 1), (2, 3)))
    assert tuple(m) == (z(0, 1), z(2, 3)) and hash(m) == hash(tuple(m))
    for copied in (pickle.loads(pickle.dumps(m)), copy.copy(m), copy.deepcopy(m)):
        assert type(copied) is Monomial and copied == m
    assert IndexPair(N=1, mu=2) == IndexPair(1, 2)
    assert repr(IndexPair(N=0, mu=1)) == "IndexPair(N=0, mu=1)"
    assert repr(m) == "z[0,1]*z[2,3]" and repr(mono()) == "1"


def _sign(m1, m2, tie_break=TIE_BREAK_DEFAULT):
    """-1, 0 or 1 as m1 is below, equal to or above m2 in the term order."""
    key = term_key(tie_break)
    k1, k2 = key(m1), key(m2)
    return (k1 > k2) - (k1 < k2)


def test_compare_degree_first():
    assert _sign(mono((0, 2)), mono((0, 1), (0, 1))) == -1


def test_compare_mu_weight_reversed():
    # equal degree; larger total mu sorts lower
    assert _sign(mono((0, 4), (0, 4)), mono((0, 1), (0, 1))) == -1


def test_compare_sum_n():
    a = mono((0, 1), (1, 3))
    b = mono((2, 1), (0, 3))
    assert _sign(a, b) == -1


def test_compare_equal():
    m = mono((1, 2), (3, 4))
    assert _sign(m, mono((3, 4), (1, 2))) == 0


def test_tie_break_clause():
    # equal degree, mu-sum and N-sum: decided by the variable enumeration
    a = mono((0, 3), (1, 4))
    b = mono((1, 3), (0, 4))
    assert _sign(a, b, TIE_BREAK_DEFAULT) == 1
    assert _sign(b, a, TIE_BREAK_DEFAULT) == -1
    # a total order under the alternative enumeration too
    assert _sign(a, b, TIE_BREAK_ALT) in (-1, 1)
    assert _sign(a, b, TIE_BREAK_ALT) == -_sign(b, a, TIE_BREAK_ALT)


def _random_monomial(rng):
    return Monomial(
        tuple(IndexPair(rng.randint(0, 4), rng.randint(1, 4)) for _ in range(rng.randint(0, 3)))
    )


@pytest.mark.parametrize("tie_break", [TIE_BREAK_DEFAULT, TIE_BREAK_ALT])
def test_order_properties_random(tie_break):
    rng = random.Random(2024)
    for _ in range(300):
        a, b, c = (_random_monomial(rng) for _ in range(3))
        ab, ba = _sign(a, b, tie_break), _sign(b, a, tie_break)
        assert ab == -ba
        assert (ab == 0) == (a == b)
        # transitivity
        if ab <= 0 and _sign(b, c, tie_break) <= 0:
            assert _sign(a, c, tie_break) <= 0


def test_sort_monomials_ascending():
    ms = [mono((0, 1), (0, 1)), mono((0, 2)), mono((0, 4), (0, 4))]
    ordered = sort_monomials(ms)
    assert ordered[0] == mono((0, 2))
    assert ordered[1] == mono((0, 4), (0, 4))
    assert ordered[2] == mono((0, 1), (0, 1))


def test_leading_term_binomial():
    big, small = mono((2, 2), (0, 2)), mono((1, 2), (1, 2))
    assert _sign(small, big) == -1
    coeff, lead = leading_term([(1, big), (-1, small)])
    assert (coeff, lead) == (1, big)


def test_leading_term_constant_and_zero():
    assert leading_term([(7, mono())]) == (7, mono())
    with pytest.raises(ZeroPolynomial):
        leading_term([])


def test_format_monomial_stable():
    m = mono((2, 3), (0, 1))
    assert format_monomial(m) == "z[0,1]*z[2,3]"
    assert format_monomial(mono()) == ""


def _reference_compare(m1, m2, tie_break):
    """The documented order (i)-(iv), written out rule by rule."""
    if len(m1) != len(m2):
        return -1 if len(m1) < len(m2) else 1
    mu1, mu2 = sum(f.mu for f in m1), sum(f.mu for f in m2)
    if mu1 != mu2:
        return -1 if mu1 > mu2 else 1
    n1, n2 = sum(f.N for f in m1), sum(f.N for f in m2)
    if n1 != n2:
        return -1 if n1 < n2 else 1

    def enum(f):
        return (f.mu, f.N) if tie_break == TIE_BREAK_DEFAULT else (f.N, f.mu)

    c1, c2 = Counter(map(enum, m1)), Counter(map(enum, m2))
    for var in sorted(set(c1) | set(c2)):
        if c1[var] != c2[var]:
            # more copies of the enumeration-smaller variable: larger monomial
            return 1 if c1[var] > c2[var] else -1
    return 0


GRID = [z(N, mu) for N in range(3) for mu in range(1, 4)]
SMALL_MONOMIALS = [
    Monomial(factors) for d in range(4) for factors in itertools.combinations_with_replacement(GRID, d)
]


@pytest.mark.parametrize("tie_break", [TIE_BREAK_DEFAULT, TIE_BREAK_ALT])
def test_key_matches_reference_order(tie_break):
    # every pair of monomials of degree <= 3 over a 3x3 grid of variables
    assert len(SMALL_MONOMIALS) == 1 + 9 + 45 + 165
    key = term_key(tie_break)
    keys = [key(m) for m in SMALL_MONOMIALS]
    for a, ka in zip(SMALL_MONOMIALS, keys):
        for b, kb in zip(SMALL_MONOMIALS, keys):
            want = _reference_compare(a, b, tie_break)
            assert (ka > kb) - (ka < kb) == want, (a, b)

    ref_key = functools.cmp_to_key(lambda a, b: _reference_compare(a, b, tie_break))
    rng = random.Random(7)
    shuffled = SMALL_MONOMIALS[:]
    rng.shuffle(shuffled)
    ascending = sorted(shuffled, key=ref_key)
    assert sort_monomials(shuffled, tie_break) == ascending
    for _ in range(200):
        sample = rng.sample(shuffled, rng.randint(1, 12))
        coeffs = [(rng.randint(1, 9), m) for m in sample]
        assert leading_term(coeffs, tie_break) == max(coeffs, key=lambda t: ref_key(t[1]))


def test_unknown_tie_break_raises():
    m = mono((0, 1))
    with pytest.raises(UnknownTieBreak):
        term_key("bogus")
    with pytest.raises(UnknownTieBreak):
        sort_monomials([], "bogus")
    with pytest.raises(UnknownTieBreak):
        leading_term([(1, m)], "bogus")
