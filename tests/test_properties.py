"""Property tests over random valid triples of small genus.

The triples are drawn from every valid (p, q, ell) with p <= 13 and genus
<= 12; (p, 1, p - 1) has genus 0 for every p, so without a bound on p the
set would be infinite.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from canideal.errors import CanidealError
from canideal.family import validate_params
from canideal.generators import reduce_relative_to_special, relative_generators, special_generators
from canideal.indexsets import anchor_set
from canideal.termorder import TIE_BREAK_ALT, TIE_BREAK_DEFAULT
from canideal.verify import certify


def _small_triples(max_genus: int = 12):
    out = []
    for p in (3, 5, 7, 11, 13):
        for q in range(1, max_genus + 2):
            for ell in range(1, p):
                try:
                    params = validate_params(p, q, ell)
                except CanidealError:
                    continue
                if params.genus <= max_genus:
                    out.append((p, q, ell))
    return out


SMALL_TRIPLES = _small_triples()
triples = st.sampled_from(SMALL_TRIPLES)


def test_small_triples_cover_every_prime():
    assert {p for p, _, _ in SMALL_TRIPLES} == {3, 5, 7, 11, 13}
    assert (5, 2, 3) in SMALL_TRIPLES and (5, 2, 1) not in SMALL_TRIPLES


@settings(max_examples=25, deadline=None)
@given(triple=triples, tie_break=st.sampled_from((TIE_BREAK_DEFAULT, TIE_BREAK_ALT)))
def test_lambda_reduction_reproduces_the_special_family(triple, tie_break):
    params = validate_params(*triple)
    reduced = reduce_relative_to_special(params, relative_generators(params, tie_break=tie_break))
    expected = special_generators(params, anchors=anchor_set(params, 0), tie_break=tie_break)
    assert [g.terms for g in reduced] == [g.terms for g in expected]
    assert all(g.fibre == "special" for g in reduced)


@settings(max_examples=25, deadline=None)
@given(triple=triples)
def test_counts_and_verdicts_do_not_depend_on_the_tie_break(triple):
    default = certify(validate_params(*triple), tie_break=TIE_BREAK_DEFAULT)
    alt = certify(validate_params(*triple), tie_break=TIE_BREAK_ALT)
    assert default.counts == alt.counts
    assert default.verdicts == alt.verdicts
    assert default.overall == alt.overall


@settings(max_examples=25, deadline=None)
@given(triple=triples, oracle=st.booleans())
def test_certificate_is_deterministic_across_fresh_params(triple, oracle):
    first = certify(validate_params(*triple), oracle=oracle).to_dict()
    second = certify(validate_params(*triple), oracle=oracle).to_dict()
    assert first == second
