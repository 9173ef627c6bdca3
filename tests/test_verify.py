import gc
import random
import weakref
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import canideal.verify as verify
from canideal.errors import (
    BadSpecialization,
    DegenerateSpecialization,
    NonHomogeneous,
    UnluckyPrime,
    WrongFibre,
)
from canideal.exactalg import CycloElement, cyclotomic_min_poly
from canideal.family import validate_params
from canideal.generators import (
    binomial_generators,
    corrupt_generator,
    generic_generators,
    relative_generators,
    special_generators,
)
from canideal.indexsets import anchor_set, build_index_set, check_counts, minkowski_sum_brute
from canideal.termorder import IndexPair, Monomial
from canideal.verify import (
    certify,
    check_membership,
    dimension_criterion,
    kernel_basis,
    kernel_oracle,
    kernel_oracle_with_retry,
    matrix_rank,
    oracle_field,
    residue,
)


# ---------------------------------------------------------------------------
# linear algebra


def _rows_from_dense(mat):
    return [{j: v for j, v in enumerate(row) if v} for row in mat]


# a small prime keeps the worked examples readable; the oracle uses r ~ 2^61
R = 101


def test_echelon_rank_known_matrix():
    mat = _rows_from_dense(
        [
            [1, 2, 3],
            [2, 4, 6],
            [0, 1, 1],
        ]
    )
    assert matrix_rank(mat, R) == 2


def test_kernel_known_matrix():
    # rows of M: kernel of v |-> v * M
    mat = _rows_from_dense(
        [
            [1, 0],
            [0, 1],
            [1, 1],
        ]
    )
    basis = kernel_basis(mat, 2, R)
    assert len(basis) == 1
    (v,) = basis
    # v[0]*row0 + v[1]*row1 + v[2]*row2 == 0
    for col in range(2):
        total = sum(v.get(r, 0) * mat[r].get(col, 0) for r in range(3))
        assert total % R == 0


def test_kernel_random_consistency():
    rng = random.Random(31337)
    p = 5
    for _ in range(10):
        nrows, ncols = rng.randint(2, 6), rng.randint(2, 6)
        mat = [
            {j: rng.randint(0, 4) for j in range(ncols) if rng.random() < 0.6}
            for _ in range(nrows)
        ]
        mat = [{j: v for j, v in row.items() if v} for row in mat]
        basis = kernel_basis(mat, ncols, p)
        rank = matrix_rank([dict(r) for r in mat], p)
        assert len(basis) == nrows - rank
        for v in basis:
            acc = {}
            for ridx, val in v.items():
                for cidx, mval in mat[ridx].items():
                    acc[cidx] = (acc.get(cidx, 0) + val * mval) % p
            assert all(not x for x in acc.values())


@pytest.mark.parametrize("p", [3, 5, 7, 11])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_oracle_field_is_a_ring_map(p, data):
    r, lam = oracle_field(p)
    assert sympy.isprime(r) and r % p == 1 and r < 2**61
    min_poly = cyclotomic_min_poly(p)
    assert sum(c * pow(lam, e[0], r) for e, c in min_poly.terms.items()) % r == 0
    ints = st.lists(st.integers(-(10**30), 10**30), min_size=p - 1, max_size=p - 1)
    a = CycloElement(p, data.draw(ints))
    b = CycloElement(p, data.draw(ints))
    assert residue(a * b, r, lam) == residue(a, r, lam) * residue(b, r, lam) % r
    assert residue(a + b, r, lam) == (residue(a, r, lam) + residue(b, r, lam)) % r


def test_residue_rejects_denominator_divisible_by_r():
    r, lam = oracle_field(5)
    assert residue(Fraction(3, 2), r, lam) * 2 % r == 3
    with pytest.raises(UnluckyPrime):
        residue(CycloElement(5, (Fraction(1, r), 0, 0, 0)), r, lam)


# ---------------------------------------------------------------------------
# membership


def test_membership_binomials_everywhere():
    params = validate_params(5, 2, 3)
    gens = binomial_generators(params)
    for fibre in ("generic", "special", "relative"):
        assert all(check_membership(params, fibre, g) for g in gens[:10])


def test_membership_trinomials():
    params = validate_params(5, 2, 1)
    assert all(check_membership(params, "generic", g) for g in generic_generators(params))
    assert all(check_membership(params, "special", g) for g in special_generators(params))
    assert all(check_membership(params, "relative", g) for g in relative_generators(params))


def test_membership_negative_control():
    params = validate_params(5, 2, 1)
    for fibre, builder in [
        ("generic", generic_generators),
        ("special", special_generators),
        ("relative", relative_generators),
    ]:
        bad = corrupt_generator(builder(params)[0])
        assert not check_membership(params, fibre, bad)


def test_membership_fibre_guards():
    params = validate_params(5, 2, 1)
    gen = generic_generators(params)[0]
    with pytest.raises(WrongFibre):
        check_membership(params, "special", gen)
    with pytest.raises(WrongFibre):
        check_membership(params, "nowhere", gen)


def test_membership_rejects_nonhomogeneous():
    params = validate_params(5, 2, 1)
    gen = generic_generators(params)[0]
    broken = gen.__class__(
        fibre=gen.fibre,
        provenance=gen.provenance,
        anchor=gen.anchor,
        terms=gen.terms + ((gen.terms[0][0], Monomial((IndexPair(0, 1),))),),
        tie_break=gen.tie_break,
    )
    with pytest.raises(NonHomogeneous):
        check_membership(params, "generic", broken)


# ---------------------------------------------------------------------------
# dimension criterion


def test_criterion_counts_521():
    params = validate_params(5, 2, 1)
    g1 = binomial_generators(params)
    g2 = generic_generators(params)
    full = dimension_criterion(params, g1 + g2)
    assert (full.leading_count, full.standard_monomial_count, full.bound) == (91, 45, 45)
    assert full.passes
    only = dimension_criterion(params, g1)
    assert only.standard_monomial_count == 49
    assert not only.passes


def test_criterion_drop_one_fails():
    params = validate_params(5, 2, 1)
    g1 = binomial_generators(params)
    g2 = generic_generators(params)
    for k in range(len(g2)):
        sub = dimension_criterion(params, g1 + g2[:k] + g2[k + 1 :])
        assert sub.standard_monomial_count == 46
        assert not sub.passes


def test_criterion_321():
    params = validate_params(3, 2, 1)
    rep = dimension_criterion(params, binomial_generators(params))
    assert rep.standard_monomial_count == 9 == rep.bound
    assert rep.passes
    assert validate_params(3, 2, 1).trigonal_risk  # conclusion carries the caveat


def test_criterion_tie_break_invariance():
    params = validate_params(5, 2, 3)
    for tb in ("default", "alt"):
        g1 = binomial_generators(params, tie_break=tb)
        g2 = generic_generators(params, tie_break=tb)
        rep = dimension_criterion(params, g1 + g2, tie_break=tb)
        assert rep.standard_monomial_count == 33


# ---------------------------------------------------------------------------
# kernel oracle


def test_oracle_special_521():
    params = validate_params(5, 2, 1)
    rep = kernel_oracle(params, "special")
    assert rep.kernel_dim == rep.expected_kernel_dim == 91
    assert rep.rank == 45
    assert rep.generators_in_kernel and rep.kernel_in_span
    assert rep.passes


@pytest.mark.parametrize(
    "fibre, make_family", [("generic", generic_generators), ("special", special_generators)]
)
def test_oracle_negative_control(fibre, make_family):
    params = validate_params(5, 2, 1)
    gens = binomial_generators(params) + make_family(params)
    gens[-1] = corrupt_generator(gens[-1])
    rep = kernel_oracle(params, fibre, gens=gens)
    assert rep.kernel_dim == rep.expected_kernel_dim == 91
    assert not rep.generators_in_kernel
    assert not rep.passes


def test_oracle_bad_specialization():
    params = validate_params(5, 2, 1)
    with pytest.raises(BadSpecialization):
        kernel_oracle(params, "special", {"x1": 1})


def test_oracle_degenerate_guard(monkeypatch):
    params = validate_params(5, 2, 1)
    real = verify.kernel_basis

    def short_basis(rows, ncols, one):
        return real(rows, ncols, one)[:-1]

    monkeypatch.setattr(verify, "kernel_basis", short_basis)
    with pytest.raises(DegenerateSpecialization):
        kernel_oracle(params, "special")


def test_oracle_retry(monkeypatch):
    params = validate_params(5, 2, 1)
    calls = []
    real = verify.kernel_oracle

    def flaky(p, fibre, spec, tie_break="default"):
        calls.append(dict(spec))
        if len(calls) == 1:
            raise DegenerateSpecialization("forced")
        return real(p, fibre, spec, tie_break=tie_break)

    monkeypatch.setattr(verify, "kernel_oracle", flaky)
    rng = random.Random(0)
    report, tried = kernel_oracle_with_retry(params, "special", None, rng)
    assert report is not None and report.passes
    assert len(tried) == 2
    assert tried[0] == {"x1": 1, "x2": 2}


# ---------------------------------------------------------------------------
# certification


def test_certify_521_pass():
    params = validate_params(5, 2, 1)
    cert = certify(params)
    assert cert.overall == "PASS"
    assert all(cert.verdicts.values())
    assert cert.counts["standard_monomials_relative"] == 45
    assert cert.counts["standard_monomials_special"] == 45
    assert cert.counts["anchors_one_minus_zero"] == 0


def test_certify_321_caveat():
    cert = certify(validate_params(3, 2, 1))
    assert cert.overall == "PASS-WITH-CAVEAT"
    assert any("trigonal" in c for c in cert.caveats)
    assert cert.passed


def test_certify_corrupt_fails():
    cert = certify(validate_params(5, 2, 1), corrupt_one=True)
    assert cert.overall == "FAIL"
    assert not cert.verdicts["membership_relative"]
    assert not cert.verdicts["reduction_compatibility"]
    assert not cert.passed


def test_derived_data_is_freed_with_its_params():
    params = validate_params(3, 2, 1)
    check_counts(params)
    assert certify(params, oracle=True).passed
    # the memo is not a field: equality and hash are those of a fresh triple
    fresh = validate_params(3, 2, 1)
    assert params == fresh and hash(params) == hash(fresh)
    ref = weakref.ref(params)
    del params
    gc.collect()
    assert ref() is None


def test_certify_serialization_shape():
    cert = certify(validate_params(5, 2, 3))
    doc = cert.to_dict()
    assert doc["schema"] == "canideal.certificate/1"
    assert "timings" not in doc
    assert "timings" in cert.to_dict(include_timings=True)


def test_membership_across_small_sweep():
    # trinomial families stay members on every small instance with anchors
    for triple in [(5, 1, 1), (5, 1, 2), (5, 2, 2), (5, 2, 4), (7, 1, 1), (7, 1, 2)]:
        params = validate_params(*triple)
        for fibre, builder in [
            ("generic", generic_generators),
            ("special", special_generators),
            ("relative", relative_generators),
        ]:
            for g in builder(params):
                assert check_membership(params, fibre, g), (triple, fibre, g.anchor)


def test_standard_monomials_equal_minkowski_minus_anchors():
    # the count is an exact identity, not merely the <= of the criterion
    for triple in [(5, 2, 1), (5, 2, 3), (7, 1, 1), (5, 3, 2)]:
        params = validate_params(*triple)
        gens = binomial_generators(params) + generic_generators(params)
        rep = dimension_criterion(params, gens)
        mink = len(minkowski_sum_brute(build_index_set(params)))
        assert rep.standard_monomial_count == mink - len(anchor_set(params, 0))
