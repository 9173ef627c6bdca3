"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import json
import time

from canideal.exactalg import (
    CycloElement,
    divide_by_lambda_power,
    residue,
)
from canideal.family import validate_params
from canideal.generators import (
    binomial_generators,
    generators_document,
    generic_generators,
    reduce_relative_to_special,
    relative_generators,
    special_generators,
)
from canideal.indexsets import (
    _closed_forms,
    _expand,
    anchor_set,
    build_index_set,
    check_counts,
    rho_lower_bound,
)
from canideal.termorder import TIE_BREAK_ALT, TIE_BREAK_DEFAULT
from canideal.verify import certify, check_membership, dimension_criterion, kernel_oracle

from controls import corrupt_generator

SWEEP = [(p, q, ell) for p in (3, 5, 7) for q in (1, 2, 3) for ell in range(1, p)]

# stated ranges give 36 triples (the criterion text says 63; the ranges win)
assert len(SWEEP) == 36

DESK_INSTANCES = [(5, 2, 1), (5, 2, 3)]

# rows where the literal zero-anchor closed form provably disagrees with the
# brute-force anchor set (see the repaired form); frozen as a regression
LITERAL_CLOSED_FORM_FAILURES = {
    (5, 2, 4),
    (5, 3, 4),
    (7, 1, 3),
    (7, 2, 3),
    (7, 2, 5),
    (7, 2, 6),
    (7, 3, 3),
    (7, 3, 5),
    (7, 3, 6),
}

# genus 0/1 rows, outside the genus >= 3 hypothesis of the counting bound
DEGENERATE_ROWS = {(3, 1, 1), (3, 1, 2), (5, 1, 4), (7, 1, 6)}


def _report(n, elapsed, budget, detail):
    line = f"criterion {n}: PASS in {elapsed:.2f}s (budget {budget}s) - {detail}"
    print(line)
    assert elapsed < budget, line


def test_criterion_1_genus_identity():
    t0 = time.perf_counter()
    for triple in SWEEP:
        params = validate_params(*triple)
        assert params.genus == len(build_index_set(params))
    _report(1, time.perf_counter() - t0, 1.0, f"genus = |index set| on {len(SWEEP)} triples")


def test_criterion_2_minkowski_closed_form(pairwise_sum):
    t0 = time.perf_counter()
    for triple in SWEEP:
        params = validate_params(*triple)
        assert _expand(_closed_forms(params)[1]) == pairwise_sum(build_index_set(params))
    _report(2, time.perf_counter() - t0, 5.0, "closed form = enumeration on the full sweep")


def test_criterion_3_anchor_closed_form_and_inclusions():
    t0 = time.perf_counter()
    literal_failures = set()
    for triple in SWEEP:
        params = validate_params(*triple)
        brute = anchor_set(params, 0)
        _, _, literal, repaired = _closed_forms(params)
        assert _expand(repaired) == brute
        if _expand(literal) != brute:
            literal_failures.add(triple)
        zero = set(brute)
        for i in range(params.p + 1):
            assert zero <= set(anchor_set(params, i))
        tmax = 2 * (params.p - 1)
        for T in range(2, tmax + 1):
            for alpha in range(0, tmax - T + 1):
                assert rho_lower_bound(params, T + alpha) <= rho_lower_bound(params, T) + alpha
    # the literal simplified description is wrong exactly on the known rows
    assert literal_failures == LITERAL_CLOSED_FORM_FAILURES
    _report(
        3,
        time.perf_counter() - t0,
        10.0,
        "repaired closed form exact everywhere; literal form fails only on the "
        f"{len(literal_failures)} documented rows; inclusions and subadditivity hold",
    )


def test_criterion_4_counting_bound(pairwise_sum):
    t0 = time.perf_counter()
    failures = set()
    for triple in SWEEP:
        params = validate_params(*triple)
        outside = len(pairwise_sum(build_index_set(params))) - len(anchor_set(params, 0))
        if outside > 3 * (params.genus - 1):
            failures.add(triple)
            assert params.genus < 3  # only outside the bound's hypothesis
    assert failures == DEGENERATE_ROWS
    for (p, q, ell), expected in [((5, 2, 1), 45), ((5, 2, 3), 33), ((3, 2, 1), 9)]:
        params = validate_params(p, q, ell)
        outside = len(pairwise_sum(build_index_set(params))) - len(anchor_set(params, 0))
        assert outside == expected == 3 * (params.genus - 1)
    _report(
        4,
        time.perf_counter() - t0,
        10.0,
        "bound holds on every genus>=3 row (equality on the pinned instances); "
        f"the {len(DEGENERATE_ROWS)} genus<=1 rows are the documented exceptions",
    )


def test_criterion_5_membership():
    for triple in DESK_INSTANCES:
        t0 = time.perf_counter()
        params = validate_params(*triple)
        g1 = binomial_generators(params)
        families = {
            "generic": generic_generators(params),
            "special": special_generators(params),
            "relative": relative_generators(params),
        }
        for g in g1:
            assert check_membership(params, "relative", g)
            assert check_membership(params, "generic", g)
            assert check_membership(params, "special", g)
        for fibre, gens in families.items():
            for g in gens:
                assert check_membership(params, fibre, g)
            if gens:
                assert not check_membership(params, fibre, corrupt_generator(gens[0]))
        elapsed = time.perf_counter() - t0
        count = 3 * len(g1) + sum(len(v) for v in families.values())
        print(
            f"criterion 5 [{triple}]: PASS in {elapsed:.2f}s (budget 120s) - "
            f"{count} membership checks, negative controls nonzero"
        )
        assert elapsed < 120.0


def test_criterion_6_dimension_criterion():
    t0 = time.perf_counter()
    params = validate_params(5, 2, 1)
    g1 = binomial_generators(params)
    g2 = generic_generators(params)
    full = dimension_criterion(params, [g.lead for g in g1 + g2])
    assert full.standard_monomial_count == 45 == full.bound and full.passes
    alone = dimension_criterion(params, [g.lead for g in g1])
    assert alone.standard_monomial_count == 49 and not alone.passes
    _report(6, time.perf_counter() - t0, 10.0, "s = 45 with trinomials, 49 without")


def test_criterion_7_lambda_adic_layer():
    t0 = time.perf_counter()
    for p in (3, 5, 7):
        pp = CycloElement.from_int(p, p)
        top = divide_by_lambda_power(pp, p - 1)
        assert residue(top, p, 0) == p - 1
        for v in range(1, p - 1):
            q = divide_by_lambda_power(pp, v)
            assert residue(q, p, 0) == 0
    for triple in [(5, 2, 1), (5, 2, 3), (7, 1, 1), (3, 2, 1)]:
        params = validate_params(*triple)
        rel = relative_generators(params)
        reduced = reduce_relative_to_special(params, rel)
        expected = special_generators(params, anchors=anchor_set(params, 0))
        assert [g.terms for g in reduced] == [g.terms for g in expected]
    _report(
        7,
        time.perf_counter() - t0,
        10.0,
        "residues of p*lam^s for p in {3,5,7}; reduction matches the special family term-for-term",
    )


def test_criterion_8_independent_oracle():
    t0 = time.perf_counter()
    params = validate_params(5, 2, 1)
    spec = {"x1": 1, "x2": 2}
    generic = kernel_oracle(params, "generic", spec)
    assert generic.kernel_dim == 136 - 45 == 91
    assert generic.generators_in_kernel and generic.kernel_in_span
    special = kernel_oracle(params, "special", spec)
    assert special.kernel_dim == 91
    assert special.generators_in_kernel and special.kernel_in_span
    _report(
        8,
        time.perf_counter() - t0,
        600.0,
        "kernel dimension 91 on both fibres; span(G) = kernel both ways",
    )


def test_criterion_9_determinism():
    t0 = time.perf_counter()
    params = validate_params(5, 2, 1)

    def gens_doc():
        gens = binomial_generators(params) + relative_generators(params)
        return json.dumps(generators_document(params, gens, "relative", "default"), sort_keys=True)

    assert gens_doc() == gens_doc()

    def cert_doc():
        return json.dumps(certify(params).to_dict(), sort_keys=True)

    assert cert_doc() == cert_doc()

    for triple in DESK_INSTANCES:
        pp = validate_params(*triple)
        counts = {}
        for tb in (TIE_BREAK_DEFAULT, TIE_BREAK_ALT):
            g1 = binomial_generators(pp, tie_break=tb)
            g2 = generic_generators(pp, tie_break=tb)
            rep = dimension_criterion(pp, [g.lead for g in g1 + g2])
            counts[tb] = (
                len(g1),
                len(g2),
                rep.leading_count,
                rep.standard_monomial_count,
                check_counts(pp).to_dict(),
            )
        assert counts[TIE_BREAK_DEFAULT] == counts[TIE_BREAK_ALT]
    _report(
        9,
        time.perf_counter() - t0,
        120.0,
        "byte-identical documents across runs; counts invariant under the tie-break switch",
    )
