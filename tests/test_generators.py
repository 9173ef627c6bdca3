import json
import math

import pytest

from canideal.errors import ReductionMismatch, WrongFibre
from canideal.exactalg import (
    CycloElement,
    SparsePoly,
    divide_by_lambda_power,
    multiply_out,
    residue,
)
from canideal.family import a_power_coefficients, deformation_symbols, validate_params
from canideal.generators import (
    GeneratorPoly,
    binomial_generators,
    fibre_generators,
    generators_document,
    generic_generators,
    reduce_relative_to_special,
    relative_generators,
    relative_lambda_coefficient,
    special_generators,
    trinomial_slots,
)
from canideal.indexsets import anchor_set, minimal_monomial, MinkowskiPoint, build_index_set, monomials_at
from canideal.termorder import IndexPair, Monomial, leading_term, term_key
from canideal.verify import dimension_criterion

from controls import corrupt_generator, variable


def test_binomial_count_521():
    params = validate_params(5, 2, 1)
    gens = binomial_generators(params)
    assert len(gens) == 136 - 49 == 87


def test_binomial_all_pairs_count(pairwise_sum):
    params = validate_params(5, 2, 1)
    mink = pairwise_sum(build_index_set(params))
    expected = sum(math.comb(len(monomials_at(params, m)), 2) for m in mink)
    assert len(binomial_generators(params, all_pairs=True)) == expected


def test_binomial_321_unique():
    params = validate_params(3, 2, 1)
    gens = binomial_generators(params)
    assert len(gens) == 10 - 9 == 1
    (gen,) = gens
    big = Monomial((IndexPair(0, 2), IndexPair(2, 2)))
    small = Monomial((IndexPair(1, 2), IndexPair(1, 2)))
    assert [(c.constant_value(), m) for c, m in gen.terms] == [(1, big), (-1, small)]
    assert leading_term(gen.terms)[1] == big


def test_binomials_have_equal_multidegrees():
    params = validate_params(5, 2, 3)
    for gen in binomial_generators(params):
        (c1, m1), (c2, m2) = gen.terms
        assert (sum(f.N for f in m1), sum(f.mu for f in m1)) == (sum(f.N for f in m2), sum(f.mu for f in m2))
        assert c1.constant_value() == 1 and c2.constant_value() == -1


def test_generic_generators_521():
    params = validate_params(5, 2, 1)
    gens = generic_generators(params)
    assert [g.anchor for g in gens] == [
        MinkowskiPoint(0, 2),
        MinkowskiPoint(0, 3),
        MinkowskiPoint(1, 3),
        MinkowskiPoint(2, 3),
    ]
    for g in gens:
        assert g.is_homogeneous_degree2()
        lead_coeff, lead = leading_term(g.terms)
        assert lead == minimal_monomial(params, g.anchor)
        assert lead_coeff.constant_value() == CycloElement.one(5)


def test_generic_generator_merged_coefficient():
    # at ell = 1 the (ell, p)-shift and the j = 1 slot share a monomial:
    # the coefficient is -(lam^p + c_{1,p})
    params = validate_params(5, 2, 1)
    gen = generic_generators(params)[0]
    assert gen.anchor == MinkowskiPoint(0, 2)
    shifted = minimal_monomial(params, MinkowskiPoint(1, 7))
    (coeff,) = [c for c, m in gen.terms if m == shifted]
    lam5 = CycloElement.lam(5) ** 5
    c15 = a_power_coefficients(params, 0)[1].map_coefficients(lambda n: CycloElement.from_int(5, n))
    expected = -(c15 + SparsePoly.constant(("x1", "x2"), lam5))
    assert coeff == expected


def test_generic_empty_for_p3():
    assert generic_generators(validate_params(3, 2, 1)) == []


def test_trinomial_multidegree_offsets():
    params = validate_params(5, 2, 3)
    p, ell, q = params.p, params.ell, params.q
    for gen in relative_generators(params):
        base = gen.terms[0][1]
        offsets = {
            (sum(f.N for f in m) - sum(f.N for f in base), sum(f.mu for f in m) - sum(f.mu for f in base))
            for _, m in gen.terms[1:]
        }
        allowed = {(ell, p)}
        for i in range(1, p):
            lo = 0 if ell == 1 else p - i
            for j in range(lo, (p - i) * q + 1):
                allowed.add((j, p - i))
        assert offsets <= allowed


def test_special_generators_tables_mod_p():
    # the special fibre computes over Z: every coefficient is a nonzero residue mod p
    params = validate_params(5, 2, 1)
    gens = special_generators(params)
    assert len(gens) == 4
    for g in gens:
        assert g.is_homogeneous_degree2()
        assert leading_term(g.terms)[1] == minimal_monomial(params, g.anchor)
        for coeff, _ in g.terms:
            for c in coeff.terms.values():
                assert type(c) is int and 0 < c < params.p


_GRID = [(p, q, ell) for p in (3, 5, 7, 11, 13) for q in (1, 2, 3, 4) for ell in range(1, p)]


@pytest.mark.parametrize("tie_break", ["default", "alt"])
@pytest.mark.parametrize("triple", [(p, q, ell) for p in (3, 5, 7) for q in (1, 2, 3) for ell in range(1, p)])
def test_every_builder_emits_strictly_descending_terms(triple, tie_break):
    # the criterion reads each lead as terms[0], so every builder must emit
    # distinct monomials strictly descending under the generator's tie-break;
    # leading_term, which compares every term's key, is the reference
    params = validate_params(*triple)
    key = term_key(tie_break)
    binomials = binomial_generators(params, tie_break=tie_break)
    rel = relative_generators(params, tie_break=tie_break)
    families = [
        binomials,
        binomial_generators(params, all_pairs=True, tie_break=tie_break),
        generic_generators(params, tie_break=tie_break),
        special_generators(params, tie_break=tie_break),
        rel,
        reduce_relative_to_special(params, rel),
        [corrupt_generator(g) for g in binomials + rel],
    ]
    # each generator's reference lead is taken once; the binomials, which
    # every family's criterion run counts too, come first
    leads = {}
    for family in families:
        for gen in family:
            assert gen.tie_break == tie_break
            monos = [m for _, m in gen.terms]
            assert len(set(monos)) == len(monos), gen
            keys = [key(m) for m in monos]
            assert all(a > b for a, b in zip(keys, keys[1:])), gen
            if id(gen) not in leads:
                leads[id(gen)] = leading_term(gen.terms, gen.tie_break)
            assert leads[id(gen)] == gen.terms[0], gen
        gens = binomials + family
        reference = {leads[id(g)][1] for g in gens}
        assert dimension_criterion(params, [g.lead for g in gens]).leading_count == len(reference)


def _a_power_tables(params, k):
    """{j: [a^k]_j} of a(x)^k over the symbols, from a(x) by its definition
    (monic of degree q, x_s the coefficient of x^(q-s)) and plain
    SparsePoly products."""
    syms = deformation_symbols(params)
    variables = ("x",) + syms
    a = variable(variables, "x", params.q)
    for s, name in enumerate(syms, 1):
        a = a + variable(variables, "x", params.q - s) * variable(variables, name)
    power = SparsePoly.constant(variables, 1)
    for _ in range(k):
        power = power * a
    tables: dict = {}
    for (j, *e), m in power.terms.items():
        tables.setdefault(j, {})[tuple(e)] = m
    return {j: SparsePoly(syms, t) for j, t in sorted(tables.items())}


@pytest.mark.parametrize("triple", [(p, q, ell) for p in (3, 5, 7) for q in (1, 2, 3) for ell in range(1, p)])
def test_slot_groups_multiply_out_to_the_fibre_equation(triple):
    # a built table has one group (gamma, d) per slot, with an int table d
    # and the weight of its block; gamma * d, multiplied out term by term,
    # is the slot's coefficient in the fibre's equation, rebuilt here from
    # a(x) by plain products: c_i * [a^(p-i)]_j on the relative fibre,
    # -[a^p]_j on the generic one and -[a^(p-1)]_j read mod p on the special one
    params = validate_params(*triple)
    p, ell = params.p, params.ell
    syms = deformation_symbols(params)
    unit = SparsePoly.constant(syms, 1)
    one, lam = CycloElement.one(p), CycloElement.lam(p)
    c = {i: relative_lambda_coefficient(params, i) for i in range(1, p)}
    assert all(c[i] * lam ** (p - i) == math.comb(p, i) for i in c)
    want = {
        "relative": [(0, 0, one, unit), (ell, p, -one, unit)]
        + [(j, p - i, c[i], t) for i in range(1, p) for j, t in _a_power_tables(params, p - i).items()],
        "generic": [(0, 0, one, unit), (ell, p, -(lam**p), unit)]
        + [(j, p, -one, t) for j, t in _a_power_tables(params, p).items()],
        "special": [(0, 0, 1, unit), (ell, p, 1, unit.scale(p - 1))]
        + [(j, p - 1, 1, t.map_coefficients(lambda m: -m % p)) for j, t in _a_power_tables(params, p - 1).items()],
    }
    for fibre, slots in want.items():
        table = trinomial_slots(params, fibre)
        assert [(dr, dt) for dr, dt, _ in table] == [(dr, dt) for dr, dt, _, _ in slots], fibre
        for (_, _, groups), (_, _, weight, value) in zip(table, slots):
            (gamma, d), = groups
            assert type(gamma) is type(weight) and gamma == weight, fibre
            assert d.vars == syms and all(type(m) is int for m in d.terms.values()), fibre
            product = SparsePoly(syms, {e: gamma * m for e, m in d.terms.items()})
            assert product == value.map_coefficients(lambda m: weight * m), fibre


def test_special_slot_coefficients_are_nonzero_residues():
    # every special slot coefficient is an int in [1, p): the lead 1, the
    # residue p - 1 of -1, and the residues of -[a^(p-1)]_j, whose
    # multinomials divide (p-1)! and so are prime to p; no coefficient is
    # 0 mod p, so the special table drops no term of the relative one
    for triple in _GRID:
        params = validate_params(*triple)
        slots = trinomial_slots(params, "special")
        syms = deformation_symbols(params)
        assert slots[0][2] == ((1, SparsePoly.constant(syms, 1)),)
        assert slots[1][2] == ((1, SparsePoly.constant(syms, params.p - 1)),)
        for _, _, groups in slots:
            (weight, coeff), = groups
            assert type(weight) is int and weight == 1 and coeff, triple
            assert all(type(c) is int and 0 < c < params.p for c in coeff.terms.values()), triple


def test_relative_lambda_coefficients():
    params = validate_params(5, 2, 1)
    # i = 1: lam^(1-p) * p reduces to -1; higher i reduce to 0
    assert residue(relative_lambda_coefficient(params, 1), 5, 0) == 4
    for i in (2, 3, 4):
        c = relative_lambda_coefficient(params, i)
        assert all(type(x) is int for x in c.coeffs)
        assert residue(c, 5, 0) == 0
        assert divide_by_lambda_power(c, 1) * CycloElement.lam(5) == c  # lam divides c


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23])
def test_relative_lambda_coefficients_for_every_p(monkeypatch, p):
    # lam^(p-i) * c_i == binom(p, i) is a product in Z[lam], whatever found
    # c_i; c_1 reduces to -1 mod lam and every other c_i to 0; and one
    # triple's c_1..c_(p-1) take one chain of p - 1 divisions by lam
    import canideal.exactalg as exactalg

    calls = []
    real = exactalg._divide_by_lambda
    monkeypatch.setattr(exactalg, "_divide_by_lambda", lambda e: calls.append(e) or real(e))
    params = validate_params(p, 1, 1)
    coeffs = {i: relative_lambda_coefficient(params, i) for i in range(1, p)}
    assert len(calls) <= p - 1
    lam = CycloElement.lam_powers(p, p)
    for i, c in coeffs.items():
        assert lam[p - i] * c == math.comb(p, i), (p, i)
        assert residue(c, p, 0) == (p - 1 if i == 1 else 0), (p, i)


def test_relative_generators_521():
    params = validate_params(5, 2, 1)
    gens = relative_generators(params)
    assert len(gens) == 4
    slots = 2 + sum((5 - i) * 2 - 0 + 1 for i in range(1, 5))
    for g in gens:
        assert len(g.terms) == slots == 26
        for coeff, _ in g.terms:
            for c in coeff.terms.values():
                assert isinstance(c, CycloElement) and all(type(x) is int for x in c.coeffs)


def test_relative_empty_for_p3():
    assert relative_generators(validate_params(3, 2, 1)) == []


@pytest.mark.parametrize("triple", [(5, 2, 1), (5, 2, 3), (7, 1, 1)])
def test_reduction_matches_special_family(triple):
    params = validate_params(*triple)
    rel = relative_generators(params)
    reduced = reduce_relative_to_special(params, rel)
    expected = special_generators(params, anchors=anchor_set(params, 0))
    assert [g.terms for g in reduced] == [g.terms for g in expected]


def test_reduction_mismatch_is_a_typed_error():
    params = validate_params(5, 2, 1)
    rel = relative_generators(params)
    with pytest.raises(ReductionMismatch):
        reduce_relative_to_special(params, [corrupt_generator(rel[0])] + rel[1:])


def test_special_anchor_sets_agree_on_desk_instances():
    for triple in [(5, 2, 1), (5, 2, 3), (7, 1, 1), (7, 2, 3)]:
        params = validate_params(*triple)
        assert anchor_set(params, 0) == anchor_set(params, 1)


def test_corrupt_generator_changes_one_coefficient():
    params = validate_params(5, 2, 1)
    gen = relative_generators(params)[0]
    bad = corrupt_generator(gen)
    diffs = [i for i, (a, b) in enumerate(zip(gen.terms, bad.terms)) if a != b]
    assert len(diffs) == 1


def test_serialization_deterministic():
    params = validate_params(5, 2, 1)
    gens = binomial_generators(params) + relative_generators(params)
    doc1 = generators_document(params, gens, "relative", "default")
    gens2 = binomial_generators(params) + relative_generators(params)
    doc2 = generators_document(params, gens2, "relative", "default")
    s1 = json.dumps(doc1, sort_keys=True)
    s2 = json.dumps(doc2, sort_keys=True)
    assert s1 == s2
    assert doc1["count"] == 91
    assert doc1["schema"] == "canideal.generators/1"


def test_trinomial_variants_are_members():
    # any monomial of a slot's class, not only its minimum, gives a member:
    # the first 8 choices of one monomial per raw slot, coefficients merged
    # per monomial
    from itertools import islice, product

    from canideal.verify import check_membership

    params = validate_params(5, 2, 1)
    anchor = MinkowskiPoint(0, 2)
    slots = [(dr, dt, multiply_out(c, deformation_symbols(params))) for dr, dt, c in trinomial_slots(params, "generic")]
    choices = [monomials_at(params, MinkowskiPoint(anchor.rho + dr, anchor.T + dt)) for dr, dt, _ in slots]
    variants = []
    for picks in islice(product(*choices), 8):
        terms = {}
        for (_, _, coeff), mono in zip(slots, picks):
            terms[mono] = coeff if mono not in terms else terms[mono] + coeff
        variants.append(
            GeneratorPoly(
                fibre="generic",
                provenance="trinomial",
                anchor=anchor,
                terms=tuple((c, m) for m, c in terms.items() if c),
                tie_break="default",
            )
        )
    assert len(variants) > 1
    for gen in variants:
        assert leading_term(gen.terms)[1] in monomials_at(params, anchor)
        assert check_membership(params, "generic", gen)


def test_fibre_generators_rejects_unknown_fibre():
    # one fibre check decides every entry point, as it does for
    # check_membership and kernel_oracle (test_verify)
    params = validate_params(5, 2, 1)
    for fibre in ("any", "bogus"):
        with pytest.raises(WrongFibre):
            fibre_generators(params, fibre)
        with pytest.raises(WrongFibre):
            trinomial_slots(params, fibre)
    for gens in (special_generators(params), generic_generators(params), binomial_generators(params)):
        with pytest.raises(WrongFibre):
            reduce_relative_to_special(params, gens)
