import dataclasses
import gc
import math
import random
import weakref

import pytest
import sympy
from sympy import GF
from sympy.polys.matrices import DomainMatrix
from hypothesis import given, settings
from hypothesis import strategies as st

import canideal.verify as verify
from canideal.errors import (
    BadSpecialization,
    CanidealError,
    DegenerateSpecialization,
    NonHomogeneous,
    PointNotInMinkowskiSum,
    ReductionMismatch,
    TOutOfRange,
    UnknownTieBreak,
    VariableOutsideIndexSet,
    WrongDegree,
    WrongFibre,
)
from canideal.exactalg import CycloElement, SparsePoly, residue
from canideal.family import deformation_symbols, validate_params
from canideal.fibrealg import FibreContext, _relation_rhs, fibre_context
from canideal.generators import (
    TRINOMIAL,
    GeneratorPoly,
    binomial_generators,
    fibre_generators,
    generic_generators,
    reduce_relative_to_special,
    relative_generators,
    special_generators,
    trinomial_layout,
    trinomial_slots,
)
from canideal.indexsets import anchor_set, build_index_set, check_counts, monomial_classes
from canideal.termorder import IndexPair, Monomial
from canideal.verify import (
    OracleReport,
    certify,
    check_membership,
    default_specialization,
    dimension_criterion,
    kernel_basis,
    kernel_oracle,
    kernel_oracle_with_retry,
    matrix_rank,
    oracle_field,
)

from controls import corrupt_generator, variable

# every valid triple with p <= 7 and q <= 3
_EQUIVALENCE_TRIPLES = [(p, q, ell) for p in (3, 5, 7) for q in (1, 2, 3) for ell in range(1, p)]


# ---------------------------------------------------------------------------
# linear algebra


def _rows_from_dense(mat):
    return [{j: v for j, v in enumerate(row) if v} for row in mat]


# a small prime keeps the worked examples readable; the oracle uses r ~ 2^30
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


@st.composite
def sparse_matrices(draw):
    """(rows, ncols, r): random sparse rows over F_r, optionally with an arrow
    pattern that fills in, plus repeated and scaled copies of earlier rows."""
    r = draw(st.sampled_from([2, 3, 7, 101, (1 << 61) - 1]))
    ncols = draw(st.integers(1, 9))
    nonzero = st.integers(1, r - 1)
    cell = st.one_of(st.none(), nonzero)
    rows = [
        {j: v for j, v in enumerate(draw(st.lists(cell, min_size=ncols, max_size=ncols))) if v is not None}
        for _ in range(draw(st.integers(0, 8)))
    ]
    if draw(st.booleans()):
        # first column shared by every row, as in an arrowhead: each
        # elimination step fills in the other rows' columns
        rows += [{0: draw(nonzero), j: draw(nonzero)} for j in range(1, ncols)]
        rows.append({j: draw(nonzero) for j in range(ncols)})
    for _ in range(draw(st.integers(0, 4))):
        if rows:
            src = rows[draw(st.integers(0, len(rows) - 1))]
            f = draw(nonzero)
            rows.append({c: v * f % r for c, v in src.items()})
    if not rows:
        rows = [{}]
    draw(st.randoms()).shuffle(rows)
    return rows, ncols, r


@settings(max_examples=150, deadline=None)
@given(sparse_matrices(), st.data())
def test_kernel_random_consistency(case, data):
    # rank against sympy's GF(r) rank, echelon shape, and the kernel basis;
    # then the oracle's span test on B = rows: for A of rank n - rank B,
    # ker B lies in the row space of A exactly when A * B = 0
    rows, ncols, r = case
    before = [dict(row) for row in rows]
    dense = [[row.get(j, 0) for j in range(ncols)] for row in rows]
    assert matrix_rank(rows, r) == DomainMatrix.from_list(dense, GF(r)).rank()
    echelon = verify.fraction_free_echelon(rows, r)
    assert [pc for pc, _ in echelon] == sorted({pc for pc, _ in echelon})
    assert all(min(row) == pc and row[pc] == 1 for pc, row in echelon)
    basis = kernel_basis(rows, ncols, r)
    assert rows == before
    assert len(basis) == len(rows) - len(echelon)
    for v in basis:
        for col in range(ncols):
            assert sum(val * rows[ridx].get(col, 0) for ridx, val in v.items()) % r == 0
    assert matrix_rank(basis, r) == len(basis)
    # A: the kernel vectors, some moved off the kernel, plus scaled copies
    a_rows = []
    for v in basis:
        v = dict(v)
        if data.draw(st.booleans()):
            j = data.draw(st.integers(0, len(rows) - 1))
            v[j] = (v.get(j, 0) + data.draw(st.integers(1, r - 1))) % r
        a_rows.append({c: x for c, x in v.items() if x})
    for _ in range(data.draw(st.integers(0, 3))):
        if a_rows:
            src = a_rows[data.draw(st.integers(0, len(a_rows) - 1))]
            a_rows.append({c: x * data.draw(st.integers(1, r - 1)) % r for c, x in src.items()})
    if matrix_rank(a_rows, r) == len(basis):
        product_is_zero = all(
            sum(x * rows[j].get(col, 0) for j, x in v.items()) % r == 0 for v in a_rows for col in range(ncols)
        )
        kernel_in_span = matrix_rank(a_rows + basis, r) == len(basis)
        assert kernel_in_span == product_is_zero


@pytest.mark.parametrize("p", [3, 5, 7, 11])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_oracle_field_is_a_ring_map(p, data):
    r, lam = oracle_field(p)
    assert sympy.isprime(r) and r % p == 1 and r < 2**30
    # lam is a root mod r of its minimal polynomial sum_(i=1..p) binom(p, i) lam^(i-1)
    assert sum(math.comb(p, i) * pow(lam, i - 1, r) for i in range(1, p + 1)) % r == 0
    ints = st.lists(st.integers(-(10**30), 10**30), min_size=p - 1, max_size=p - 1)
    a = CycloElement(p, data.draw(ints))
    b = CycloElement(p, data.draw(ints))
    assert residue(a * b, r, lam) == residue(a, r, lam) * residue(b, r, lam) % r
    assert residue(a + b, r, lam) == (residue(a, r, lam) + residue(b, r, lam)) % r


# ---------------------------------------------------------------------------
# membership


def test_membership_binomials_everywhere():
    params = validate_params(5, 2, 3)
    gens = binomial_generators(params)
    for fibre in ("generic", "special", "relative"):
        assert all(check_membership(params, fibre, g) for g in gens[:10])


def test_binomial_memberships_check_the_class_table():
    # certify's binomial memberships are lookups in the multidegree table, in
    # binomial_generators order: a monomial planted in a foreign class fails
    params = validate_params(5, 2, 3)
    classes = monomial_classes(params, "default")
    g1 = binomial_generators(params)
    assert verify.binomial_memberships(params, classes) == [check_membership(params, "relative", g) for g in g1]
    assert all(verify.binomial_memberships(params, classes))
    mono, home = g1[len(g1) // 2].terms[0][1], g1[len(g1) // 2].anchor
    foreign = next(point for point in classes if point != home)
    planted = dict(classes)
    planted[home] = tuple(m for m in classes[home] if m != mono)
    planted[foreign] = classes[foreign] + (mono,)
    got = verify.binomial_memberships(params, planted)
    assert len(got) == len(g1) and got.count(False) == 1


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


def _lift(ctx, poly):
    """A coefficient polynomial in the deformation symbols over the context
    variables, its value substituted on a specialized context."""
    if ctx.specialization is not None:
        return SparsePoly.constant(ctx.vars, _termwise_value(poly, ctx.specialization))
    return SparsePoly(ctx.vars, {(0,) + e: c for e, c in poly.terms.items()})


def _termwise_value(poly, spec):
    """The value of a polynomial in the deformation symbols at `spec`, one
    term at a time: each coefficient times its substituted powers."""
    total = 0
    for e, c in poly.terms.items():
        for name, k in zip(poly.vars, e):
            c = c * spec[name] ** k
        total = total + c
    return total


def _per_term_membership(params, fibre, gen):
    """The uncollapsed sum: every term's image times its coefficient."""
    ctx = verify.fibre_context(params, fibre)
    total = None
    for coeff, mono in gen.terms:
        c = _lift(ctx, coeff)
        img = tuple(e * c for e in ctx.phi_image(mono))
        total = img if total is None else tuple(a + b for a, b in zip(total, img))
    return not any(total)


@pytest.mark.parametrize("triple", [(5, 2, 1), (5, 2, 3), (7, 1, 3)])
def test_collapsed_membership_matches_per_term_sum(triple):
    params = validate_params(*triple)
    families = [("relative", binomial_generators(params))]
    for fibre, builder in [
        ("generic", generic_generators),
        ("special", special_generators),
        ("relative", relative_generators),
    ]:
        families.append((fibre, builder(params)))
    for fibre, gens in families:
        for gen in gens:
            for g in (gen, corrupt_generator(gen)):
                assert check_membership(params, fibre, g) == _per_term_membership(params, fibre, g)


def _multidegree_sums(ctx, gen):
    sums = {}
    for coeff, mono in gen.terms:
        md = ctx.multidegree_of(mono)
        sums[md] = sums[md] + coeff if md in sums else coeff
    return {md: c for md, c in sums.items() if c}


def _shift_classes_match(ctx, gens):
    """Every generator and its corrupted copy, shifted in T by every offset
    that keeps its weights in [2, 2p - 2], gets the verdict `_sum_vanishes`
    gives on its unshifted, unnormalised sums (evaluated once per distinct
    sums: a class's corrupted binomials all sum to {class: 1}), and, when V
    is no zero divisor, all its shifts add at most one verdict to the
    context.  Returns the number of distinct nonzero sums checked."""
    expected = {}
    for gen in gens:
        for g in (gen, corrupt_generator(gen)):
            sums = _multidegree_sums(ctx, g)
            if not sums:
                assert ctx._sum_vanishes(()) and ctx.combination_vanishes(sums)
                continue
            key = frozenset(sums.items())
            if key not in expected:
                expected[key] = ctx._sum_vanishes(sums.items())
            before = len(ctx._verdicts)
            weights = [T for _, T in sums]
            for d in range(2 - min(weights), 2 * ctx.p - 1 - max(weights)):
                assert ctx.combination_vanishes({(rho, T + d): c for (rho, T), c in sums.items()}) == expected[key], (g, d)
            assert len(ctx._verdicts) <= before + 1 or not ctx._v_regular
    return len(expected)


@pytest.mark.parametrize("triple", _EQUIVALENCE_TRIPLES)
def test_class_memo_matches_unmemoised_verdicts(triple):
    # the verdict of every (x, V)-shift class equals a direct evaluation of
    # the unshifted sum, on every fibre, symbolic and specialized, for every
    # generator and its corrupted copy at every weight offset
    params = validate_params(*triple)
    for spec in (None, default_specialization(params)):
        for fibre in ("generic", "special", "relative"):
            ctx = FibreContext(params, fibre, spec)
            assert ctx._v_regular
            checks = _shift_classes_match(ctx, fibre_generators(params, fibre))
            assert len(ctx._verdicts) <= checks


@pytest.mark.parametrize("triple", [(7, 2, 5), (7, 2, 1), (5, 3, 2)])
def test_layout_anchors_share_one_verdict(triple):
    # the anchors of an intact layout differ by x- and V-shifts only: one
    # verdict, and one packed reduction, serves them all on every context
    params = validate_params(*triple)
    for spec in (None, default_specialization(params)):
        for fibre, i in (("generic", 0), ("special", 1), ("relative", 0)):
            ctx = FibreContext(params, fibre, spec)
            anchors = anchor_set(params, i)
            assert len({T for _, T in anchors}) > 1
            assert all(ctx.layout_vanishes(trinomial_layout(params, fibre, i), anchors))
            assert len(ctx._verdicts) == 1


def test_certify_counts_the_criterion_once(monkeypatch):
    # the lam-reduced family leads where the relative one does (the class
    # minima at the anchors), so certify counts once and labels twice
    calls = []
    real = verify.dimension_criterion
    monkeypatch.setattr(verify, "dimension_criterion", lambda *args, **kw: calls.append(args) or real(*args, **kw))
    cert = certify(validate_params(7, 2, 1))
    assert len(calls) == 1
    special, relative = cert.criteria["special"], dict(cert.criteria["relative"])
    assert special.pop("label") == "special-fibre (lam-reduced generators)"
    assert relative.pop("label") == "generic-fibre view of the relative generators"
    relative.pop("memberships")
    assert special == relative and special["passes"]


def test_certify_reduces_once_per_layout(monkeypatch):
    # (13,4,1) has anchors at ten weights, and membership is one reduction
    import canideal.fibrealg as fibrealg

    calls = []
    real = fibrealg.reduce_normal_form
    monkeypatch.setattr(fibrealg, "reduce_normal_form", lambda *args, **kw: calls.append(args) or real(*args, **kw))
    params = validate_params(13, 4, 1)
    assert len({T for _, T in anchor_set(params, 0)}) == 10
    assert certify(params).overall == "PASS"
    assert len(calls) == 1


def test_v_shifts_are_not_shared_when_rhs_0_vanishes():
    # the int 1 added to the relative (ell, p) slot of (5,2,1) cancels
    # rhs_0 = x^ell, so V is a zero divisor modulo the read-off relation:
    # the contexts keep the x-shift key alone, and every verdict, at every
    # weight offset, is still the direct evaluation of the unshifted sums
    params = validate_params(5, 2, 1)
    p, ell = params.p, params.ell
    unit = SparsePoly.constant(deformation_symbols(params), 1)
    slots = trinomial_slots(params, "relative")
    [s] = [s for s, (dr, dt, _) in enumerate(slots) if (dr, dt) == (ell, p)]
    dr, dt, c = slots[s]
    params.memo[(trinomial_slots.__wrapped__, "relative")] = slots[:s] + ((dr, dt, c + ((1, unit),)),) + slots[s + 1 :]
    from test_fibrealg import _joined

    assert not _joined(_relation_rhs(params, "relative")[0], ("x",) + deformation_symbols(params))
    for spec in (None, default_specialization(params)):
        ctx = FibreContext(params, "relative", spec)
        assert not ctx._v_regular
        assert not ctx.combination_vanishes({(0, 4): unit}) and not ctx.combination_vanishes({(0, 5): unit})
        assert len(ctx._verdicts) == 2
        assert _shift_classes_match(ctx, fibre_generators(params, "relative")) > 0


def test_planted_classes_differing_in_one_coefficient():
    params = validate_params(5, 2, 1)
    ctx = verify.fibre_context(params, "relative")
    sums = _multidegree_sums(ctx, relative_generators(params)[0])
    assert len(sums) > 1
    assert ctx.combination_vanishes(sums)
    # the same class shifted by x^3 shares the key and the verdict
    shifted = {(rho + 3, T): c for (rho, T), c in sums.items()}
    assert ctx.combination_vanishes(shifted) and len(ctx._verdicts) == 1
    md = next(iter(sums))
    bumped = dict(sums)
    bumped[md] = sums[md] + SparsePoly.constant(sums[md].vars, 1)
    assert not ctx.combination_vanishes(bumped)
    assert len(ctx._verdicts) == 2
    assert ctx.combination_vanishes(sums) and not ctx.combination_vanishes(bumped)


def test_int_and_ring_coefficients_share_a_verdict():
    # equal coefficient sums hash alike whether their 1 is an int or lies in
    # Z[lam], so the shift-class memo keeps one verdict for both
    params = validate_params(5, 2, 1)
    ctx = verify.fibre_context(params, "relative")
    syms = deformation_symbols(params)
    int_sums = {(0, 4): SparsePoly.constant(syms, 1), (1, 8): variable(syms, "x1")}
    ring_sums = {md: c.map_coefficients(lambda v: v * CycloElement.one(5)) for md, c in int_sums.items()}
    assert ring_sums == int_sums
    assert all(type(v) is CycloElement for c in ring_sums.values() for v in c.terms.values())
    assert not ctx.combination_vanishes(int_sums)
    assert not ctx.combination_vanishes(ring_sums)
    assert len(ctx._verdicts) == 1


@pytest.mark.parametrize("fibre", ["generic", "special", "relative"])
def test_a_wrong_slot_fails_relation_consistency(fibre):
    # generators and fibre relation are read off one slot table, so a wrong
    # slot moves both and membership still holds; the certificate fails on
    # the relations checked against the model, without the oracle
    params = validate_params(5, 2, 1)
    slots = trinomial_slots(params, fibre)
    dr, dt, c = slots[-1]
    params.memo[(trinomial_slots.__wrapped__, fibre)] = slots[:-1] + ((dr, dt, c + c),)
    cert = certify(params)
    assert cert.overall == "FAIL"
    assert cert.verdicts["relation_consistency"] is False


def test_corrupted_binomial_and_trinomial_fail():
    params = validate_params(5, 2, 3)
    binomial = binomial_generators(params)[0]
    trinomial = relative_generators(params)[0]
    for gen in (binomial, trinomial):
        assert check_membership(params, "relative", gen)
        assert not check_membership(params, "relative", corrupt_generator(gen))


def test_membership_cancels_planted_images_plain():
    _check_planted_cancellation("special")


@pytest.mark.parametrize("fibre", ["relative", "generic"])
def test_membership_cancels_planted_images_packed(fibre):
    _check_planted_cancellation(fibre)


def _check_planted_cancellation(fibre):
    # x * V^k * (V^p - rhs) * Q is zero modulo the fibre relation, and its
    # weights cancel only after the substitution V^p -> rhs (over Z[lam] on
    # packed ints, over F_p by the plain product).  Q = 1 + V^p on the
    # generic fibre, whose rhs has one slot, so that the combination spans
    # three weights there as on the special fibre; the relative relation has
    # p + 1 terms, and so has its combination.  (5,1,1) has the weights 4..8
    # only, a span shorter than p, so no combination of its own monomials
    # vanishes across weights: the combination is stated over multidegrees
    # (rho, T), whose image is x^rho * V^(E - T).
    params = validate_params(5, 1, 1)
    ctx = verify.fibre_context(params, fibre)
    p = k = ctx.p  # every start degree is at least p
    syms = deformation_symbols(params)
    from test_fibrealg import _joined

    combination = {k + p: SparsePoly.constant(ctx.vars, ctx.one)}
    for i, s in enumerate(ctx.relation.rhs):
        if s:
            combination[k + i] = -_joined(s, ctx.vars)
    if fibre == "generic":
        # V^k * (V^p - rhs) * (1 + V^p) = V^(k+2p) + (1 - rhs) * V^(k+p) - rhs * V^k
        combination[k + 2 * p] = combination[k + p]
        combination[k + p] = combination[k + p] + combination[k]
    coeffs = {}
    for e, c in combination.items():
        for (rho, *sym), v in c.terms.items():
            md = (rho + 1, ctx.clearing - e)
            coeffs[md] = coeffs.get(md, SparsePoly.zero(syms)) + SparsePoly(syms, {tuple(sym): v})
    weights = sorted({T for _, T in coeffs})
    assert len(weights) == (p + 1 if fibre == "relative" else 3)
    assert ctx.combination_vanishes(coeffs)
    for T in weights:
        dropped = {md: c for md, c in coeffs.items() if md[1] != T}
        assert not ctx.combination_vanishes(dropped)
        md = min(md for md in coeffs if md[1] == T)
        bumped = {**coeffs, md: coeffs[md] + coeffs[md]}
        assert not ctx.combination_vanishes(bumped)
    assert not ctx._chain
    # a start below V^p would leave its coefficient unread by the relation
    with pytest.raises(TOutOfRange):
        ctx.combination_vanishes({**coeffs, (0, ctx.clearing - p + 1): SparsePoly.constant(syms, p)})


def _slotwise_verdict(ctx, gen):
    """The weight-image test: sum_T C_T * NF(V^(E-T)), slot by slot."""
    by_weight = {}
    for (rho, T), c in _multidegree_sums(ctx, gen).items():
        term = _lift(ctx, c).mul_var_power("x", rho)
        by_weight[T] = by_weight[T] + term if T in by_weight else term
    total = [SparsePoly.zero(ctx.vars)] * ctx.p
    for T, c in by_weight.items():
        total = [t + u * c for t, u in zip(total, ctx.weight_image(T))]
    return not any(total)


@pytest.mark.parametrize("triple", [(5, 2, 1), (5, 2, 3), (7, 1, 3), (3, 6, 1)])
def test_reduced_combination_matches_weight_images(triple):
    # reducing each generator's combination once gives the verdict of the
    # weight images, for every generator and its corrupted copy, on the
    # symbolic and on the oracle's specialized contexts
    params = validate_params(*triple)
    for spec in (None, default_specialization(params)):
        for fibre in ("generic", "special", "relative"):
            ctx = verify.fibre_context(params, fibre, spec)
            verdicts = set()
            for gen in fibre_generators(params, fibre):
                for g in (gen, corrupt_generator(gen)):
                    verdict = ctx.generator_vanishes(g)
                    assert verdict == _slotwise_verdict(ctx, g)
                    verdicts.add(verdict)
            assert verdicts == {True, False}


@pytest.mark.parametrize("triple", [(5, 2, 1), (5, 3, 2)])
def test_membership_reduces_no_weight_image(triple):
    # certify without the oracle decides membership on the symbolic relative
    # context and leaves every normal-form chain empty
    params = validate_params(*triple)
    cert = certify(params)
    assert cert.verdicts["membership_binomials"] and cert.verdicts["membership_relative"]
    contexts = [v for v in params.memo.values() if isinstance(v, FibreContext)]
    assert [(ctx.fibre, ctx.specialization) for ctx in contexts] == [("relative", None)]
    assert contexts[0]._verdicts
    assert not any(ctx._chain for ctx in contexts)


def test_membership_rejects_variable_outside_index_set():
    params = validate_params(5, 2, 1)
    gen = binomial_generators(params)[0]
    outside = Monomial((IndexPair(0, 1), IndexPair(9, 1)))
    broken = gen.__class__(
        fibre=gen.fibre,
        provenance=gen.provenance,
        anchor=gen.anchor,
        terms=gen.terms + ((gen.terms[0][0], outside),),
        tie_break=gen.tie_break,
    )
    with pytest.raises(VariableOutsideIndexSet):
        check_membership(params, "relative", broken)


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


OUTSIDE = Monomial((IndexPair(0, 1), IndexPair(9, 1)))
DEGREE_ONE = Monomial((IndexPair(0, 1),))
DEGREE_THREE = Monomial((IndexPair(0, 1), IndexPair(0, 1), IndexPair(0, 1)))


@pytest.mark.parametrize("specialized", [False, True], ids=["symbolic", "specialized"])
@pytest.mark.parametrize(
    "tagged, extra, error",
    [
        ("own", (OUTSIDE, DEGREE_ONE), NonHomogeneous),
        ("own", (OUTSIDE, DEGREE_THREE), NonHomogeneous),
        ("own", (DEGREE_ONE, OUTSIDE), NonHomogeneous),
        ("own", (OUTSIDE,), VariableOutsideIndexSet),
        ("own", None, NonHomogeneous),
        ("other", (OUTSIDE, DEGREE_ONE), WrongFibre),
        ("other", None, WrongFibre),
    ],
    ids=[
        "outside-before-degree-one",
        "outside-before-degree-three",
        "degree-one-before-outside",
        "outside-index-set",
        "empty",
        "other-fibre-malformed",
        "other-fibre-empty",
    ],
)
def test_membership_error_precedence(specialized, tagged, extra, error):
    # WrongFibre first; then NonHomogeneous for any term of degree other
    # than 2 (and for no term at all), wherever it stands, even after a
    # degree-2 term outside the index set; VariableOutsideIndexSet last
    params = validate_params(5, 2, 1)
    ctx = fibre_context(params, "generic", default_specialization(params) if specialized else None)
    gen = (generic_generators if tagged == "own" else special_generators)(params)[0]
    coeff = gen.terms[0][0]
    terms = () if extra is None else gen.terms[:1] + tuple((coeff, m) for m in extra) + gen.terms[1:]
    with pytest.raises(error):
        ctx.generator_vanishes(dataclasses.replace(gen, terms=terms))


# ---------------------------------------------------------------------------
# dimension criterion


def _leads(gens):
    return [g.lead for g in gens]


def test_criterion_counts_521():
    params = validate_params(5, 2, 1)
    g1 = binomial_generators(params)
    g2 = generic_generators(params)
    full = dimension_criterion(params, _leads(g1 + g2))
    assert (full.leading_count, full.standard_monomial_count, full.bound) == (91, 45, 45)
    assert full.passes
    only = dimension_criterion(params, _leads(g1))
    assert only.standard_monomial_count == 49
    assert not only.passes
    # the class table in place of g1 gives the same report; g1 given as well
    # adds generators but no lead, as no binomial leads at a class minimum
    classes = monomial_classes(params, "default")
    assert dimension_criterion(params, _leads(g2), classes=classes) == full
    both = dimension_criterion(params, _leads(g1 + g2), classes=classes)
    assert (both.generator_count, both.leading_count) == (2 * len(g1) + len(g2), 91)


def test_criterion_drop_one_fails():
    params = validate_params(5, 2, 1)
    g1 = binomial_generators(params)
    g2 = generic_generators(params)
    classes = monomial_classes(params, "default")
    for k in range(len(g2)):
        sub = dimension_criterion(params, _leads(g1 + g2[:k] + g2[k + 1 :]))
        assert sub.standard_monomial_count == 46
        assert not sub.passes
        assert dimension_criterion(params, _leads(g2[:k] + g2[k + 1 :]), classes=classes) == sub


def test_criterion_reads_an_iterator_once():
    params = validate_params(5, 2, 1)
    leads = _leads(binomial_generators(params) + relative_generators(params))
    assert dimension_criterion(params, iter(leads)) == dimension_criterion(params, leads)
    assert dimension_criterion(params, iter(leads)).generator_count == len(leads)


def test_criterion_321():
    params = validate_params(3, 2, 1)
    rep = dimension_criterion(params, _leads(binomial_generators(params)))
    assert rep.standard_monomial_count == 9 == rep.bound
    assert rep.passes
    assert validate_params(3, 2, 1).trigonal_risk  # conclusion carries the caveat


@pytest.mark.parametrize("how", ["empty", "degree-one"])
def test_criterion_rejects_a_generator_without_a_degree_two_lead(how):
    # GeneratorPoly.lead reads terms[0] only after the homogeneity check
    params = validate_params(5, 2, 1)
    gen = generic_generators(params)[0]
    terms = () if how == "empty" else ((gen.terms[0][0], Monomial((IndexPair(0, 1),))),) + gen.terms
    broken = dataclasses.replace(gen, terms=terms)
    with pytest.raises(NonHomogeneous):
        dimension_criterion(params, _leads(binomial_generators(params) + [broken]))


def test_criterion_tie_break_invariance():
    params = validate_params(5, 2, 3)
    for tb in ("default", "alt"):
        g1 = binomial_generators(params, tie_break=tb)
        g2 = generic_generators(params, tie_break=tb)
        rep = dimension_criterion(params, _leads(g1 + g2))
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


@pytest.mark.parametrize("fibre", ["generic", "special"])
@pytest.mark.parametrize(
    "family, extra, error",
    [
        ("other", None, WrongFibre),
        ("own", Monomial((IndexPair(0, 1), IndexPair(9, 1))), VariableOutsideIndexSet),
        ("own", Monomial((IndexPair(0, 1),)), NonHomogeneous),
    ],
    ids=["other-fibre", "outside-index-set", "degree-one"],
)
def test_oracle_rejects_malformed_generators(fibre, family, extra, error):
    # the oracle raises what check_membership raises, before any generator
    # vector is built
    params = validate_params(5, 2, 1)
    other = {"generic": "special", "special": "generic"}[fibre]
    gens = fibre_generators(params, fibre if family == "own" else other)
    if extra is not None:
        gens[-1] = dataclasses.replace(gens[-1], terms=gens[-1].terms + ((gens[-1].terms[0][0], extra),))
    with pytest.raises(error):
        kernel_oracle(params, fibre, gens=gens)


@pytest.mark.parametrize("triple", [(3, 4, 1), (5, 2, 4), (7, 1, 1), (5, 2, 1), (7, 2, 1)])
@pytest.mark.parametrize("fibre", ["generic", "special"])
def test_oracle_exact_check_is_not_vacuous(triple, fibre):
    # the exact check passes the emitted family and fails it with the first,
    # a middle or the last trinomial corrupted (with no trinomial at p = 3,
    # the first, a middle or the last binomial)
    params = validate_params(*triple)
    gens = fibre_generators(params, fibre)
    rep = kernel_oracle(params, fibre, gens=gens)
    assert rep.generators_in_kernel and rep.passes
    assert rep.monomial_count == sum(map(len, monomial_classes(params, "default").values()))
    targets = [i for i, g in enumerate(gens) if g.provenance == TRINOMIAL] or list(range(len(gens)))
    for i in {targets[0], targets[len(targets) // 2], targets[-1]}:
        bad = gens[:i] + [corrupt_generator(gens[i])] + gens[i + 1 :]
        assert not kernel_oracle(params, fibre, gens=bad).generators_in_kernel, (i, gens[i])


def _map_coefficients(gen, fn):
    return dataclasses.replace(gen, terms=tuple((c.map_coefficients(fn), m) for c, m in gen.terms))


def _int_lift(v):
    """The int whose image v is, for v in Z inside Z[lam]; v otherwise."""
    if isinstance(v, CycloElement) and not any(v.coeffs[1:]):
        return v.coeffs[0]
    return v


@pytest.mark.parametrize("triple", [(5, 2, 1), (7, 1, 3)])
@pytest.mark.parametrize("fibre", ["generic", "special", "relative"])
def test_int_coefficients_act_as_their_ring_images(triple, fibre):
    # a plain int is the image of Z in the fibre's ring: a generator with int
    # coefficients and the same generator mapped into the ring get the same
    # verdict, symbolic and specialized, and the same oracle rows and report.
    # The special fibre reads F_p as Z mod p: there the ints are the lifts
    # c - p of its residues c, and the ring images the residues in [0, p)
    params = validate_params(*triple)
    p = params.p
    spec = default_specialization(params)
    one = fibre_context(params, fibre).one
    gens = fibre_generators(params, fibre)
    binomial, trinomial = gens[0], gens[-1]
    assert trinomial.provenance == TRINOMIAL
    (_, big), (_, small) = binomial.terms
    syms = deformation_symbols(params)
    # (p - 1) * big + small: p times a class image, zero exactly over F_p
    p_times = dataclasses.replace(
        binomial, terms=((SparsePoly.constant(syms, p - 1), big), (SparsePoly.constant(syms, 1), small))
    )

    def as_ints(family):
        lift = (lambda v: v - p) if fibre == "special" else _int_lift
        return [_map_coefficients(g, lift) for g in family]

    def in_ring(family):
        return [_map_coefficients(g, lambda v: v * one % p if fibre == "special" else v * one) for g in family]

    picks = [binomial, trinomial, corrupt_generator(binomial), corrupt_generator(trinomial), p_times]
    ints, rings = as_ints(picks), in_ring(picks)
    if fibre == "special":
        assert all(type(c) is int and 0 <= c < p for g in rings for coeff, _ in g.terms for c in coeff.terms.values())
        assert all(c < 0 for g in ints for coeff, _ in g.terms for c in coeff.terms.values())
    else:
        assert all(type(c) is not int for g in rings for coeff, _ in g.terms for c in coeff.terms.values())
    assert all(type(c) is int for coeff, _ in ints[0].terms for c in coeff.terms.values())
    assert any(type(c) is int for coeff, _ in ints[1].terms for c in coeff.terms.values())
    for s in (None, spec):
        int_ctx, ring_ctx = FibreContext(params, fibre, s), FibreContext(params, fibre, s)
        verdicts = [int_ctx.generator_vanishes(g) for g in ints]
        assert verdicts == [ring_ctx.generator_vanishes(g) for g in rings], s
        assert verdicts == [True, True, False, False, fibre == "special"], s
    r, lam = (p, 0) if fibre == "special" else oracle_field(p)
    for a, b in zip(ints, rings):
        row_a = [residue(c.specialize(spec).constant_value(), r, lam) for c, _ in a.terms]
        assert row_a == [residue(c.specialize(spec).constant_value(), r, lam) for c, _ in b.terms]
    for family in (gens, gens[:-1] + [corrupt_generator(trinomial)]):
        assert kernel_oracle(params, fibre, spec, gens=as_ints(family)) == kernel_oracle(
            params, fibre, spec, gens=in_ring(family)
        )


@pytest.mark.parametrize("triple", [(5, 2, 1), (7, 1, 3), (3, 2, 1), (11, 1, 1)])
def test_special_coefficients_are_read_mod_p(triple):
    # the special fibre computes over Z and reads values mod p: a special
    # generator with one coefficient shifted by p is still a member, with one
    # bumped by 1 it is not, on the symbolic and the specialized context alike
    params = validate_params(*triple)
    p = params.p
    gens = fibre_generators(params, "special")
    for i in {len(gens) - 1, len(gens) // 2}:
        for spec in (None, default_specialization(params)):
            shifted, bumped = corrupt_generator(gens[i], bump=p), corrupt_generator(gens[i], bump=1)
            assert shifted.terms != gens[i].terms
            for ctx in (FibreContext(params, "special", spec), fibre_context(params, "special", spec)):
                assert ctx.generator_vanishes(gens[i]), (i, spec)
                assert ctx.generator_vanishes(shifted), (i, spec)
                assert not ctx.generator_vanishes(bumped), (i, spec)


class _PerTermContext(FibreContext):
    """A specialized context that specializes every coefficient term by term
    and sums (rho, T) from the factors after an index-set check: no
    coefficient table and no multidegree table."""

    def __init__(self, params, fibre, specialization):
        super().__init__(params, fibre, specialization)
        self._basis = frozenset(build_index_set(params))

    def specialized_value(self, poly):
        return _termwise_value(poly, self.specialization)

    def multidegree_of(self, m):
        if len(m) != 2:
            raise WrongDegree(f"degree {len(m)}")
        if not all(f in self._basis for f in m):
            raise VariableOutsideIndexSet(f"{m}")
        return sum(f.N for f in m), sum(f.mu for f in m)


def _reference_oracle(params, fibre, spec, gens, matrix_rank, kernel_basis):
    """The kernel oracle built one class and one term at a time: every class
    row takes the residue of each entry of its own shifted image (the
    X-coordinates of each weight image computed once), every
    generator term is specialized on its own, and the exact check runs on a
    `_PerTermContext`.  The classes are read in the default order, whatever
    tie-break built `gens`.  Returns (report or None when the kernel
    dimension is off, the rows of every rank computation in order)."""
    ctx = _PerTermContext(params, fibre, spec)
    classes = monomial_classes(params, "default")
    r, lam = (params.p, 0) if fibre == "special" else oracle_field(params.p)
    col_ids, raw_rows, weight_coords = set(), [], {}
    for rho, T in classes:
        if T not in weight_coords:
            weight_coords[T] = ctx.x_coordinates(ctx.weight_image(T))
        entries = {}
        for i, c in enumerate(weight_coords[T]):
            for e, val in c.terms.items():
                # the special fibre's exact values are its residues mod p
                if fibre == "special" and not residue(val, r, lam):
                    continue
                entries[i, e[0] + rho] = residue(val, r, lam)
                col_ids.add((i, e[0] + rho))
        raw_rows.append(entries)
    # the oracle's orders: columns by descending x-degree, then slot, the
    # class rows eliminated sparsest first (a stable sort, ties in class
    # order), and each class's monomials with the minimum last
    col_index = {key: idx for idx, key in enumerate(sorted(col_ids, key=lambda key: (-key[1], key[0])))}
    class_rows = [{col_index[k]: v for k, v in entries.items() if v} for entries in raw_rows]
    sparsest_first = sorted(class_rows, key=len)
    rank_inputs = [sparsest_first]
    monos = [m for group in classes.values() for m in reversed(group)]
    rank = matrix_rank(sparsest_first, r)
    g = params.genus
    expected = g * (g + 1) // 2 - 3 * (g - 1)
    if len(monos) - rank != expected:
        return None, rank_inputs
    mono_index = {m: idx for idx, m in enumerate(monos)}
    in_kernel, gen_rows = True, []
    for gen in gens:
        in_kernel = ctx.generator_vanishes(gen) and in_kernel
        row = {}
        for coeff, mono in gen.terms:
            val = residue(_termwise_value(coeff, spec), r, lam)
            if val:
                row[mono_index[mono]] = val
        if row:
            gen_rows.append(row)
    rank_inputs.append(gen_rows)
    rank_g = matrix_rank(gen_rows, r)
    in_span = rank_g == expected
    if in_span and not in_kernel:
        rows = [row for row, group in zip(class_rows, classes.values()) for _ in group]
        union = gen_rows + kernel_basis(rows, len(col_index), r)
        rank_inputs.append(union)
        in_span = matrix_rank(union, r) == rank_g
    report = OracleReport(
        fibre=fibre,
        model_fibre=fibre,
        specialization=dict(spec),
        monomial_count=len(monos),
        column_count=len(col_index),
        rank=rank,
        kernel_dim=expected,
        expected_kernel_dim=expected,
        generators_in_kernel=in_kernel,
        kernel_in_span=in_span,
    )
    return report, rank_inputs


# Every triple with p <= 7 and q <= 3, on all three fibres up to genus 24.
# Above it, one elimination of the relative fibre's dense rows takes seconds
# (its failing report's kernel basis up to 20 s), so the nine triples of genus
# 26..57 run the default case on the two fibres that `certify` checks.
_REFERENCE_GENUS = 24
_REFERENCE_CASES = [
    (triple, fibre)
    for triple in [(p, q, ell) for p in (3, 5, 7) for q in (1, 2, 3) for ell in range(1, p)]
    for fibre in ("generic", "special", "relative")
    if fibre != "relative" or validate_params(*triple).genus <= _REFERENCE_GENUS
]


@pytest.mark.parametrize(
    "triple, fibre", _REFERENCE_CASES, ids=["%d,%d,%d-%s" % (*t, fb) for t, fb in _REFERENCE_CASES]
)
def test_oracle_matches_the_per_class_per_term_reference(monkeypatch, triple, fibre):
    # one residue row per weight and one specialized value per distinct
    # coefficient give the report and both rank inputs of the per-class,
    # per-term build: default and another specialization, the alt family
    # (its columns in the default class order, the oracle's), the emitted
    # family with its last generator corrupted, and off the special fibre
    # every symbol at r, where nonzero exact entries have residue 0 but keep
    # their columns
    params = validate_params(*triple)
    seen, done = [], {}

    def once(fn):
        # ranks and kernel bases are functions of their rows: each distinct
        # input is eliminated once, for the reference and the oracle alike
        def call(rows, *args):
            key = (fn, args, tuple(tuple(sorted(row.items())) for row in rows))
            if key not in done:
                done[key] = fn(rows, *args)
            return done[key]

        return call

    rank_once, basis_once = once(matrix_rank), once(kernel_basis)

    def recorded(rows, r):
        seen.append(list(rows))
        return rank_once(rows, r)

    monkeypatch.setattr(verify, "matrix_rank", recorded)
    default = default_specialization(params)
    other = {s: 2 * v + 3 for s, v in default.items()}
    emitted = fibre_generators(params, fibre)
    cases = [(default, emitted)]
    if params.genus <= _REFERENCE_GENUS:
        cases.append((other, emitted))
        cases.append((default, fibre_generators(params, fibre, tie_break="alt")))
        if fibre != "special":
            cases.append((dict.fromkeys(default, oracle_field(params.p)[0]), emitted))
        if emitted:
            cases.append((default, emitted[:-1] + [corrupt_generator(emitted[-1])]))
    r = params.p if fibre == "special" else oracle_field(params.p)[0]
    for spec, gens in cases:
        want, want_inputs = _reference_oracle(params, fibre, spec, gens, rank_once, basis_once)
        seen.clear()
        if want is None:
            with pytest.raises(DegenerateSpecialization):
                kernel_oracle(params, fibre, spec, gens=gens)
        else:
            assert kernel_oracle(params, fibre, spec, gens=gens) == want
        # the oracle eliminates the class rows and the generator rows, and
        # no union: a failing report's span is decided by phi(G) * phi(M),
        # which the reference's per-monomial kernel basis checks
        assert seen == want_inputs[:2], spec
        if want is None or gens is not emitted:
            continue  # degenerate, the alt family or the corrupted one
        # gens=None reads the binomials from the class table: the same report
        # from the class rows and the generator rows summed per class, the
        # binomials' sums being zero
        class_of = [c for c, group in enumerate(monomial_classes(params, "default").values()) for _ in group]
        summed = []
        for row in want_inputs[1]:
            sums = {}
            for idx, v in row.items():
                sums[class_of[idx]] = (sums.get(class_of[idx], 0) + v) % r
            if any(sums.values()):
                summed.append({c: v for c, v in sums.items() if v})
        seen.clear()
        assert kernel_oracle(params, fibre, spec) == want
        assert seen == [want_inputs[0], summed], spec


_SMALL_TRIPLES = [(p, q, ell) for p in (3, 5) for q in (1, 2) for ell in range(1, p)]


@pytest.mark.parametrize("triple", _SMALL_TRIPLES, ids=["%d,%d,%d" % t for t in _SMALL_TRIPLES])
def test_oracle_reports_do_not_depend_on_the_tie_break(triple):
    # the oracle takes no tie-break: on both oracle fibres the fibre's own
    # family, the default family and the alt family as explicit gens give
    # one report, the per-class, per-term reference's for either family, or
    # all raise where the reference's kernel dimension is off
    params = validate_params(*triple)
    spec = default_specialization(params)
    for fibre in ("generic", "special"):
        families = [None] + [fibre_generators(params, fibre, tie_break=tb) for tb in ("default", "alt")]
        want = _reference_oracle(params, fibre, spec, families[1], matrix_rank, kernel_basis)[0]
        assert _reference_oracle(params, fibre, spec, families[2], matrix_rank, kernel_basis)[0] == want, fibre
        for gens in families:
            if want is None:
                with pytest.raises(DegenerateSpecialization):
                    kernel_oracle(params, fibre, spec, gens=gens)
            else:
                assert kernel_oracle(params, fibre, spec, gens=gens) == want, fibre


def test_a_specialized_context_specializes_each_polynomial_once(monkeypatch):
    # every value certify --oracle reads on a specialized context, of a
    # relation part, an a(x)-power table or a generator coefficient, comes
    # from the context's table: no context specializes one polynomial twice
    calls = []
    real = SparsePoly.specialize
    monkeypatch.setattr(SparsePoly, "specialize", lambda self, values: calls.append((values, self)) or real(self, values))
    assert certify(validate_params(5, 2, 1), oracle=True).overall == "PASS"
    per_context: dict = {}
    for values, poly in calls:
        per_context[id(values), poly] = per_context.get((id(values), poly), 0) + 1
    assert calls and max(per_context.values()) == 1


@pytest.mark.parametrize("fibre", ["generic", "special", "relative"])
@pytest.mark.parametrize("damage", ["intact", "corrupted"])
def test_oracle_eliminates_twice_and_builds_no_kernel_basis(monkeypatch, fibre, damage):
    # rank of the class rows, rank of the generator rows, and nothing more:
    # a failing report whose generator rank equals the kernel dimension
    # decides its span by phi(G) * phi(M), not by a kernel basis
    params = validate_params(5, 2, 1)
    gens = fibre_generators(params, fibre)
    if damage == "corrupted":
        gens = gens[:-1] + [corrupt_generator(gens[-1])]
    ranks = []

    def recorded(rows, r):
        ranks.append(matrix_rank(rows, r))
        return ranks[-1]

    def no_basis(*args):
        raise AssertionError("kernel_basis called")

    monkeypatch.setattr(verify, "matrix_rank", recorded)
    monkeypatch.setattr(verify, "kernel_basis", no_basis)
    rep = kernel_oracle(params, fibre, gens=gens)
    assert len(ranks) == 2 and ranks[1] == rep.kernel_dim
    assert rep.passes == rep.generators_in_kernel == rep.kernel_in_span == (damage == "intact")


def _oracle_dict(fibre, spec, monos, cols, rank, in_kernel, in_span):
    kernel_dim = monos - rank
    return {
        "fibre": fibre,
        "model_fibre": fibre,
        "specialization": spec,
        "monomial_count": monos,
        "column_count": cols,
        "rank": rank,
        "kernel_dim": kernel_dim,
        "expected_kernel_dim": kernel_dim,
        "generators_in_kernel": in_kernel,
        "kernel_in_span": in_span,
        "span_matches_kernel": in_kernel and in_span,
        "passes": in_kernel and in_span,
    }


SPEC_2 = {"x1": 1, "x2": 2}
SPEC_4 = {"x1": 1, "x2": 2, "x3": 3, "x4": 4}


@pytest.mark.parametrize(
    "fibre, make_family, cols", [("generic", generic_generators, 115), ("special", special_generators, 105)]
)
@pytest.mark.parametrize("damage", ["corrupted", "dropped"])
def test_oracle_failing_reports_pinned(fibre, make_family, cols, damage):
    # a failing report goes through the kernel-basis path; its bytes are pinned
    params = validate_params(5, 2, 1)
    gens = binomial_generators(params) + make_family(params)
    gens = gens[:-1] + ([corrupt_generator(gens[-1])] if damage == "corrupted" else [])
    rep = kernel_oracle(params, fibre, gens=gens)
    assert rep.to_dict() == _oracle_dict(fibre, SPEC_2, 136, cols, 45, damage == "dropped", False)


@pytest.mark.parametrize(
    "triple, fibre, spec, cols",
    [
        ((7, 2, 1), "generic", SPEC_2, 231),
        ((7, 2, 1), "special", SPEC_2, 231),
        ((5, 4, 1), "generic", SPEC_4, 245),
        ((5, 4, 1), "special", SPEC_4, 225),
    ],
)
def test_oracle_genus36_reports_pinned(triple, fibre, spec, cols):
    rep = kernel_oracle(validate_params(*triple), fibre)
    assert rep.to_dict() == _oracle_dict(fibre, spec, 666, cols, 105, True, True)


def test_oracle_bad_specialization():
    params = validate_params(5, 2, 1)
    with pytest.raises(BadSpecialization):
        kernel_oracle(params, "special", {"x1": 1})


def test_certify_rejects_bool_specialization():
    # bool is a subclass of int; it is refused at the boundary, not deep in the oracle
    params = validate_params(5, 2, 1)
    spec = {s: True for s in deformation_symbols(params)}
    with pytest.raises(BadSpecialization):
        certify(params, spec, oracle=True)


def test_binomials_built_once_per_triple(monkeypatch):
    # certify reads the default binomials from the class table: with and
    # without the oracle, intact or with a control that corrupts a relative
    # generator, it never walks the Minkowski sum to build them as generators
    import canideal.generators as generators

    params = validate_params(5, 2, 1)
    assert relative_generators(params)
    builds = []
    real = generators.minkowski_sum
    monkeypatch.setattr(generators, "minkowski_sum", lambda *args: builds.append(args) or real(*args))
    for oracle in (False, True):
        assert certify(params, oracle=oracle).overall == "PASS"
        cert = certify(params, oracle=oracle, corrupt_one=True)
        assert cert.overall == "FAIL" and not cert.verdicts["membership_relative"]
    assert builds == []
    # the builder the generators command reads walks it once per triple, and
    # callers get fresh lists: a caller replacing an entry leaves the memo intact
    binomial_generators(params)[0] = corrupt_generator(binomial_generators(params)[0])
    assert all(check_membership(params, "relative", g) for g in binomial_generators(params))
    assert len(builds) == 1


def test_oracle_raises_where_its_family_leaves_the_minkowski_sum():
    # the special tables of (7,2,1) whose layout leaves the Minkowski sum at
    # an anchor and whose class rows are not degenerate: the oracle without
    # gens raises PointNotInMinkowskiSum past its rank check, as building
    # the family does
    from test_fibrealg import _perturbed_tables

    raised = 0
    for table in _perturbed_tables(validate_params(7, 2, 1), "special"):
        params = validate_params(7, 2, 1)
        params.memo[(trinomial_slots.__wrapped__, "special")] = table
        try:
            special_generators(params)
            continue
        except PointNotInMinkowskiSum:
            pass
        try:
            kernel_oracle(params, "special", gens=[])
        except DegenerateSpecialization:
            continue
        with pytest.raises(PointNotInMinkowskiSum):
            kernel_oracle(params, "special")
        raised += 1
    assert raised == 4


def test_certify_builds_no_generator_object(monkeypatch):
    # certify reads every family as a layout at its anchors: with and
    # without the oracle, intact or with the control, which bumps the
    # relative layout at (5,2,1) and (7,2,1) and the first binomial's class
    # sum at (5,1,2) and (3,4,1), it builds no GeneratorPoly
    import canideal.generators as generators

    built, families = [], []
    real_init, real_family = GeneratorPoly.__init__, generators._trinomial_family
    monkeypatch.setattr(GeneratorPoly, "__init__", lambda self, *args, **kw: built.append(kw) or real_init(self, *args, **kw))

    def family(params, fibre, anchors, tie_break):
        families.append((fibre, list(anchors)))
        return real_family(params, fibre, anchors, tie_break)

    monkeypatch.setattr(generators, "_trinomial_family", family)
    for triple in [(5, 2, 1), (7, 2, 1), (5, 3, 2), (7, 1, 5), (3, 4, 1)]:
        for oracle in (False, True):
            for tie_break in ("default", "alt"):
                cert = certify(validate_params(*triple), oracle=oracle, tie_break=tie_break)
                assert cert.verdicts["membership_relative"] and cert.verdicts["reduction_compatibility"]
    for triple in [(5, 2, 1), (7, 2, 1), (5, 1, 2), (3, 4, 1)]:
        for oracle in (False, True):
            cert = certify(validate_params(*triple), oracle=oracle, corrupt_one=True)
            assert cert.overall == "FAIL" and cert.counts["corrupted_generator_index"] == 0
    assert built == [] and families == []


@pytest.mark.parametrize("triple", [(7, 2, 1), (5, 3, 2)])
def test_passing_membership_unpacks_nothing(monkeypatch, triple):
    # certify without the oracle decides membership by a zero test on the
    # packed reductions: no packed value is unpacked, as every coordinate and
    # every exponent of more than one variable is read through
    # fibrealg._digits; the corrupted control runs past
    # round 1 and unpacks
    import canideal.fibrealg as fibrealg

    calls = []
    real = fibrealg._digits
    monkeypatch.setattr(fibrealg, "_digits", lambda *args: calls.append(args) or real(*args))
    assert certify(validate_params(*triple)).overall == "PASS"
    assert calls == []
    cert = certify(validate_params(*triple), corrupt_one=True)
    assert cert.overall == "FAIL" and not cert.verdicts["membership_relative"]
    assert calls


def test_membership_rejects_another_cyclotomic_ring():
    # a lead coefficient from Z[zeta_7] on the p = 5 relative fibre, where
    # it would read as zero once truncated to the ring's 4 coordinates
    params = validate_params(5, 2, 1)
    gen = relative_generators(params)[0]
    (coeff, mono), *rest = gen.terms
    alien = SparsePoly.constant(coeff.vars, CycloElement(7, (1, 0, 0, 0, 0, 9)))
    bad = dataclasses.replace(gen, terms=((alien, mono), *rest))
    with pytest.raises(ValueError, match="mixed cyclotomic rings"):
        check_membership(params, "relative", bad)


def test_relation_groups_are_read_never_split(monkeypatch):
    # each relation slot holds the slot table's own groups, one weight per
    # distinct weight of the table, negated, with the parts (dr, d) of its
    # groups, and on a symbolic context their very int tables: no
    # coefficient is split or joined again.  certify --oracle takes the
    # rows gamma * lam^j of each weight of a slot once per relation built,
    # from the relation's memo
    import canideal.fibrealg as fibrealg

    params = validate_params(7, 2, 1)
    relations, rows = [], []
    real_relation, real_rows = fibrealg.FibreRelation, fibrealg._lam_rows
    monkeypatch.setattr(fibrealg, "FibreRelation", lambda **kw: relations.append(real_relation(**kw)) or relations[-1])
    monkeypatch.setattr(fibrealg, "_lam_rows", lambda coeffs, count: rows.append(coeffs) or real_rows(coeffs, count))
    assert certify(params, oracle=True).overall == "PASS"
    assert {rel.fibre for rel in relations} == {"generic", "special", "relative"}
    assert any(rel.vars == ("x",) for rel in relations) and any(rel.vars != ("x",) for rel in relations)
    assert len(rows) == sum(len(slot) for rel in relations for slot in rel.rhs)
    for rel in relations:
        slots = trinomial_slots(params, rel.fibre)[1:]
        weights = [-g for _, _, c in slots for g, _ in c]
        tables = [d for _, _, c in slots for _, d in c]
        for slot in rel.rhs:
            assert all(w in weights for w, _ in slot) and len({w for w, _ in slot}) == len(slot), rel.fibre
            if rel.vars != ("x",):
                assert all(any(d is t for t in tables) for _, parts in slot for _, d in parts), rel.fibre


def test_oracle_degenerate_guard(monkeypatch):
    # a rank of M off by one puts the kernel dimension off by one
    params = validate_params(5, 2, 1)
    real = verify.matrix_rank
    for shift in (-1, 1):
        monkeypatch.setattr(verify, "matrix_rank", lambda rows, r, s=shift: real(rows, r) + s)
        with pytest.raises(DegenerateSpecialization):
            kernel_oracle(params, "special")


def test_oracle_retry(monkeypatch):
    params = validate_params(5, 2, 1)
    calls = []
    real = verify.kernel_oracle

    def flaky(p, fibre, spec):
        calls.append(dict(spec))
        if len(calls) == 1:
            raise DegenerateSpecialization("forced")
        return real(p, fibre, spec)

    monkeypatch.setattr(verify, "kernel_oracle", flaky)
    rng = random.Random(0)
    report, tried = kernel_oracle_with_retry(params, "special", None, rng)
    assert report is not None and report.passes
    assert len(tried) == 2
    assert tried[0] == {"x1": 1, "x2": 2}


class _CountingRandom(random.Random):
    """A random source that counts its draws and, if asked, always draws 1."""

    def __init__(self, seed, constant=False):
        super().__init__(seed)
        self.draws = 0
        self.constant = constant

    def randint(self, a, b):
        self.draws += 1
        return 1 if self.constant else super().randint(a, b)


@pytest.mark.parametrize(
    "triple, spec, constant", [((7, 1, 5), None, False), ((5, 2, 1), {"x1": 1, "x2": 1}, True)]
)
def test_oracle_retry_runs_each_specialization_once(monkeypatch, triple, spec, constant):
    # a repeated specialization is recorded, not rerun, and the draws are
    # made as before: no symbols draw nothing, and every attempt is {}
    params = validate_params(*triple)
    calls = []

    def degenerate(p, fibre, spec):
        calls.append(dict(spec))
        raise DegenerateSpecialization("forced")

    monkeypatch.setattr(verify, "kernel_oracle", degenerate)
    rng = _CountingRandom(0, constant)
    report, tried = kernel_oracle_with_retry(params, "special", spec, rng)
    first = spec if spec is not None else default_specialization(params)
    assert report is None and tried == [first] * verify.ORACLE_ATTEMPTS
    assert calls == [first]
    assert rng.draws == verify.ORACLE_ATTEMPTS * len(deformation_symbols(params))


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


def test_certify_corrupt_fails():
    cert = certify(validate_params(5, 2, 1), corrupt_one=True)
    assert cert.overall == "FAIL"
    assert not cert.verdicts["membership_relative"]
    assert not cert.verdicts["reduction_compatibility"]


def _certificate_from_generators(params, tie_break, oracle=True, seed=0, corrupt_one=False):
    """The counts, verdicts, criteria, oracle reports and oracle attempts of
    `certify(params, oracle=oracle, tie_break=tie_break, seed=seed,
    corrupt_one=corrupt_one)` rebuilt from `GeneratorPoly` objects on the
    per-generator path: the binomials and the relative family built as
    objects, one membership check per generator, every relative generator
    lam-reduced and compared with the special family on its anchors (that
    family in its place on a mismatch), each criterion over the objects'
    leads, and each oracle on the emitted family as explicit gens.  The
    oracle draws its specializations as `kernel_oracle_with_retry` does; a
    family that raises when built raises past the rank check only, as in
    the oracle without gens.  The control corrupts the first relative
    generator, or with none the first binomial (`corrupt_generator`), and
    the oracles still read the intact family."""
    g1 = binomial_generators(params, tie_break=tie_break)
    rel = relative_generators(params, tie_break=tie_break)
    if corrupt_one:
        if rel:
            rel[0] = corrupt_generator(rel[0])
        elif g1:
            g1[0] = corrupt_generator(g1[0])
        else:
            raise CanidealError("nothing to corrupt")
    memberships = [check_membership(params, "relative", g) for g in g1 + rel]
    try:
        reduced, reduction_ok = reduce_relative_to_special(params, rel), True
    except ReductionMismatch:
        reduced, reduction_ok = special_generators(params, anchors=anchor_set(params, 0), tie_break=tie_break), False
    special = dimension_criterion(params, _leads(g1 + reduced), "special-fibre (lam-reduced generators)")
    relative = dimension_criterion(params, _leads(g1 + rel), "generic-fibre view of the relative generators")
    rng = random.Random(seed)
    oracles, attempts = {}, {}
    for fibre in ("generic", "special") if oracle else ():
        oracles[fibre] = {"passes": False, "degenerate": True}
        tried = attempts[f"attempts_{fibre}"] = []
        spec = default_specialization(params)
        for _ in range(verify.ORACLE_ATTEMPTS):
            fresh = spec not in tried
            tried.append(dict(spec))
            if fresh:
                try:
                    try:
                        gens = fibre_generators(params, fibre, tie_break=tie_break)
                    except CanidealError:
                        kernel_oracle(params, fibre, spec, gens=[])
                        raise
                    oracles[fibre] = kernel_oracle(params, fibre, spec, gens=gens).to_dict()
                    break
                except DegenerateSpecialization:
                    pass
            spec = {s: rng.randint(1, max(9, params.p)) for s in deformation_symbols(params)}
    verdicts = {
        "membership_binomials": all(memberships[: len(g1)]),
        "membership_relative": all(memberships[len(g1) :]),
        "reduction_compatibility": reduction_ok,
        "criterion_special": special.passes,
        "criterion_relative": relative.passes,
        **{f"oracle_{fibre}": report["passes"] for fibre, report in oracles.items()},
    }
    counts = {
        "binomial_generators": len(g1),
        "relative_generators": len(rel),
        "standard_monomials_special": special.standard_monomial_count,
        "standard_monomials_relative": relative.standard_monomial_count,
    }
    if corrupt_one:
        counts["corrupted_generator_index"] = 0
    criteria = {"special": special.to_dict(), "relative": {**relative.to_dict(), "memberships": memberships}}
    return counts, verdicts, criteria, oracles, attempts


def _matches_the_generator_objects(params, tie_break, oracle=True, corrupt_one=False):
    """certify against `_certificate_from_generators`: the same pieces, or
    the same exception type raised by both."""
    try:
        cert = certify(params, oracle=oracle, tie_break=tie_break, corrupt_one=corrupt_one)
    except Exception as exc:
        with pytest.raises(type(exc)):
            _certificate_from_generators(params, tie_break, oracle, corrupt_one=corrupt_one)
        return type(exc)
    counts, verdicts, criteria, oracles, attempts = _certificate_from_generators(params, tie_break, oracle, corrupt_one=corrupt_one)
    assert {key: cert.counts[key] for key in counts} == counts
    assert {key: cert.verdicts[key] for key in verdicts} == verdicts
    assert cert.criteria == criteria
    assert cert.oracles == oracles
    assert {key: cert.specializations[key] for key in attempts} == attempts
    return cert.overall


@pytest.mark.parametrize("triple", _EQUIVALENCE_TRIPLES, ids=["%d,%d,%d" % t for t in _EQUIVALENCE_TRIPLES])
def test_certify_binomial_block_matches_the_generator_objects(triple):
    # certify reads the default binomials from the class table and the
    # relative, generic and special families as their layouts at their
    # anchors; every valid triple with p <= 7 and q <= 3, under both
    # tie-breaks, gives the counts, verdicts, criteria (memberships
    # included) and oracle reports of the families built as generators and
    # checked one by one.  So does the control, a bumped layout or the
    # first binomial's class sum, against the corrupted generator object
    # checked by check_membership and lam-reduced by
    # reduce_relative_to_special, with and without the oracle; a triple
    # with nothing to corrupt raises on both paths
    params = validate_params(*triple)
    for tie_break in ("default", "alt"):
        assert isinstance(_matches_the_generator_objects(params, tie_break), str)
        for oracle in (False, True):
            outcome = _matches_the_generator_objects(params, tie_break, oracle, corrupt_one=True)
            assert outcome == "FAIL" or outcome is CanidealError


@pytest.mark.parametrize("triple", [(3, 2, 1), (5, 2, 1)])
@pytest.mark.parametrize("fibre", ["relative", "special"])
def test_certify_on_a_perturbed_table_matches_the_generator_objects(triple, fibre):
    # every single-slot perturbation of the relative or the special table:
    # the layout path and the objects give the same certificate, or raise
    # the same exception type.  The oracles read the generic and special
    # tables only, so only the special tables run them; the triple's other
    # derived data is kept, and what the perturbed table feeds is dropped
    from test_fibrealg import _perturbed_tables

    params = validate_params(*triple)
    outcomes = set()
    for table in _perturbed_tables(params, fibre):
        params.memo[(trinomial_slots.__wrapped__, fibre)] = table
        for key in [key for key in params.memo if key[:2] in ((FibreContext, fibre), (_relation_rhs.__wrapped__, fibre))]:
            del params.memo[key]
        outcome = _matches_the_generator_objects(params, "default", oracle=fibre == "special")
        outcomes.add(outcome if isinstance(outcome, str) else outcome.__name__)
    assert outcomes == ({"FAIL", "PointNotInMinkowskiSum"} if triple == (5, 2, 1) else {"FAIL"})


@pytest.mark.parametrize("triple", [(5, 1, 2), (3, 4, 1)])
@pytest.mark.parametrize("tie_break", ["default", "alt"])
def test_corrupt_one_without_a_relative_generator_fails_on_the_first_binomial(triple, tie_break):
    # with no relative generator the control corrupts the first binomial,
    # m - min(class) with 1 added to its last coefficient, which leaves m's
    # class sum {class: 1}: only its membership is false, and the oracles,
    # which read the intact family, pass
    params = validate_params(*triple)
    assert not relative_generators(params, tie_break=tie_break)
    cert = certify(params, oracle=True, tie_break=tie_break, corrupt_one=True)
    memberships = cert.criteria["relative"]["memberships"]
    assert cert.overall == "FAIL" and cert.counts["corrupted_generator_index"] == 0
    assert memberships == [False] + [True] * (len(memberships) - 1)
    assert [name for name, ok in cert.verdicts.items() if not ok] == ["membership_binomials"]


@pytest.mark.parametrize("triple", [(3, 2, 2), (3, 1, 1), (5, 1, 4), (3, 2, 1)])
def test_unknown_tie_break_is_rejected(triple):
    # (3,1,1) and (5,1,4) have no class of two monomials and (5,1,4) has
    # genus 0, so nothing would be compared without the entry checks
    params = validate_params(*triple)
    with pytest.raises(UnknownTieBreak):
        certify(params, tie_break="bogus")
    with pytest.raises(UnknownTieBreak):
        certify(params, oracle=True, tie_break="bogus")
    for build in (binomial_generators, generic_generators, special_generators, relative_generators):
        with pytest.raises(UnknownTieBreak):
            build(params, tie_break="bogus")


def test_derived_data_is_freed_with_its_params():
    params = validate_params(3, 2, 1)
    check_counts(params)
    assert certify(params, oracle=True).overall == "PASS-WITH-CAVEAT"
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
    # check_counts and relation_consistency are timed as layers of their own
    timings = cert.to_dict(include_timings=True)["timings"]
    assert {"counting", "relations"} <= set(timings)


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


def test_standard_monomials_equal_minkowski_minus_anchors(pairwise_sum):
    # the count is an exact identity, not merely the <= of the criterion
    for triple in [(5, 2, 1), (5, 2, 3), (7, 1, 1), (5, 3, 2)]:
        params = validate_params(*triple)
        gens = binomial_generators(params) + generic_generators(params)
        rep = dimension_criterion(params, _leads(gens))
        mink = len(pairwise_sum(build_index_set(params)))
        assert rep.standard_monomial_count == mink - len(anchor_set(params, 0))
