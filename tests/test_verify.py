import gc
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
    DegenerateSpecialization,
    NonHomogeneous,
    UnknownTieBreak,
    VariableOutsideIndexSet,
    WrongFibre,
)
from canideal.exactalg import CycloElement, SparsePoly, cyclotomic_min_poly
from canideal.family import deformation_symbols, validate_params
from canideal.generators import (
    GeneratorPoly,
    binomial_generators,
    corrupt_generator,
    generic_generators,
    relative_generators,
    special_generators,
    trinomial_slots,
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
@given(sparse_matrices())
def test_kernel_random_consistency(case):
    # rank against sympy's GF(r) rank, echelon shape, and the kernel basis
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


def _per_term_membership(params, fibre, gen):
    """The uncollapsed sum: every term's image times its coefficient."""
    ctx = verify.fibre_context(params, fibre)
    total = None
    for coeff, mono in gen.terms:
        c = ctx.embed_symbol_poly(coeff)
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


@pytest.mark.parametrize("triple", [(5, 2, 1), (5, 2, 3), (7, 1, 3)])
def test_class_memo_matches_unmemoised_verdicts(triple):
    # the memoised verdict of every shift class equals a direct evaluation
    # of the unshifted sum, for every generator and its corrupted copy
    params = validate_params(*triple)
    checks = 0
    for fibre, builder in [
        ("generic", generic_generators),
        ("special", special_generators),
        ("relative", relative_generators),
        ("relative", binomial_generators),
    ]:
        ctx = verify.fibre_context(params, fibre)
        for gen in builder(params):
            for g in (gen, corrupt_generator(gen)):
                sums = _multidegree_sums(ctx, g)
                assert check_membership(params, fibre, g) == ctx._sum_vanishes(sums.items())
                checks += bool(sums)
    classes = sum(len(verify.fibre_context(params, fb)._verdicts) for fb in ("generic", "special", "relative"))
    assert 0 < classes < checks  # some verdicts were served by the memo


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
    # (a + 1) - a - 1 = 0 in V-slot 0 and x*a - x*a = 0 in V-slot 1, spread
    # over three weights: only the sum over all three weights vanishes (over
    # Z[lam] on packed ints, over F_p by the plain sum).  The weight images
    # are planted in the normal-form chain at their start exponents; a fresh
    # triple keeps them out of every other test.
    params = validate_params(5, 1, 1)
    ctx = verify.fibre_context(params, fibre)
    a = SparsePoly(ctx.vars, {(1, 0): ctx.from_int(1), (0, 1): ctx.from_int(1)})  # x + x1
    # three degree-2 monomials of distinct weights T, all with rho = 0
    pts = build_index_set(params)
    by_weight = {}
    for i, u in enumerate(pts):
        for v in pts[i:]:
            m = Monomial((u, v))
            rho, T = ctx.multidegree_of(m)
            if rho == 0:
                by_weight.setdefault(T, m)
    (t1, m1), (t2, m2), (t3, m3) = list(by_weight.items())[:3]
    zero = SparsePoly.zero(ctx.vars)
    one = SparsePoly.constant(ctx.vars, ctx.from_int(1))
    xa = a.mul_var_power("x", 1)

    def start(T):
        return 3 * ctx.p - T if fibre == "generic" else 3 * ctx.p - 2 - T

    ctx.power_normal_form(max(start(t) for t in (t1, t2, t3)))
    for T, s0, s1 in ((t1, a + one, xa), (t2, -a, zero), (t3, -one, -xa)):
        ctx._chain[start(T)] = (s0, s1) + (zero,) * (ctx.p - 2)
    coeff = SparsePoly.constant(deformation_symbols(params), 1)
    gen = GeneratorPoly(fibre, "test", None, ((coeff, m1), (coeff, m2), (coeff, m3)), "default")
    assert check_membership(params, fibre, gen)
    for k in range(3):
        dropped = GeneratorPoly(fibre, "test", None, tuple(t for i, t in enumerate(gen.terms) if i != k), "default")
        assert not check_membership(params, fibre, dropped)
    bumped = GeneratorPoly(fibre, "test", None, ((coeff, m1), (coeff, m2), (coeff + coeff, m3)), "default")
    assert not check_membership(params, fibre, bumped)


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


def test_criterion_reads_an_iterator_once():
    params = validate_params(5, 2, 1)
    gens = binomial_generators(params) + relative_generators(params)
    assert dimension_criterion(params, iter(gens)) == dimension_criterion(params, gens)
    assert dimension_criterion(params, iter(gens)).generator_count == len(gens)


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
    # certify --oracle asks for the binomials three times (certify and both
    # oracle fibres); the build, one walk over the Minkowski sum, runs once
    import canideal.generators as generators

    params = validate_params(5, 2, 1)
    builds = []
    real = generators.minkowski_sum
    monkeypatch.setattr(generators, "minkowski_sum", lambda *args: builds.append(args) or real(*args))
    assert certify(params, oracle=True).overall == "PASS"
    assert len(builds) == 1
    # callers get fresh lists: neither --corrupt-one nor a caller replacing
    # an entry reaches the memo
    assert certify(params, corrupt_one=True).overall == "FAIL"
    binomial_generators(params)[0] = corrupt_generator(binomial_generators(params)[0])
    assert certify(params).overall == "PASS"
    assert len(builds) == 1


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
