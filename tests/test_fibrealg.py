import random

import pytest

from canideal.errors import BadSpecialization, VariableOutsideIndexSet, WrongDegree
from canideal.exactalg import CycloElement, PrimeFieldElement, SparsePoly
from canideal.family import a_polynomial, deformation_symbols, validate_params
from canideal.fibrealg import (
    FibreContext,
    fibre_context,
    reduce_normal_form,
    relation_consistency,
)
from canideal.generators import relative_lambda_coefficient
from canideal.indexsets import minimal_monomial, minkowski_sum
from canideal.termorder import IndexPair, Monomial
from canideal.verify import default_specialization


def _a_power(params, ctx, k):
    """a(x)^k over the context's ring, built from a(x) itself."""
    a = a_polynomial(params).as_poly(("x",) + deformation_symbols(params), ctx.from_int)
    if ctx.specialization is not None:
        a = a.specialize({s: ctx.from_int(v) for s, v in ctx.specialization.items()})
    return a**k


def _termwise_product(f, g):
    """f * g by a double loop over the coefficient ring's own product."""
    out = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return SparsePoly(f.vars, out)


def test_generic_relation_rhs():
    params = validate_params(5, 2, 1)
    ctx = fibre_context(params, "generic")
    # V^p reduces to lam^p * x^ell + a(x)^p, a constant in the fibre variable
    one = ctx.constant(ctx.from_int(1))
    nf = reduce_normal_form({5: one}, ctx.relation)
    lam5 = CycloElement.lam(5) ** 5
    expected = SparsePoly.variable(ctx.vars, "x", 1, lam5) + _a_power(params, ctx, 5)
    assert nf[0] == expected
    assert all(c.is_zero for c in nf[1:])


def test_special_relation_rhs():
    params = validate_params(5, 2, 1)
    ctx = fibre_context(params, "special")
    one = ctx.constant(ctx.from_int(1))
    nf = reduce_normal_form({5: one}, ctx.relation)
    # X^p = X + x^ell / a^p, so W = a X gives W^p -> a^(p-1) W + x^ell
    assert nf[1] == _a_power(params, ctx, 4)
    assert nf[0] == SparsePoly.variable(ctx.vars, "x", 1, ctx.from_int(1))
    assert all(c.is_zero for c in nf[2:])


@pytest.mark.parametrize("triple", [(5, 2, 1), (3, 4, 2), (7, 1, 3)])
def test_relation_holds_one_polynomial_per_slot(triple):
    # rhs[i] is the whole V^i-coefficient over the fibre's ring, built here
    # from a(x) and the closed forms
    params = validate_params(*triple)
    p, ell = params.p, params.ell
    for fibre in ("generic", "special", "relative"):
        ctx = FibreContext(params, fibre)
        rhs = ctx.relation.rhs
        assert len(rhs) == p and all(s.vars == ctx.vars for s in rhs)
        x_ell = SparsePoly.variable(ctx.vars, "x", ell, ctx.from_int(1))
        zero = SparsePoly.zero(ctx.vars)
        if fibre == "generic":
            want = [x_ell.scale(CycloElement.lam(p) ** p) + _a_power(params, ctx, p)] + [zero] * (p - 1)
        elif fibre == "special":
            want = [x_ell, _a_power(params, ctx, p - 1)] + [zero] * (p - 2)
        else:
            want = [x_ell] + [
                _a_power(params, ctx, p - i).scale(-relative_lambda_coefficient(params, i)) for i in range(1, p)
            ]
        assert list(rhs) == want, fibre
        ring = PrimeFieldElement if fibre == "special" else CycloElement
        assert all(type(c) is ring for s in rhs for c in s.terms.values()), fibre


def test_low_degree_unchanged():
    params = validate_params(5, 2, 1)
    ctx = fibre_context(params, "relative")
    e = {4: ctx.constant(ctx.from_int(3))}
    nf = reduce_normal_form(e, ctx.relation)
    assert nf[4] == e[4]
    assert all(nf[i].is_zero for i in range(4))


def test_phi_image_generic_example():
    # image of the (0, 2) multidegree: y^13 -> y^3 * (lam^5 x + a^5)^2
    params = validate_params(5, 2, 1)
    ctx = fibre_context(params, "generic")
    m = Monomial((IndexPair(0, 1), IndexPair(0, 1)))
    nf = ctx.phi_image(m)
    lam5 = CycloElement.lam(5) ** 5
    f = SparsePoly.variable(ctx.vars, "x", 1, lam5) + _a_power(params, ctx, 5)
    assert nf[3] == f * f
    assert all(nf[i].is_zero for i in (0, 1, 2, 4))


def test_phi_image_special_top_weight():
    # at total weight T = 2(p-1) the uncleared image has fibre-exponent zero,
    # so the cleared image is exactly x^rho * (a X)^p = x^rho * W^p reduced
    params = validate_params(5, 2, 1)
    ctx = fibre_context(params, "special")
    m = Monomial((IndexPair(6, 4), IndexPair(6, 4)))
    nf = ctx.phi_image(m)
    start = {5: SparsePoly.variable(ctx.vars, "x", 12, ctx.from_int(1))}
    assert nf == reduce_normal_form(start, ctx.relation)
    # W^p = x^ell + a^(p-1) * W with ell = 1
    assert nf[0] == SparsePoly.variable(ctx.vars, "x", 13, ctx.from_int(1))


def test_equal_multidegree_images_identical():
    params = validate_params(5, 2, 1)
    for fibre in ("generic", "special", "relative"):
        ctx = fibre_context(params, fibre)
        a = ctx.phi_image(Monomial((IndexPair(0, 3), IndexPair(1, 4))))
        b = ctx.phi_image(Monomial((IndexPair(1, 3), IndexPair(0, 4))))
        assert a == b


def test_phi_image_errors():
    ctx = fibre_context(validate_params(5, 2, 1), "generic")
    with pytest.raises(WrongDegree):
        ctx.phi_image(Monomial((IndexPair(0, 1),)))
    with pytest.raises(VariableOutsideIndexSet):
        ctx.phi_image(Monomial((IndexPair(0, 1), IndexPair(9, 1))))


def test_bad_specialization():
    params = validate_params(5, 2, 1)
    with pytest.raises(BadSpecialization):
        fibre_context(params, "generic", {"x1": 1})
    with pytest.raises(BadSpecialization):
        fibre_context(params, "generic", {"x1": 1, "x2": 2, "x3": 3})


@pytest.mark.parametrize("triple", [(5, 2, 1), (5, 2, 3), (3, 2, 1), (7, 1, 1)])
def test_relation_consistency(triple):
    report = relation_consistency(validate_params(*triple))
    assert report.kummer_form_matches_relative
    assert report.relative_reduces_to_special
    assert report.substitution_recovers_identity
    assert report.all_hold


def _conv(e1, e2):
    out = {}
    for i, a in e1.items():
        for j, b in e2.items():
            k = i + j
            prod = a * b
            out[k] = out[k] + prod if k in out else prod
    return out


@pytest.mark.parametrize("fibre", ["generic", "special", "relative"])
def test_normal_form_is_multiplicative(fibre):
    params = validate_params(5, 2, 1)
    ctx = fibre_context(params, fibre)
    rng = random.Random(808)

    def rand_elem():
        out = {}
        for _ in range(rng.randint(1, 3)):
            exp = rng.randint(0, 6)
            num = SparsePoly(
                ctx.vars,
                {
                    tuple(
                        rng.randint(0, 2) if k == 0 else rng.randint(0, 1)
                        for k in range(len(ctx.vars))
                    ): ctx.from_int(rng.randint(-3, 3))
                    for _ in range(2)
                },
            )
            if num:
                out[exp] = num
        return out or {0: ctx.constant(ctx.from_int(1))}

    for _ in range(6):
        e1, e2 = rand_elem(), rand_elem()
        direct = reduce_normal_form(_conv(e1, e2), ctx.relation)
        nf1 = reduce_normal_form(e1, ctx.relation)
        nf2 = reduce_normal_form(e2, ctx.relation)
        stepped = reduce_normal_form(
            _conv(dict(enumerate(nf1)), dict(enumerate(nf2))), ctx.relation
        )
        assert direct == stepped


def _direct_image(ctx, rho, T):
    """Reduce the full start x^rho * (y^(3p-T) or (a X)^(3p-2-T) = W^(3p-2-T)) in one go."""
    p = ctx.p
    x_rho = SparsePoly.variable(ctx.vars, "x", rho, ctx.from_int(1))
    e = 3 * p - T if ctx.fibre == "generic" else 3 * p - 2 - T
    return reduce_normal_form({e: x_rho}, ctx.relation)


@pytest.mark.parametrize("triple", [(5, 2, 1), (5, 2, 3), (3, 4, 2)])
@pytest.mark.parametrize("specialized", [False, True])
def test_shifted_weight_image_equals_direct_reduction(triple, specialized):
    # image(rho, T) = x^rho * image(0, T): every V-slot equals that of a
    # direct reduction of x^rho times the start
    params = validate_params(*triple)
    spec = default_specialization(params) if specialized else None
    for fibre in ("generic", "special", "relative"):
        ctx = fibre_context(params, fibre, spec)
        for pt in minkowski_sum(params):
            got = ctx.phi_image(minimal_monomial(params, pt))
            want = _direct_image(ctx, pt.rho, pt.T)
            assert got == want, (triple, fibre, pt)


def _largest_power(ctx, params):
    """Largest V-exponent a weight image starts from: 3p - T or 3p - 2 - T."""
    low = min(pt.T for pt in minkowski_sum(params))
    return 3 * ctx.p - low - (0 if ctx.fibre == "generic" else 2)


@pytest.mark.parametrize("triple", [(5, 2, 1), (5, 2, 3), (3, 4, 2)])
@pytest.mark.parametrize("specialized", [False, True])
def test_normal_form_chain_equals_reduction_from_scratch(triple, specialized):
    # NF(V^(e+1)) = NF(V * NF(V^e)) gives the normal form of V^e itself
    params = validate_params(*triple)
    spec = default_specialization(params) if specialized else None
    for fibre in ("generic", "special", "relative"):
        ctx = FibreContext(params, fibre, spec)
        one = ctx.constant(ctx.from_int(1))
        top = _largest_power(ctx, params)
        ctx.power_normal_form(top)
        assert len(ctx._chain) == top + 1
        for e in range(top + 1):
            got = ctx.power_normal_form(e)
            want = reduce_normal_form({e: one}, ctx.relation)
            assert got == want, (triple, fibre, e)


def _relation_polynomial(ctx, params):
    """V^p minus the right-hand side of the fibre's relation, over
    ("V",) + ctx.vars, built from a(x) and the closed forms of the relations
    rather than from the stored relation."""
    p, ell = params.p, params.ell
    variables = ("V",) + ctx.vars
    a = _a_power(params, ctx, 1).embed(variables)
    V = SparsePoly.variable(variables, "V", 1, ctx.from_int(1))
    x_ell = SparsePoly.variable(variables, "x", ell, ctx.from_int(1))
    if ctx.fibre == "generic":
        return V**p - x_ell.scale(CycloElement.lam(p) ** p) - a**p
    if ctx.fibre == "special":
        # X^p - X = x^ell / a^p, times a^p, with W = a X
        return V**p - x_ell - a ** (p - 1) * V
    # X^p = x^ell / a^p - sum c_i X^i, times a^p
    rel = V**p - x_ell
    for i in range(1, p):
        rel = rel + (a ** (p - i) * V**i).scale(relative_lambda_coefficient(params, i))
    return rel


@pytest.mark.parametrize("triple", [(5, 2, 1), (5, 2, 3), (3, 4, 2)])
@pytest.mark.parametrize("specialized", [False, True])
def test_weight_images_are_congruent_to_their_starts(triple, specialized):
    # W^e - sum_i s_i W^i (y on the generic fibre) is a multiple of the
    # relation polynomial: long division leaves remainder 0
    params = validate_params(*triple)
    spec = default_specialization(params) if specialized else None
    for fibre in ("generic", "special", "relative"):
        ctx = FibreContext(params, fibre, spec)
        relation = _relation_polynomial(ctx, params)
        variables = relation.vars
        for T in sorted({pt.T for pt in minkowski_sum(params)}):
            e = 3 * ctx.p - T if fibre == "generic" else 3 * ctx.p - 2 - T
            diff = SparsePoly.variable(variables, "V", e, ctx.from_int(1))
            for i, s in enumerate(ctx.weight_image(T)):
                diff = diff - s.embed(variables).mul_var_power("V", i)
            quo, rem = diff.divmod_monic(relation, "V")
            assert rem.is_zero, (triple, fibre, T)
            assert quo * relation == diff


@pytest.mark.parametrize("triple", [(5, 2, 1), (5, 2, 3), (7, 1, 3)])
@pytest.mark.parametrize("specialized", [False, True])
def test_int_a_power_product_equals_ring_product(triple, specialized):
    # over Z[lam] the context keeps a(x)^k with int coefficients; W-slots
    # meet them (the X-coordinates) in the packed product of
    # SparsePoly.__mul__, which splits a factor into cyclotomic content
    # groups inside exactalg.  The product equals a term-by-term product
    # with a(x)^k over the ring
    params = validate_params(*triple)
    spec = default_specialization(params) if specialized else None
    for fibre in ("generic", "special", "relative"):
        ctx = FibreContext(params, fibre, spec)
        assert len(ctx.a_powers) == ctx.p + 1
        power_is_int = all(type(c) is int for c in ctx.a_powers[ctx.p].terms.values())
        assert power_is_int == (fibre != "special")
        nums = [
            c
            for T in sorted({pt.T for pt in minkowski_sum(params)})
            for c in ctx.weight_image(T)
            if c
        ]
        assert nums
        for num in nums[:6]:
            for k in range(ctx.p + 1):
                ring = _a_power(params, ctx, k)
                assert all(type(c) is not int for c in ring.terms.values())
                assert num * ctx.a_powers[k] == _termwise_product(num, ring), (fibre, k)


@pytest.mark.parametrize("triple", [(5, 2, 1), (5, 2, 3), (7, 1, 3)])
def test_x_coordinates_are_w_slots_times_a_powers(triple):
    # the oracle's X-slot i is a(x)^i times the W-slot i; y-slots stay as they are
    params = validate_params(*triple)
    spec = default_specialization(params)
    for fibre in ("generic", "special", "relative"):
        ctx = FibreContext(params, fibre, spec)
        for T in sorted({pt.T for pt in minkowski_sum(params)}):
            img = ctx.weight_image(T)
            coords = ctx.x_coordinates(img)
            for i, (s, r) in enumerate(zip(img, coords)):
                assert r == (s if fibre == "generic" else s * _a_power(params, ctx, i)), (fibre, T, i)
