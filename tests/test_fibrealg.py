import random

import pytest

from canideal.errors import BadSpecialization, VariableOutsideIndexSet, WrongDegree
from canideal.exactalg import CycloElement, SparsePoly
from canideal.family import validate_params
from canideal.fibrealg import (
    FibreContext,
    FunctionFieldElement,
    fibre_context,
    phi_image,
    reduce_normal_form,
    relation_consistency,
)
from canideal.indexsets import minkowski_sum
from canideal.termorder import IndexPair, Monomial
from canideal.verify import default_specialization


def test_generic_relation_rhs():
    params = validate_params(5, 2, 1)
    ctx = fibre_context(params, "generic")
    # V^p reduces to lam^p * x^ell + a(x)^p, a constant in the fibre variable
    one = ctx.loc.element(ctx.constant(ctx.from_int(1)))
    nf = reduce_normal_form({5: one}, ctx.relation)
    lam5 = CycloElement.lam(5) ** 5
    expected = SparsePoly.variable(ctx.vars, "x", 1, lam5) + ctx.a_power(5)
    assert nf.coeffs[0] == ctx.loc.element(expected)
    assert all(c.is_zero for c in nf.coeffs[1:])


def test_special_relation_rhs():
    params = validate_params(5, 2, 1)
    ctx = fibre_context(params, "special")
    one = ctx.loc.element(ctx.constant(ctx.from_int(1)))
    nf = reduce_normal_form({5: one}, ctx.relation)
    # X^p -> X + x^ell / a^p
    assert nf.coeffs[1] == one
    assert nf.coeffs[0] == ctx.loc.element(SparsePoly.variable(ctx.vars, "x", 1, ctx.from_int(1)), 5)
    assert all(c.is_zero for c in nf.coeffs[2:])


def test_low_degree_unchanged():
    params = validate_params(5, 2, 1)
    ctx = fibre_context(params, "relative")
    e = {4: ctx.loc.element(ctx.constant(ctx.from_int(3)))}
    nf = reduce_normal_form(e, ctx.relation)
    assert nf.coeffs[4] == e[4]
    assert all(nf.coeffs[i].is_zero for i in range(4))


def test_phi_image_generic_example():
    # image of the (0, 2) multidegree: y^13 -> y^3 * (lam^5 x + a^5)^2
    params = validate_params(5, 2, 1)
    ctx = fibre_context(params, "generic")
    m = Monomial((IndexPair(0, 1), IndexPair(0, 1)))
    nf = phi_image(params, "generic", m)
    lam5 = CycloElement.lam(5) ** 5
    f = SparsePoly.variable(ctx.vars, "x", 1, lam5) + ctx.a_power(5)
    assert nf.coeffs[3] == ctx.loc.element(f * f)
    assert all(nf.coeffs[i].is_zero for i in (0, 1, 2, 4))


def test_phi_image_special_top_weight():
    # at total weight T = 2(p-1) the uncleared image has fibre-exponent zero,
    # so the cleared image is exactly x^rho * (a X)^p reduced
    params = validate_params(5, 2, 1)
    ctx = fibre_context(params, "special")
    m = Monomial((IndexPair(6, 4), IndexPair(6, 4)))
    nf = ctx.phi_image(m)
    start = {5: ctx.loc.element(SparsePoly.variable(ctx.vars, "x", 12, ctx.from_int(1)) * ctx.a_power(5))}
    assert nf == reduce_normal_form(start, ctx.relation)


def test_equal_multidegree_images_identical():
    params = validate_params(5, 2, 1)
    for fibre in ("generic", "special", "relative"):
        a = phi_image(params, fibre, Monomial((IndexPair(0, 3), IndexPair(1, 4))))
        b = phi_image(params, fibre, Monomial((IndexPair(1, 3), IndexPair(0, 4))))
        assert a == b


def test_phi_image_errors():
    params = validate_params(5, 2, 1)
    with pytest.raises(WrongDegree):
        phi_image(params, "generic", Monomial((IndexPair(0, 1),)))
    with pytest.raises(VariableOutsideIndexSet):
        phi_image(params, "generic", Monomial((IndexPair(0, 1), IndexPair(9, 1))))


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
                out[exp] = ctx.loc.element(num, rng.randint(0, 1))
        return out or {0: ctx.loc.element(ctx.constant(ctx.from_int(1)))}

    for _ in range(6):
        e1, e2 = rand_elem(), rand_elem()
        direct = reduce_normal_form(_conv(e1, e2), ctx.relation)
        nf1 = reduce_normal_form(e1, ctx.relation)
        nf2 = reduce_normal_form(e2, ctx.relation)
        stepped = reduce_normal_form(
            _conv(dict(enumerate(nf1.coeffs)), dict(enumerate(nf2.coeffs))), ctx.relation
        )
        assert direct == stepped


def test_function_field_element_algebra():
    params = validate_params(3, 2, 1)
    ctx = fibre_context(params, "special")
    one = ctx.loc.element(ctx.constant(ctx.from_int(1)))
    zero = ctx.loc.zero()
    e = FunctionFieldElement([one, zero, one])
    assert (e - e).is_zero
    doubled = e + e
    assert doubled.coeffs[0] == ctx.loc.element(ctx.constant(ctx.from_int(2)))


def _direct_image(ctx, rho, T):
    """Reduce the full start x^rho * (y^(3p-T) or (a X)^(3p-2-T)) in one go."""
    p = ctx.p
    x_rho = SparsePoly.variable(ctx.vars, "x", rho, ctx.from_int(1))
    if ctx.fibre == "generic":
        start = {3 * p - T: ctx.loc.element(x_rho)}
    else:
        e = 3 * p - 2 - T
        start = {e: ctx.loc.element(x_rho * ctx.a_power(e))}
    return reduce_normal_form(start, ctx.relation)


@pytest.mark.parametrize("triple", [(5, 2, 1), (5, 2, 3), (3, 4, 2)])
@pytest.mark.parametrize("specialized", [False, True])
def test_shifted_weight_image_equals_direct_reduction(triple, specialized):
    # image(rho, T) = x^rho * image(0, T), renormalized: the reduced forms
    # (numerator and a(x)-power of every V-slot) equal a direct reduction
    params = validate_params(*triple)
    spec = default_specialization(params) if specialized else None
    for fibre in ("generic", "special", "relative"):
        ctx = fibre_context(params, fibre, spec)
        for pt in minkowski_sum(params):
            got = ctx.image_for_multidegree(pt.rho, pt.T)
            want = _direct_image(ctx, pt.rho, pt.T)
            assert [(c.num, c.power) for c in got.coeffs] == [
                (c.num, c.power) for c in want.coeffs
            ], (triple, fibre, pt)


def test_shifted_image_is_renormalized():
    # with q = 1 and ell != 1, a(x) = x: a weight image holding 1/x shifted
    # by x must come out as 1/x^0, the reduced form a direct reduction gives
    params = validate_params(5, 1, 2)
    ctx = FibreContext(params, "special")
    assert ctx.a_poly == SparsePoly.variable(ctx.vars, "x", 1, ctx.from_int(1))
    one = ctx.constant(ctx.from_int(1))
    ctx._weight_images[7] = FunctionFieldElement(
        [ctx.loc.element(one, 1)] + [ctx.loc.zero()] * (ctx.p - 1)
    )
    shifted = ctx.image_for_multidegree(1, 7).coeffs[0]
    assert (shifted.num, shifted.power) == (one, 0)


def _largest_power(ctx, params):
    """Largest V-exponent a weight image starts from: 3p - T or 3p - 2 - T."""
    low = min(pt.T for pt in minkowski_sum(params))
    return 3 * ctx.p - low - (0 if ctx.fibre == "generic" else 2)


@pytest.mark.parametrize("triple", [(5, 2, 1), (5, 2, 3), (3, 4, 2)])
@pytest.mark.parametrize("specialized", [False, True])
def test_normal_form_chain_equals_reduction_from_scratch(triple, specialized):
    # NF(V^(e+1)) = NF(V * NF(V^e)) gives the reduced form of V^e itself
    params = validate_params(*triple)
    spec = default_specialization(params) if specialized else None
    for fibre in ("generic", "special", "relative"):
        ctx = FibreContext(params, fibre, spec)
        one = ctx.loc.element(ctx.constant(ctx.from_int(1)))
        top = _largest_power(ctx, params)
        ctx.power_normal_form(top)
        assert len(ctx._chain) == top + 1
        for e in range(top + 1):
            got = ctx.power_normal_form(e)
            want = reduce_normal_form({e: one}, ctx.relation)
            assert [(c.num, c.power) for c in got.coeffs] == [
                (c.num, c.power) for c in want.coeffs
            ], (triple, fibre, e)


@pytest.mark.parametrize("triple", [(5, 2, 1), (5, 2, 3), (7, 1, 3)])
@pytest.mark.parametrize("specialized", [False, True])
def test_int_a_power_product_equals_ring_product(triple, specialized):
    # over Z[lam] the localization keeps a(x) with int coefficients, so
    # numerators meet its powers through mul_ints; the result equals the
    # product with a(x)^k over the ring
    params = validate_params(*triple)
    spec = default_specialization(params) if specialized else None
    for fibre in ("generic", "special", "relative"):
        ctx = FibreContext(params, fibre, spec)
        power_is_int = all(type(c) is int for c in ctx.loc.power(ctx.p).terms.values())
        assert power_is_int == (fibre != "special")
        nums = [
            c.num
            for T in sorted({pt.T for pt in minkowski_sum(params)})
            for c in ctx.weight_image(T).coeffs
            if c
        ]
        assert nums
        for num in nums[:6]:
            for k in range(ctx.p + 2):
                ring = ctx.a_power(k)
                assert all(type(c) is not int for c in ring.terms.values())
                assert num * ctx.loc.power(k) == num * ring, (fibre, k)
