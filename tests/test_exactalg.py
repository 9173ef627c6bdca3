import math
import random
from fractions import Fraction

import pytest

from canideal.errors import NonIntegralInput, NonPrimeP, NotDivisible
from canideal.exactalg import (
    CycloElement,
    Localization,
    PrimeFieldElement,
    SparsePoly,
    cyclotomic_min_poly,
    divide_by_lambda_power,
    lambda_valuation,
    reduce_mod_lambda,
)


def test_min_poly_p3():
    poly = cyclotomic_min_poly(3)
    assert poly.terms == {(2,): 1, (1,): 3, (0,): 3}


def test_min_poly_p5():
    poly = cyclotomic_min_poly(5)
    assert poly.terms == {(4,): 1, (3,): 5, (2,): 10, (1,): 10, (0,): 5}


def test_min_poly_p2():
    poly = cyclotomic_min_poly(2)
    assert poly.terms == {(1,): 1, (0,): 2}


def test_min_poly_rejects_composite():
    with pytest.raises(NonPrimeP):
        cyclotomic_min_poly(4)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_zeta_is_pth_root_of_unity(p):
    zeta = CycloElement.lam(p) + 1
    assert zeta**p == CycloElement.one(p)
    assert zeta != CycloElement.one(p)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_cyclo_ring_laws(p):
    rng = random.Random(20_000 + p)

    def rand():
        return CycloElement(p, tuple(rng.randint(-9, 9) for _ in range(p - 1)))

    for _ in range(40):
        a, b, c = rand(), rand(), rand()
        assert (a + b) * c == a * c + b * c
        assert a * (b * c) == (a * b) * c
        assert a * b == b * a
        assert a + b == b + a


@pytest.mark.parametrize("p", [3, 5, 7])
def test_cyclo_inverse(p):
    rng = random.Random(30_000 + p)
    one = CycloElement.one(p)
    found = 0
    while found < 10:
        a = CycloElement(p, tuple(rng.randint(-5, 5) for _ in range(p - 1)))
        if not a:
            continue
        assert a * a.inverse() == one
        found += 1


def test_prime_field_laws():
    rng = random.Random(7)
    p = 5
    for _ in range(50):
        a = PrimeFieldElement(rng.randint(-20, 20), p)
        b = PrimeFieldElement(rng.randint(-20, 20), p)
        c = PrimeFieldElement(rng.randint(-20, 20), p)
        assert (a + b) * c == a * c + b * c
        assert a * (b * c) == (a * b) * c
        if b:
            assert b * b.inverse() == PrimeFieldElement(1, p)
    assert PrimeFieldElement(7, 5) == 2
    assert 3 + PrimeFieldElement(4, 5) == PrimeFieldElement(2, 5)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_valuation_of_p_is_p_minus_1(p):
    e = CycloElement.from_int(p, p)
    v = lambda_valuation(e)
    assert v == p - 1
    # verified by exact division: the quotient re-multiplies back
    q = divide_by_lambda_power(e, v)
    assert q * CycloElement.lam(p) ** v == e


def test_valuation_basics():
    p = 5
    assert lambda_valuation(CycloElement.lam(p)) == 1
    assert lambda_valuation(CycloElement.one(p)) == 0
    assert lambda_valuation(CycloElement.zero(p)) == math.inf
    with pytest.raises(NonIntegralInput):
        lambda_valuation(CycloElement(p, (Fraction(1, 2), 0, 0, 0)))


def test_valuation_of_binomial_coefficient():
    # binom(5, 2) = 10 = 2 * 5 and 2 is a unit
    assert lambda_valuation(CycloElement.from_int(5, 10)) == 4


def test_divide_examples():
    p = 5
    # p * lam^-(p-1) reduces to -1 in the residue field
    q = divide_by_lambda_power(CycloElement.from_int(p, 5), 4)
    assert reduce_mod_lambda(q) == PrimeFieldElement(-1, p)
    # 10 = binom(5,2) has valuation 4; quotient by lam^3 still reduces to 0
    q = divide_by_lambda_power(CycloElement.from_int(p, 10), 3)
    assert reduce_mod_lambda(q) == PrimeFieldElement(0, p)
    assert divide_by_lambda_power(CycloElement.zero(p), 2) == CycloElement.zero(p)
    with pytest.raises(NotDivisible):
        divide_by_lambda_power(CycloElement.one(p), 1)


def test_reduce_mod_lambda_examples():
    p = 5
    assert reduce_mod_lambda(CycloElement.lam(p)) == PrimeFieldElement(0, p)
    assert reduce_mod_lambda(CycloElement.from_int(p, 7)) == PrimeFieldElement(2, p)
    assert reduce_mod_lambda(CycloElement(p, (1, 3, 0, 0))) == PrimeFieldElement(1, p)


@pytest.mark.parametrize("p", [3, 5])
def test_reduce_mod_lambda_is_ring_hom(p):
    rng = random.Random(40_000 + p)
    for _ in range(30):
        a = CycloElement(p, tuple(rng.randint(-9, 9) for _ in range(p - 1)))
        b = CycloElement(p, tuple(rng.randint(-9, 9) for _ in range(p - 1)))
        assert reduce_mod_lambda(a + b) == reduce_mod_lambda(a) + reduce_mod_lambda(b)
        assert reduce_mod_lambda(a * b) == reduce_mod_lambda(a) * reduce_mod_lambda(b)


# ---------------------------------------------------------------------------
# SparsePoly


V = ("x", "y")


def _px(terms):
    return SparsePoly(V, terms)


def test_sparse_poly_arithmetic():
    a = _px({(1, 0): 2, (0, 1): 1})  # 2x + y
    b = _px({(1, 0): -2, (0, 0): 3})  # -2x + 3
    assert (a + b).terms == {(0, 1): 1, (0, 0): 3}
    assert (a - a).is_zero
    prod = a * b
    assert prod.terms == {(2, 0): -4, (1, 1): -2, (1, 0): 6, (0, 1): 3}
    assert a**3 == a * a * a


def test_sparse_poly_zero_coefficients_dropped():
    assert _px({(1, 0): 0}).terms == {}
    assert (_px({(1, 0): 1}) + _px({(1, 0): -1})).is_zero


def test_sparse_poly_ring_laws_random():
    rng = random.Random(99)

    def rand():
        return _px(
            {
                (rng.randint(0, 3), rng.randint(0, 3)): rng.randint(-4, 4)
                for _ in range(rng.randint(0, 4))
            }
        )

    for _ in range(40):
        a, b, c = rand(), rand(), rand()
        assert (a + b) * c == a * c + b * c
        assert a * (b * c) == (a * b) * c


def test_divmod_monic_roundtrip():
    rng = random.Random(4242)
    d = _px({(2, 0): 1, (1, 1): 1, (0, 0): 2})  # x^2 + xy + 2, monic in x
    for _ in range(25):
        f = _px(
            {
                (rng.randint(0, 6), rng.randint(0, 2)): rng.randint(-5, 5)
                for _ in range(rng.randint(0, 6))
            }
        )
        quo, rem = f.divmod_monic(d, "x")
        assert quo * d + rem == f
        assert rem.degree_in("x") < 2 or rem.is_zero


def test_specialize():
    f = _px({(2, 1): 1, (0, 1): 3, (1, 0): 2})  # x^2 y + 3y + 2x
    g = f.specialize({"y": 2})
    assert g.vars == ("x",)
    assert g.terms == {(2,): 2, (0,): 6, (1,): 2}


def test_embed_and_drop():
    small = SparsePoly(("a",), {(2,): 5})
    big = small.embed(("x", "a", "b"))
    assert big.terms == {(0, 2, 0): 5}
    assert big.drop_vars(("x", "b")) == small


# ---------------------------------------------------------------------------
# Localization


def _loc():
    variables = ("x", "t")
    a = SparsePoly(variables, {(2, 0): 1, (1, 1): 1})  # x^2 + x t, monic in x
    return Localization(a, "x"), variables


def test_localized_normalization_reduces():
    loc, variables = _loc()
    num = loc.denominator * SparsePoly(variables, {(1, 0): 3})
    e = loc.element(num, 2)
    assert e.power == 1
    assert e.num == SparsePoly(variables, {(1, 0): 3})
    # normalization is idempotent
    again = loc.element(e.num, e.power)
    assert again.num == e.num and again.power == e.power


def test_localized_product_and_equality():
    loc, variables = _loc()
    rng = random.Random(555)
    for _ in range(25):
        u = SparsePoly(
            variables,
            {(rng.randint(0, 3), rng.randint(0, 2)): rng.randint(-4, 4) for _ in range(3)},
        )
        v = SparsePoly(
            variables,
            {(rng.randint(0, 3), rng.randint(0, 2)): rng.randint(-4, 4) for _ in range(3)},
        )
        s, t = rng.randint(0, 2), rng.randint(0, 2)
        prod = loc.element(u, s) * loc.element(v, t)
        # cross-multiplied comparison against the unreduced fraction
        assert prod.num * loc.denominator ** (s + t) == u * v * loc.denominator**prod.power
    # equality across different stored powers via cross-multiplication
    u = SparsePoly(variables, {(1, 0): 1})
    lhs = loc.element(u * loc.denominator, 1)
    rhs = loc.element(u, 0)
    assert lhs == rhs


def test_localized_zero():
    loc, variables = _loc()
    z = loc.element(SparsePoly(variables), 3)
    assert z.is_zero and z.power == 0
