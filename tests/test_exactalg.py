import math
import operator
import random
from fractions import Fraction

import pytest
import sympy

from canideal.errors import NonIntegralInput, NotDivisible
from canideal.exactalg import (
    CycloElement,
    PrimeFieldElement,
    SparsePoly,
    divide_by_lambda_power,
    is_prime,
    multiply_out,
    residue,
    residue_terms,
)

from controls import variable


def _min_poly(p):
    """Coefficients of the minimal polynomial of lam = zeta_p - 1, lowest degree
    first, from its definition: sum_(i=1..p) binom(p, i) lam^(i-1)."""
    return [math.comb(p, i) for i in range(1, p + 1)]


def _lam_valuation(e):
    """v_lam(e) for e != 0, independent of the division code: (p) = (lam)^(p-1)
    and N(lam) = +-p, so v_lam(e) = v_p(N(e)), the norm being the resultant of
    the p-th cyclotomic polynomial with e as a polynomial in zeta."""
    z = sympy.Symbol("z")
    elt = sum(c * (z - 1) ** i for i, c in enumerate(e.coeffs))
    norm = abs(int(sympy.resultant(sympy.cyclotomic_poly(e.p, z), elt, z)))
    return sympy.multiplicity(e.p, norm)


def _lam_satisfies(p, coeffs):
    lam = CycloElement.lam(p)
    return sum((c * lam**k for k, c in enumerate(coeffs)), CycloElement.zero(p)) == CycloElement.zero(p)


def test_min_poly_p3():
    assert _min_poly(3) == [3, 3, 1]
    assert _lam_satisfies(3, _min_poly(3))


def test_min_poly_p5():
    assert _min_poly(5) == [5, 10, 10, 5, 1]
    assert _lam_satisfies(5, _min_poly(5))


def test_is_prime_matches_sympy():
    assert [n for n in range(-3, 5000) if is_prime(n)] == list(sympy.primerange(0, 5000))
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randrange(2**40, 2**62)
        assert is_prime(n) == sympy.isprime(n)
    # strong pseudoprimes to the bases 2..7, 2..31 and 2..37, and a Carmichael number
    for n in (3215031751, 3825123056546413051, 318665857834031151167461, 561):
        assert not is_prime(n)
    assert is_prime(2**61 - 1) and is_prime(2**31 - 1)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_zeta_is_pth_root_of_unity(p):
    zeta = CycloElement.lam(p) + 1
    assert zeta**p == CycloElement.one(p)
    assert zeta != CycloElement.one(p)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_cyclo_powers_take_no_wasted_product(monkeypatch, p):
    # square-and-multiply: bit_length - 1 squarings and popcount - 1
    # multiplications, none by 1; lam_powers reads lam^0..lam^p off one
    # lam-shift, with no product at all
    lam = CycloElement.lam(p)
    by_hand = [CycloElement.one(p)]
    for _ in range(2 * p):
        by_hand.append(by_hand[-1] * lam)
    products = []
    real = CycloElement.__mul__
    monkeypatch.setattr(CycloElement, "__mul__", lambda a, b: products.append(1) or real(a, b))
    for n, want in enumerate(by_hand):
        products.clear()
        assert lam**n == want
        assert len(products) == (n.bit_length() + bin(n).count("1") - 2 if n else 0)
    products.clear()
    assert CycloElement.lam_powers(p, p + 1) == by_hand[: p + 1] and not products


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
        # an int factor, as an int or as an element, scales the coordinates
        k = rng.randint(-9, 9)
        scaled = CycloElement(p, tuple(k * x for x in a.coeffs))
        assert a * k == k * a == a * CycloElement.from_int(p, k) == CycloElement.from_int(p, k) * a == scaled


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23])
def test_cyclo_product_matches_sympy_remainder(p):
    # a reference independent of exactalg: the coordinates of a * b are the
    # coefficients of A(t) * B(t) mod the minimal polynomial of lam
    t = sympy.Symbol("t")
    min_poly = sympy.Poly(list(reversed(_min_poly(p))), t)
    rng = random.Random(90_000 + p)
    cases = [
        [rng.randint(-size, size) for _ in range(p - 1)]
        for size in (1, 9, 10**6, 10**40)
        for _ in range(3)
    ]
    cases += [[0] * j + [1] + [0] * (p - 2 - j) for j in (0, 1, p - 2)]  # lam^j
    cases += [[0] * (p - 2) + [-(3**50)]]
    for a in cases:
        for b in rng.sample(cases, 4):
            want = sympy.rem(sympy.Poly(a[::-1], t) * sympy.Poly(b[::-1], t), min_poly)
            coords = [int(want.coeff_monomial(t**k)) for k in range(p - 1)]
            assert (CycloElement(p, a) * CycloElement(p, b)).coeffs == tuple(coords), (a, b)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_integer_elements_hash_as_their_ints(p):
    # equal values hash alike, so a set or a memo key holds an int and the
    # equal element of Z[lam] once
    for n in (0, 1, -1, 7, 2**70):
        c = CycloElement.from_int(p, n)
        assert c == n and hash(c) == hash(n)
    int_one = SparsePoly.constant(("x1",), 1)
    ring_one = SparsePoly.constant(("x1",), CycloElement.one(p))
    assert int_one == ring_one and hash(int_one) == hash(ring_one)
    assert len({int_one, ring_one}) == 1
    lam = CycloElement.lam(p)
    assert len({lam, lam + 0, CycloElement(p, lam.coeffs), 1, lam + 1}) == 3


def test_elements_of_two_cyclotomic_rings_are_unequal_but_do_not_mix():
    # the integral elements hash as their ints, so one set compares them
    one3, one5 = CycloElement.one(3), CycloElement.one(5)
    assert len({one3, one5}) == 2
    assert len({one3: 0, one5: 1, 1: 2}) == 2
    assert one3 != one5 and not one3 == one5
    assert one3 != CycloElement.lam(5)
    assert one3 == 1 == one5
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(ValueError, match="mixed cyclotomic rings"):
            op(one3, one5)
    with pytest.raises(ValueError, match="mixed cyclotomic rings"):
        SparsePoly.constant(("x",), one3) * SparsePoly.constant(("x",), CycloElement.lam(5))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_cyclo_inverse(p):
    # products of the cyclotomic units -1, zeta and 1 + zeta + ... + zeta^(a-1)
    rng = random.Random(30_000 + p)
    one = CycloElement.one(p)
    zeta = CycloElement.lam(p) + 1
    units = [CycloElement.from_int(p, -1), zeta]
    units += [sum((zeta**i for i in range(1, a)), one) for a in range(2, p)]
    for _ in range(10):
        u = one
        for _ in range(rng.randint(1, 4)):
            u = u * rng.choice(units)
        inv = u.inverse()
        assert u * inv == one
        assert all(type(c) is int for c in inv.coeffs)
    for non_unit in (CycloElement.zero(p), CycloElement.lam(p), CycloElement.from_int(p, 2), CycloElement.from_int(p, p)):
        with pytest.raises(NotDivisible):
            non_unit.inverse()


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
    # lam^(p-1) divides p exactly, and the quotient re-multiplies back
    q = divide_by_lambda_power(e, p - 1)
    assert q * CycloElement.lam(p) ** (p - 1) == e
    with pytest.raises(NotDivisible):
        divide_by_lambda_power(e, p)


def test_valuation_basics():
    p = 5
    lam = CycloElement.lam(p)
    assert divide_by_lambda_power(lam, 1) == CycloElement.one(p)
    with pytest.raises(NotDivisible):
        divide_by_lambda_power(lam, 2)
    assert divide_by_lambda_power(CycloElement.one(p), 0) == CycloElement.one(p)
    with pytest.raises(NotDivisible):
        divide_by_lambda_power(CycloElement.one(p), 1)
    # 0 has infinite valuation: every power of lam divides it
    assert divide_by_lambda_power(CycloElement.zero(p), 3 * p) == CycloElement.zero(p)


def test_valuation_of_binomial_coefficient():
    # binom(5, 2) = 10 = 2 * 5 and 2 is a unit
    e = CycloElement.from_int(5, 10)
    assert divide_by_lambda_power(e, 4) * CycloElement.lam(5) ** 4 == e
    with pytest.raises(NotDivisible):
        divide_by_lambda_power(e, 5)


def test_divide_examples():
    p = 5
    # p * lam^-(p-1) reduces to -1 in the residue field
    q = divide_by_lambda_power(CycloElement.from_int(p, 5), 4)
    assert residue(q, p, 0) == p - 1
    # 10 = binom(5,2) has valuation 4; quotient by lam^3 still reduces to 0
    q = divide_by_lambda_power(CycloElement.from_int(p, 10), 3)
    assert residue(q, p, 0) == 0
    assert divide_by_lambda_power(CycloElement.zero(p), 2) == CycloElement.zero(p)
    with pytest.raises(NotDivisible):
        divide_by_lambda_power(CycloElement.one(p), 1)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_integer_lambda_division_is_exact_and_maximal(p):
    rng = random.Random(50_000 + p)
    lam = CycloElement.lam(p)
    for _ in range(25):
        base = CycloElement(p, tuple(rng.randint(-6, 6) for _ in range(p - 1)))
        if not base:
            continue
        e = base * lam ** rng.randint(0, 2 * p)
        v = _lam_valuation(e)
        for k in range(v + 1):
            assert divide_by_lambda_power(e, k) * lam**k == e
        # Z[lam]/(lam) = F_p: lam divides an element exactly when its residue is 0
        assert residue(divide_by_lambda_power(e, v), p, 0) != 0
        with pytest.raises(NotDivisible):
            divide_by_lambda_power(e, v + 1)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_lambda_division_rejects_non_integral_input(p):
    # an element outside Z[lam] cannot be built, and a quotient outside it raises
    with pytest.raises(NonIntegralInput):
        CycloElement(p, (Fraction(1, 2),) + (0,) * (p - 2))
    for k in range(1, p):
        e = CycloElement.from_int(p, k) * CycloElement.lam(p)
        assert divide_by_lambda_power(e, 1) == CycloElement.from_int(p, k)
        with pytest.raises(NotDivisible):
            divide_by_lambda_power(e, 2)


def test_constructor_accepts_only_int_coordinates():
    p = 5
    for bad in (Fraction(4, 1), Fraction(1, 2), 4.0, True, False, "4", None):
        with pytest.raises(NonIntegralInput):
            CycloElement(p, (bad, 0, 0, 0))
    with pytest.raises(NonIntegralInput):
        CycloElement.one(p) * True
    # ring operations keep int coordinates
    a = CycloElement(p, (1, -2, 3, 4))
    b = CycloElement(p, (-3, 0, 5, 2**70))
    zeta = CycloElement.lam(p) + 1
    for e in (a + b, a - b, 3 - a, -a, a * b, a * 3, a**3, zeta.inverse(), divide_by_lambda_power(a * b * 5, 4)):
        assert all(type(c) is int for c in e.coeffs)


def _sympy_poly(f):
    """f in sympy's sparse polynomial ring over Z in lam and f's variables;
    f must keep no zero term, as every SparsePoly operation drops them."""
    assert all(f.terms.values())
    ring = sympy.ring(("lam",) + f.vars, sympy.ZZ)[0]
    terms = {}
    for e, c in f.terms.items():
        for i, x in enumerate(c.coeffs if isinstance(c, CycloElement) else (c,)):
            if x:
                terms[(i,) + e] = x
    return ring.from_dict(terms)


def _sympy_product(p, *factors):
    """The product of the factors by sympy, reduced modulo the p-th
    cyclotomic polynomial in zeta = lam + 1 as `_lam_valuation` reads it:
    the reference, independent of the ring code, for every SparsePoly
    product over Z[lam], which mixes ints and elements and takes the int
    fast path.  lam leads the variables, so the remainder has lam-degree
    below p - 1."""
    prod = _sympy_poly(factors[0])
    for f in factors[1:]:
        prod = prod * _sympy_poly(f)
    return prod.rem(prod.ring(sympy.cyclotomic_poly(p, sympy.Symbol("lam") + 1)))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_groups_multiply_out_and_reduce_as_their_sum(p):
    # groups (gamma, d) stand for sum gamma * d: weights from Z[lam], Z and
    # the image of Z, a weight lam that vanishes mod lam, groups meeting at
    # one exponent, and a ring element inside d, which a perturbed table
    # may hold; the reference multiplies term by term and maps each term
    rng = random.Random(80_000 + p)
    variables = ("x", "y")
    lam = CycloElement.lam(p)

    def ints():
        return SparsePoly(variables, {(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-9, 9) for _ in range(5)})

    gamma = CycloElement(p, tuple(rng.randint(-9, 9) for _ in range(p - 1)))
    d = ints()
    groups = ((gamma, d), (-3, ints()), (CycloElement.from_int(p, 2), ints()), (lam, ints()), (gamma, -d))
    groups += ((1, d.map_coefficients(lambda k: k * gamma)),)
    termwise = SparsePoly.zero(variables)
    for g, table in groups:
        termwise = termwise + table.map_coefficients(lambda k: g * k)
    assert multiply_out(groups, variables) == termwise
    assert multiply_out((), variables) == SparsePoly.zero(variables)
    # a lone group of the int weight 1 is its table
    assert multiply_out(((1, d),), variables) is d
    # F_r with r = 1 mod p, lam sent to zeta - 1 for a p-th root of unity zeta != 1
    r = 29 if p == 7 else 31
    z = next(a for a in range(2, r) if pow(a, p, r) == 1) - 1
    for modulus, image in ((p, 0), (r, z)):
        want = {e: v for e, c in termwise.terms.items() if (v := residue(c, modulus, image))}
        assert residue_terms(groups, modulus, image) == want


def _rand_cyclo_poly(rng, p, variables, terms, size=9):
    return SparsePoly(
        variables,
        {
            tuple(rng.randint(0, 3) for _ in variables): CycloElement(
                p, tuple(rng.randint(-size, size) for _ in range(p - 1))
            )
            for _ in range(terms)
        },
    )


@pytest.mark.parametrize("p", [3, 5, 7])
def test_product_matches_sympy(p):
    rng = random.Random(60_000 + p)
    variables = ("x", "y", "z")

    def rand_exps():
        return tuple(rng.randint(0, 3) for _ in variables)

    for _ in range(10):
        cyc = _rand_cyclo_poly(rng, p, variables, 12)
        ints = SparsePoly(variables, {rand_exps(): rng.randint(-5, 5) for _ in range(8)})
        got = cyc * ints
        assert got == ints * cyc
        assert _sympy_poly(got) == _sympy_product(p, cyc, ints)
        assert all(type(x) is int for c in got.terms.values() for x in c.coeffs)
        # Z[lam] x Z[lam], with no content in common between coefficients
        other = _rand_cyclo_poly(rng, p, variables, 6)
        assert _sympy_poly(cyc * other) == _sympy_product(p, cyc, other)
        # one content group: gamma times ints, with negative multiples
        gamma = CycloElement(p, tuple(rng.randint(-9, 9) for _ in range(p - 1)))
        scaled = ints.map_coefficients(lambda k: gamma * k)
        assert _sympy_poly(cyc * scaled) == _sympy_product(p, cyc, ints, SparsePoly.constant(variables, gamma))
        # two groups of different gammas and the group of gamma = 1, in one factor
        mixed = scaled + other.scale(CycloElement.lam(p) + 2) + ints.mul_var_power("x", 4)
        assert _sympy_poly(cyc * mixed) == _sympy_product(p, cyc, mixed)
    # coordinates far beyond one machine word multiply exactly
    big = SparsePoly(variables, {(2, 0, 1): CycloElement(p, (-(3**90),) + (7**80,) * (p - 2))})
    gamma = CycloElement(p, (5**70,) * (p - 1))
    ints = SparsePoly(variables, {(0, 0, 0): -(2**100), (1, 1, 0): 1})
    scaled = ints.map_coefficients(lambda k: gamma * k)
    assert (
        _sympy_poly(big * scaled)
        == _sympy_product(p, big, scaled)
        == _sympy_product(p, big, ints, SparsePoly.constant(variables, gamma))
    )


@pytest.mark.parametrize("p", [3, 5, 7])
def test_product_coordinates_at_a_power_of_two(p):
    # a product coordinate that is a power of two, with either sign, and
    # the cancellation of a product against its negation
    variables = ("x", "y")
    f = SparsePoly(variables, {(1, 0): CycloElement(p, (4,) + (0,) * (p - 2))})
    d = SparsePoly(variables, {(0, 1): 4})
    assert _sympy_poly(f * d) == _sympy_product(p, f, d)
    assert _sympy_poly(f * -d) == _sympy_product(p, f, -d)
    assert f * d
    assert not f * d + -f * d


@pytest.mark.parametrize("p", [3, 5, 7])
def test_divmod_matches_the_sympy_product(p):
    # long division multiplies int divisors into Z[lam] polynomials; the
    # result is checked against the sympy product: f = quo * divisor +
    # rem with rem of lower x-degree, which determines quo and rem
    rng = random.Random(80_000 + p)
    variables = ("x", "s", "t")
    divisors = [
        {(2, 0, 0): 1},  # x^2: nothing below the leading term
        {(1, 0, 0): 1, (0, 1, 0): 2},  # x + 2s
        {(3, 0, 0): 1, (2, 1, 0): -3, (1, 0, 1): 1, (0, 0, 0): 5},
        {(2, 0, 0): 1, (1, 0, 0): -1, (0, 0, 0): -1},
    ]
    for terms in divisors:
        ints = SparsePoly(variables, terms)
        ring = ints.map_coefficients(lambda n: CycloElement.from_int(p, n))
        for _ in range(8):
            f = _rand_cyclo_poly(rng, p, variables, rng.randint(1, 10), size=rng.choice([2, 10**30]))
            f = f.mul_var_power("x", rng.randint(0, 6))
            quo, rem = f.divmod_monic(ints, "x")
            assert (quo, rem) == f.divmod_monic(ring, "x")
            assert _sympy_product(p, quo, ints) + _sympy_poly(rem) == _sympy_poly(f)
            assert not rem or rem.degree_in("x") < ints.degree_in("x")
            # an exact multiple divides with remainder zero
            multiple = f * ints
            assert _sympy_poly(multiple) == _sympy_product(p, f, ints)
            assert multiple.divmod_monic(ints, "x") == (f, SparsePoly.zero(variables))


def test_reduce_mod_lambda_examples():
    # the residue field Z[lam]/(lam) = F_p is `residue` at r = p, lam = 0,
    # read as the ints in [0, p)
    p = 5
    assert residue(CycloElement.lam(p), p, 0) == 0
    assert residue(CycloElement.from_int(p, 7), p, 0) == 2
    assert residue(CycloElement(p, (1, 3, 0, 0)), p, 0) == 1
    assert residue(CycloElement(p, (-1, 3, 0, 0)), p, 0) == 4


def test_polynomial_hash_is_kept_and_matches_its_terms():
    # the hash is computed once per polynomial, from terms that never change
    # once returned, and equal polynomials built in different ways hash alike
    x = variable(("x", "y"), "x")
    y = variable(("x", "y"), "y")
    pairs = [
        ((x + y) * (x - y), x * x - y * y),
        (x.scale(CycloElement.one(5)), x),
        ((x + y) * (x + y), x * x + (x * y).scale(2) + y * y),
    ]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b) == hash(a) == hash((a.vars, frozenset(a.terms.items())))


def test_reduce_mod_lambda_takes_an_int():
    # an int stands for its image in Z[lam]: n goes to n mod p, as the
    # integral CycloElement n does; without r and lam an int cannot be
    # reduced, and a value outside Z[lam] has no image
    p = 5
    for n in (-7, -1, 0, 1, 5, 7, 12):
        assert residue(n, p, 0) == n % p == residue(CycloElement.from_int(p, n), p, 0)
        assert type(residue(n, p, 0)) is int
    with pytest.raises(TypeError):
        residue(3)
    with pytest.raises(TypeError):
        residue(Fraction(3), p, 0)


@pytest.mark.parametrize("p", [3, 5])
def test_reduce_mod_lambda_is_ring_hom(p):
    rng = random.Random(40_000 + p)
    for _ in range(30):
        a = CycloElement(p, tuple(rng.randint(-9, 9) for _ in range(p - 1)))
        b = CycloElement(p, tuple(rng.randint(-9, 9) for _ in range(p - 1)))
        # Z[lam] -> F_p = Z[lam]/(lam), read as ints mod p
        assert residue(a + b, p, 0) == (residue(a, p, 0) + residue(b, p, 0)) % p
        assert residue(a * b, p, 0) == (residue(a, p, 0) * residue(b, p, 0)) % p
        assert residue(a, p, 0) in range(p) and residue(-a, p, 0) == -residue(a, p, 0) % p


# ---------------------------------------------------------------------------
# SparsePoly


V = ("x", "y")


def _px(terms):
    return SparsePoly(V, terms)


def test_sparse_poly_arithmetic():
    a = _px({(1, 0): 2, (0, 1): 1})  # 2x + y
    b = _px({(1, 0): -2, (0, 0): 3})  # -2x + 3
    assert (a + b).terms == {(0, 1): 1, (0, 0): 3}
    assert not (a - a)
    prod = a * b
    assert prod.terms == {(2, 0): -4, (1, 1): -2, (1, 0): 6, (0, 1): 3}
    assert (a * a) * a == a * (a * a)


def test_sparse_poly_zero_coefficients_dropped():
    assert _px({(1, 0): 0}).terms == {}
    assert not (_px({(1, 0): 1}) + _px({(1, 0): -1}))


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
        assert rem.degree_in("x") < 2 or not rem


def test_specialize():
    f = _px({(2, 1): 1, (0, 1): 3, (1, 0): 2})  # x^2 y + 3y + 2x
    g = f.specialize({"y": 2})
    assert g.vars == ("x",)
    assert g.terms == {(2,): 2, (0,): 6, (1,): 2}


@pytest.mark.parametrize("p", [3, 5, 7])
def test_specialize_over_z_lam_matches_termwise_substitution(p):
    # specialize multiplies each term's substituted powers first and the
    # coefficient by that int once; the reference substitutes power by power
    rng = random.Random(70_000 + p)
    variables = ("x", "s", "t")

    def termwise(poly, values):
        out = {}
        for e, c in poly.terms.items():
            for name, k in zip(variables, e):
                if name in values:
                    c = c * values[name] ** k
            key = tuple(k for name, k in zip(variables, e) if name not in values)
            out[key] = out.get(key, 0) + c
        return SparsePoly(tuple(v for v in variables if v not in values), out)

    gamma = CycloElement(p, tuple(rng.randint(-9, 9) for _ in range(p - 1)))
    for _ in range(8):
        ints = SparsePoly(variables, {tuple(rng.randint(0, 3) for _ in variables): rng.randint(-5, 5) for _ in range(8)})
        poly = ints.map_coefficients(lambda k: gamma * k) + _rand_cyclo_poly(rng, p, variables, 5) + ints
        for values in ({"s": rng.randint(-4, 4)}, {"s": 2, "t": -3}, {"x": 0, "s": 1, "t": 0}):
            assert poly.specialize(values) == termwise(poly, values)
    # terms that meet in one output term and cancel there leave none
    cancel = SparsePoly(variables, {(1, 1, 0): gamma * 2, (1, 0, 1): gamma * -1, (1, 0, 0): 3})
    assert cancel.specialize({"s": 1, "t": 2}) == SparsePoly(("x",), {(1,): 3})


def test_embed_and_drop():
    # a polynomial viewed inside a larger variable tuple: substituting 0 for
    # the added variables gives the polynomial back
    small = SparsePoly(("a",), {(2,): 5})
    big = SparsePoly(("x", "a", "b"), {(0, 2, 0): 5})
    assert big.specialize({"x": 0, "b": 0}) == small
