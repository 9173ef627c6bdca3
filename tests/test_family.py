import functools
import math

import pytest
import sympy

from canideal.errors import EllOutOfRange, IOutOfRange, NonPositiveQ, NonPrimeP
from canideal.exactalg import SparsePoly
from canideal.family import (
    _a_powers,
    a_power_coefficients,
    a_power_min_exponent,
    deformation_symbols,
    validate_p_q,
    validate_params,
)
from canideal.indexsets import build_index_set

from controls import variable

SWEEP = [(p, q, ell) for p in (3, 5, 7) for q in (1, 2, 3) for ell in range(1, p)]


def _genus_by_enumeration(p, q, ell):
    # independent oracle: count the lattice points directly
    count = 0
    for mu in range(1, p):
        for n in range(0, mu * q):
            if (mu * ell) // p <= n <= mu * q - 2:
                count += 1
    return count


def test_validate_examples():
    params = validate_params(5, 2, 1)
    assert (params.m, params.genus) == (9, 16)
    params = validate_params(5, 2, 3)
    assert (params.m, params.genus) == (7, 12)
    params = validate_params(3, 2, 1)
    assert (params.m, params.genus) == (5, 4)
    assert params.trigonal_risk


def test_validate_errors():
    with pytest.raises(NonPrimeP):
        validate_params(4, 2, 1)
    with pytest.raises(NonPrimeP):
        validate_params(2, 2, 1)
    with pytest.raises(NonPositiveQ):
        validate_params(5, 0, 1)
    with pytest.raises(EllOutOfRange):
        validate_params(5, 2, 0)
    with pytest.raises(EllOutOfRange):
        validate_params(5, 2, 5)


@pytest.mark.parametrize(
    "validate,args,error",
    [
        (validate_params, (3, True, 1), NonPositiveQ),
        (validate_params, (5, 2, True), EllOutOfRange),
        (validate_params, (3, 1, True), EllOutOfRange),
        (validate_params, (True, 2, 1), NonPrimeP),
        (validate_p_q, (3, True), NonPositiveQ),
    ],
)
def test_bools_are_not_parameters(validate, args, error):
    # bool is a subclass of int, but a certificate must never print "q": true
    with pytest.raises(error):
        validate(*args)


def test_flags():
    assert validate_params(5, 1, 1).plane_quintic_risk  # genus 6, p = 5, q = 1
    assert not validate_params(5, 2, 1).plane_quintic_risk
    assert validate_params(3, 1, 1).hyperelliptic_risk  # genus 1
    assert validate_params(3, 1, 1).trigonal_risk


@pytest.mark.parametrize("triple,expected", [((5, 2, 1), 16), ((5, 2, 3), 12), ((5, 1, 2), 4)])
def test_genus_examples_double_oracle(triple, expected):
    p, q, ell = triple
    params = validate_params(p, q, ell)
    assert params.genus == expected
    assert sum(mu * q - (mu * ell) // p - 1 for mu in range(1, p)) == expected
    assert _genus_by_enumeration(p, q, ell) == expected


def test_genus_equals_index_set_size_on_sweep():
    for p, q, ell in SWEEP:
        params = validate_params(p, q, ell)
        assert params.genus == len(build_index_set(params)) == _genus_by_enumeration(p, q, ell)


def test_min_exponent():
    params = validate_params(5, 2, 1)
    assert a_power_min_exponent(params, 2) == 0
    params = validate_params(5, 2, 3)
    assert a_power_min_exponent(params, 2) == 3
    assert a_power_min_exponent(params, 0) == 5
    with pytest.raises(IOutOfRange):
        a_power_min_exponent(params, 6)


def test_a_poly_shape():
    params = validate_params(5, 2, 1)
    assert deformation_symbols(params) == ("x1", "x2")
    params = validate_params(5, 2, 3)
    assert deformation_symbols(params) == ("x1",)
    params = validate_params(7, 1, 2)
    assert deformation_symbols(params) == ()


def test_a_power_table_first_power():
    params = validate_params(5, 2, 1)
    table = a_power_coefficients(params, 4)
    syms = ("x1", "x2")
    assert table == {
        2: SparsePoly.constant(syms, 1),
        1: variable(syms, "x1"),
        0: variable(syms, "x2"),
    }


def test_a_power_table_square():
    params = validate_params(5, 2, 1)
    table = a_power_coefficients(params, 3)
    syms = ("x1", "x2")
    assert table == {
        4: SparsePoly.constant(syms, 1),
        3: variable(syms, "x1", 1, 2),
        2: SparsePoly(syms, {(2, 0): 1, (0, 1): 2}),
        1: SparsePoly(syms, {(1, 1): 2}),
        0: SparsePoly(syms, {(0, 2): 1}),
    }


def test_a_power_table_ell_not_one_drops_constant():
    params = validate_params(5, 2, 3)
    table = a_power_coefficients(params, 4)
    syms = ("x1",)
    assert table == {2: SparsePoly.constant(syms, 1), 1: variable(syms, "x1")}
    assert 0 not in table


def test_a_power_range_error():
    params = validate_params(5, 2, 1)
    with pytest.raises(IOutOfRange):
        a_power_coefficients(params, 5)


def _sympy_table(params, i):
    q, ell = params.q, params.ell
    x = sympy.Symbol("x")
    syms = [sympy.Symbol(s) for s in deformation_symbols(params)]
    top = q if ell == 1 else q - 1
    a = x**q + sum(syms[s - 1] * x ** (q - s) for s in range(1, top + 1))
    expanded = sympy.expand(a ** (params.p - i))
    poly = sympy.Poly(expanded, x)
    return {q * (params.p - i) - k: sympy.expand(c) for k, c in enumerate(poly.all_coeffs()) if c != 0}


def _to_sympy(poly, names):
    syms = [sympy.Symbol(n) for n in names]
    expr = sympy.Integer(0)
    for exps, c in poly.terms.items():
        term = sympy.Integer(c)
        for s, e in zip(syms, exps):
            term *= s**e
        expr += term
    return sympy.expand(expr)


@pytest.mark.parametrize("triple", [(5, 2, 1), (5, 2, 3), (3, 2, 1), (7, 1, 1), (3, 3, 2)])
def test_a_power_tables_match_sympy(triple):
    params = validate_params(*triple)
    for i in range(params.p):
        ours = a_power_coefficients(params, i)
        reference = _sympy_table(params, i)
        assert set(ours) == set(reference)
        names = deformation_symbols(params)
        for j, poly in ours.items():
            assert _to_sympy(poly, names) == reference[j]


def _weak_compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _weak_compositions(total - head, parts - 1):
            yield (head,) + tail


def multinomial_coefficient_table(params, i: int) -> dict[int, SparsePoly]:
    """Closed multinomial-sum form of the a(x)^(p-i) coefficient table.

    Independent of a_power_coefficients: sums multinomial(p-i; t_0..t_S) over
    exponent patterns with t_0 + ... + t_S = p - i and weight
    sum_s t_s * (q - s) = j, where the coefficient slot s = 0 carries the
    literal leading 1.  Used as a cross-check of the direct expansion.
    """
    if i < 0 or i > params.p - 1:
        raise IOutOfRange(f"i must lie in [0, {params.p - 1}], got {i}")
    n = params.p - i
    syms = deformation_symbols(params)
    nparts = len(syms) + 1  # slot 0 is the leading coefficient 1
    table: dict[int, SparsePoly] = {}
    for t in _weak_compositions(n, nparts):
        j = sum(ts * (params.q - s) for s, ts in enumerate(t))
        coeff = math.factorial(n)
        for ts in t:
            coeff //= math.factorial(ts)
        mono = SparsePoly(syms, {t[1:]: coeff})
        table[j] = table.get(j, SparsePoly.zero(syms)) + mono
    return {j: poly for j, poly in table.items() if poly}


@pytest.mark.parametrize("triple", [(5, 2, 1), (5, 2, 3), (3, 2, 1), (7, 2, 4)])
def test_multinomial_formula_matches_expansion(triple):
    params = validate_params(*triple)
    for i in range(params.p):
        assert multinomial_coefficient_table(params, i) == a_power_coefficients(params, i)


@pytest.mark.parametrize("triple", [(5, 2, 1), (5, 2, 3)])
def test_power_tables_satisfy_recurrence(triple):
    params = validate_params(*triple)
    variables = ("x",) + deformation_symbols(params)
    # a(x) by its definition: monic of degree q, the symbol x_s at x^(q-s)
    a = variable(variables, "x", params.q)
    for s, name in enumerate(deformation_symbols(params), 1):
        a = a + variable(variables, "x", params.q - s) * variable(variables, name)

    def full(i):
        poly = SparsePoly.zero(variables)
        for j, c in a_power_coefficients(params, i).items():
            poly = poly + SparsePoly(variables, {(j,) + e: v for e, v in c.terms.items()})
        return poly

    for i in range(1, params.p):
        assert full(i) * a == full(i - 1)


@functools.lru_cache(maxsize=None)
def _repeated_product_powers(p: int, q: int, syms: tuple) -> tuple:
    """a(x)^k for k = 0..p over ("x",) + syms by p repeated products, a^0 the
    constant 1: the construction the multinomial pass replaced, kept as its
    reference.  a(x) is monic of degree q with the symbol x_s at x^(q-s)."""
    variables = ("x",) + syms
    exps = [(q - s,) + tuple(int(k == s) for k in range(1, len(syms) + 1)) for s in range(len(syms) + 1)]
    a = SparsePoly(variables, dict.fromkeys(exps, 1))
    powers = [SparsePoly.constant(variables, 1)]
    for _ in range(p):
        powers.append(powers[-1] * a)
    return tuple(powers)


@pytest.mark.parametrize("q", range(1, 7))
@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_multinomial_powers_match_repeated_products(p, q):
    # every valid triple with p <= 13 and q <= 6: the x-degree tables of
    # a(x)^k, k = 0..p, reassembled as sum_j x^j * [a^k]_j, equal the
    # repeated product, and each table is that product's x^j coefficient,
    # keyed in ascending j; the tables the slot table reads
    # (`a_power_coefficients`) are the same ones
    for ell in range(1, p):
        params = validate_params(p, q, ell)
        syms = deformation_symbols(params)
        reference = _repeated_product_powers(p, q, syms)
        tables = _a_powers(params)
        assert len(tables) == p + 1
        for k, table in enumerate(tables):
            whole = SparsePoly(("x",) + syms, {(j,) + e: c for j, d in table.items() for e, c in d.terms.items()})
            assert whole == reference[k], (p, q, ell, k)
            assert all(type(c) is int for c in whole.terms.values())
            split: dict = {}
            for e, c in reference[k].terms.items():
                split.setdefault(e[0], {})[e[1:]] = c
            assert table == {j: SparsePoly(syms, t) for j, t in split.items()}, (p, q, ell, k)
            assert list(table) == sorted(table) and all(d.vars == syms for d in table.values())
        for i in range(p):
            assert a_power_coefficients(params, i) == _a_powers(params)[p - i]
