"""Curve-family parameters.

Validates the triple (p, q, ell), computes the genus, and exposes the monic
degree-q deformation polynomial a(x) together with the exact coefficient
tables of its powers a(x)^(p-i).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .errors import EllOutOfRange, InvariantViolation, IOutOfRange, NonPositiveQ, NonPrimeP
from .exactalg import SparsePoly, is_prime


@dataclass(frozen=True)
class FamilyParams:
    """Validated parameters (p, q, ell) with derived quantities.

    m = p*q - ell is the branch invariant; the risk flags mark parameter
    ranges where the degree-2 generation statement may not apply even though
    the combinatorial machinery still runs.
    """

    p: int
    q: int
    ell: int
    m: int
    genus: int
    hyperelliptic_risk: bool
    trigonal_risk: bool
    plane_quintic_risk: bool

    @functools.cached_property
    def memo(self) -> dict:
        """Data derived from this triple, freed with it; not a field, so not in == or hash."""
        return {}


def per_triple(fn):
    """Memoise fn(params, *args) in params.memo.  Threads sharing one params
    may build an entry twice; the results are equal and either is kept."""

    @functools.wraps(fn)
    def wrapper(params: FamilyParams, *args):
        key = (fn, *args)
        if key not in params.memo:
            params.memo[key] = fn(params, *args)
        return params.memo[key]

    return wrapper


@dataclass(frozen=True)
class APolynomial:
    """The monic degree-q polynomial a(x).

    The coefficient of x^(q-s) is the named symbol x_s for s >= 1 and the
    leading coefficient is the literal 1.  The constant symbol x_q is present
    exactly when ell == 1; otherwise a(x) is divisible by x.
    """

    q: int
    ell: int
    symbols: tuple[str, ...]

    def as_poly(self, variables, from_int=lambda n: n) -> SparsePoly:
        """Materialize over a variable tuple containing "x" and the symbols."""
        variables = tuple(variables)
        poly = SparsePoly.variable(variables, "x", self.q, from_int(1))
        top = self.q if self.ell == 1 else self.q - 1
        for s in range(1, top + 1):
            poly = poly + SparsePoly.variable(variables, "x", self.q - s, from_int(1)) * SparsePoly.variable(
                variables, f"x{s}", 1, from_int(1)
            )
        return poly


def _genus_formula(p: int, q: int, ell: int) -> int:
    return sum(mu * q - (mu * ell) // p - 1 for mu in range(1, p))


def validate_params(p: int, q: int, ell: int) -> FamilyParams:
    """Validate (p, q, ell) and derive m, genus and the applicability flags.

    The flags warn but never block: the counting machinery is meaningful for
    every valid triple.
    """
    if not isinstance(p, int) or not is_prime(p) or p < 3:
        raise NonPrimeP(f"p must be an odd prime >= 3, got {p}")
    if not isinstance(q, int) or q < 1:
        raise NonPositiveQ(f"q must be a positive integer, got {q}")
    if not isinstance(ell, int) or ell < 1 or ell >= p:
        raise EllOutOfRange(f"ell must satisfy 1 <= ell <= p - 1, got {ell}")
    m = p * q - ell
    if m < 1 or math.gcd(p, m) != 1:
        raise EllOutOfRange(f"m = p*q - ell = {m} must be positive and prime to p")
    g = _genus_formula(p, q, ell)
    return FamilyParams(
        p=p,
        q=q,
        ell=ell,
        m=m,
        genus=g,
        hyperelliptic_risk=g < 3,
        trigonal_risk=p == 3,
        plane_quintic_risk=(g == 6 and p == 5 and q == 1),
    )


def genus(params: FamilyParams) -> int:
    """sum_{mu=1}^{p-1} (mu*q - floor(mu*ell/p) - 1); never negative."""
    return _genus_formula(params.p, params.q, params.ell)


def deformation_symbols(params: FamilyParams) -> tuple[str, ...]:
    top = params.q if params.ell == 1 else params.q - 1
    return tuple(f"x{s}" for s in range(1, top + 1))


def a_polynomial(params: FamilyParams) -> APolynomial:
    return APolynomial(q=params.q, ell=params.ell, symbols=deformation_symbols(params))


def a_power_min_exponent(params: FamilyParams, i: int) -> int:
    """Smallest x-exponent appearing in a(x)^(p-i): 0 when ell == 1, p - i otherwise."""
    if i < 0 or i > params.p:
        raise IOutOfRange(f"i must lie in [0, {params.p}], got {i}")
    return 0 if params.ell == 1 else params.p - i


@per_triple
def _a_powers(params: FamilyParams) -> tuple[SparsePoly, ...]:
    """a(x)^k for k = 1..p over ("x", symbols) with integer coefficients."""
    variables = ("x",) + deformation_symbols(params)
    a = a_polynomial(params).as_poly(variables)
    powers = [a]
    for _ in range(params.p - 1):
        powers.append(powers[-1] * a)
    return tuple(powers)


def a_power_coefficients(params: FamilyParams, i: int) -> dict[int, SparsePoly]:
    """Full coefficient table of a(x)^(p-i), computed by repeated multiplication.

    Maps the x-exponent j to an integer-coefficient polynomial in the
    deformation symbols; every key satisfies
    a_power_min_exponent(params, i) <= j <= (p - i) * q.
    """
    if i < 0 or i > params.p - 1:
        raise IOutOfRange(f"i must lie in [0, {params.p - 1}], got {i}")
    power = _a_powers(params)[params.p - i - 1]
    table = {}
    syms = deformation_symbols(params)
    for j, poly in power.strata("x").items():
        table[j] = poly.drop_vars(("x",))
        if table[j].vars != syms:
            raise InvariantViolation(
                f"a(x)^{params.p - i} coefficient of x^{j} is not a polynomial in {syms}"
            )
    # the support is the full contiguous range: every exponent between the
    # minimum and (p-i)*q is realized by some coefficient pattern
    lo, hi = a_power_min_exponent(params, i), (params.p - i) * params.q
    if set(table) != set(range(lo, hi + 1)):
        raise InvariantViolation(
            f"a(x)^{params.p - i} has x-exponents {sorted(table)}, not {lo}..{hi}"
        )
    return table


def _weak_compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _weak_compositions(total - head, parts - 1):
            yield (head,) + tail


def multinomial_coefficient_table(params: FamilyParams, i: int) -> dict[int, SparsePoly]:
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
        mono = SparsePoly.monomial(syms, t[1:], coeff)
        table[j] = table.get(j, SparsePoly.zero(syms)) + mono
    return {j: poly for j, poly in table.items() if poly}
