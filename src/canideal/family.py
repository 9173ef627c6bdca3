"""Curve-family parameters.

Validates the triple (p, q, ell), computes the genus, and exposes the monic
degree-q deformation polynomial a(x) through the x-degree tables of its
powers a(x)^k, built once per triple by the multinomial theorem.
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


def validate_p_q(p: int, q: int) -> None:
    """Raise the family's error unless p is an odd prime and q a positive integer."""
    # bool is a subclass of int, but True is no parameter
    if type(p) is not int or not is_prime(p) or p < 3:
        raise NonPrimeP(f"p must be an odd prime >= 3, got {p}")
    if type(q) is not int or q < 1:
        raise NonPositiveQ(f"q must be a positive integer, got {q}")


def validate_params(p: int, q: int, ell: int) -> FamilyParams:
    """Validate (p, q, ell) and derive m, the genus
    sum_(mu=1..p-1) (mu*q - floor(mu*ell/p) - 1) and the applicability flags.

    The flags warn but never block: the counting machinery is meaningful for
    every valid triple.
    """
    validate_p_q(p, q)
    if type(ell) is not int or ell < 1 or ell >= p:
        raise EllOutOfRange(f"ell must satisfy 1 <= ell <= p - 1, got {ell}")
    m = p * q - ell
    if m < 1 or math.gcd(p, m) != 1:
        raise EllOutOfRange(f"m = p*q - ell = {m} must be positive and prime to p")
    g = sum(mu * q - (mu * ell) // p - 1 for mu in range(1, p))
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


def deformation_symbols(params: FamilyParams) -> tuple[str, ...]:
    top = params.q if params.ell == 1 else params.q - 1
    return tuple(f"x{s}" for s in range(1, top + 1))


def a_power_min_exponent(params: FamilyParams, i: int) -> int:
    """Smallest x-exponent appearing in a(x)^(p-i): 0 when ell == 1, p - i otherwise."""
    if i < 0 or i > params.p:
        raise IOutOfRange(f"i must lie in [0, {params.p}], got {i}")
    return 0 if params.ell == 1 else params.p - i


@per_triple
def _a_powers(params: FamilyParams) -> tuple[dict[int, SparsePoly], ...]:
    """{j: [a^k]_j} for k = 0..p: the x-degree tables of a(x)^k over the
    symbols, j ascending, int coefficients.  No whole power is built; a
    fibre context reassembles a(x)^k = sum_j x^j * [a^k]_j when its oracle
    reads one (`FibreContext.x_coordinates`).

    a(x) = sum_(s=0..S) x_s * x^(q-s), x_0 = 1, is monic of degree q; the
    constant symbol x_q is present exactly when ell == 1, otherwise x
    divides a(x).  By the multinomial theorem a^k is the sum over
    k_0 + ... + k_S = k of k!/(k_0! ... k_S!) * x^(qk - sum s*k_s) *
    prod_(s>=1) x_s^(k_s), and distinct (k_1, ..., k_S) are distinct symbol
    monomials, so each term is one composition and no product is taken.
    With d = k_1 + ... + k_S its coefficient is binom(k, d) times the
    symbols' own multinomial d!/(k_1! ... k_S!).
    """
    syms, p, q = deformation_symbols(params), params.p, params.q
    # every symbol monomial of degree d <= p: (exponents, d, sum s*k_s, d!/prod k_s!)
    monos = [((), 0, 0, 1)]
    for s in range(1, len(syms) + 1):
        monos = [(e + (k,), d + k, w + s * k, m * math.comb(d + k, k)) for e, d, w, m in monos for k in range(p - d + 1)]
    monos.sort(key=lambda mono: mono[1])
    powers = []
    for k in range(p + 1):
        binom, table = [math.comb(k, d) for d in range(k + 1)], {}
        for e, d, w, m in monos:
            if d > k:
                break
            table.setdefault(q * k - w, {})[e] = binom[d] * m
        powers.append({j: SparsePoly._held(syms, t) for j, t in sorted(table.items())})
    return tuple(powers)


def a_power_coefficients(params: FamilyParams, i: int) -> dict[int, SparsePoly]:
    """Full coefficient table of a(x)^(p-i), read off `_a_powers`.

    Maps the x-exponent j to an integer-coefficient polynomial in the
    deformation symbols; every key satisfies
    a_power_min_exponent(params, i) <= j <= (p - i) * q.
    """
    if i < 0 or i > params.p - 1:
        raise IOutOfRange(f"i must lie in [0, {params.p - 1}], got {i}")
    table = dict(_a_powers(params)[params.p - i])
    # the support is the full contiguous range: every exponent between the
    # minimum and (p-i)*q is realized by some coefficient pattern
    lo, hi = a_power_min_exponent(params, i), (params.p - i) * params.q
    if set(table) != set(range(lo, hi + 1)):
        raise InvariantViolation(
            f"a(x)^{params.p - i} has x-exponents {sorted(table)}, not {lo}..{hi}"
        )
    return table
