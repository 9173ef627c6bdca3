"""Function-field normal forms for the three fibres.

Images of degree-2 monomials under the canonical maps are represented as
polynomials of degree < p in the fibre variable with coefficients localized
at a(x).  Negative powers are avoided by a fixed per-fibre clearing
convention: every degree-2 image is multiplied by one shared factor (y^(3p)
on the generic fibre; (a(x)*X)^p on the special and relative fibres, after
cancelling the shared (a(x)(lam*X+1))^(2(p-1)) denominator), so membership
checking is pure polynomial arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BadSpecialization, InvariantViolation, VariableOutsideIndexSet, WrongDegree
from .exactalg import (
    CycloElement,
    Localization,
    LocalizedElement,
    PrimeFieldElement,
    SparsePoly,
    reduce_mod_lambda,
)
from .family import FamilyParams, a_polynomial, deformation_symbols
from .generators import GENERIC, RELATIVE, SPECIAL, relative_lambda_coefficient
from .indexsets import build_index_set
from .termorder import Monomial, multidegree


@dataclass(frozen=True)
class FibreRelation:
    """The defining relation V^p = sum_i rhs[i] * V^i of one fibre.

    V is y on the generic fibre and X on the special and relative fibres;
    rhs coefficients are localized at a(x).
    """

    fibre: str
    p: int
    rhs: tuple[tuple[int, LocalizedElement], ...]
    loc: Localization


class FunctionFieldElement:
    """Normal form sum_{i<p} r_i * V^i with localized coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = tuple(coeffs)

    def __add__(self, other: "FunctionFieldElement") -> "FunctionFieldElement":
        return FunctionFieldElement(a + b for a, b in zip(self.coeffs, other.coeffs))

    def __neg__(self):
        return FunctionFieldElement(-a for a in self.coeffs)

    def __sub__(self, other):
        return self + (-other)

    def scale_poly(self, poly: SparsePoly) -> "FunctionFieldElement":
        return FunctionFieldElement(c.scale_poly(poly) for c in self.coeffs)

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, FunctionFieldElement):
            return NotImplemented
        return all(a == b for a, b in zip(self.coeffs, other.coeffs))

    def __repr__(self):
        bits = [f"({c!r})*V^{i}" for i, c in enumerate(self.coeffs) if c]
        return " + ".join(bits) if bits else "0"


def reduce_normal_form(e: dict, rel: FibreRelation) -> FunctionFieldElement:
    """Reduce a V-polynomial (exp -> localized coefficient) below degree p.

    Each substitution strictly lowers the top V-degree, so the loop runs at
    most (initial degree - p + 1) times.
    """
    work = {k: v for k, v in e.items() if v}
    if work:
        rounds_allowed = max(work) - rel.p + 1
    while work and max(work) >= rel.p:
        top = max(work)
        r = work.pop(top)
        for i, c in rel.rhs:
            k = top - rel.p + i
            add = r * c
            if not add:
                continue
            cur = work.get(k)
            cur = add if cur is None else cur + add
            if cur:
                work[k] = cur
            elif k in work:
                del work[k]
        rounds_allowed -= 1
        if rounds_allowed < 0:
            raise InvariantViolation("normal-form reduction did not lower the top V-degree")
    zero = rel.loc.zero()
    return FunctionFieldElement(work.get(i, zero) for i in range(rel.p))


def check_specialization(params: FamilyParams, specialization: dict) -> None:
    """Raise BadSpecialization unless it assigns integers to exactly the deformation symbols."""
    syms = deformation_symbols(params)
    if set(specialization) != set(syms):
        raise BadSpecialization(
            f"specialization must assign exactly {list(syms)}, got {sorted(specialization)}"
        )
    if not all(isinstance(v, int) for v in specialization.values()):
        raise BadSpecialization("specialization values must be integers")


class FibreContext:
    """Everything needed to evaluate canonical-map images on one fibre.

    With specialization=None the deformation symbols stay symbolic (the
    strongest form of the membership check); otherwise they are replaced by
    base-field values.  It holds no reference to params: params.memo holds
    the context, so a back reference would keep the triple alive until the
    cyclic garbage collector runs.
    """

    def __init__(self, params: FamilyParams, fibre: str, specialization: dict | None = None):
        if fibre not in (GENERIC, SPECIAL, RELATIVE):
            raise ValueError(f"unknown fibre {fibre!r}")
        self.fibre = fibre
        self.p = p = params.p
        syms = deformation_symbols(params)
        if specialization is not None:
            check_specialization(params, specialization)
        self.specialization = dict(specialization) if specialization is not None else None

        if fibre == SPECIAL:
            self.from_int = lambda n: PrimeFieldElement(n, p)
        else:
            self.from_int = lambda n: CycloElement.from_int(p, n)

        self.vars = ("x",) if specialization is not None else ("x",) + syms
        a = a_polynomial(params).as_poly(("x",) + syms, self.from_int)
        if specialization is not None:
            a = a.specialize({s: self.from_int(v) for s, v in specialization.items()})
            if not a:
                raise BadSpecialization("a(x) specialized to zero")
        self.a_poly = a
        self.loc = Localization(a, "x")
        self._a_powers = {1: a}
        self._images: dict[tuple[int, int], FunctionFieldElement] = {}
        self._index_set = frozenset(build_index_set(params))
        self.relation = self._build_relation(params)

    def a_power(self, k: int) -> SparsePoly:
        if k == 0:
            return SparsePoly.constant(self.vars, self.from_int(1))
        got = self._a_powers.get(k)
        if got is None:
            got = self.a_power(k - 1) * self.a_poly
            self._a_powers[k] = got
        return got

    def constant(self, c) -> SparsePoly:
        return SparsePoly.constant(self.vars, c)

    def embed_symbol_poly(self, poly: SparsePoly) -> SparsePoly:
        """Lift a coefficient polynomial in the deformation symbols into the
        context variables, mapping plain-integer coefficients into the ring."""
        mapped = poly.map_coefficients(
            lambda c: self.from_int(c) if isinstance(c, int) else c
        )
        if self.specialization is not None:
            values = {s: self.from_int(v) for s, v in self.specialization.items()}
            mapped = mapped.specialize({s: values[s] for s in mapped.vars})
            return SparsePoly.constant(self.vars, mapped.constant_value())
        return mapped.embed(self.vars)

    def _build_relation(self, params: FamilyParams) -> FibreRelation:
        p = self.p
        ell = params.ell
        x_ell = SparsePoly.variable(self.vars, "x", ell, self.from_int(1))
        if self.fibre == GENERIC:
            lam_p = CycloElement.lam(p) ** p
            rhs_poly = x_ell.scale(lam_p) + self.a_power(p)
            rhs = ((0, self.loc.element(rhs_poly)),)
        elif self.fibre == SPECIAL:
            rhs = (
                (0, self.loc.element(x_ell, p)),
                (1, self.loc.element(self.constant(self.from_int(1)))),
            )
        else:
            entries = [(0, self.loc.element(x_ell, p))]
            for i in range(1, p):
                c = -relative_lambda_coefficient(params, i)
                entries.append((i, self.loc.element(self.constant(c))))
            rhs = tuple(entries)
        return FibreRelation(fibre=self.fibre, p=p, rhs=rhs, loc=self.loc)

    def image_for_multidegree(self, rho: int, T: int) -> FunctionFieldElement:
        """Cleared image of any degree-2 monomial with multidegree (2, rho, T)."""
        got = self._images.get((rho, T))
        if got is not None:
            return got
        p = self.p
        x_rho = SparsePoly.variable(self.vars, "x", rho, self.from_int(1))
        if self.fibre == GENERIC:
            start = {3 * p - T: self.loc.element(x_rho)}
        else:
            e = 3 * p - 2 - T
            start = {e: self.loc.element(x_rho * self.a_power(e))}
        nf = reduce_normal_form(start, self.relation)
        self._images[(rho, T)] = nf
        return nf

    def phi_image(self, m: Monomial) -> FunctionFieldElement:
        if m.degree != 2:
            raise WrongDegree(f"need a degree-2 monomial, got degree {m.degree}")
        for f in m.factors:
            if f not in self._index_set:
                raise VariableOutsideIndexSet(f"{f} is not in the basis index set")
        md = multidegree(m)
        return self.image_for_multidegree(md.sum_n, md.sum_mu)


def fibre_context(params: FamilyParams, fibre: str, specialization: dict | None = None) -> FibreContext:
    """The context of one fibre, built once per triple and specialization."""
    key = (
        FibreContext,
        fibre,
        None if specialization is None else tuple(sorted(specialization.items())),
    )
    ctx = params.memo.get(key)
    if ctx is None:
        ctx = params.memo[key] = FibreContext(params, fibre, specialization)
    return ctx


def phi_image(params: FamilyParams, fibre: str, m: Monomial) -> FunctionFieldElement:
    """Cleared, fully reduced image of a degree-2 monomial on the given fibre."""
    return fibre_context(params, fibre).phi_image(m)


@dataclass(frozen=True)
class RelationReport:
    """Consistency of the three fibre relations with each other."""

    kummer_form_matches_relative: bool
    relative_reduces_to_special: bool
    substitution_recovers_identity: bool

    @property
    def all_hold(self) -> bool:
        return (
            self.kummer_form_matches_relative
            and self.relative_reduces_to_special
            and self.substitution_recovers_identity
        )

    def to_dict(self) -> dict:
        return {
            "kummer_form_matches_relative": self.kummer_form_matches_relative,
            "relative_reduces_to_special": self.relative_reduces_to_special,
            "substitution_recovers_identity": self.substitution_recovers_identity,
            "all_hold": self.all_hold,
        }


def relation_consistency(params: FamilyParams) -> RelationReport:
    """Verify the algebraic compatibility of the stored fibre relations.

    (a) expanding a^p*(lam*X+1)^p - lam^p*x^ell - a^p by the binomial theorem
        equals lam^p * a^p * (X^p - rhs) built from the stored relative
        relation;
    (b) coefficientwise lam-reduction of the relative relation gives the
        special relation;
    (c) substituting y = a*(lam*X+1) into the stored generic relation and
        expanding recovers the same identity as (a) along an independent
        code path (generic polynomial composition instead of a hand-built
        binomial sum).
    """
    p = params.p
    ell = params.ell
    syms = deformation_symbols(params)
    variables = ("x", "X") + syms

    def cy(n) -> CycloElement:
        return CycloElement.from_int(p, n)

    a = a_polynomial(params).as_poly(variables, cy)
    a_p = a**p
    lam = CycloElement.lam(p)
    x_ell = SparsePoly.variable(variables, "x", ell, cy(1))
    X = SparsePoly.variable(variables, "X", 1, cy(1))

    # (a): hand-built binomial-theorem expansion
    lhs_a = SparsePoly.zero(variables)
    for i in range(0, p + 1):
        coeff = lam**i * math.comb(p, i)
        term = a_p.scale(coeff) if i == 0 else (a_p * X**i).scale(coeff)
        lhs_a = lhs_a + term
    lhs_a = lhs_a - x_ell.scale(lam**p) - a_p

    relative = fibre_context(params, RELATIVE)
    rhs_a = (a_p * X**p).scale(lam**p)
    for i, c in relative.relation.rhs:
        num = c.num.embed(variables)
        cleared = num * relative.a_poly.embed(variables) ** (p - c.power) if p > c.power else num
        term = cleared if i == 0 else cleared * X**i
        rhs_a = rhs_a - term.scale(lam**p)
    check_a = lhs_a == rhs_a

    # (b): coefficientwise reduction of the relative relation
    special = fibre_context(params, SPECIAL)
    reduced = {}
    for i, c in relative.relation.rhs:
        num = c.num.map_coefficients(reduce_mod_lambda)
        if num:
            reduced[i] = special.loc.element(num, c.power)
    expected = {i: c for i, c in special.relation.rhs}
    check_b = reduced == expected

    # (c): generic-relation substitution y = a*(lam*X + 1)
    generic = fibre_context(params, GENERIC)
    ((_, gen_rhs),) = generic.relation.rhs
    y = a * (X.scale(lam) + SparsePoly.constant(variables, cy(1)))
    lhs_c = y**p - gen_rhs.num.embed(variables)
    check_c = lhs_c == rhs_a

    return RelationReport(
        kummer_form_matches_relative=check_a,
        relative_reduces_to_special=check_b,
        substitution_recovers_identity=check_c,
    )
