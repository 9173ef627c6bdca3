"""Function-field normal forms for the three fibres.

Images of degree-2 monomials under the canonical maps are represented as
polynomials of degree < p in the fibre variable with coefficients localized
at a(x).  Negative powers are avoided by a fixed per-fibre clearing
convention: every degree-2 image is multiplied by one shared factor (y^(3p)
on the generic fibre; (a(x)*X)^p on the special and relative fibres, after
cancelling the shared (a(x)(lam*X+1))^(2(p-1)) denominator), so membership
checking is pure polynomial arithmetic.

Two exact identities keep the number of normal forms small.  The cleared
image of a degree-2 monomial depends only on its multidegree (2, rho, T),
and its start is x^rho times a start that depends only on the weight T
(y^(3p-T) on the generic fibre, (a(x)*X)^e with e = 3p-2-T otherwise).
Reduction modulo the fibre relation is linear over the polynomials in x
localized at a(x), so image(rho, T) = x^rho * image(0, T): one normal form
per weight T, and every other image is a shift of its numerators,
renormalized so that the reduced form u / a(x)^k (a(x) does not divide u
when k > 0) stays canonical.  By the same linearity the weight image off the
generic fibre is a(x)^e times the normal form of X^e.

The normal forms themselves form one chain per context: NF(V^(e+1)) is the
reduction of V * NF(V^e), whose V-degree is at most p, so each step is one
substitution; linearity makes it the reduced form of V^(e+1), and reduced
forms are canonical.  Over Z[lam] the powers of a(x) that clear and align
the slots are taken with int coefficients (`SparsePoly.mul_ints`).

Membership verdicts are kept per shift class.  A combination
sum c_(rho,T) * image(rho, T) equals x^s times the same combination over
(rho - s, T), and x^s is not a zero divisor on the V-slots (polynomials in
x and the symbols over the domain Z[lam] or F_p, localized at a(x)), so the
two vanish together; the verdict is keyed by the class shifted to
min rho = 0 together with its exact coefficient polynomials.
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
    products_vanish,
    reduce_mod_lambda,
    split_content,
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
    # bool is a subclass of int, but no coordinate of Z[lam] or F_p is a bool
    if not all(type(v) is int for v in specialization.values()):
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
        a_ints = a_polynomial(params).as_poly(("x",) + syms)
        if specialization is not None:
            a_ints = a_ints.specialize(specialization)
        a = a_ints.map_coefficients(self.from_int)
        if not a:
            raise BadSpecialization("a(x) specialized to zero")
        self.a_poly = a
        # over Z[lam] the denominator keeps a(x) with int coefficients, so its
        # powers multiply numerators through `SparsePoly.mul_ints`
        self.loc = Localization(a if fibre == SPECIAL else a_ints, "x")
        self._weight_images: dict[int, FunctionFieldElement] = {}
        self._chain: list[FunctionFieldElement] = []
        self._verdicts: dict[frozenset, bool] = {}
        self._index_set = frozenset(build_index_set(params))
        self.relation = self._build_relation(params)

    def a_power(self, k: int) -> SparsePoly:
        """a(x)^k with coefficients in the context's ring."""
        power = self.loc.power(k)
        return power if self.fibre == SPECIAL else power.map_coefficients(self.from_int)

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

    def weight_image(self, T: int) -> FunctionFieldElement:
        """Cleared image of the multidegree (2, 0, T); one normal form per weight."""
        got = self._weight_images.get(T)
        if got is not None:
            return got
        p = self.p
        if self.fibre == GENERIC:
            nf = self.power_normal_form(3 * p - T)
        else:
            # (a X)^e = a^e * X^e: multiply each reduced u / a^k of NF(X^e)
            # by a^e without any division
            e = 3 * p - 2 - T
            nf = FunctionFieldElement(self._times_a_power(c, e) for c in self.power_normal_form(e).coeffs)
        self._weight_images[T] = nf
        return nf

    def power_normal_form(self, e: int) -> FunctionFieldElement:
        """NF(V^e), from the chain NF(V^(k+1)) = NF(V * NF(V^k)).

        V * NF(V^k) has V-degree at most p, so each step is one substitution
        round of `reduce_normal_form`; by linearity of the normal form the
        step gives the same reduced form as reducing V^(k+1) from scratch.
        """
        chain = self._chain
        if not chain:
            zero = self.loc.zero()
            one = self.loc.element(self.constant(self.from_int(1)))
            chain.extend(
                FunctionFieldElement(one if i == k else zero for i in range(self.p)) for k in range(self.p)
            )
        while len(chain) <= e:
            shifted = {i + 1: c for i, c in enumerate(chain[-1].coeffs) if c}
            chain.append(reduce_normal_form(shifted, self.relation))
        return chain[e]

    def _times_a_power(self, c: LocalizedElement, e: int) -> LocalizedElement:
        """a^e * u / a^k in reduced form, given u / a^k reduced.  Over Z[lam]
        the power has int coefficients, so the product is `mul_ints`."""
        if e >= c.power:
            return LocalizedElement(self.loc, c.num * self.loc.power(e - c.power), 0)
        return LocalizedElement(self.loc, c.num, c.power - e)

    def image_for_multidegree(self, rho: int, T: int) -> FunctionFieldElement:
        """Cleared image of any degree-2 monomial with multidegree (2, rho, T).

        x^rho times the weight image.  When ell != 1, x divides a(x), so a
        shifted numerator could become divisible by a(x); LocalizedElement
        renormalizes it, which keeps the reduced form (and the oracle's
        columns) equal to a direct reduction of x^rho times the start.  The
        clearing factor makes every image met so far a polynomial
        (a(x)-power 0), where this costs nothing.
        """
        base = self.weight_image(T)
        if not rho:
            return base
        return FunctionFieldElement(
            LocalizedElement(self.loc, c.num.mul_var_power("x", rho), c.power) for c in base.coeffs
        )

    def combination_vanishes(self, coeffs: dict[tuple[int, int], SparsePoly]) -> bool:
        """Is sum_(rho,T) c_(rho,T) * image(rho, T) zero?

        `coeffs` maps multidegrees (rho, T) to coefficient polynomials in the
        deformation symbols.  The verdict is kept per shift class: with
        s = min rho, the sum equals x^s times the sum over (rho - s, T),
        because image(rho, T) = x^rho * image(0, T).  Every V-slot of a
        normal form lies in a domain (polynomials in x and the symbols over
        Z[lam] or F_p, localized at a(x)), where x^s is not a zero divisor,
        so one sum vanishes exactly when the other does.  The key holds the
        exact coefficient polynomials, so sums that differ in any
        coefficient never share a verdict.
        """
        if not coeffs:
            return True
        s = min(rho for rho, _ in coeffs)
        key = frozenset(((rho - s, T), c) for (rho, T), c in coeffs.items())
        verdict = self._verdicts.get(key)
        if verdict is None:
            verdict = self._verdicts[key] = self._sum_vanishes(key)
        return verdict

    def _sum_vanishes(self, items) -> bool:
        """Evaluate sum c_(rho,T) * image(rho, T) over ((rho, T), c) items.

        The coefficients of one weight T combine into
        C_T = sum_rho x^rho * c_(rho,T), which multiplies the weight image
        once.  When C_T is one cyclotomic element gamma times a polynomial d
        with int coefficients (`split_content`), gamma and d multiply the
        weight image on packed ints (`products_vanish`, `mul_ints`); in
        `certify` this holds for every weight sum of every relative
        trinomial, since all slots of one weight carry the same
        lam-coefficient.  Each V-slot is tested at its largest a(x)-power k:
        u / a(x)^k = 0 iff u = 0.
        """
        by_weight: dict[int, SparsePoly] = {}
        for (rho, T), coeff in items:
            c = self.embed_symbol_poly(coeff).mul_var_power("x", rho)
            cur = by_weight.get(T)
            by_weight[T] = c if cur is None else cur + c
        # per V-slot: (a(x)-power k, numerator u, gamma, d) for u / a(x)^k * gamma * d
        slots: list[list] = [[] for _ in range(self.p)]
        for T, c in by_weight.items():
            if not c:
                continue
            gamma, d = split_content(c)
            for slot, elt in zip(slots, self.weight_image(T).coeffs):
                if elt:
                    slot.append((elt.power, elt.num, gamma, d))
        return all(self._slot_vanishes(slot) for slot in slots if slot)

    def _slot_vanishes(self, slot) -> bool:
        """Is sum gamma * d * u / a(x)^k zero?  Tested at the largest power
        `top`, where the sum is (sum gamma * d * a(x)^(top-k) * u) / a(x)^top."""
        top = max(k for k, _, _, _ in slot)
        if all(gamma is not None for _, _, gamma, _ in slot):  # never on F_p
            return products_vanish(
                [(u, d if k == top else d * self.loc.power(top - k), gamma) for k, u, gamma, d in slot]
            )
        total = SparsePoly.zero(self.vars)
        for k, u, gamma, d in slot:
            term = u * d if gamma is None else u.mul_ints(d, gamma)
            total = total + term * self.loc.power(top - k)
        return not total

    def multidegree_of(self, m: Monomial) -> tuple[int, int]:
        """(rho, T) of a degree-2 monomial in the basis variables."""
        if m.degree != 2:
            raise WrongDegree(f"need a degree-2 monomial, got degree {m.degree}")
        for f in m.factors:
            if f not in self._index_set:
                raise VariableOutsideIndexSet(f"{f} is not in the basis index set")
        md = multidegree(m)
        return md.sum_n, md.sum_mu

    def phi_image(self, m: Monomial) -> FunctionFieldElement:
        return self.image_for_multidegree(*self.multidegree_of(m))


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
