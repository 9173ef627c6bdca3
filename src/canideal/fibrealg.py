"""Function-field normal forms for the three fibres.

Images of degree-2 monomials under the canonical maps are normal forms:
tuples of p slot polynomials, slot i the coefficient of V^i, in x and the
deformation symbols over Z[lam] or F_p.  V is y on the generic fibre, where
y^p = lam^p * x^ell + a(x)^p.  On the special and relative fibres the
model's variable X has the denominator a(x)^p in X^p, so V is W = a(x) * X
instead, in which both relations are monic with polynomial coefficients:

    special:  W^p = x^ell + a(x)^(p-1) * W,
    relative: W^p = x^ell - sum_(i=1..p-1) c_i * a(x)^(p-i) * W^i,

with c_i = lam^(i-p) * binom(p, i).  Negative powers are avoided by a fixed
per-fibre clearing convention: every degree-2 image is multiplied by one
shared factor (y^(3p) on the generic fibre; (a(x)*X)^p = W^p on the special
and relative fibres, after cancelling the shared (a(x)(lam*X+1))^(2(p-1))
denominator), so membership checking is pure polynomial arithmetic, with no
division anywhere.

Each relation is read off the fibre's trinomial slot table
(`generators.trinomial_slots`), the table the generators are built from: a
slot (dr, dt, c) is the term -c * x^dr * V^(p-dt) of the right-hand side
(`_relation_rhs`).  The generic slots (ell, p, -lam^p) and
(j, p, -[a^p]_j) give rhs_0 = lam^p * x^ell + a^p; the special slots
(ell, p, -1) and (j, p-1, -[a^(p-1)]_j) give rhs = (x^ell, a^(p-1)); the
relative slots (ell, p, -1) and (j, p-i, c_i * [a^(p-i)]_j) give
rhs_i = -c_i * a^(p-i) next to rhs_0 = x^ell.  The cleared image of the
generator at an anchor (rho, T) is x^rho * V^(E-T-p) * (V^p - rhs), with
E = 3p on the generic fibre and 3p - 2 otherwise, which vanishes modulo the
read-off relation whatever the table says: membership cannot see a wrong
slot.  `relation_consistency` checks the read-off relations against the
model and against each other, so a wrong slot fails the certificate.

Two exact identities keep the number of normal forms small.  The cleared
image of a degree-2 monomial depends only on its multidegree (2, rho, T),
and its start is x^rho times a start that depends only on the weight T
(y^(3p-T) on the generic fibre, (a(x)*X)^e = W^e with e = 3p-2-T
otherwise).  Reduction modulo a monic relation is linear over the
polynomials in x, so image(rho, T) = x^rho * image(0, T): one normal form
per weight T, and every other image is a shift of its coefficients.

The normal forms themselves form one chain per context: NF(V^(e+1)) is the
reduction of V * NF(V^e), whose V-degree is at most p, so each step is one
substitution; linearity makes it the normal form of V^(e+1), and normal
forms are unique.  The relation holds one polynomial per V-slot, and each
substitution multiplies the top coefficient by them through
`SparsePoly.__mul__`, which over Z[lam] is the one packed product; the
split of a factor that the packing needs happens inside `exactalg`, once
per polynomial.

W^i = a(x)^i * X^i, so the W-slot s_i of a normal form is the X-slot
a(x)^i * s_i (`FibreContext.x_coordinates`).  As a(x) != 0 this is an
invertible diagonal change of basis over the function field: a combination
of images vanishes in one basis exactly when it vanishes in the other.

Membership verdicts are kept per shift class.  A combination
sum c_(rho,T) * image(rho, T) equals x^s times the same combination over
(rho - s, T), and x^s is not a zero divisor on the V-slots (polynomials in
x and the symbols over the domain Z[lam] or F_p), so the two vanish
together; the verdict is keyed by the class shifted to min rho = 0 together
with its exact coefficient polynomials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BadSpecialization, InvariantViolation, VariableOutsideIndexSet, WrongDegree
from .exactalg import (
    CycloElement,
    PrimeFieldElement,
    SparsePoly,
    products_vanish,
    reduce_mod_lambda,
)
from .family import FamilyParams, _a_powers, a_polynomial, deformation_symbols, per_triple
from .generators import GENERIC, RELATIVE, SPECIAL, trinomial_slots
from .indexsets import build_index_set
from .termorder import Monomial, multidegree


@dataclass(frozen=True)
class FibreRelation:
    """The defining relation V^p = sum_(i<p) rhs[i] * V^i of one fibre.

    V is y on the generic fibre and W = a(x) * X on the special and relative
    fibres.  rhs holds one polynomial over `vars` per V-slot i = 0..p-1, with
    coefficients in the fibre's ring (Z[lam], or F_p on the special fibre);
    a slot the relation does not use is the zero polynomial.
    """

    fibre: str
    p: int
    vars: tuple[str, ...]
    rhs: tuple[SparsePoly, ...]


@per_triple
def _relation_rhs(params: FamilyParams, fibre: str) -> tuple[SparsePoly, ...]:
    """The fibre relation's rhs over ("x",) + symbols, read off the slot table:
    the slot (dr, dt, c) adds -c * x^dr to rhs[p - dt]."""
    p = params.p
    slots: list[dict] = [{} for _ in range(p)]
    for dr, dt, coeff in trinomial_slots(params, fibre):
        slot = slots[p - dt]
        for e, c in coeff.terms.items():
            key = (dr,) + e
            cur = slot.get(key)
            slot[key] = -c if cur is None else cur - c
    variables = ("x",) + deformation_symbols(params)
    return tuple(SparsePoly(variables, slot) for slot in slots)


def reduce_normal_form(e: dict, rel: FibreRelation) -> tuple[SparsePoly, ...]:
    """Reduce a V-polynomial (exp -> coefficient polynomial) below degree p:
    its normal form, the slots 0..p-1.

    The top coefficient r meets each relation slot s_i as the product
    r * s_i, which over Z[lam] runs on packed ints (`SparsePoly.__mul__`);
    `exactalg` splits each slot for the packing once and keeps the split on
    it.  Each round walks `rel.rhs` once.  Each substitution strictly lowers the
    top V-degree, so the loop runs at most (initial degree - p + 1) times.
    """
    work = {k: v for k, v in e.items() if v}
    if work:
        rounds_allowed = max(work) - rel.p + 1
    while work and max(work) >= rel.p:
        top = max(work)
        r = work.pop(top)
        for i, s in enumerate(rel.rhs):
            if not s:
                continue
            k = top - rel.p + i
            add = r * s
            cur = work.get(k)
            cur = add if cur is None else cur + add
            if cur:
                work[k] = cur
            elif k in work:
                del work[k]
        rounds_allowed -= 1
        if rounds_allowed < 0:
            raise InvariantViolation("normal-form reduction did not lower the top V-degree")
    zero = SparsePoly.zero(rel.vars)
    return tuple(work.get(i, zero) for i in range(rel.p))


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
        # a(x)^k for k = 0..p as multipliers: int coefficients over Z[lam],
        # which the packed product of `SparsePoly.__mul__` takes with no
        # cyclotomic factor to split off; F_p coefficients on the special fibre
        powers = (SparsePoly.constant(("x",) + syms, 1),) + _a_powers(params)
        if specialization is not None:
            powers = tuple(power.specialize(specialization) for power in powers)
        if fibre == SPECIAL:
            powers = tuple(power.map_coefficients(self.from_int) for power in powers)
        self.a_powers = powers
        self._chain: list[tuple[SparsePoly, ...]] = []
        self._verdicts: dict[frozenset, bool] = {}
        self._index_set = frozenset(build_index_set(params))
        rhs = _relation_rhs(params, fibre)
        if specialization is not None:
            rhs = tuple(slot.specialize(specialization) for slot in rhs)
        self.relation = FibreRelation(fibre=fibre, p=p, vars=self.vars, rhs=rhs)

    def constant(self, c) -> SparsePoly:
        return SparsePoly.constant(self.vars, c)

    def embed_symbol_poly(self, poly: SparsePoly) -> SparsePoly:
        """Lift a coefficient polynomial in the deformation symbols into the
        context variables, mapping plain-integer coefficients into the ring.

        A specialized context substitutes the integer values first and maps
        the result once: the map from the integers into the ring is a ring
        homomorphism, so both orders give the same constant.
        """
        if self.specialization is not None:
            value = poly.specialize(self.specialization).constant_value()
            return SparsePoly.constant(self.vars, self.from_int(value) if isinstance(value, int) else value)
        mapped = poly.map_coefficients(
            lambda c: self.from_int(c) if isinstance(c, int) else c
        )
        return mapped.embed(self.vars)

    def weight_image(self, T: int) -> tuple[SparsePoly, ...]:
        """Cleared image of the multidegree (2, 0, T); one normal form per weight.

        The start is y^(3p-T) on the generic fibre and (a X)^e = W^e with
        e = 3p-2-T otherwise.
        """
        return self.power_normal_form(3 * self.p - T if self.fibre == GENERIC else 3 * self.p - 2 - T)

    def power_normal_form(self, e: int) -> tuple[SparsePoly, ...]:
        """NF(V^e), from the chain NF(V^(k+1)) = NF(V * NF(V^k)).

        V * NF(V^k) has V-degree at most p, so each step is one substitution
        round of `reduce_normal_form`; by linearity of the normal form the
        step gives the same normal form as reducing V^(k+1) from scratch.
        """
        chain = self._chain
        if not chain:
            zero = SparsePoly.zero(self.vars)
            one = self.constant(self.from_int(1))
            chain.extend(tuple(one if i == k else zero for i in range(self.p)) for k in range(self.p))
        while len(chain) <= e:
            shifted = {i + 1: c for i, c in enumerate(chain[-1]) if c}
            chain.append(reduce_normal_form(shifted, self.relation))
        return chain[e]

    def x_coordinates(self, img: tuple[SparsePoly, ...]) -> tuple[SparsePoly, ...]:
        """The slots of a normal form in the model's basis: y^i on the generic
        fibre, X^i on the others, where W^i = a(x)^i * X^i makes a(x)^i * s_i
        the X-slot of the W-slot s_i."""
        if self.fibre == GENERIC:
            return img
        return tuple(s * self.a_powers[i] if i else s for i, s in enumerate(img))

    def combination_vanishes(self, coeffs: dict[tuple[int, int], SparsePoly]) -> bool:
        """Is sum_(rho,T) c_(rho,T) * image(rho, T) zero?

        `coeffs` maps multidegrees (rho, T) to coefficient polynomials in the
        deformation symbols.  The verdict is kept per shift class: with
        s = min rho, the sum equals x^s times the sum over (rho - s, T),
        because image(rho, T) = x^rho * image(0, T).  Every V-slot of a
        normal form lies in a domain (polynomials in x and the symbols over
        Z[lam] or F_p), where x^s is not a zero divisor, so one sum vanishes
        exactly when the other does.  The key holds the exact coefficient
        polynomials, so sums that differ in any coefficient never share a
        verdict.
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
        once.  The sum vanishes when every V-slot does; each slot sum
        sum_T C_T * u_T is tested by `products_vanish`, which over Z[lam]
        never unpacks it.  The same C_T object meets every slot, so the
        packed product prepares it once.
        """
        by_weight: dict[int, SparsePoly] = {}
        for (rho, T), coeff in items:
            c = self.embed_symbol_poly(coeff).mul_var_power("x", rho)
            cur = by_weight.get(T)
            by_weight[T] = c if cur is None else cur + c
        images = [(self.weight_image(T), c) for T, c in by_weight.items() if c]
        return all(products_vanish([(u[i], c) for u, c in images]) for i in range(self.p))

    def multidegree_of(self, m: Monomial) -> tuple[int, int]:
        """(rho, T) of a degree-2 monomial in the basis variables."""
        if m.degree != 2:
            raise WrongDegree(f"need a degree-2 monomial, got degree {m.degree}")
        for f in m.factors:
            if f not in self._index_set:
                raise VariableOutsideIndexSet(f"{f} is not in the basis index set")
        md = multidegree(m)
        return md.sum_n, md.sum_mu

    def phi_image(self, m: Monomial) -> tuple[SparsePoly, ...]:
        """Cleared image of a degree-2 monomial of multidegree (2, rho, T):
        x^rho times the weight image."""
        rho, T = self.multidegree_of(m)
        return tuple(c.mul_var_power("x", rho) for c in self.weight_image(T))


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
    """Verify the fibre relations read off the generators' slot tables
    (`_relation_rhs`) against the model and against each other.

    Slot i of a relation stands for rhs[i] * V^i, which is
    rhs[i] * a^i * X^i off the generic fibre (V = W = a*X).

    (a) expanding a^p*(lam*X+1)^p - lam^p*x^ell - a^p by the binomial theorem
        equals lam^p * (W^p - rhs) built from the relative W-relation;
    (b) coefficientwise lam-reduction of the relative relation gives the
        special relation, slot by slot;
    (c) substituting y = a*(lam*X+1) into the generic relation and
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

    def horner(rhs, v: SparsePoly) -> SparsePoly:
        """v^p - sum_i rhs[i] * v^i in `variables`, by Horner's rule in v."""
        acc = SparsePoly.constant(variables, cy(1))
        for slot in reversed(rhs):
            acc = acc * v - slot.embed(variables)
        return acc

    # a and W = a*X with int coefficients, the cheapest factors of the
    # packed product
    a = a_polynomial(params).as_poly(variables)
    a_p = (a**p).map_coefficients(cy)
    lam = CycloElement.lam(p)
    x_ell = SparsePoly.variable(variables, "x", ell, cy(1))
    X = SparsePoly.variable(variables, "X", 1, cy(1))
    W = a.mul_var_power("X", 1)

    # (a): hand-built binomial-theorem expansion
    lhs_a = SparsePoly.zero(variables)
    for i in range(0, p + 1):
        lhs_a = lhs_a + a_p.mul_var_power("X", i).scale(lam**i * math.comb(p, i))
    lhs_a = lhs_a - x_ell.scale(lam**p) - a_p

    # W^p - sum_i rhs[i] * W^i
    relative = _relation_rhs(params, RELATIVE)
    rhs_a = horner(relative, W).scale(lam**p)
    check_a = lhs_a == rhs_a

    # (b): coefficientwise reduction of the relative relation, slot by slot
    reduced = tuple(s.map_coefficients(reduce_mod_lambda) for s in relative)
    check_b = reduced == _relation_rhs(params, SPECIAL)

    # (c): generic-relation substitution y = a*(lam*X + 1)
    y = a * (X.scale(lam) + SparsePoly.constant(variables, cy(1)))
    check_c = horner(_relation_rhs(params, GENERIC), y) == rhs_a

    return RelationReport(
        kummer_form_matches_relative=check_a,
        relative_reduces_to_special=check_b,
        substitution_recovers_identity=check_c,
    )
