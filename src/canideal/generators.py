"""Construction of the generating families.

Binomials pair every monomial of a multidegree class with the class minimum;
the per-fibre trinomial-type families attach, to each anchor point, shifted
class minima weighted by the coefficient tables of powers of a(x).  The
relative family's lam-power coefficients come from one chain of exact
cyclotomic divisions, and a reduction map back onto the special-fibre family
is provided.

Every generator is built in descending term order and never sorted.  A
degree-2 monomial of class (rho, T) has term key (2, -T, rho, v), so
distinct classes compare by (T, rho) alone.  A binomial reverses two
monomials of one ascending class; a trinomial-type generator takes the class
minimum at each slot of its fibre's layout, in (T, rho) order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

from .errors import InvariantViolation, NonHomogeneous, NonIntegralCoefficient, NotDivisible, PointNotInMinkowskiSum
from .errors import ReductionMismatch, WrongFibre
from .exactalg import CycloElement, SparsePoly, _lam_rows, divide_by_lambda_power, multiply_out, residue
from .family import FamilyParams, a_power_coefficients, deformation_symbols, per_triple
from .indexsets import MinkowskiPoint, _anchor_runs, _meet, _runs, anchor_set, minimal_monomial, minkowski_sum, monomials_at
from .termorder import TIE_BREAK_DEFAULT, Monomial, format_monomial, term_key

GENERIC = "generic"
SPECIAL = "special"
RELATIVE = "relative"
FIBRES = (GENERIC, SPECIAL, RELATIVE)
ANY_FIBRE = "any"

BINOMIAL = "binomial"
TRINOMIAL = "trinomial"


def check_fibre(fibre: str, fibres: tuple[str, ...] = FIBRES) -> None:
    """WrongFibre unless `fibre` is one of `fibres`, by default the three."""
    if fibre not in fibres:
        raise WrongFibre(f"fibre {fibre!r}, expected one of {fibres}")


@dataclass(frozen=True)
class GeneratorPoly:
    """A homogeneous degree-2 polynomial in the indexed variables.

    ``terms`` maps monomials to coefficient polynomials in the deformation
    symbols, over Z[lam] on the generic and relative fibres and over Z on
    the special fibre, where an int stands for its residue mod p; a plain
    int, as in the fibre-agnostic binomials, is the image of Z in the ring.

    The monomials are distinct and strictly descending under ``tie_break``
    (every builder here emits them so): ``terms[0]`` holds the lead, the
    monomial `lead` returns.
    """

    fibre: str
    provenance: str
    anchor: MinkowskiPoint | None
    terms: tuple[tuple[SparsePoly, Monomial], ...]
    tie_break: str

    def is_homogeneous_degree2(self) -> bool:
        return bool(self.terms) and all(len(m) == 2 for _, m in self.terms)

    @property
    def lead(self) -> Monomial:
        """The monomial of terms[0], the lead `verify.dimension_criterion`
        counts; NonHomogeneous unless the generator is homogeneous of degree 2."""
        if not self.is_homogeneous_degree2():
            raise NonHomogeneous("criterion requires homogeneous degree-2 generators")
        return self.terms[0][1]

    def __repr__(self):
        head = f"{self.provenance}/{self.fibre}"
        body = " + ".join(f"({c!r})*{format_monomial(m)}" for c, m in self.terms)
        return f"<{head}: {body}>"


def binomial_generators(
    params: FamilyParams,
    all_pairs: bool = False,
    tie_break: str = TIE_BREAK_DEFAULT,
) -> list[GeneratorPoly]:
    """Binomials m1 - m2 for monomials of equal multidegree, tagged ANY_FIBRE:
    their images cancel on every fibre.

    Default is the spanning subset pairing every non-minimal monomial of a
    class with the class minimum, so the count over all classes is
    g(g+1)/2 - |Minkowski sum|.  With all_pairs=True the full family of all
    unordered pairs within each class is emitted instead.
    """
    term_key(tie_break)  # raises UnknownTieBreak
    # a fresh list each call, so a caller that replaces an entry leaves the memo intact
    return list(_binomials(params, all_pairs, tie_break))


@per_triple
def _binomials(params: FamilyParams, all_pairs: bool, tie_break: str) -> tuple[GeneratorPoly, ...]:
    syms = deformation_symbols(params)
    one = SparsePoly.constant(syms, 1)
    minus_one = -one
    out = []
    for pt in minkowski_sum(params):
        group = monomials_at(params, pt, tie_break)
        if all_pairs:
            pairs = [
                (group[j], group[i]) for i in range(len(group)) for j in range(i + 1, len(group))
            ]
        else:
            pairs = [(m, group[0]) for m in group[1:]]
        for big, small in pairs:
            out.append(
                GeneratorPoly(
                    fibre=ANY_FIBRE,
                    provenance=BINOMIAL,
                    anchor=pt,
                    terms=((one, big), (minus_one, small)),
                    tie_break=tie_break,
                )
            )
    return tuple(out)


@per_triple
def trinomial_slots(params: FamilyParams, fibre: str) -> tuple[tuple[int, int, tuple], ...]:
    """The fibre's equation, as the slot layout of one trinomial-type generator.

    Each slot (dr, dt, c) places the coefficient c on the class minimum at
    (rho + dr, T + dt).  Read as an equation in V (y on the generic fibre,
    W = a(x) * X on the others), the slot is the term c * x^dr * V^(p-dt)
    of V^p - rhs: the generators and the fibre relation of `fibrealg` are
    both read off this one table.  c is held as built, groups (gamma_k, d_k)
    standing for sum_k gamma_k * d_k (`exactalg.multiply_out`), a weight of
    the fibre's ring times an int polynomial in the symbols: one group per
    built slot, several in a perturbed one.  Block i holds the int tables of
    a(x)^(p-i) = sum_j x^j * [a^(p-i)]_j themselves, so its slots sum by the
    identity sum_j gamma_i * [a^(p-i)]_j * x^j = gamma_i * a(x)^(p-i) in
    Z[lam][x, symbols], gamma_i = c_i on the relative fibre and -1 on the
    generic one; (ell, p) weighs -1, or -lam^p on the generic fibre.  The
    special weights are the int 1, the tables the residues in [0, p) of -1
    and -[a^(p-1)]_j; none is 0: the multinomials of a(x)^(p-1) divide
    (p-1)!, which p does not divide.

    The first slot is the monic lead (0, 0, 1), the V^p term, with its 1
    taken in the fibre's ring: Z[lam], or Z read mod p on the special
    fibre.  This is where a fibre's ring is named; a plain int anywhere
    else stands for its image in whichever ring it meets.

    `trinomial_layout` joins the groups of slots of equal (dr, dt), one
    class minimum at every anchor (only the generic fibre at ell = 1 has such:
    (ell, p) meets j = 1), drops zero sums, and orders the slots by dt
    ascending, dr descending: their term order at every anchor.
    """
    p, ell = params.p, params.ell
    check_fibre(fibre)
    one = 1 if fibre == SPECIAL else CycloElement.one(p)
    # (i, w): the coefficient table of a(x)^(p-i), weighed by w, at T-shift p - i
    if fibre == RELATIVE:
        blocks = [(i, relative_lambda_coefficient(params, i)) for i in range(1, p)]
    else:
        blocks = [(0 if fibre == GENERIC else 1, -one)]
    unit = SparsePoly.constant(deformation_symbols(params), 1)
    ell_weight = CycloElement.lam_powers(p, p + 1)[p] if fibre == GENERIC else one
    slots = [(0, 0, ((one, unit),)), (ell, p, ((-ell_weight, unit),))]
    for i, weight in blocks:
        slots += [(j, p - i, ((weight, poly),)) for j, poly in sorted(a_power_coefficients(params, i).items())]
    if fibre == SPECIAL:
        slots = [(dr, dt, tuple((1, d.map_coefficients(lambda k: g * k % p)) for g, d in c)) for dr, dt, c in slots]
    return tuple(slots)


def trinomial_layout(params: FamilyParams, fibre: str, i: int | None = None) -> list[tuple[int, int, tuple]]:
    """The fibre's layout: the slots of `trinomial_slots`, as its memo entry
    holds them, with the groups of equal (dr, dt) joined, zero sums
    dropped, and ordered by dt ascending, dr descending, the term order of
    the generator at every anchor.  Built per call with no memo of its own,
    so a slot table placed in the memo is what every reader sees.
    InvariantViolation unless the lead (0, 0) is the only slot with dt <= 0.

    With i, PointNotInMinkowskiSum unless every slot stays in the Minkowski
    sum at every anchor of set i: the anchor interval at T, shifted by dr,
    must lie in the sum's interval at T + dt (`indexsets._meet` on the run
    tables).
    """
    merged: dict[tuple[int, int], tuple] = {}
    syms = deformation_symbols(params)
    for dr, dt, groups in trinomial_slots(params, fibre):
        merged[dr, dt] = merged.get((dr, dt), ()) + groups
    # one group gamma * d is zero only when gamma or d is, Z[lam] being a domain
    nonzero = [(dr, dt, c) for (dr, dt), c in merged.items() if (c[0][0] and c[0][1] if len(c) == 1 else multiply_out(c, syms))]
    layout = sorted(nonzero, key=lambda s: (s[1], -s[0]))
    if [(dr, dt) for dr, dt, _ in layout if dt <= 0] != [(0, 0)]:
        raise InvariantViolation(f"the {fibre} generators do not lead with the class minimum of their anchor")
    if i is not None:
        anchors, runs = _anchor_runs(params)[i], _runs(params)
        if any(_meet(anchors, runs, dt, dr, dr) != anchors for dr, dt, _ in layout):
            raise PointNotInMinkowskiSum(f"the {fibre} layout leaves the Minkowski sum at an anchor of set {i}")
    return layout


def _trinomial_family(params: FamilyParams, fibre: str, anchors, tie_break: str) -> list[GeneratorPoly]:
    """One generator per anchor: `trinomial_layout`, each slot multiplied
    out once, on the class minima at the shifted points,
    PointNotInMinkowskiSum if a point is missing."""
    layout = trinomial_layout(params, fibre)
    coeffs = [multiply_out(c, deformation_symbols(params)) for _, _, c in layout]
    gens = []
    for pt in anchors:
        minima = [minimal_monomial(params, MinkowskiPoint(pt.rho + dr, pt.T + dt), tie_break) for dr, dt, _ in layout]
        terms = tuple(zip(coeffs, minima))
        gens.append(GeneratorPoly(fibre=fibre, provenance=TRINOMIAL, anchor=pt, terms=terms, tie_break=tie_break))
    return gens


def generic_generators(params: FamilyParams, tie_break: str = TIE_BREAK_DEFAULT) -> list[GeneratorPoly]:
    """One generator per i = 0 anchor: class minimum minus lam^p times the
    (ell, p)-shifted minimum minus the a(x)^p-weighted (j, p)-shifted minima."""
    term_key(tie_break)  # raises UnknownTieBreak
    return _trinomial_family(params, GENERIC, anchor_set(params, 0), tie_break)


def special_generators(
    params: FamilyParams,
    anchors=None,
    tie_break: str = TIE_BREAK_DEFAULT,
) -> list[GeneratorPoly]:
    """One generator per i = 1 anchor (or per supplied anchor), with the
    a(x)^(p-1) coefficient table reduced mod p into [0, p)."""
    term_key(tie_break)  # raises UnknownTieBreak
    if anchors is None:
        anchors = anchor_set(params, 1)
    return _trinomial_family(params, SPECIAL, anchors, tie_break)


@per_triple
def relative_lambda_coefficient(params: FamilyParams, i: int) -> CycloElement:
    """c_i = lam^(i-p) * binom(p, i) for 0 < i < p, once per triple.

    c_1 = p / lam^(p-1) takes one chain of p - 1 exact divisions by lam;
    c_i = (binom(p, i) / p) * lam^(i-1) * c_1 is row i - 1 of `_lam_rows`
    on c_1 times an int, as the prime p divides p! but not i! (p - i)!.
    Raises NonIntegralCoefficient if the division fails, which would mean
    the lam-adic congruences underlying the construction are wrong.
    """
    p = params.p
    if i > 1:
        row = _lam_rows(relative_lambda_coefficient(params, 1).coeffs, i)[i - 1]
        return CycloElement._integral(p, tuple(math.comb(p, i) // p * x for x in row))
    try:
        return divide_by_lambda_power(CycloElement.from_int(p, p), p - 1)
    except NotDivisible as exc:
        raise NonIntegralCoefficient(f"lam^{1 - p} * {p} is not integral") from exc


def relative_generators(params: FamilyParams, tie_break: str = TIE_BREAK_DEFAULT) -> list[GeneratorPoly]:
    """One generator per i = 0 anchor over the cyclotomic ring.

    Terms: class minimum, minus the (ell, p)-shifted minimum, plus
    lam^(i-p)*binom(p,i)*c_{j,p-i} times the (j, p-i)-shifted minima for
    1 <= i <= p-1.
    """
    term_key(tie_break)  # raises UnknownTieBreak
    return _trinomial_family(params, RELATIVE, anchor_set(params, 0), tie_break)


def fibre_generators(
    params: FamilyParams,
    fibre: str,
    all_pairs: bool = False,
    tie_break: str = TIE_BREAK_DEFAULT,
) -> list[GeneratorPoly]:
    """The binomials followed by the fibre's trinomial-type family: the
    family `canideal generators` emits."""
    check_fibre(fibre)
    families = {GENERIC: generic_generators, SPECIAL: special_generators, RELATIVE: relative_generators}
    family = families[fibre](params, tie_break=tie_break)
    return binomial_generators(params, all_pairs=all_pairs, tie_break=tie_break) + family


def reduce_relative_to_special(params: FamilyParams, gens) -> list[GeneratorPoly]:
    """Reduce every cyclotomic coefficient mod lam, to an int in [0, p)
    (`residue` at r = p, lam = 0); WrongFibre for a non-relative generator.

    Only the i = 1 block survives; the output must coincide term-for-term
    with the special-fibre family built on the same anchors, else
    ReductionMismatch is raised.  Terms whose coefficient reduces to zero
    are dropped; the rest keep their order.  Each distinct coefficient
    polynomial is reduced once: reduction mod lam is a ring map, so equal
    polynomials have equal reductions.

    For the intact families `verify.certify` decides the same comparison
    once, on the layouts.  Both families are the same function
    of (layout, anchor): the term of slot (dr, dt, c) at the anchor (rho, T)
    is c on the class minimum at (rho + dr, T + dt).  Distinct slots sit at
    distinct points, and distinct points have distinct class minima, so at
    one anchor two term lists are equal exactly when their slot lists
    (dr, dt, c), in order, are.  Reduction acts on c alone.  So every
    reduced generator equals its special one exactly when the relative
    layout's residues, zeros dropped, equal the special layout, whatever
    the anchors, provided there is one; on no anchor both lists are empty.
    """
    reduce = functools.partial(residue, r=params.p, lam=0)
    images: dict[SparsePoly, SparsePoly] = {}
    reduced = []
    for gen in gens:
        check_fibre(gen.fibre, (RELATIVE,))
        terms = []
        for coeff, mono in gen.terms:
            image = images.get(coeff)
            if image is None:
                image = images[coeff] = coeff.map_coefficients(reduce)
            if image:
                terms.append((image, mono))
        reduced.append(replace(gen, fibre=SPECIAL, provenance=TRINOMIAL, terms=tuple(terms)))
    anchors = [g.anchor for g in gens]
    expected = special_generators(params, anchors=anchors, tie_break=gens[0].tie_break if gens else TIE_BREAK_DEFAULT)
    if [g.terms for g in reduced] != [g.terms for g in expected]:
        raise ReductionMismatch("reduction of the relative family does not match the special family")
    return reduced


# ---------------------------------------------------------------------------
# Serialization


def generator_to_jsonable(gen: GeneratorPoly, p: int) -> dict:
    """A special generator's int coefficients are residues, emitted mod p."""

    def coefficient(c) -> dict:
        if isinstance(c, CycloElement):
            return {"lambda_coeffs": [str(v) for v in c.coeffs]}
        return {"mod_p": c % p} if gen.fibre == SPECIAL else {"int": c}

    return {
        "fibre": gen.fibre,
        "provenance": gen.provenance,
        "anchor": [gen.anchor.rho, gen.anchor.T] if gen.anchor else None,
        "terms": [
            {
                "monomial": [[f.N, f.mu] for f in mono],
                "coefficient": {
                    "terms": [
                        {"exps": list(e), **coefficient(c)}
                        for e, c in coeff.sorted_terms()
                    ],
                    "symbols": list(coeff.vars),
                },
            }
            for coeff, mono in gen.terms
        ],
    }


def generators_document(params: FamilyParams, gens, fibre: str, tie_break: str) -> dict:
    """Stable, versioned serialization of a generator family."""
    return {
        "schema": "canideal.generators/1",
        "params": {"p": params.p, "q": params.q, "ell": params.ell, "m": params.m, "genus": params.genus},
        "fibre": fibre,
        "tie_break": tie_break,
        "count": len(gens),
        "generators": [generator_to_jsonable(g, params.p) for g in gens],
    }
