"""Construction of the generating families.

Binomials pair every monomial of a multidegree class with the class minimum;
the per-fibre trinomial-type families attach, to each anchor point, shifted
class minima weighted by the coefficient tables of powers of a(x).  The
relative family's lam-power coefficients are produced by exact cyclotomic
division and a reduction map back onto the special-fibre family is provided.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from .errors import InvariantViolation, NonIntegralCoefficient, NotDivisible, ReductionMismatch
from .exactalg import CycloElement, SparsePoly, divide_by_lambda_power, reduce_mod_lambda
from .family import FamilyParams, a_power_coefficients, deformation_symbols, per_triple
from .indexsets import (
    MinkowskiPoint,
    anchor_set,
    minimal_monomial,
    minkowski_sum,
    monomials_at,
)
from .termorder import TIE_BREAK_DEFAULT, Monomial, format_monomial, term_key

GENERIC = "generic"
SPECIAL = "special"
RELATIVE = "relative"
ANY_FIBRE = "any"

BINOMIAL = "binomial"
TRINOMIAL = "trinomial"


@dataclass(frozen=True)
class GeneratorPoly:
    """A homogeneous degree-2 polynomial in the indexed variables.

    ``terms`` maps monomials to coefficient polynomials in the deformation
    symbols, over Z[lam] on the generic and relative fibres and over Z on
    the special fibre, where an int stands for its residue mod p; a plain
    int, as in the fibre-agnostic binomials, is the image of Z in the ring.
    """

    fibre: str
    provenance: str
    anchor: MinkowskiPoint | None
    terms: tuple[tuple[SparsePoly, Monomial], ...]
    tie_break: str

    def is_homogeneous_degree2(self) -> bool:
        return bool(self.terms) and all(len(m) == 2 for _, m in self.terms)

    def __repr__(self):
        head = f"{self.provenance}/{self.fibre}"
        body = " + ".join(f"({c!r})*{format_monomial(m)}" for c, m in self.terms)
        return f"<{head}: {body}>"


def _sorted_terms(term_map: dict[Monomial, SparsePoly], tie_break: str):
    """Order-descending tuple of (coefficient, monomial), zero coefficients dropped."""
    monos = [m for m, c in term_map.items() if c]
    monos.sort(key=term_key(tie_break), reverse=True)
    return tuple((term_map[m], m) for m in monos)


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
    # a fresh list each call, so a caller that replaces an entry (as
    # `certify --corrupt-one` does) leaves the memo intact
    return list(_binomials(params, all_pairs, tie_break))


@per_triple
def _binomials(params: FamilyParams, all_pairs: bool, tie_break: str) -> tuple[GeneratorPoly, ...]:
    syms = deformation_symbols(params)
    one = SparsePoly.constant(syms, 1)
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
                    terms=_sorted_terms({big: one, small: -one}, tie_break),
                    tie_break=tie_break,
                )
            )
    return tuple(out)


@per_triple
def trinomial_slots(params: FamilyParams, fibre: str) -> tuple[tuple[int, int, SparsePoly], ...]:
    """The fibre's equation, as the slot layout of one trinomial-type generator.

    Each slot (dr, dt, c) places the coefficient polynomial c on the class
    minimum at (rho + dr, T + dt).  Read as an equation in V (y on the
    generic fibre, W = a(x) * X on the others), the slot is the term
    c * x^dr * V^(p-dt) of V^p - rhs: the generators and the fibre relation
    of `fibrealg` are both read off this one table.

    The first slot is the monic lead (0, 0, 1), the V^p term, with its 1
    taken in the fibre's ring: Z[lam], or Z read mod p on the special
    fibre.  This is where a fibre's ring is named; a plain int anywhere
    else stands for its image in whichever ring it meets.

    Every special slot coefficient is its residue in [0, p), and none is 0:
    the multinomials of a(x)^(p-1) divide (p-1)!, which p does not divide.
    """
    p, ell = params.p, params.ell
    if fibre not in (GENERIC, SPECIAL, RELATIVE):
        raise ValueError(f"unknown fibre {fibre!r}")
    one = 1 if fibre == SPECIAL else CycloElement.one(p)
    # (i, w): the coefficient table of a(x)^(p-i), times w, at T-shift p - i
    if fibre == RELATIVE:
        blocks = [(i, relative_lambda_coefficient(params, i)) for i in range(1, p)]
    else:
        blocks = [(0 if fibre == GENERIC else 1, -one)]
    syms = deformation_symbols(params)
    ell_coeff = CycloElement.lam(p) ** p if fibre == GENERIC else one
    slots = [(0, 0, SparsePoly.constant(syms, one)), (ell, p, SparsePoly.constant(syms, -ell_coeff))]
    for i, weight in blocks:
        for j, poly in sorted(a_power_coefficients(params, i).items()):
            slots.append((j, p - i, poly.scale(weight)))
    if fibre == SPECIAL:
        slots = [(dr, dt, c.map_coefficients(lambda v: v % p)) for dr, dt, c in slots]
    return tuple(slots)


def _anchored_generator(
    params: FamilyParams, fibre: str, pt: MinkowskiPoint, tie_break: str
) -> GeneratorPoly:
    """The emitted generator at one anchor: the first of `trinomial_variants`,
    the class minimum in every slot."""
    gen = next(trinomial_variants(params, fibre, pt, tie_break))
    if gen.terms[0][1] != minimal_monomial(params, pt, tie_break):
        raise InvariantViolation(
            f"the {fibre} generator at anchor {pt} does not lead with its class minimum"
        )
    return gen


def generic_generators(params: FamilyParams, tie_break: str = TIE_BREAK_DEFAULT) -> list[GeneratorPoly]:
    """One generator per i = 0 anchor: class minimum minus lam^p times the
    (ell, p)-shifted minimum minus the a(x)^p-weighted (j, p)-shifted minima."""
    term_key(tie_break)  # raises UnknownTieBreak
    return [_anchored_generator(params, GENERIC, pt, tie_break) for pt in anchor_set(params, 0)]


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
    return [_anchored_generator(params, SPECIAL, pt, tie_break) for pt in anchors]


def relative_lambda_coefficient(params: FamilyParams, i: int) -> CycloElement:
    """lam^(i-p) * binom(p, i), computed by exact cyclotomic division.

    Raises NonIntegralCoefficient if the division fails, which would mean the
    lam-adic congruences underlying the construction are wrong.
    """
    p = params.p
    try:
        return divide_by_lambda_power(CycloElement.from_int(p, math.comb(p, i)), p - i)
    except NotDivisible as exc:
        raise NonIntegralCoefficient(f"lam^{i - p} * binom({p},{i}) is not integral") from exc


def relative_generators(params: FamilyParams, tie_break: str = TIE_BREAK_DEFAULT) -> list[GeneratorPoly]:
    """One generator per i = 0 anchor over the cyclotomic ring.

    Terms: class minimum, minus the (ell, p)-shifted minimum, plus
    lam^(i-p)*binom(p,i)*c_{j,p-i} times the (j, p-i)-shifted minima for
    1 <= i <= p-1.
    """
    term_key(tie_break)  # raises UnknownTieBreak
    return [_anchored_generator(params, RELATIVE, pt, tie_break) for pt in anchor_set(params, 0)]


def fibre_generators(
    params: FamilyParams,
    fibre: str,
    all_pairs: bool = False,
    tie_break: str = TIE_BREAK_DEFAULT,
) -> list[GeneratorPoly]:
    """The binomials followed by the fibre's trinomial-type family: the
    family `canideal generators` emits and the kernel oracle checks."""
    families = {GENERIC: generic_generators, SPECIAL: special_generators, RELATIVE: relative_generators}
    if fibre not in families:
        raise ValueError(f"unknown fibre {fibre!r}")
    binomials = binomial_generators(params, all_pairs=all_pairs, tie_break=tie_break)
    return binomials + families[fibre](params, tie_break=tie_break)


def trinomial_variants(params: FamilyParams, fibre: str, pt: MinkowskiPoint, tie_break: str = TIE_BREAK_DEFAULT):
    """Iterate over ALL admissible representatives of the generator at one anchor.

    The first picks the class minimum in every slot and is the one the
    families emit; any other choice of a monomial with the same multidegree
    gives an equally valid generator.  Lazily yields every combination.
    """
    slots = trinomial_slots(params, fibre)
    choice_lists = [
        monomials_at(params, MinkowskiPoint(pt.rho + dr, pt.T + dt), tie_break) for dr, dt, _ in slots
    ]
    for picks in itertools.product(*choice_lists):
        terms: dict[Monomial, SparsePoly] = {}
        for (_, _, coeff), mono in zip(slots, picks):
            cur = terms.get(mono)
            terms[mono] = coeff if cur is None else cur + coeff
        yield GeneratorPoly(
            fibre=fibre,
            provenance=TRINOMIAL,
            anchor=pt,
            terms=_sorted_terms(terms, tie_break),
            tie_break=tie_break,
        )


def reduce_relative_to_special(params: FamilyParams, gens) -> list[GeneratorPoly]:
    """Reduce every cyclotomic coefficient mod lam, to an int in [0, p).

    Only the i = 1 block survives; the output must coincide term-for-term
    with the special-fibre family built on the same anchors, else
    ReductionMismatch is raised.  Each distinct coefficient polynomial is
    reduced once: reduction mod lam is a ring map, so equal polynomials have
    equal reductions.
    """
    reduce = functools.partial(reduce_mod_lambda, p=params.p)
    images: dict[SparsePoly, SparsePoly] = {}
    reduced = []
    for gen in gens:
        if gen.fibre != RELATIVE:
            raise ValueError("reduction applies to relative generators")
        term_map: dict[Monomial, SparsePoly] = {}
        for coeff, mono in gen.terms:
            image = images.get(coeff)
            if image is None:
                image = images[coeff] = coeff.map_coefficients(reduce)
            term_map[mono] = image
        reduced.append(
            GeneratorPoly(
                fibre=SPECIAL,
                provenance=TRINOMIAL,
                anchor=gen.anchor,
                terms=_sorted_terms(term_map, gen.tie_break),
                tie_break=gen.tie_break,
            )
        )
    anchors = [g.anchor for g in gens]
    expected = special_generators(params, anchors=anchors, tie_break=gens[0].tie_break if gens else TIE_BREAK_DEFAULT)
    if [g.terms for g in reduced] != [g.terms for g in expected]:
        raise ReductionMismatch("reduction of the relative family does not match the special family")
    return reduced


def corrupt_generator(gen: GeneratorPoly, bump: int = 1) -> GeneratorPoly:
    """Negative-control hook: add a constant to one non-leading coefficient."""
    coeff, mono = gen.terms[-1]
    bumped = coeff + SparsePoly.constant(coeff.vars, bump)
    terms = tuple(
        (bumped if m == mono and c is coeff else c, m) for c, m in gen.terms
    )
    return GeneratorPoly(
        fibre=gen.fibre,
        provenance=gen.provenance,
        anchor=gen.anchor,
        terms=terms,
        tie_break=gen.tie_break,
    )


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
