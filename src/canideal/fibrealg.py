"""Function-field normal forms for the three fibres.

Images of degree-2 monomials under the canonical maps are normal forms:
tuples of p slot polynomials, slot i the coefficient of V^i, in x and the
deformation symbols over Z[lam], or Z read mod p on the special fibre.  V is
y on the generic fibre, where y^p = lam^p * x^ell + a(x)^p.  On the special
and relative fibres the
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

Each relation is the fibre's trinomial slot table
(`generators.trinomial_slots`), the table the generators are built from,
grouped by V-degree and weight (`_relation_rhs`): after the lead (0, 0, 1),
which is V^p, a slot (dr, dt, c) is the term -c * x^dr * V^(p-dt) of the
right-hand side, and each group (gamma, d) of c, a ring weight times an int
table, is a part (dr, d) of the weight -gamma in rhs_(p-dt), no table
joined.  The generic slots (ell, p, -lam^p * 1) and (j, p, -1 * [a^p]_j)
give rhs_0 = lam^p * x^ell + a^p; the special slots (ell, p, 1 * (p-1))
and (j, p-1, 1 * ([-a^(p-1)]_j mod p)) give rhs = (x^ell, a^(p-1)) mod p;
the relative slots (ell, p, -1 * 1) and (j, p-i, c_i * [a^(p-i)]_j) give
rhs_i = -c_i * a^(p-i) next to rhs_0 = x^ell.  The cleared image of the
generator at an anchor (rho, T) is x^rho * V^(E-T-p) * (V^p - rhs), with
E = 3p on the generic fibre and 3p - 2 otherwise, which vanishes modulo the
read-off relation whatever the table says: membership cannot see a wrong
slot.  `relation_consistency` reads the relations slot by slot against the
model (the tables of a(x)^k, `family._a_powers`) and against each other;
the read is the check, and a table built any other way fails the certificate.

Each fibre's ring is named once, by the monic lead (0, 0, 1) of its slot
table: its 1 lies in Z[lam] on the generic and relative fibres and is the
int 1 on the special fibre, which computes over Z.  `_relation_rhs` raises
InvariantViolation for any other lead, and the normal-form chain starts
from that 1 (`FibreContext.one`).  Everywhere else a plain int is the image
of Z in whichever ring it meets (a(x) and its powers, the binomials'
coefficients, the specialized values).  This is exact:

- Z -> R has exactly one ring map, and every mixed int/R operation
  dispatches to R (`CycloElement._coerce`; the packed reduction takes an
  int as its own lam^0 coordinate).
- A value is read as an element of R in three places only: the zero test
  of a generator's reduced combination and the oracle's residue entries
  and column keys, each a normal form or a product with one.  On the
  special fibre R is F_p, and each of them reads the int mod p.
- Normal-form slots lie in R: each substitution multiplies by relation
  slots read off the same table, the chain starts from the table's 1, and
  a combination starts at V-degrees E - T >= p, so each of its
  coefficients meets a relation slot.
- residue(n) == residue(R(n)), because both maps are ring maps.
- The special relation is monic in W over Z and Z -> F_p is a ring map,
  so NF over Z read mod p is NF over F_p: f - NF(f) stays in the relation's
  ideal and NF(f) below W^p, and that remainder is unique.

So every verdict and every output byte is the one the same computation gives
with each int first mapped into R.

The cleared image of a degree-2 monomial depends only on its multidegree
(2, rho, T): its start is x^rho * V^(E-T), with E = 3p on the generic fibre
(y^(3p-T)) and E = 3p - 2 otherwise ((a(x)*X)^e = W^e, e = 3p-2-T).
Reduction modulo a monic relation is unique and linear over the polynomials
in x and the symbols, so a generator's image sum_T C_T * NF(V^(E-T)) is the
normal form of the one V-polynomial sum_T C_T * V^(E-T), which membership
reduces (`FibreContext._sum_vanishes`).

There is one reduction, `reduce_normal_form`, on packed ints on every
fibre; this module is the one that knows the packed format (exponent keys,
signed digits of width B, units and unpacking).  Each substitution
multiplies the top coefficient by one row set per distinct weight of a
relation slot (`_accumulate`), a term k of a part's d at x^dr packed at the
key (pack(e) << width) + dr, the joined slot's own key.  Membership reads
its verdict as a zero test on the packed values, mod p on the special
fibre, and unpacks nothing when the combination vanishes in one round, as
every intact trinomial's does.  The oracle's rows need the weight images
NF(V^(E-T)) themselves, one chain per context (`power_normal_form`).

W^i = a(x)^i * X^i, so the W-slot s_i of a normal form is the X-slot
a(x)^i * s_i (`FibreContext.x_coordinates`).  As a(x) != 0 this is an
invertible diagonal change of basis over the function field: a combination
of images vanishes in one basis exactly when it vanishes in the other.

Membership verdicts are kept per (x, V)-shift class: neither x nor V is a
zero divisor modulo the relation when rhs_0 != 0 (V acts by the companion
matrix, of determinant +-rhs_0), so every anchor of a trinomial layout
shares one verdict (`FibreContext.combination_vanishes` gives the argument).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field

from .errors import (
    BadSpecialization,
    InvariantViolation,
    NonHomogeneous,
    TOutOfRange,
    VariableOutsideIndexSet,
    WrongDegree,
    WrongFibre,
)
from .exactalg import CycloElement, SparsePoly, _lam_rows, multiply_out, residue
from .family import FamilyParams, _a_powers, deformation_symbols, per_triple
from .generators import ANY_FIBRE, GENERIC, RELATIVE, SPECIAL, GeneratorPoly, relative_lambda_coefficient, trinomial_slots
from .indexsets import monomial_multidegrees
from .termorder import Monomial


@dataclass(frozen=True)
class FibreRelation:
    """The defining relation V^p = sum_(i<p) rhs[i] * V^i of one fibre.

    V is y on the generic fibre and W = a(x) * X on the special and relative
    fibres.  rhs[i], i = 0..p-1, is the slot table at dt = p - i grouped by
    weight (`_relation_rhs`): pairs (gamma, parts) standing for gamma *
    sum x^dr * d over the parts (dr, d), a weight gamma in Z[lam], or in Z
    read mod p on the special fibre, and the table's own int polynomials d
    over `vars[1:]`; a slot the relation does not use is empty.  `memo` keeps
    the packed forms and widths (`reduce_normal_form`), outside equality.
    """

    fibre: str
    p: int
    vars: tuple[str, ...]
    rhs: tuple[tuple, ...]
    memo: dict = field(default_factory=dict, compare=False, repr=False)


@per_triple
def _relation_rhs(params: FamilyParams, fibre: str) -> tuple[tuple, ...]:
    """The fibre relation's rhs read off the slot table: per V-slot, one pair
    (-gamma, parts) per weight gamma of its slots, the parts (dr, d) of its
    groups (gamma, d) in table order.

    The lead slot must be (0, 0, 1), the V^p term, so that the relation is
    monic in V; any other lead raises InvariantViolation.  Every other slot
    (dr, dt, c) adds -c * x^dr to rhs[p - dt]: each group of c is the part
    (dr, d) of its weight, which is negated once.
    """
    p = params.p
    syms = deformation_symbols(params)
    (dr, dt, lead), *slots = trinomial_slots(params, fibre)
    if (dr, dt) != (0, 0) or multiply_out(lead, syms) != SparsePoly.constant(syms, 1):
        raise InvariantViolation(f"the {fibre} slot table leads with ({dr}, {dt}, {lead!r}), not (0, 0, 1)")
    rhs: list[dict] = [{} for _ in range(p)]
    for dr, dt, groups in slots:
        for gamma, d in groups:
            rhs[p - dt].setdefault(gamma, (-gamma, []))[1].append((dr, d))
    return tuple(tuple((w, tuple(parts)) for w, parts in slot.values()) for slot in rhs)


def _slot_terms(slot, r: int | None = None) -> dict:
    """{(dr,) + e: coefficient} of a relation slot, sum gamma * x^dr * d over
    its weights and parts, zeros dropped; with r, its image in F_r = Z[lam]/(lam)
    (`exactalg.residue` at lam = 0), each weight mapped once."""
    out: dict = {}
    for gamma, parts in slot:
        g = gamma if r is None else residue(gamma, r, 0)
        if g:
            for dr, d in parts:
                for e, k in d.terms.items():
                    key, v = (dr,) + e, g * k
                    cur = out.get(key)
                    out[key] = v if cur is None else cur + v
    return {e: m for e, v in out.items() if (m := v if r is None else v % r)}


# ---------------------------------------------------------------------------
# The packed format of `reduce_normal_form`


def _pack(digits, width: int) -> int:
    """sum_i digits[i] * 2^(width*i).  The map is Z-linear and injective on
    digit vectors with every entry in [0, 2^width), and on those with every
    entry below 2^(width-1) in absolute value."""
    packed = 0
    for d in reversed(digits):
        packed = (packed << width) + d
    return packed


def _digits(packed: int, width: int, n: int) -> list[int]:
    """The n digits of a packed vector whose digits lie in [0, 2^width)."""
    mask = (1 << width) - 1
    return [(packed >> (width * i)) & mask for i in range(n)]


def _unpacker(width: int, n: int):
    """Reads a packed vector of n signed digits, each below 2^(width-1) in
    absolute value, back into its digits: adding 2^(width-1) to every digit
    makes them all nonnegative, and `_digits` reads those."""
    half = 1 << (width - 1)
    offset = _pack((half,) * n, width)

    def unpack(packed: int) -> tuple[int, ...]:
        return tuple(d - half for d in _digits(packed + offset, width, n))

    return unpack


def _unpacked_terms(acc: dict, width: int, nvars: int, read=None) -> dict:
    """{exponent tuple: read(packed coordinates)} of the nonzero packed terms
    of `acc`, whose exponents are packed with nonnegative digits of `width`;
    with read=None a packed value is its own coefficient.  One variable's
    exponent is its packed key."""
    if nvars == 1:
        return {(key,): v if read is None else read(v) for key, v in acc.items() if v}
    return {tuple(_digits(key, width, nvars)): v if read is None else read(v) for key, v in acc.items() if v}


def _accumulate(acc: dict, terms, rows: list[int], keys, multiples) -> None:
    """acc += f * gamma * d on packed ints: `terms` are f's (packed exponent,
    coordinates), `rows` gamma's packed rows gamma * lam^j, and `keys` and
    `multiples` d's packed exponents and int coefficients, in one order.
    Packing is Z-linear, so the coordinates c of a term of f times gamma
    pack to sum_j c_j * rows[j]."""
    get = acc.get
    for key1, cs in terms:
        packed = sum(map(operator.mul, cs, rows))
        for key2, k in zip(keys, multiples):
            key = key1 + key2
            acc[key] = get(key, 0) + k * packed


def _max_exponent(poly: SparsePoly) -> int:
    return max((x for e in poly.terms for x in e), default=0)


def _relation_bounds(rel: FibreRelation) -> tuple[int, tuple[int, ...], list]:
    """(largest exponent, w_i per slot, each weight's rows gamma * lam^j,
    j < n, per slot) of the relation, kept in `rel.memo`.  w_i sums |d|_1
    times the largest |coordinate| of the rows over the parts of rhs_i: the
    digit bound's factor (`reduce_normal_form`)."""
    bounds = rel.memo.get("bounds")
    if bounds is None:
        n = 1 if rel.fibre == SPECIAL else rel.p - 1
        rows = [[_lam_rows(_coords(gamma, n), n) for gamma, _ in slot] for slot in rel.rhs]
        weights = tuple(
            sum(
                sum(abs(k) for _, d in parts for k in d.terms.values()) * max(abs(x) for row in r for x in row)
                for r, (_, parts) in zip(slot_rows, slot)
            )
            for slot_rows, slot in zip(rows, rel.rhs)
        )
        top = max((max(dr, _max_exponent(d)) for slot in rel.rhs for _, parts in slot for dr, d in parts), default=0)
        bounds = rel.memo["bounds"] = (top, weights, rows)
    return bounds


def _packed_relation(rel: FibreRelation, width: int, shift: int) -> list:
    """Per relation slot, (packed rows gamma * lam^j, packed keys, ints) per
    weight, the key of a term k of a part (dr, d) (pack(e) << width) + dr,
    the joined slot's own; `rel.memo` keeps the keys of the latest width and
    the rows (`_relation_bounds`) packed once per coordinate width."""
    keyed = rel.memo.get("keys")
    if keyed is None or keyed[0] != width:
        keys = [
            [([(_pack(e, width) << width) + dr for dr, d in parts for e in d.terms], [k for _, d in parts for k in d.terms.values()])
             for _, parts in slot]
            for slot in rel.rhs
        ]
        keyed = rel.memo["keys"] = (width, keys, {})
    packed = keyed[2].get(shift)
    if packed is None:
        packed = keyed[2][shift] = [
            [([_pack(row, shift) for row in r], *ints) for r, ints in zip(slot_rows, slot_keys)]
            for slot_rows, slot_keys in zip(_relation_bounds(rel)[2], keyed[1])
        ]
    return packed


def _coords(v, n: int) -> tuple[int, ...]:
    """The n coordinates of a coefficient: over Z[lam] (n = p - 1) an int is
    its own first coordinate; on the special fibre's Z (n = 1) only ints
    occur.  An element of another cyclotomic ring raises ValueError, as
    element arithmetic across two rings does."""
    if type(v) is CycloElement:
        if n == 1:
            raise InvariantViolation("the special fibre computes over Z")
        if len(v.coeffs) != n:
            raise ValueError("mixed cyclotomic rings")
        return v.coeffs
    return (v,) + (0,) * (n - 1)


def _part(c, rel: FibreRelation) -> tuple:
    """(groups, lift, largest exponent) of a part's coefficient, groups
    (gamma, d) or a polynomial c, the group (1, c); tables over rel.vars[1:]
    are lifted (lift 1)."""
    groups = c if type(c) is tuple else ((1, c),)
    lift = len(rel.vars) - len(groups[0][1].vars)
    if lift not in (0, 1) or any(d.vars != rel.vars[lift:] for _, d in groups):
        raise ValueError(f"variable mismatch: {groups[0][1].vars} vs {rel.vars}")
    return groups, lift, max(_max_exponent(d) for _, d in groups)


def _largest(groups, n: int) -> int:
    """A bound on every |coordinate| of a part's groups: summed over them, the
    largest |k| * |gamma|_max over the int coefficients k of d, and
    |k * gamma|_max over its ring elements."""
    total = 0
    for gamma, d in groups:
        g = max(map(abs, _coords(gamma, n)))
        total += max((abs(k) * g if type(k) is int else max(map(abs, _coords(gamma * k, n))) for k in d.terms.values()), default=0)
    return total


def _packed_pairs(groups, lift: int, width: int, shift: int, n: int) -> list:
    """(packed exponent, packed value) of every term k * gamma of a part's
    groups at widths `width` and `shift`: an int k packs as k times gamma's
    packed coordinates, one int product."""
    pairs = []
    for gamma, d in groups:
        weight = _pack(_coords(gamma, n), shift)
        pairs += [
            (_pack(e, width) << width * lift, k * weight if type(k) is int else _pack(_coords(gamma * k, n), shift))
            for e, k in d.terms.items()
        ]
    return pairs


def reduce_normal_form(e, rel: FibreRelation, zero_test: bool = False):
    """Reduce a V-polynomial below degree p: its normal form, the slots
    0..p-1, or with zero_test=True whether that normal form is zero.

    `e` holds the V-polynomial as parts (k, rho, c), each the term
    x^rho * c * V^k, with c groups (gamma, d) standing for sum gamma * d
    (a slot coefficient, `generators.trinomial_slots`), or a polynomial,
    the one group (1, c); the tables d are over `rel.vars`, or over the
    deformation symbols `rel.vars[1:]` and read with x-exponent 0.
    The reduction runs on packed ints (Kronecker substitution in lam): a
    V-slot is {packed exponent: packed coordinates}.  An exponent vector
    packs with nonnegative digits of `width` bits.  A coordinate vector
    c_0..c_(n-1) over Z[lam] (n = p - 1) packs as the signed digits
    sum_j c_j * 2^(B*j); on the special fibre's Z (n = 1) the coordinate is
    the int itself and needs no B.  Each part is packed once, a term
    k * gamma of an int k as k times gamma's packed coordinates, and its
    shift by x^rho adds rho to the packed exponents.  The relation is
    packed once per widths (`_packed_relation`).

    Each round takes the top V-degree t >= p, with the coordinates of its
    terms, and adds r * rhs_i to slot t - p + i for each relation slot
    (`_accumulate`).  Round 1 reads the top coordinates from the
    parts; a later round unpacks the top slot.  Each round walks `rel.rhs`
    once and strictly lowers the top V-degree, so the loop runs at most
    (initial degree - p + 1) times.  The zero test reads the packed values,
    mod p on the special fibre, and unpacks nothing; otherwise the packed
    slots are unpacked once, at the end.

    Soundness:

    - Signed-digit injectivity.  Packing is Z-linear, so the packed value
      of a sum or an int multiple is that sum or multiple of the packed
      values, whatever the digits.  If every |c_j| < 2^(B-1), adding
      2^(B-1) to each digit gives digits in [0, 2^B), which pack
      injectively; so the packed value is 0 exactly when every c_j is, and
      the coordinates unpack exactly (`_unpacker`).  Coordinates
      are read, by the zero test, an unpack or a re-pack, only while this
      holds.
    - Per-round bound.  bound[k] bounds every |coordinate| of the packed
      slot k: at the start, the bounds of its parts, summed.  A part's
      groups may meet at one exponent, so its bound sums over its groups
      (gamma, d) the largest |k| * max |gamma_j| over d's ints k (k *
      gamma has the coordinates k * gamma_j), or |k * gamma|_max for a
      ring k (`_largest`).  A top term r = sum_j r_j * lam^j with
      coordinate sum C, times one part x^dr * gamma * d of rhs_i, is sum_j
      r_j * (gamma * lam^j) * x^dr * d and adds at most C * |d|_1 * G to
      any coordinate, G the largest coordinate of any gamma * lam^j, j <
      n: per part, whatever the other parts' weights and shifts, so parts
      of one weight that meet at one exponent are bounded too.  So a round
      adds at most C * w_i to bound[t - p + i], with C the largest
      coordinate sum of the top terms, known exactly, and w_i the sum of
      |d|_1 * G over the parts of rhs_i (`_relation_bounds`).  Before each
      round B is checked against the largest bound the round leaves.  A
      slot that empties drops its bound.
    - Exact re-pack.  When that bound reaches 2^(B-1), every live slot is
      still below it and unpacks exactly; its exact largest |coordinate|
      becomes its bound, and it packs again at a B wide enough for the
      round and at least twice the old one, so that re-packs stay few.  A
      reduction whose first round leaves no V-degree >= p, as a passing
      trinomial's does, never re-packs.
    - Exponents.  No exponent digit exceeds the largest exponent of a part
      plus the rounds times the largest exponent of the relation, so
      `width` is fixed before round 1 at or above that all-rounds bound,
      and no sum of packed exponents carries.
    """
    p = rel.p
    n = 1 if rel.fibre == SPECIAL else p - 1
    rel_top, weights, _ = _relation_bounds(rel)
    parts = [(k, rho, *_part(c, rel)) for k, rho, c in e if c]
    if not parts:
        return True if zero_test else (SparsePoly(rel.vars),) * p
    top = max(part[0] for part in parts)
    rounds_allowed = max(top - p + 1, 0)
    # the relation keeps its width, doubled when a reduction needs more, so
    # that its exponents are seldom packed again
    need = max(rho + e_max for _, rho, _, _, e_max in parts) + rounds_allowed * rel_top
    width = rel.memo.get("width", 1)
    if need >> width:
        width = rel.memo["width"] = max(need.bit_length(), 2 * width)

    # round 1 reads its top coordinates from the parts, summed per exponent;
    # bound[k] bounds the coordinates of the packed slot k
    bound: dict[int, int] = {}
    coords: dict = {}
    for k, rho, groups, lift, _ in parts:
        if k != top or top < p:
            bound[k] = bound.get(k, 0) + _largest(groups, n)
            continue
        for gamma, d in groups:
            g = _coords(gamma, n)
            for e, m in d.terms.items():
                key = (_pack(e, width) << width * lift) + rho
                cs = tuple(m * x for x in g) if type(m) is int else _coords(gamma * m, n)
                cur = coords.get(key)
                coords[key] = cs if cur is None else tuple(map(operator.add, cur, cs))
    terms = [(key, cs) for key, cs in coords.items() if any(cs)]
    t = c_top = None
    if terms:
        t, c_top = top, _coordinate_sum(terms, n)
    # B for round 1, or for the slots as given when no round runs
    shift = _round_need(bound, t, c_top, p, weights).bit_length() + 1 if n > 1 else 0

    work: dict[int, dict] = {}
    for k, rho, groups, lift, _ in parts:
        if k == top >= p:
            continue
        slot = work.setdefault(k, {})
        get = slot.get
        for key, v in _packed_pairs(groups, lift, width, shift, n):
            key += rho
            slot[key] = get(key, 0) + v
    for k in list(work):
        _settle(work, bound, k)

    while True:
        if t is None:
            t = max(work, default=0)
            if t < p:
                break
            del bound[t]
            unpack = _unpacker(shift, n) if n > 1 else lambda v: (v,)
            terms = [(key, unpack(v)) for key, v in work.pop(t).items()]
            c_top = _coordinate_sum(terms, n)
        rounds_allowed -= 1
        if rounds_allowed < 0:
            raise InvariantViolation("normal-form reduction did not lower the top V-degree")
        if n > 1 and _round_need(bound, t, c_top, p, weights) >> (shift - 1):
            # re-pack every packed slot, with its exact bound, at a width the round fits
            unpack = _unpacker(shift, n)
            unpacked = {k: [(key, unpack(v)) for key, v in slot.items()] for k, slot in work.items()}
            for k, slot in unpacked.items():
                bound[k] = max(abs(x) for _, cs in slot for x in cs)
            shift = max(_round_need(bound, t, c_top, p, weights).bit_length() + 1, 2 * shift)
            work = {k: {key: _pack(cs, shift) for key, cs in slot} for k, slot in unpacked.items()}
        packed_rel = _packed_relation(rel, width, shift)
        for i, _ in enumerate(rel.rhs):
            if not weights[i]:
                continue
            k = t - p + i
            slot = work.setdefault(k, {})
            for rows, keys, multiples in packed_rel[i]:
                _accumulate(slot, terms, rows, keys, multiples)
            bound[k] = bound.get(k, 0) + c_top * weights[i]
            _settle(work, bound, k)
        t = None

    if zero_test:
        if n == 1:
            return not any(v % p for slot in work.values() for v in slot.values())
        return not any(any(slot.values()) for slot in work.values())
    read = None
    if n > 1:
        unpack = _unpacker(shift, n)
        read = lambda v: CycloElement._integral(p, unpack(v))
    zero, nvars = SparsePoly(rel.vars), len(rel.vars)
    return tuple(
        SparsePoly._held(rel.vars, _unpacked_terms(work[i], width, nvars, read)) if i in work else zero
        for i in range(p)
    )


def _coordinate_sum(terms, n: int) -> int:
    """The largest coordinate sum |c_0| + ... + |c_(n-1)| of the terms, which
    the coordinate bound needs over Z[lam] only (0 on the special fibre)."""
    return max(sum(map(abs, cs)) for _, cs in terms) if n > 1 else 0


def _round_need(bound: dict, t: int | None, c_top: int | None, p: int, weights) -> int:
    """The largest coordinate bound over the live slots once a round has run
    at top V-degree t, its top terms' largest coordinate sum c_top (no round
    when t is None)."""
    need = max(bound.values(), default=0)
    if t is not None:
        for i, w in enumerate(weights):
            if w:
                need = max(need, bound.get(t - p + i, 0) + c_top * w)
    return need


def _settle(work: dict, bound: dict, k: int) -> None:
    """Drop the zero terms of slot k, and the slot and its bound when it empties."""
    slot = work[k]
    if not all(slot.values()):
        slot = work[k] = {key: v for key, v in slot.items() if v}
    if not slot:
        del work[k]
        bound.pop(k, None)


def check_specialization(params: FamilyParams, specialization: dict) -> None:
    """Raise BadSpecialization unless it assigns integers to exactly the deformation symbols."""
    syms = deformation_symbols(params)
    if set(specialization) != set(syms):
        raise BadSpecialization(
            f"specialization must assign exactly {list(syms)}, got {sorted(specialization)}"
        )
    # bool is a subclass of int, but no coordinate of Z[lam] is a bool
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
        # E: the cleared image of weight T starts at V^(E - T)
        self.clearing = 3 * p if fibre == GENERIC else 3 * p - 2

        self.vars = ("x",) if specialization is not None else ("x",) + syms
        # the values of the polynomials in the symbols (on a specialized context)
        self._values: dict[SparsePoly, object] = {}
        rhs = _relation_rhs(params, fibre)
        if specialization is not None:
            # each part's int table is its value; its x-shift and weight are kept
            rhs = tuple(
                tuple((w, tuple((dr, SparsePoly.constant((), v)) for dr, d in parts if (v := self._value(d)))) for w, parts in slot)
                for slot in rhs
            )
        self.relation = FibreRelation(fibre=fibre, p=p, vars=self.vars, rhs=rhs)
        # the ring's 1, the lead `_relation_rhs` has checked
        self.one = multiply_out(trinomial_slots(params, fibre)[0][2], syms).constant_value()
        # the x-degree tables of a(x)^k, k = 0..p, from which `a_powers` is built
        self._a_tables = _a_powers(params)
        self._chain: list[tuple[SparsePoly, ...]] = []
        self._verdicts: dict[frozenset, bool] = {}
        # V is no zero divisor when rhs_0 != 0 in the ring the verdicts read
        # (`combination_vanishes`): mod p on the special fibre
        self._v_regular = bool(_slot_terms(rhs[0], p if fibre == SPECIAL else None))
        self._multidegrees = monomial_multidegrees(params)

    def specialized_value(self, coeff):
        """The value of a coefficient in the deformation symbols, groups
        (gamma, d) or a polynomial, at the specialization of a specialized
        context: the sum of gamma * `_value(d)` over its groups."""
        if type(coeff) is not tuple:
            return self._value(coeff)
        return sum(gamma * self._value(d) for gamma, d in coeff)

    def _value(self, d: SparsePoly):
        """The value of a polynomial in the symbols at the specialization,
        specialized once per distinct polynomial and context.

        Specialization is a ring map, so equal polynomials have equal
        values, and the value read from the table is the one substituting
        the terms of d gives.  Equality is equality in the ring, an int
        standing for its image, so a hit across an int and a ring element
        reads the same ring element.
        """
        value = self._values.get(d)
        if value is None:
            value = self._values[d] = d.specialize(self.specialization).constant_value()
        return value

    def weight_image(self, T: int) -> tuple[SparsePoly, ...]:
        """Cleared image of the multidegree (2, 0, T): NF(V^(E-T)), one per
        weight T in [2, 2(p-1)]; any other T raises TOutOfRange."""
        if not 2 <= T <= 2 * (self.p - 1):
            raise TOutOfRange(f"T must lie in [2, {2 * (self.p - 1)}], got {T}")
        return self.power_normal_form(self.clearing - T)

    def power_normal_form(self, e: int) -> tuple[SparsePoly, ...]:
        """NF(V^e), from the chain NF(V^(k+1)) = NF(V * NF(V^k)).

        V * NF(V^k) = sum_(i<p) s_i * V^(i+1), and only its top term
        s_(p-1) * V^p is not yet below V^p.  The normal form is linear, so
        the step is the shifted slots s_(i-1) plus NF(s_(p-1) * V^p), one
        substitution round of `reduce_normal_form`, and it gives the same
        normal form as reducing V^(k+1) from scratch.  A negative e raises
        ValueError.
        """
        if e < 0:
            raise ValueError(f"no normal form of V^{e}: the exponent must be nonnegative")
        chain = self._chain
        zero = SparsePoly.zero(self.vars)
        if not chain:
            one = SparsePoly.constant(self.vars, self.one)
            chain.extend(tuple(one if i == k else zero for i in range(self.p)) for k in range(self.p))
        while len(chain) <= e:
            *low, top = chain[-1]
            slots = [zero] + low
            if top:
                reduced = reduce_normal_form([(self.p, 0, top)], self.relation)
                slots = [s + r if s and r else s or r for s, r in zip(slots, reduced)]
            chain.append(tuple(slots))
        return chain[e]

    @functools.cached_property
    def a_powers(self) -> tuple[SparsePoly, ...]:
        """a(x)^k for k = 0..p over the context's variables, with int
        coefficients on every fibre: sum_j x^j * [a^k]_j reassembled from the
        x-degree tables, each table specialized in ints on a specialized
        context.  Built on first use, by `x_coordinates`, so a context the
        oracle never reads holds no power."""
        powers = []
        for table in self._a_tables:
            if self.specialization is None:
                terms = {(j,) + e: c for j, d in table.items() for e, c in d.terms.items()}
            else:
                terms = {(j,): c for j, d in table.items() if (c := self._value(d))}
            powers.append(SparsePoly._held(self.vars, terms))
        return tuple(powers)

    def x_coordinates(self, img: tuple[SparsePoly, ...]) -> tuple[SparsePoly, ...]:
        """The slots of a normal form in the model's basis: y^i on the generic
        fibre, X^i on the others, where W^i = a(x)^i * X^i makes a(x)^i * s_i
        the X-slot of the W-slot s_i."""
        if self.fibre == GENERIC:
            return img
        return tuple(s * self.a_powers[i] if i else s for i, s in enumerate(img))

    def generator_vanishes(self, gen: GeneratorPoly) -> bool:
        """Does the generator map to zero on this fibre?

        Images depend only on the multidegree (rho, T), so the coefficients
        are summed per multidegree and zero sums dropped (a binomial never
        touches the function field); the rest is `combination_vanishes`.
        Raises WrongFibre, NonHomogeneous or VariableOutsideIndexSet for a
        generator tagged with another fibre, not homogeneous of degree 2, or
        with a variable outside the index set, checked in that order.

        Each term is looked up in the multidegree table, which holds exactly
        the degree-2 monomials in the basis variables, so a hit proves the
        term has degree 2 and no separate homogeneity scan runs.  The first
        miss decides the error as that scan would: NonHomogeneous unless
        every term has degree 2, else `multidegree_of` raises.  No term
        misses in an empty generator, which is not homogeneous of degree 2.
        """
        if gen.fibre not in (self.fibre, ANY_FIBRE):
            raise WrongFibre(f"generator tagged {gen.fibre!r} checked on {self.fibre!r}")
        table = self._multidegrees
        sums: dict = {}
        for coeff, mono in gen.terms:
            md = table.get(mono)
            if md is None:
                if gen.is_homogeneous_degree2():
                    self.multidegree_of(mono)  # raises VariableOutsideIndexSet
                break
            cur = sums.get(md)
            sums[md] = coeff if cur is None else cur + coeff
        else:
            if sums:
                return self.combination_vanishes({md: c for md, c in sums.items() if c})
        raise NonHomogeneous("membership requires homogeneous degree-2 generators")

    def layout_vanishes(self, layout, anchors) -> list[bool]:
        """Membership of a trinomial layout (`generators.trinomial_layout`)
        at each anchor, in anchor order.  At the anchor (rho, T) the slot
        (dr, dt, c) puts c on the class minimum at (rho + dr, T + dt), a
        point of its own, so the generator's sums per multidegree are the
        slots' coefficients, and their x-shift class does not depend on rho:
        one `combination_vanishes` per distinct T gives each anchor the
        verdict its generator object gets.  Their (x, V)-shift class does not
        depend on T either, so on a context whose V is no zero divisor every
        anchor shares one verdict and one packed reduction."""
        verdicts: dict[int, bool] = {}
        for rho, T in anchors:
            if T not in verdicts:
                verdicts[T] = self.combination_vanishes({(rho + dr, T + dt): c for dr, dt, c in layout})
        return [verdicts[T] for _, T in anchors]

    def combination_vanishes(self, coeffs: dict[tuple[int, int], SparsePoly]) -> bool:
        """Is sum_(rho,T) c_(rho,T) * image(rho, T) zero?

        `coeffs` maps multidegrees (rho, T) to coefficients in the
        deformation symbols, polynomials or groups (gamma, d).  A weight
        whose start degree E - T lies below p raises TOutOfRange.  The
        verdict is kept per (x, V)-shift class:

        - image(rho, T) = x^rho * V^(E-T), reduced, so with s = min rho the
          sum is x^s times the same sum over (rho - s, T), and with
          k = E - max T - p it is V^k times the same sum over (rho, T + k),
          whose lowest start degree is exactly p (k may be negative: the
          sum is then V^(-k) times the given one).
        - The V-slots of a normal form lie in a domain A: polynomials in x
          and the symbols over Z[lam], or over F_p where the special fibre
          reads them, or in x alone on a specialized context.  x^s is not a
          zero divisor of A[V]/(V^p - rhs), so a sum and its x-shift vanish
          together.
        - V acts on the free A-module with basis 1, V, ..., V^(p-1) by the
          companion matrix of the monic relation, whose determinant is
          +-rhs_0.  When rhs_0 != 0 in A, adj * M = det * I shows that V * f
          = 0 forces rhs_0 * f = 0, so f = 0: V is not a zero divisor, and a
          sum and its V-shift vanish together.  The context reads rhs_0
          multiplied out over Z[lam], mod p on the special fibre, or
          specialized on a specialized context, once (`_v_regular`); it is
          nonzero on every intact table, x^ell or lam^p * x^ell + a^p, and a
          perturbed table with rhs_0 = 0 keeps the x-shift key alone.

        The key is the shifted class with its exact coefficients, so sums
        that differ in any coefficient never share a verdict, and every
        start degree of a key is at least p, so each of its coefficients
        meets a relation slot (`_sum_vanishes`).
        """
        if not coeffs:
            return True
        top = max(T for _, T in coeffs)
        if self.clearing - top < self.p:
            raise TOutOfRange(f"weight {top} starts below V^p on the {self.fibre} fibre")
        s = min(rho for rho, _ in coeffs)
        k = self.clearing - self.p - top if self._v_regular else 0
        key = frozenset(((rho - s, T + k), c) for (rho, T), c in coeffs.items())
        verdict = self._verdicts.get(key)
        if verdict is None:
            verdict = self._verdicts[key] = self._sum_vanishes(key)
        return verdict

    def _sum_vanishes(self, items) -> bool:
        """Evaluate sum c_(rho,T) * image(rho, T) over ((rho, T), c) items,
        every start degree E - T at least p.

        The V-polynomial sum_(rho,T) c_(rho,T) * x^rho * V^(E-T) is reduced
        once (`reduce_normal_form`), one part (E - T, rho, c) per item (a
        specialized context reads the value of c), and the sum vanishes
        when every slot of that normal form is zero:

        - the normal form modulo a monic relation is unique and linear over
          the polynomials in x and the symbols, so
          NF(sum_T C_T * V^(E-T)) = sum_T C_T * NF(V^(E-T)), and one side is
          zero exactly when the other is;
        - a trinomial's combination is x^rho * V^k * (V^p - rhs), so one
          substitution round empties it; no weight image is reduced;
        - each start degree is at least p, so every coefficient meets a
          relation slot and the zero test reads values of the fibre's ring,
          mod p on the special fibre;
        - a binomial's per-multidegree sums are already zero, so a binomial
          never reaches this method.
        """
        if self.specialization is not None:
            items = [(md, SparsePoly.constant((), self.specialized_value(c))) for md, c in items]
        parts = [(self.clearing - T, rho, c) for (rho, T), c in items]
        return reduce_normal_form(parts, self.relation, zero_test=True)

    def multidegree_of(self, m: Monomial) -> tuple[int, int]:
        """(rho, T) of a degree-2 monomial in the basis variables, read from
        the triple's table (`indexsets.monomial_multidegrees`), which holds
        every such monomial.  A monomial outside it raises WrongDegree if its
        degree is not 2, and VariableOutsideIndexSet otherwise."""
        md = self._multidegrees.get(m)
        if md is None:
            if len(m) != 2:
                raise WrongDegree(f"need a degree-2 monomial, got degree {len(m)}")
            raise VariableOutsideIndexSet(f"{m} has a variable outside the basis index set")
        return md

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


def relation_consistency(params: FamilyParams) -> RelationReport:
    """Verify the fibre relations read off the generators' slot tables
    (`_relation_rhs`) against the model and against each other.

    Two checks are identities of degree p in X over R = Z[lam][x, symbols],
    compared one X^k coefficient at a time.  Their common right side is
    lam^p * (W^p - sum_(k<p) rel_k * W^k), from the relative relation with
    W = a*X; its X^k coefficient is a^k * R_k, with R_k = -lam^p * rel_k for
    k < p and R_p = lam^p.

    (a) a^p*(lam*X+1)^p - lam^p*x^ell - a^p, by the binomial theorem, has
        the X^k coefficient a^k times -lam^p * x^ell at k = 0 and
        binom(p, k) * lam^k * a^(p-k) for k >= 1;
    (b) coefficientwise lam-reduction of the relative relation gives the
        special relation read mod p, slot by slot;
    (c) the generic relation y^p = sum_(i<p) g_i * y^i at y = a*(lam*X + 1):
        with G_p = 1 and G_i = -g_i, sum_i G_i * y^i has the X^k
        coefficient a^k times sum_(i>=k) binom(i, k) * lam^k * G_i * a^(i-k).

    This is exact.  An identity in X holds exactly when it holds at every
    X^k, and as R is a domain and a != 0, a^k * L = a^k * R exactly when
    L = R; so lam^p != 0 cancels too.  Given lam^(p-k) * c_k = binom(p, k)
    for the relative table's c_k (so lam^p * c_k = binom(p, k) * lam^k),
    (a) holds at X^k if rel_0 = x^ell, or rel_k = -c_k * a^(p-k) for
    0 < k < p, and the model is then the right side.  (a) reads the
    relative table only and (c) the generic one too, so a wrong generic
    slot fails (c), and a wrong relative slot fails (a) and (c).  When (a)
    holds and g_1..g_(p-1) are zero, as the generic layout makes them, the
    substitution's X^k quotient for k >= 1 is the model's own, so (c) is
    g_0 == a^p + lam^p * x^ell, the model's X^0 slot moved across.

    Each check reads the table slot by slot, multiplying out no polynomial,
    against the model's weights, x-degree ranges and tables of a(x)^k
    (`family._a_powers`): (a) reads rel_0 as the weight 1 with the one part
    (ell, 1), and rel_k as the weight -c_k with the parts (j, [a^(p-k)]_j),
    j ascending over the x-degree range of a^(p-k); (c) reads g_0 as lam^p
    with (ell, 1), then 1 with the parts (j, [a^p]_j), and g_1..g_(p-1) as
    empty.  Parts equal in shift, weight and table sum to equal slots, so a
    passing read is an equality in R that checks every part's placement
    (V-slot and x-shift), the coverage of the range (each j once) and the
    values.  The read is sound, not complete: only the table as
    `generators.trinomial_slots` builds it passes, and one that sums to the
    model in another grouping, say (gamma, d) split into (2*gamma, d) and
    (-gamma, d), fails.  (b) maps each weight to F_p once (`_slot_terms`).
    """
    p, ell = params.p, params.ell
    lam = CycloElement.lam_powers(p, p + 1)
    # the x-degree tables of a^k for k = 0..p, the ones the fibre contexts read
    powers = _a_powers(params)
    unit = SparsePoly.constant(deformation_symbols(params), 1)

    def block(weight, k: int) -> tuple:
        """weight * a^k as a relation slot's pair: the parts (j, [a^k]_j), j ascending."""
        return weight, tuple(powers[k].items())

    # (a), slot by slot: rel_0 = x^ell and rel_k = -c_k * a^(p-k), with
    # lam^(p-k) * c_k = binom(p, k) checked once per weight
    relative = _relation_rhs(params, RELATIVE)
    c = [1] + [relative_lambda_coefficient(params, k) for k in range(1, p)]
    read = [((1, ((ell, unit),)),)] + [(block(-c[k], p - k),) for k in range(1, p)]
    check_a = all(
        relative[k] == read[k] and (k == 0 or lam[p - k] * c[k] == math.comb(p, k))
        for k in range(p)
    )

    # (b): coefficientwise reduction of the relative relation, slot by slot, both sides mod p
    check_b = all(_slot_terms(r, p) == _slot_terms(s, p) for r, s in zip(relative, _relation_rhs(params, SPECIAL)))

    generic = _relation_rhs(params, GENERIC)
    # (c) at X^0, g_0 = lam^p * x^ell + a^p: the model's slots k >= 1 are the substitution's own
    check_c = check_a and not any(generic[1:]) and generic[0] == ((lam[p], ((ell, unit),)), block(1, p))

    return RelationReport(
        kummer_form_matches_relative=check_a,
        relative_reduces_to_special=check_b,
        substitution_recovers_identity=check_c,
    )
