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

Each relation is read off the fibre's trinomial slot table
(`generators.trinomial_slots`), the table the generators are built from:
after the lead (0, 0, 1), which is V^p, a slot (dr, dt, c) is the term
-c * x^dr * V^(p-dt) of the right-hand side (`_relation_rhs`), with c one
ring weight times an int table, a group (gamma, d), read as it is built.
The generic slots (ell, p, -lam^p * 1) and (j, p, -1 * [a^p]_j) give
rhs_0 = lam^p * x^ell + a^p; the special slots (ell, p, 1 * (p-1)) and
(j, p-1, 1 * ([-a^(p-1)]_j mod p)) give rhs = (x^ell, a^(p-1)) mod p; the
relative slots (ell, p, -1 * 1) and (j, p-i, c_i * [a^(p-i)]_j) give
rhs_i = -c_i * a^(p-i) next to rhs_0 = x^ell.  The cleared image of the
generator at an anchor (rho, T) is x^rho * V^(E-T-p) * (V^p - rhs), with
E = 3p on the generic fibre and 3p - 2 otherwise, which vanishes modulo the
read-off relation whatever the table says: membership cannot see a wrong
slot.  `relation_consistency` checks the read-off relations against the
model and against each other, so a wrong slot fails the certificate; an
intact table is checked on its weights and int tables, with no model built.

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

There is one reduction, `reduce_normal_form`, and it runs on packed ints
on every fibre: a V-slot is {packed exponent: packed coordinates}, the
relation is packed once per context and widths, a term k * gamma of a
part packs as the int k times gamma's packed coordinates, and each
substitution multiplies the top coefficient by the relation's groups on
packed ints (`_accumulate`).  This module is the one that knows the packed format:
exponent keys, signed digits of width B, units and unpacking.  Membership
reads its verdict as a zero test on the packed values, mod p on the
special fibre, and unpacks nothing when the combination vanishes in one
round, as every intact trinomial's does.  Its docstring gives the widths
and why the reduction is exact.

The oracle's rows need the weight images NF(V^(E-T)) themselves.  They form
one chain per context, which in `certify` only the oracle's specialized
contexts fill: NF(V^(e+1)) is the normal form of V * NF(V^e), whose only
term of V-degree p is the top slot times V^p.  Each step reduces that term
in one substitution round, unpacked once, and adds it to the shifted lower
slots; by linearity and uniqueness this is NF(V^(e+1)).

W^i = a(x)^i * X^i, so the W-slot s_i of a normal form is the X-slot
a(x)^i * s_i (`FibreContext.x_coordinates`).  As a(x) != 0 this is an
invertible diagonal change of basis over the function field: a combination
of images vanishes in one basis exactly when it vanishes in the other.

Membership verdicts are kept per shift class.  A combination
sum c_(rho,T) * image(rho, T) equals x^s times the same combination over
(rho - s, T), and x^s is not a zero divisor on the V-slots (polynomials in
x and the symbols over the domain Z[lam], or F_p where the special fibre
reads them), so the two vanish together; the verdict is keyed by the class
shifted to min rho = 0 together with its exact coefficient polynomials.
"""

from __future__ import annotations

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
from .exactalg import CycloElement, SparsePoly, _lam_rows, multiply_out, residue_terms
from .family import FamilyParams, _a_powers, deformation_symbols, per_triple
from .generators import ANY_FIBRE, GENERIC, RELATIVE, SPECIAL, GeneratorPoly, relative_lambda_coefficient, trinomial_slots
from .indexsets import monomial_multidegrees
from .termorder import Monomial


@dataclass(frozen=True)
class FibreRelation:
    """The defining relation V^p = sum_(i<p) rhs[i] * V^i of one fibre.

    V is y on the generic fibre and W = a(x) * X on the special and relative
    fibres.  rhs[i], i = 0..p-1, is a tuple of groups (gamma, d) standing
    for sum gamma * d: a weight gamma in Z[lam], or in Z read mod p on the
    special fibre, times an int polynomial d over `vars`; a slot the
    relation does not use has no group.  `memo` keeps the relation's packed
    forms and widths (`reduce_normal_form`); it takes no part in equality.
    """

    fibre: str
    p: int
    vars: tuple[str, ...]
    rhs: tuple[tuple, ...]
    memo: dict = field(default_factory=dict, compare=False, repr=False)


@per_triple
def _relation_rhs(params: FamilyParams, fibre: str) -> tuple[tuple, ...]:
    """The fibre relation's rhs over ("x",) + symbols, read off the slot
    table: per V-slot, one group (weight, int table) per distinct weight.

    The lead slot must be (0, 0, 1), the V^p term, so that the relation is
    monic in V; any other lead raises InvariantViolation.  Every other slot
    (dr, dt, c) adds -c * x^dr to rhs[p - dt]: c's tables join those of
    their weights, shifted by x^dr (`_joined`), and each weight is negated once.
    """
    p = params.p
    syms = deformation_symbols(params)
    (dr, dt, lead), *slots = trinomial_slots(params, fibre)
    if (dr, dt) != (0, 0) or multiply_out(lead, syms) != SparsePoly.constant(syms, 1):
        raise InvariantViolation(f"the {fibre} slot table leads with ({dr}, {dt}, {lead!r}), not (0, 0, 1)")
    rhs: list[list] = [[] for _ in range(p)]
    for dr, dt, groups in slots:
        rhs[p - dt].append((dr, groups))
    return tuple(tuple((-w, d) for w, d in _joined(slot, ("x",) + syms)) for slot in rhs)


def _joined(blocks, variables) -> tuple:
    """sum x^rho * c over blocks (rho, c), c groups (gamma, d) over variables[1:],
    as one group per weight over `variables`, the tables joined; a ring
    element k in a table (a polynomial's) weighs its own term gamma * k."""
    tables: dict = {}
    for rho, groups in blocks:
        for gamma, d in groups:
            if d.vars != variables[1:]:
                raise ValueError(f"variable mismatch: {d.vars} vs {variables}")
            ints = tables.setdefault(gamma, {})
            for e, k in d.terms.items():
                key = (rho,) + e
                if type(k) is int:
                    ints[key] = ints.get(key, 0) + k
                else:
                    own = tables.setdefault(k if gamma == 1 else gamma * k, {})
                    own[key] = own.get(key, 0) + 1
    return tuple((w, d) for w, ints in tables.items() if w and (d := SparsePoly(variables, ints)))


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
    """(largest exponent, w_i per slot, each group's rows gamma * lam^j,
    j < n, per slot) of the relation, kept in `rel.memo`; the groups are
    read as held.  w_i sums |d|_1 times the largest |coordinate| of the rows
    over the groups of rhs_i: the digit bound's factor (`reduce_normal_form`)."""
    bounds = rel.memo.get("bounds")
    if bounds is None:
        n = 1 if rel.fibre == SPECIAL else rel.p - 1
        rows = [[_lam_rows(_coords(gamma, n), n) for gamma, _ in slot] for slot in rel.rhs]
        weights = tuple(
            sum(sum(map(abs, d.terms.values())) * max(abs(x) for row in r for x in row) for r, (_, d) in zip(slot_rows, slot))
            for slot_rows, slot in zip(rows, rel.rhs)
        )
        top = max((_max_exponent(d) for slot in rel.rhs for _, d in slot), default=0)
        bounds = rel.memo["bounds"] = (top, weights, rows)
    return bounds


def _packed_relation(rel: FibreRelation, width: int, shift: int) -> list:
    """Per relation slot, (packed rows gamma * lam^j, packed exponents, ints
    of d) per group; `rel.memo` keeps the exponents of the latest width and
    the rows (`_relation_bounds`) packed once per coordinate width."""
    keyed = rel.memo.get("keys")
    if keyed is None or keyed[0] != width:
        keyed = rel.memo["keys"] = (width, [[[_pack(e, width) for e in d.terms] for _, d in slot] for slot in rel.rhs], {})
    packed = keyed[2].get(shift)
    if packed is None:
        packed = keyed[2][shift] = [
            [([_pack(row, shift) for row in r], keys, d.terms.values()) for r, keys, (_, d) in zip(slot_rows, slot_keys, slot)]
            for slot_rows, slot_keys, slot in zip(_relation_bounds(rel)[2], keyed[1], rel.rhs)
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


def _part(c, rel: FibreRelation, n: int, memo: dict | None) -> list:
    """[groups, lift, largest exponent, bound, packed pairs] of a part's
    coefficient, groups (gamma, d) or a polynomial c, the group (1, c), kept
    in `memo` when given; tables over rel.vars[1:] are lifted (lift 1).  The
    bound (`_largest`) and pairs (`_packed_pairs`) read the entry's own
    groups, so an equal coefficient in another term order reads its terms."""
    info = None if memo is None else memo.get(c)
    if info is None:
        groups = c if type(c) is tuple else ((1, c),)
        lift = len(rel.vars) - len(groups[0][1].vars)
        if lift not in (0, 1) or any(d.vars != rel.vars[lift:] for _, d in groups):
            raise ValueError(f"variable mismatch: {groups[0][1].vars} vs {rel.vars}")
        info = [groups, lift, max(_max_exponent(d) for _, d in groups), None, (None, None, None)]
        if memo is not None:
            memo[c] = info
    return info


def _largest(info: list, n: int) -> int:
    """A bound on every |coordinate| of a part (`_part`), read once: summed
    over its groups (gamma, d), the largest |k| * |gamma|_max over the int
    coefficients k of d, and |k * gamma|_max over its ring elements."""
    if info[3] is None:
        info[3] = 0
        for gamma, d in info[0]:
            g = max(map(abs, _coords(gamma, n)))
            bounds = (abs(k) * g if type(k) is int else max(map(abs, _coords(gamma * k, n))) for k in d.terms.values())
            info[3] += max(bounds, default=0)
    return info[3]


def _packed_pairs(info: list, width: int, shift: int, n: int) -> list:
    """(packed exponent, packed value) of every term k * gamma of a part at
    widths `width` and `shift`, kept for the latest: an int k packs as k
    times gamma's packed coordinates, one int product."""
    packed = info[4]
    if packed[0] != width or packed[1] != shift:
        lift, pairs = width * info[1], []
        for gamma, d in info[0]:
            weight = _pack(_coords(gamma, n), shift)
            pairs += [
                (_pack(e, width) << lift, k * weight if type(k) is int else _pack(_coords(gamma * k, n), shift))
                for e, k in d.terms.items()
            ]
        packed = info[4] = (width, shift, pairs)
    return packed[2]


def reduce_normal_form(e, rel: FibreRelation, zero_test: bool = False, memo: dict | None = None):
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
    the int itself and needs no B.  Each distinct part coefficient is packed
    once per widths (kept in `memo` across calls when one is given), a term
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
      (gamma, d) the largest |k| * max |gamma_j| over d's ints k (k * gamma
      has the coordinates k * gamma_j), or |k * gamma|_max for a ring k
      (`_largest`).  A top term r = sum_j r_j * lam^j with coordinate sum
      C, times one group gamma * d of rhs_i, is sum_j r_j * (gamma * lam^j)
      * d and adds at most C * |d|_1 * G to any coordinate, G the largest
      coordinate of any gamma * lam^j, j < n: per group, whatever the
      other groups' weights.  So a round adds at most C * w_i to
      bound[t - p + i], with C the largest coordinate sum of the top
      terms, known exactly, and w_i the sum of |d|_1 * G over the groups
      of rhs_i (`_relation_bounds`).  Before each round B is checked
      against the largest bound the round leaves.  A slot that empties
      drops its bound.
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
    parts = [(k, rho, _part(c, rel, n, memo)) for k, rho, c in e if c]
    if not parts:
        return True if zero_test else (SparsePoly(rel.vars),) * p
    top = max(k for k, _, _ in parts)
    rounds_allowed = max(top - p + 1, 0)
    # the relation keeps its width, doubled when a reduction needs more, so
    # that its exponents are seldom packed again
    need = max(rho + info[2] for _, rho, info in parts) + rounds_allowed * rel_top
    width = rel.memo.get("width", 1)
    if need >> width:
        width = rel.memo["width"] = max(need.bit_length(), 2 * width)

    # round 1 reads its top coordinates from the parts, summed per exponent;
    # bound[k] bounds the coordinates of the packed slot k
    bound: dict[int, int] = {}
    coords: dict = {}
    for k, rho, info in parts:
        if k != top or top < p:
            bound[k] = bound.get(k, 0) + _largest(info, n)
            continue
        for gamma, d in info[0]:
            g = _coords(gamma, n)
            for e, m in d.terms.items():
                key = (_pack(e, width) << width * info[1]) + rho
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
    for k, rho, info in parts:
        if k == top >= p:
            continue
        slot = work.setdefault(k, {})
        get = slot.get
        for key, v in _packed_pairs(info, width, shift, n):
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
    zero = SparsePoly(rel.vars)
    slots = []
    for i in range(p):
        poly = zero
        if i in work:
            poly = SparsePoly(rel.vars)
            poly.terms = _unpacked_terms(work[i], width, len(rel.vars), read)
        slots.append(poly)
    return tuple(slots)


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
        rhs = _relation_rhs(params, fibre)
        if specialization is not None:
            # each int table is specialized in ints; its weight is kept
            rhs = tuple(tuple((w, d) for w, table in slot if (d := table.specialize(specialization))) for slot in rhs)
        self.relation = FibreRelation(fibre=fibre, p=p, vars=self.vars, rhs=rhs)
        # the ring's 1, the lead `_relation_rhs` has checked
        self.one = multiply_out(trinomial_slots(params, fibre)[0][2], syms).constant_value()
        # a(x)^k for k = 0..p as multipliers (`x_coordinates`), with int
        # coefficients on every fibre
        powers = (SparsePoly.constant(("x",) + syms, 1),) + _a_powers(params)
        if specialization is not None:
            powers = tuple(power.specialize(specialization) for power in powers)
        self.a_powers = powers
        self._chain: list[tuple[SparsePoly, ...]] = []
        self._verdicts: dict[frozenset, bool] = {}
        # the combinations' coefficients: specialized values (on a specialized
        # context), joined per V-degree (`_sum_vanishes`) and packed
        self._values: dict[tuple | SparsePoly, SparsePoly] = {}
        self._joined: dict[frozenset, tuple] = {}
        self._packed: dict[tuple, list] = {}
        self._multidegrees = monomial_multidegrees(params)

    def specialized_value(self, coeff):
        """The value of a coefficient in the deformation symbols, groups or
        a polynomial, at the specialization of a specialized context
        (`_specialized`)."""
        return self._specialized(coeff).constant_value()

    def _specialized(self, coeff) -> SparsePoly:
        """The specialized value of a coefficient as a constant over no
        variables, the part `reduce_normal_form` reads with x-exponent 0,
        computed once per distinct coefficient: each group's table d is
        specialized in ints and multiplies its weight gamma once.

        Specialization is a ring map, so equal coefficients have equal
        values, and the value read from the table is the one substituting
        the terms of sum gamma * d gives.  Equality is equality in the ring,
        an int standing for its image, so a hit across an int and a ring
        element reads the same ring element.
        """
        const = self._values.get(coeff)
        if const is None:
            value = 0
            for gamma, d in coeff if type(coeff) is tuple else ((1, coeff),):
                value = gamma * d.specialize(self.specialization).constant_value() + value
            const = self._values[coeff] = SparsePoly.constant((), value)
        return const

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
        slots' coefficients, and their shift class {(dr - min dr, T + dt): c}
        does not depend on rho: one `combination_vanishes` per distinct T
        gives each anchor the verdict its generator object gets."""
        verdicts: dict[int, bool] = {}
        for rho, T in anchors:
            if T not in verdicts:
                verdicts[T] = self.combination_vanishes({(rho + dr, T + dt): c for dr, dt, c in layout})
        return [verdicts[T] for _, T in anchors]

    def combination_vanishes(self, coeffs: dict[tuple[int, int], SparsePoly]) -> bool:
        """Is sum_(rho,T) c_(rho,T) * image(rho, T) zero?

        `coeffs` maps multidegrees (rho, T) to coefficient polynomials in the
        deformation symbols.  The verdict is kept per shift class: with
        s = min rho, the sum equals x^s times the sum over (rho - s, T),
        because image(rho, T) = x^rho * image(0, T).  Every V-slot of a
        normal form lies in a domain (polynomials in x and the symbols over
        Z[lam], or F_p where the special fibre reads them), where x^s is not
        a zero divisor, so one sum vanishes exactly when the other does.  The
        key holds the exact coefficient polynomials, so sums that differ in
        any coefficient never share a verdict.
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

        With C_T = sum_rho x^rho * c_(rho,T), the V-polynomial
        sum_T C_T * V^(E-T) is reduced once (`reduce_normal_form`), one part
        (E - T, 0, C_T) per weight: C_T's groups, one per weight, join the
        tables of the c_(rho,T) shifted by x^rho (`_joined`) once per
        context (a specialized context joins the values of the c_(rho,T)),
        and the sum vanishes when every slot of that normal form is zero:

        - the normal form modulo a monic relation is unique and linear over
          the polynomials in x and the symbols, so
          NF(sum_T C_T * V^(E-T)) = sum_T C_T * NF(V^(E-T)), and one side is
          zero exactly when the other is;
        - a trinomial's combination is x^rho * V^k * (V^p - rhs), so one
          substitution round empties it; no weight image is reduced;
        - each start degree E - T is at least p (a weight T is at most
          2p - 2, and a start below p raises TOutOfRange), so every
          coefficient meets a relation slot and the zero test reads values
          of the fibre's ring, mod p on the special fibre;
        - a binomial's per-multidegree sums are already zero, so a binomial
          never reaches this method.
        """
        blocks: dict[int, list] = {}
        for (rho, T), coeff in items:
            e = self.clearing - T
            if e < self.p:
                raise TOutOfRange(f"weight {T} starts below V^p on the {self.fibre} fibre")
            if self.specialization is not None:
                coeff = self._specialized(coeff)
            blocks.setdefault(e, []).append((rho, coeff if type(coeff) is tuple else ((1, coeff),)))
        parts = []
        for e, block in blocks.items():
            key = frozenset(block)
            joined = self._joined.get(key)
            if joined is None:
                joined = self._joined[key] = _joined(block, self.vars)
            parts.append((e, 0, joined))
        return reduce_normal_form(parts, self.relation, zero_test=True, memo=self._packed)

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
    each compared one X^k coefficient at a time.  Their common right side is
    lam^p * (W^p - sum_(k<p) rel_k * W^k), built from the relative relation
    with W = a*X; its X^k coefficient is a^k * R_k, with R_k = -lam^p * rel_k
    for k < p and R_p = lam^p.

    (a) a^p*(lam*X+1)^p - lam^p*x^ell - a^p, expanded by the binomial
        theorem, has the X^k coefficient a^k times -lam^p * x^ell at k = 0
        and binom(p, k) * lam^k * a^(p-k) for k >= 1;
    (b) coefficientwise lam-reduction of the relative relation gives the
        special relation read mod p, slot by slot;
    (c) the generic relation y^p = sum_(i<p) g_i * y^i, substituted as
        y = a*(lam*X + 1): with G_p = 1 and G_i = -g_i, sum_i G_i * y^i has
        the X^k coefficient a^k times sum_(i>=k) binom(i, k) * lam^k * G_i *
        a^(i-k).

    This is exact.  An identity in X holds exactly when it holds at every
    X^k.  At X^k both sides are a^k times the compared quotients, so the
    division by a^k is exact, and as R is a domain and a != 0,
    a^k * L = a^k * R exactly when L = R.  So lam^p != 0 cancels too: given
    lam^(p-k) * c_k = binom(p, k) for the relative slot table's c_k (times
    lam^k, lam^p * c_k = binom(p, k) * lam^k), (a)
    holds if rel_0 = x^ell and rel_k = -c_k * a^(p-k) for 0 < k < p, and the
    model is then the right side.  (a) reads the relative table only; (c)
    still reads the generic table, so a wrong generic slot fails (c), and a
    wrong relative slot fails (a) and (c).

    (c) needs no substitution when (a) holds and the generic table's middle
    slots g_1..g_(p-1) are zero, as the generic layout makes them: then
    G_i = 0 for 0 < i < p and G_p = 1, so the X^k quotient of the
    substitution is binom(p, k) * lam^k * a^(p-k) for k >= 1, the model's
    own, and G_0 + a^p = a^p - g_0 at k = 0.  As (a) makes the model the
    right side, (c) is then g_0 == a^p + lam^p * x^ell, the model's X^0
    slot moved across.

    On intact tables no polynomial and no ring element is built per term:
    each V-slot is its groups (weight, int table), one per distinct weight
    (`_relation_rhs`), so the int tables are compared with a^(p-k) and each
    weight is checked once.  rel_0 must be the group (1, x^ell), rel_k the
    group (-c_k, a^(p-k)) and g_0 the groups (lam^p, x^ell) and (1, a^p),
    each an equality in Z[lam][x, symbols]; (b) maps each weight to F_p
    once (`exactalg.residue_terms`).  Other groups, as a perturbed slot
    has, may still sum to the model, so the slots are multiplied out and
    the model and the substitution built whenever a read fails.
    """
    p = params.p
    # lam^0..lam^p, lam^0 the int 1, which scales on the int fast path
    lam = [1] + CycloElement.lam_powers(p, p + 1)[1:]
    # a^0..a^p with int coefficients, the powers the fibre contexts use
    variables = ("x",) + deformation_symbols(params)
    a = (SparsePoly.constant(variables, 1),) + _a_powers(params)
    x_ell = SparsePoly.variable(variables, "x", params.ell)

    # (a): rel_0 = x^ell and rel_k = -c_k * a^(p-k), with lam^(p-k) * c_k = binom(p, k)
    relative = _relation_rhs(params, RELATIVE)
    c = {k: relative_lambda_coefficient(params, k) for k in range(1, p)}
    check_a = relative[0] == ((1, x_ell),) and all(
        lam[p - k] * c[k] == math.comb(p, k) and relative[k] == ((-c[k], a[p - k]),) for k in range(1, p)
    )

    # (b): coefficientwise reduction of the relative relation, slot by slot, both sides mod p
    special = _relation_rhs(params, SPECIAL)
    check_b = [residue_terms(s, p, 0) for s in relative] == [residue_terms(s, p, 0) for s in special]

    generic = _relation_rhs(params, GENERIC)
    # (c) at X^0, g_0 = a^p + lam^p * x^ell: the model's slots k >= 1 are the substitution's own
    check_c = check_a and not any(generic[1:]) and len(generic[0]) == 2 and dict(generic[0]) == {lam[p]: x_ell, 1: a[p]}
    if not check_a or not check_c:
        relative, generic = ([multiply_out(s, variables) for s in rhs] for rhs in (relative, generic))
        model_0 = x_ell.scale(-lam[p])
        # (a): the binomial theorem, coefficient by coefficient
        model = [model_0] + [a[p - k].scale(lam[k] * math.comb(p, k)) for k in range(1, p + 1)]
        target = model if check_a else [s.scale(-lam[p]) for s in relative] + [a[0].scale(lam[p])]
        check_a = check_a or model == target

        # (c): the generic table under y = a*(lam*X + 1); a^0 = 1 needs no product
        G = [-g for g in generic] + [a[0]]
        substituted = []
        for k in range(p + 1):
            acc = SparsePoly.zero(variables)
            for i in range(k, p + 1):
                if G[i]:
                    acc = acc + (G[i] * a[i - k] if i > k else G[i]).scale(lam[k] * math.comb(i, k))
            substituted.append(acc)
        check_c = substituted == target

    return RelationReport(
        kummer_form_matches_relative=check_a,
        relative_reduces_to_special=check_b,
        substitution_recovers_identity=check_c,
    )
