"""Enumeration of the basis index set, its Minkowski sum, and the anchor sets.

Everything is computed from the index set; the closed forms are only checked
against it.  Sets are returned sorted: index pairs by (mu, N), Minkowski
points by (T, rho).

The counting layer works on run tables: weight -> one interval [lo, hi].
Row mu of the index set is by definition one interval,
floor(mu*ell/p) <= N <= mu*q - 2 (`_rows`), and every table holds one
interval per weight:

- Minkowski sum.  [a, b] + [c, d] = [a + c, b + d] over the integers, and
  every row pair mu <= mu' at T = mu + mu' ends at (mu + mu')*q - 4 =
  T*q - 4.  Intervals sharing a right end are nested, so the sum at T is
  [min(a + c), T*q - 4] (`_row_sums`).
- Anchor sets.  The rho at T with [rho + lo, rho + hi] inside the sum's
  interval [c, d] at a shifted weight are the interval [c - lo, d - hi]
  (lo <= hi), so `_meet` intersects two intervals per weight; anchored
  rho and every anchor set are such intersections, one interval each.

Closed forms, anchor sets and the counts of `check_counts` are interval
arithmetic on these tables, with no point built.  Points are expanded only
for the point API, monomials only for the generators, the membership
test's multidegree lookup and the kernel oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import combinations
from typing import NamedTuple

from .errors import IOutOfRange, PointNotInMinkowskiSum, TOutOfRange
from .family import FamilyParams, a_power_min_exponent, per_triple
from .termorder import TIE_BREAK_DEFAULT, IndexPair, Monomial, sort_monomials

Run = tuple[int, int]
RunTable = dict[int, Run]


class MinkowskiPoint(NamedTuple):
    """A point (rho, T) of the Minkowski sum of the index set with itself."""

    rho: int
    T: int


@per_triple
def _rows(params: FamilyParams) -> RunTable:
    """mu -> (floor(mu*ell/p), mu*q - 2), 1 <= mu <= p-1: the index set's rows, empty ones left out."""
    p, q, ell = params.p, params.q, params.ell
    return {mu: (mu * ell // p, mu * q - 2) for mu in range(1, p) if mu * ell // p <= mu * q - 2}


@per_triple
def build_index_set(params: FamilyParams) -> tuple[IndexPair, ...]:
    """All (N, mu) with 1 <= mu <= p-1 and floor(mu*ell/p) <= N <= mu*q - 2: the rows expanded."""
    return _expand(_rows(params), IndexPair)


def _total(table: RunTable) -> int:
    return sum(hi - lo + 1 for lo, hi in table.values())


def _row_sums(rows: RunTable) -> RunTable:
    """Run table of the pairwise sums of a row table (rows by ascending mu, row mu
    ending at mu*q - 2): the lowest a + c over the row pairs mu <= mu' at
    T = mu + mu', up to the end b + d = T*q - 4 that every such pair shares."""
    items = list(rows.items())
    sums: RunTable = {}
    for k, (mu, (a, b)) in enumerate(items):
        for mu2, (c, d) in items[k:]:
            T = mu + mu2
            got = sums.get(T)
            if got is None or a + c < got[0]:
                sums[T] = (a + c, b + d)
    return {T: sums[T] for T in sorted(sums)}


def _expand(table: RunTable, point=MinkowskiPoint) -> tuple:
    """The points point(x, weight) of a run table with ascending weights, sorted by (weight, x)."""
    return tuple(point(x, w) for w, (lo, hi) in table.items() for x in range(lo, hi + 1))


@per_triple
def _runs(params: FamilyParams) -> RunTable:
    """Run table of the triple's Minkowski sum, the pairwise sums of its rows."""
    return _row_sums(_rows(params))


@per_triple
def minkowski_sum(params: FamilyParams) -> tuple[MinkowskiPoint, ...]:
    """The pairwise sums of the triple's index set (unordered pairs,
    repetition allowed), sorted by (T, rho)."""
    return _expand(_runs(params))


def rho_lower_bound(params: FamilyParams, T: int) -> int:
    """Sharp lower bound for rho at weight T.

    Equals floor(T*ell/p) when every decomposition T = mu + mu' with
    1 <= mu, mu' <= p-1 satisfies floor(mu*ell/p) + floor(mu'*ell/p)
    = floor(T*ell/p), and one less when some decomposition falls short.
    """
    if T < 2 or T > 2 * (params.p - 1):
        raise TOutOfRange(f"T must lie in [2, {2 * (params.p - 1)}], got {T}")
    p, ell = params.p, params.ell
    full = (T * ell) // p
    lo = max(1, T - (p - 1))
    hi = min(p - 1, T - 1)
    for mu in range(lo, hi + 1):
        if (mu * ell) // p + ((T - mu) * ell) // p == full - 1:
            return full - 1
    return full


def _closed_forms(params: FamilyParams) -> tuple[dict[int, int], RunTable, RunTable, RunTable]:
    """b(T) for 2 <= T <= 2(p-1), and the run tables of the closed forms of the
    Minkowski sum and of anchor set 0, literal and repaired.

    The literal form b(T) <= rho <= T*q - 4 of anchor set 0 relies on
    b(T + p) - ell = b(T), which fails for some ell > 1 (witness (5, 2, 4));
    the repaired lower bound max(b(T), b(T+p) - ell, b(T+p) - j_min(0)) is exact.
    """
    p, q, ell, jmin = params.p, params.q, params.ell, a_power_min_exponent(params, 0)
    b = {T: rho_lower_bound(params, T) for T in range(2, 2 * (p - 1) + 1)}

    def bands(weights, lower) -> RunTable:  # {T: lower(T) <= rho <= T*q - 4}, empty weights left out
        return {T: (lower(T), T * q - 4) for T in weights if lower(T) <= T * q - 4}

    zero, lower = range(2, p - 1), b.__getitem__
    return b, bands(b, lower), bands(zero, lower), bands(zero, lambda T: max(b[T], b[T + p] - ell, b[T + p] - jmin))


@per_triple
def anchor_set(params: FamilyParams, i: int) -> tuple[MinkowskiPoint, ...]:
    """Points (rho, T) whose shifted companions all stay inside the Minkowski sum.

    Requires (rho + ell, T + p) in the sum and (rho + j, T + p - i) in the sum
    for every j in [a_power_min_exponent(i), (p - i) * q].  Membership is
    tested against the enumerated sum, never the closed form.
    """
    if i < 0 or i > params.p:
        raise IOutOfRange(f"i must lie in [0, {params.p}], got {i}")
    return _expand(_anchor_runs(params)[i])


def _meet(table: RunTable, others: RunTable, shift: int = 0, lo: int = 0, hi: int = 0) -> RunTable:
    """At each weight T of table, the rho of its interval with [rho + lo, rho + hi]
    inside the interval [c, d] of others at T + shift: the interval meets
    [c - lo, d - hi] (lo <= hi).  Empty T left out."""
    out = {}
    for T, (a, b) in table.items():
        got = others.get(T + shift)
        if got is not None:
            c, d = got[0] - lo, got[1] - hi
            c, d = (a if a > c else c), (b if b < d else d)
            if c <= d:
                out[T] = (c, d)
    return out


@per_triple
def _anchor_runs(params: FamilyParams) -> tuple[RunTable, ...]:
    """Run tables of the anchor sets i = 0..p: the rho at T with rho + ell in the sum
    at T + p (for every i) and [rho + jlo, rho + jhi] in it at T + p - i (jlo <= jhi)."""
    runs = _runs(params)
    p, q, ell = params.p, params.q, params.ell
    anchored = _meet(runs, runs, p, ell, ell)
    return tuple(_meet(anchored, runs, p - i, a_power_min_exponent(params, i), (p - i) * q) for i in range(p + 1))


@per_triple
def monomial_multidegrees(params: FamilyParams) -> dict[Monomial, tuple[int, int]]:
    """Every degree-2 monomial in the basis variables -> its (rho, T).

    One entry per index pair a <= b, walking the index set in (mu, N) order,
    so each pair is already a monomial's sorted factors and no entry is
    sorted again (`Monomial._presorted`).  The table lists each class's
    monomials in ascending (mu, N) of their smaller factor a;
    `monomial_classes` groups it and `FibreContext.multidegree_of` reads it.
    """
    index_set = build_index_set(params)
    presorted = Monomial._presorted
    return {
        presorted((a, b)): (a.N + b.N, a.mu + b.mu)
        for i, a in enumerate(index_set)
        for b in index_set[i:]
    }


@per_triple
def monomial_classes(params: FamilyParams, tie_break: str) -> dict[tuple[int, int], tuple[Monomial, ...]]:
    """Every degree-2 monomial, grouped by (rho, T), each class sorted ascending.

    Classes appear in the order of their first index pair a <= b, walking
    the index set in order (`monomial_multidegrees`, whose monomials the
    classes hold); `monomials_at` and `verify.kernel_oracle` read this one
    table.

    The default class order is the walk's, reversed, with no sort.  In a
    class (rho, T) the smaller factor a fixes the monomial, as b is
    (rho - a.N, T - a.mu), and the walk lists the class in ascending (mu, N)
    of a.  The default term key of a*b is (2, -T, rho, v) with
    v = ((-a.mu, -a.N), (-b.mu, -b.N)), so inside the class it ascends as a
    descends.  The alt tie-break reads v by (N, mu), which no walk gives for
    free, so its classes are sorted (`sort_monomials`).
    """
    classes: dict[tuple[int, int], list[Monomial]] = {}
    for mono, point in monomial_multidegrees(params).items():
        classes.setdefault(point, []).append(mono)
    if tie_break == TIE_BREAK_DEFAULT:
        return {point: tuple(reversed(monos)) for point, monos in classes.items()}
    return {point: tuple(sort_monomials(monos, tie_break)) for point, monos in classes.items()}


def monomials_at(
    params: FamilyParams, point: MinkowskiPoint, tie_break: str = TIE_BREAK_DEFAULT
) -> list[Monomial]:
    """All degree-2 monomials of multidegree (2, rho, T), sorted ascending."""
    got = monomial_classes(params, tie_break).get(point)
    if got is None:
        raise PointNotInMinkowskiSum(f"{point} is not in the Minkowski sum")
    return list(got)


def minimal_monomial(
    params: FamilyParams, point: MinkowskiPoint, tie_break: str = TIE_BREAK_DEFAULT
) -> Monomial:
    """The order-minimal degree-2 monomial of multidegree (2, rho, T)."""
    got = monomial_classes(params, tie_break).get(point)
    if got is None:
        raise PointNotInMinkowskiSum(f"{point} is not in the Minkowski sum")
    return got[0]


@dataclass(frozen=True)
class CountReport:
    """All cardinalities and closed-form checks for one parameter triple.

    `degree2_total_matches` restates `index_set_size_equals_genus`: an
    n-point set has n(n+1)/2 unordered pairs (repetition allowed) however it
    splits into rows, and n(n+1)/2 = g(g+1)/2 exactly when n = g.
    """

    p: int
    q: int
    ell: int
    genus: int
    index_set_size: int
    minkowski_size: int
    anchor_sizes: tuple[int, ...]
    outside_zero: int
    bound: int
    minkowski_closed_matches: bool
    anchor_zero_closed_matches: bool
    anchor_zero_closed_repaired_matches: bool
    counting_bound_holds: bool
    counting_bound_applicable: bool
    counting_bound_equality: bool
    rho_bound_subadditive: bool
    anchor_zero_contained: bool
    index_set_size_equals_genus: bool
    degree2_total_matches: bool

    @property
    def all_pass(self) -> bool:
        # the 3(g-1) bound presupposes genus >= 3 and the literal zero-anchor
        # closed form is known to fail for some ell > 1; both report the raw
        # outcome without blocking
        return (
            self.minkowski_closed_matches
            and self.anchor_zero_closed_repaired_matches
            and (self.counting_bound_holds or not self.counting_bound_applicable)
            and self.rho_bound_subadditive
            and self.anchor_zero_contained
            and self.index_set_size_equals_genus
            and self.degree2_total_matches
        )

    def to_dict(self) -> dict:
        """The int fields, anchor_sizes as a list, the bool fields under "checks", and all_pass."""
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        doc = {name: value for name, value in values.items() if not isinstance(value, bool)}
        doc["anchor_sizes"] = list(self.anchor_sizes)
        doc["checks"] = {name: value for name, value in values.items() if isinstance(value, bool)}
        doc["all_pass"] = self.all_pass
        return doc


def check_counts(params: FamilyParams) -> CountReport:
    """Run every counting identity for one parameter triple on its run tables;
    failed identities become report entries, never exceptions."""
    rows = [hi - lo + 1 for lo, hi in _rows(params).values()]
    runs = _runs(params)
    b, closed, zero_closed, zero_repaired = _closed_forms(params)
    anchors = _anchor_runs(params)
    zero = anchors[0]

    g = params.genus
    n = sum(rows)
    size = _total(runs)
    anchor_sizes = tuple(map(_total, anchors))
    outside = size - anchor_sizes[0]
    bound = 3 * (g - 1)

    tmax = 2 * (params.p - 1)
    # b(T + alpha) <= b(T) + alpha for all alpha >= 0 exactly when it holds at alpha = 1: steps telescope
    subadd = all(b[T + 1] <= b[T] + 1 for T in range(2, tmax))

    # one interval per weight, so zero lies inside a exactly when meeting a leaves it whole
    contained = all(_meet(zero, a) == zero for a in anchors[1:])

    # unordered pairs: |row|(|row|+1)/2 within a row, |row|*|row'| across two rows
    pair_total = sum(m * (m + 1) // 2 for m in rows) + sum(m * k for m, k in combinations(rows, 2))

    return CountReport(
        p=params.p,
        q=params.q,
        ell=params.ell,
        genus=g,
        index_set_size=n,
        minkowski_size=size,
        anchor_sizes=anchor_sizes,
        outside_zero=outside,
        bound=bound,
        minkowski_closed_matches=closed == runs,
        anchor_zero_closed_matches=zero_closed == zero,
        anchor_zero_closed_repaired_matches=zero_repaired == zero,
        counting_bound_holds=outside <= bound,
        counting_bound_applicable=g >= 3,
        counting_bound_equality=outside == bound,
        rho_bound_subadditive=subadd,
        anchor_zero_contained=contained,
        index_set_size_equals_genus=n == g,
        degree2_total_matches=pair_total == g * (g + 1) // 2,
    )
