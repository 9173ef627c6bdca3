"""Enumeration of the basis index set, its Minkowski sum, and the anchor sets.

Everything here is brute-force enumeration plus closed-form descriptions that
are checked against the enumeration.  Sets are returned sorted for
deterministic reports: index pairs by (mu, N), Minkowski points by (T, rho).

One enumeration counts pairs: every unordered pair of index pairs
(repetition allowed) is visited once, at C speed, and the pairs with sum
(rho, T) are counted, not stored.  The Minkowski sum is the sorted key set of
that count table and the counting identities read its class sizes.  The
pairs themselves are materialised, as sorted monomial classes, only when the
generators ask for monomials.  The anchor test reads a second table of runs:
for each point (rho, T) of the enumerated sum, the largest rho' with every
(r, T), rho <= r <= rho', in the sum.  "(rho + j, T') in the sum for every j
in [jlo, jhi]" is then one lookup, end(rho + jlo, T') >= rho + jhi.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations_with_replacement, product, starmap
from operator import add
from typing import NamedTuple

from .errors import IOutOfRange, MinkowskiClosedFormMismatch, PointNotInMinkowskiSum, TOutOfRange
from .family import FamilyParams, a_power_min_exponent, per_triple
from .termorder import TIE_BREAK_DEFAULT, IndexPair, Monomial, sort_monomials


class MinkowskiPoint(NamedTuple):
    """A point (rho, T) of the Minkowski sum of the index set with itself."""

    rho: int
    T: int


@per_triple
def build_index_set(params: FamilyParams) -> tuple[IndexPair, ...]:
    """All (N, mu) with 1 <= mu <= p-1 and floor(mu*ell/p) <= N <= mu*q - 2."""
    points = []
    for mu in range(1, params.p):
        lo = (mu * params.ell) // params.p
        hi = mu * params.q - 2
        for N in range(lo, hi + 1):
            points.append(IndexPair(N=N, mu=mu))
    return tuple(sorted(points, key=lambda f: (f.mu, f.N)))


def count_pairs(index_set) -> dict[tuple[int, int], int]:
    """(T, rho) -> number of unordered pairs of index_set (repetition allowed) with that sum.

    The pairs are those of the rows mu <= mu' of the index set grouped by mu:
    combinations with replacement within a row, the full product across two
    rows.  Each row pair adds N + N' for all its pairs in one C-level
    Counter update; the counts sum to n(n+1)/2 for n index pairs.
    """
    rows: dict[int, list[int]] = {}
    for f in index_set:
        rows.setdefault(f.mu, []).append(f.N)
    mus = sorted(rows)
    by_weight: dict[int, Counter] = {}
    for k, mu in enumerate(mus):
        for mu2 in mus[k:]:
            pairs = combinations_with_replacement(rows[mu], 2) if mu == mu2 else product(rows[mu], rows[mu2])
            by_weight.setdefault(mu + mu2, Counter()).update(starmap(add, pairs))
    return {(T, rho): n for T, counts in by_weight.items() for rho, n in counts.items()}


@per_triple
def pair_counts(params: FamilyParams) -> dict[tuple[int, int], int]:
    """count_pairs of the triple's index set."""
    return count_pairs(build_index_set(params))


def _points(counts: dict[tuple[int, int], int]) -> tuple[MinkowskiPoint, ...]:
    return tuple(MinkowskiPoint(rho, T) for T, rho in sorted(counts))


def minkowski_sum_brute(index_set) -> tuple[MinkowskiPoint, ...]:
    """Pairwise sums (unordered pairs, repetition allowed), sorted by (T, rho)."""
    return _points(count_pairs(index_set))


@per_triple
def minkowski_sum(params: FamilyParams) -> tuple[MinkowskiPoint, ...]:
    """minkowski_sum_brute of the triple's index set."""
    return _points(pair_counts(params))


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


def minkowski_sum_closed(params: FamilyParams) -> tuple[MinkowskiPoint, ...]:
    """Closed form {2 <= T <= 2(p-1), b(T) <= rho <= T*q - 4}.

    Always checked against the brute-force enumeration before returning.
    """
    points = []
    for T in range(2, 2 * (params.p - 1) + 1):
        lo = rho_lower_bound(params, T)
        for rho in range(lo, T * params.q - 4 + 1):
            points.append(MinkowskiPoint(rho=rho, T=T))
    closed = tuple(sorted(points, key=lambda m: (m.T, m.rho)))
    if closed != minkowski_sum(params):
        raise MinkowskiClosedFormMismatch(
            f"closed-form Minkowski description disagrees with enumeration for "
            f"(p,q,ell)=({params.p},{params.q},{params.ell})"
        )
    return closed


def anchor_set(params: FamilyParams, i: int) -> tuple[MinkowskiPoint, ...]:
    """Points (rho, T) whose shifted companions all stay inside the Minkowski sum.

    Requires (rho + ell, T + p) in the sum and (rho + j, T + p - i) in the sum
    for every j in [a_power_min_exponent(i), (p - i) * q].  Membership is
    tested against the brute-force sum, never the closed form.
    """
    if i < 0 or i > params.p:
        raise IOutOfRange(f"i must lie in [0, {params.p}], got {i}")
    return _anchor_set(params, i)


@per_triple
def _run_ends(params: FamilyParams) -> dict[tuple[int, int], int]:
    """(rho, T) of the Minkowski sum -> largest rho' with [rho, rho'] in the sum at weight T."""
    ends: dict[tuple[int, int], int] = {}
    for pt in reversed(minkowski_sum(params)):
        ends[(pt.rho, pt.T)] = ends.get((pt.rho + 1, pt.T), pt.rho)
    return ends


@per_triple
def _shift_anchored(params: FamilyParams) -> tuple[MinkowskiPoint, ...]:
    """Points (rho, T) of the Minkowski sum with (rho + ell, T + p) in the sum; the same for every i."""
    ends = _run_ends(params)
    p, ell = params.p, params.ell
    return tuple(pt for pt in minkowski_sum(params) if (pt.rho + ell, pt.T + p) in ends)


@per_triple
def _anchor_set(params: FamilyParams, i: int) -> tuple[MinkowskiPoint, ...]:
    ends = _run_ends(params)
    shift = params.p - i
    jlo = a_power_min_exponent(params, i)  # 0 or p - i, never above jhi since q >= 1
    jhi = shift * params.q
    out = []
    for pt in _shift_anchored(params):
        # every j in [jlo, jhi] at once: one run covers [rho + jlo, rho + jhi]
        end = ends.get((pt.rho + jlo, pt.T + shift))
        if end is not None and end >= pt.rho + jhi:
            out.append(pt)
    return tuple(out)


def anchor_set_zero_closed(params: FamilyParams) -> tuple[MinkowskiPoint, ...]:
    """Literal closed form of the i = 0 anchor set: b(T) <= rho <= T*q - 4, 2 <= T <= p - 2.

    This simplified description relies on b(T + p) - ell = b(T), which fails
    for some ell > 1 (witness: (p, q, ell) = (5, 2, 4), where the true anchor
    set is {(2, 3)} but this form also lists (0, 2) and (1, 3)).  Use
    anchor_set_zero_closed_repaired for the form that is exact everywhere.
    """
    points = []
    for T in range(2, params.p - 1):
        lo = rho_lower_bound(params, T)
        for rho in range(lo, T * params.q - 4 + 1):
            points.append(MinkowskiPoint(rho=rho, T=T))
    return tuple(sorted(points, key=lambda m: (m.T, m.rho)))


def anchor_set_zero_closed_repaired(params: FamilyParams) -> tuple[MinkowskiPoint, ...]:
    """Exact closed form of the i = 0 anchor set.

    Lower bound max(b(T), b(T+p) - ell, b(T+p) - j_min(0)): the shifted
    companions (rho + ell, T + p) and (rho + j, T + p) must clear the
    Minkowski lower bound at weight T + p, which cannot be simplified away.
    """
    points = []
    jmin = a_power_min_exponent(params, 0)
    for T in range(2, params.p - 1):
        bTp = rho_lower_bound(params, T + params.p)
        lo = max(rho_lower_bound(params, T), bTp - params.ell, bTp - jmin)
        for rho in range(lo, T * params.q - 4 + 1):
            points.append(MinkowskiPoint(rho=rho, T=T))
    return tuple(sorted(points, key=lambda m: (m.T, m.rho)))


@per_triple
def _monomial_classes(params: FamilyParams, tie_break: str) -> dict[tuple[int, int], tuple[Monomial, ...]]:
    """Every degree-2 monomial, grouped by (rho, T), each class sorted ascending."""
    index_set = build_index_set(params)
    classes: dict[tuple[int, int], list[Monomial]] = {}
    for i, a in enumerate(index_set):
        for b in index_set[i:]:
            classes.setdefault((a.N + b.N, a.mu + b.mu), []).append(Monomial((a, b)))
    return {point: tuple(sort_monomials(monos, tie_break)) for point, monos in classes.items()}


def monomials_at(
    params: FamilyParams, point: MinkowskiPoint, tie_break: str = TIE_BREAK_DEFAULT
) -> list[Monomial]:
    """All degree-2 monomials of multidegree (2, rho, T), sorted ascending."""
    got = _monomial_classes(params, tie_break).get((point.rho, point.T))
    if got is None:
        raise PointNotInMinkowskiSum(f"{point} is not in the Minkowski sum")
    return list(got)


def minimal_monomial(
    params: FamilyParams, point: MinkowskiPoint, tie_break: str = TIE_BREAK_DEFAULT
) -> Monomial:
    """The order-minimal degree-2 monomial of multidegree (2, rho, T)."""
    return monomials_at(params, point, tie_break)[0]


@dataclass(frozen=True)
class CountReport:
    """All cardinalities and closed-form checks for one parameter triple."""

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
        return {
            "p": self.p,
            "q": self.q,
            "ell": self.ell,
            "genus": self.genus,
            "index_set_size": self.index_set_size,
            "minkowski_size": self.minkowski_size,
            "anchor_sizes": list(self.anchor_sizes),
            "outside_zero": self.outside_zero,
            "bound": self.bound,
            "checks": {
                "minkowski_closed_matches": self.minkowski_closed_matches,
                "anchor_zero_closed_matches": self.anchor_zero_closed_matches,
                "anchor_zero_closed_repaired_matches": self.anchor_zero_closed_repaired_matches,
                "counting_bound_holds": self.counting_bound_holds,
                "counting_bound_applicable": self.counting_bound_applicable,
                "counting_bound_equality": self.counting_bound_equality,
                "rho_bound_subadditive": self.rho_bound_subadditive,
                "anchor_zero_contained": self.anchor_zero_contained,
                "index_set_size_equals_genus": self.index_set_size_equals_genus,
                "degree2_total_matches": self.degree2_total_matches,
            },
            "all_pass": self.all_pass,
        }


def check_counts(params: FamilyParams) -> CountReport:
    """Run every counting identity for one parameter triple.

    Failed identities become report entries, never exceptions.  A point of
    the Minkowski sum with no entry in the pair-count table means the sum and
    the table disagree and raises PointNotInMinkowskiSum.
    """
    index_set = build_index_set(params)
    brute = minkowski_sum(params)
    try:
        closed_ok = minkowski_sum_closed(params) == brute
    except MinkowskiClosedFormMismatch:
        closed_ok = False

    anchors = [anchor_set(params, i) for i in range(params.p + 1)]
    zero = set(anchors[0])
    zero_closed_ok = anchor_set_zero_closed(params) == anchors[0]
    zero_repaired_ok = anchor_set_zero_closed_repaired(params) == anchors[0]

    g = params.genus
    outside = len(brute) - len(anchors[0])
    bound = 3 * (g - 1)

    tmax = 2 * (params.p - 1)
    b = {T: rho_lower_bound(params, T) for T in range(2, tmax + 1)}
    subadd = all(b[T + alpha] <= b[T] + alpha for T in range(2, tmax + 1) for alpha in range(0, tmax - T + 1))

    contained = all(zero <= set(a) for a in anchors)

    counts = pair_counts(params)
    pair_total = 0
    for pt in brute:
        n = counts.get((pt.T, pt.rho))
        if n is None:
            raise PointNotInMinkowskiSum(f"{pt} is not in the Minkowski sum")
        pair_total += n

    return CountReport(
        p=params.p,
        q=params.q,
        ell=params.ell,
        genus=g,
        index_set_size=len(index_set),
        minkowski_size=len(brute),
        anchor_sizes=tuple(len(a) for a in anchors),
        outside_zero=outside,
        bound=bound,
        minkowski_closed_matches=closed_ok,
        anchor_zero_closed_matches=zero_closed_ok,
        anchor_zero_closed_repaired_matches=zero_repaired_ok,
        counting_bound_holds=outside <= bound,
        counting_bound_applicable=g >= 3,
        counting_bound_equality=outside == bound,
        rho_bound_subadditive=subadd,
        anchor_zero_contained=contained,
        index_set_size_equals_genus=len(index_set) == g,
        degree2_total_matches=pair_total == g * (g + 1) // 2,
    )
