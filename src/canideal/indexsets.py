"""Enumeration of the basis index set, its Minkowski sum, and the anchor sets.

Everything is computed from the index set; the closed forms are only checked
against it.  Sets are returned sorted: index pairs by (mu, N), Minkowski
points by (T, rho).

The counting layer works on run tables: weight T -> the sorted, disjoint,
non-adjacent rho-intervals [lo, hi] at T.  The Minkowski sum's table cuts each
row mu of the index set into runs of N, adds each run pair of rows mu <= mu'
as [a + c, b + d] at T = mu + mu' and merges the intervals at each T.  This is
exact because [a, b] + [c, d] = [a + c, b + d] over the integers and A + B is
the union of the sums of its runs.  Closed forms, anchor sets and the counts
of `check_counts` are interval arithmetic on these runs.  Points are
materialised only for the point API, monomial classes only for the generators.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import combinations
from typing import NamedTuple

from .errors import IOutOfRange, MinkowskiClosedFormMismatch, PointNotInMinkowskiSum, TOutOfRange
from .family import FamilyParams, a_power_min_exponent, per_triple
from .termorder import TIE_BREAK_DEFAULT, IndexPair, Monomial, sort_monomials

Run = tuple[int, int]
RunTable = dict[int, tuple[Run, ...]]


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


def _merge(intervals) -> tuple[Run, ...]:
    """The union of integer intervals [lo, hi] (lo <= hi) as sorted, disjoint, non-adjacent runs."""
    out: list[Run] = []
    for lo, hi in sorted(intervals):
        if out and lo <= out[-1][1] + 1:
            out[-1] = (out[-1][0], max(hi, out[-1][1]))
        else:
            out.append((lo, hi))
    return tuple(out)


def _intersect(xs: tuple[Run, ...], ys: tuple[Run, ...]) -> tuple[Run, ...]:
    """The intersection of two run lists, again sorted, disjoint and non-adjacent."""
    out = []
    for a, b in xs:
        for c, d in ys:
            lo, hi = (a if a > c else c), (b if b < d else d)
            if lo <= hi:
                out.append((lo, hi))
    return tuple(out)


def _size(runs: tuple[Run, ...]) -> int:
    return sum(hi - lo + 1 for lo, hi in runs)


def _total(table: RunTable) -> int:
    return sum(map(_size, table.values()))


def _row_runs(index_set) -> RunTable:
    """mu -> the runs of the N values of row mu, rows by ascending mu."""
    rows: dict[int, list[Run]] = {}
    for f in index_set:
        rows.setdefault(f.mu, []).append((f.N, f.N))
    return {mu: _merge(rows[mu]) for mu in sorted(rows)}


def minkowski_runs(index_set) -> RunTable:
    """Run table of the sum of index_set with itself (unordered pairs, repetition allowed).

    T -> the runs of {N + N' : (N, mu), (N', mu') in index_set, mu + mu' = T},
    weights ascending: every run pair of the rows mu <= mu' adds its interval
    sum at T = mu + mu', and the intervals at each T are merged.
    """
    rows = list(_row_runs(index_set).items())
    sums: dict[int, list[Run]] = {}
    for k, (mu, runs) in enumerate(rows):
        for mu2, runs2 in rows[k:]:
            sums.setdefault(mu + mu2, []).extend((a + c, b + d) for a, b in runs for c, d in runs2)
    return {T: _merge(sums[T]) for T in sorted(sums)}


def _expand(table: RunTable) -> tuple[MinkowskiPoint, ...]:
    """The points of a run table with ascending weights, sorted by (T, rho)."""
    return tuple(MinkowskiPoint(rho, T) for T, runs in table.items() for lo, hi in runs for rho in range(lo, hi + 1))


@per_triple
def _runs(params: FamilyParams) -> RunTable:
    """minkowski_runs of the triple's index set."""
    return minkowski_runs(build_index_set(params))


def minkowski_sum_brute(index_set) -> tuple[MinkowskiPoint, ...]:
    """Pairwise sums (unordered pairs, repetition allowed), sorted by (T, rho)."""
    return _expand(minkowski_runs(index_set))


@per_triple
def minkowski_sum(params: FamilyParams) -> tuple[MinkowskiPoint, ...]:
    """minkowski_sum_brute of the triple's index set."""
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
    Minkowski sum and of anchor set 0, literal and repaired."""
    p, q, ell, jmin = params.p, params.q, params.ell, a_power_min_exponent(params, 0)
    b = {T: rho_lower_bound(params, T) for T in range(2, 2 * (p - 1) + 1)}

    def bands(weights, lower) -> RunTable:  # {T: lower(T) <= rho <= T*q - 4}, empty weights left out
        return {T: ((lower(T), T * q - 4),) for T in weights if lower(T) <= T * q - 4}

    zero, lower = range(2, p - 1), b.__getitem__
    return b, bands(b, lower), bands(zero, lower), bands(zero, lambda T: max(b[T], b[T + p] - ell, b[T + p] - jmin))


def minkowski_sum_closed(params: FamilyParams) -> tuple[MinkowskiPoint, ...]:
    """Closed form {2 <= T <= 2(p-1), b(T) <= rho <= T*q - 4}.

    Always checked against the enumerated sum before returning.
    """
    if _closed_forms(params)[1] != _runs(params):
        raise MinkowskiClosedFormMismatch(
            f"closed-form Minkowski description disagrees with enumeration for "
            f"(p,q,ell)=({params.p},{params.q},{params.ell})"
        )
    return minkowski_sum(params)


def anchor_set(params: FamilyParams, i: int) -> tuple[MinkowskiPoint, ...]:
    """Points (rho, T) whose shifted companions all stay inside the Minkowski sum.

    Requires (rho + ell, T + p) in the sum and (rho + j, T + p - i) in the sum
    for every j in [a_power_min_exponent(i), (p - i) * q].  Membership is
    tested against the enumerated sum, never the closed form.
    """
    if i < 0 or i > params.p:
        raise IOutOfRange(f"i must lie in [0, {params.p}], got {i}")
    return _anchor_set(params, i)


@per_triple
def _anchor_set(params: FamilyParams, i: int) -> tuple[MinkowskiPoint, ...]:
    return _expand(_anchor_runs(params)[i])


def _meet(table: RunTable, others: RunTable) -> RunTable:
    """At each weight of table, its runs intersected with those of others; empty weights left out."""
    out = {}
    for T, runs in table.items():
        got = _intersect(runs, others.get(T, ()))
        if got:
            out[T] = got
    return out


@per_triple
def _anchor_runs(params: FamilyParams) -> tuple[RunTable, ...]:
    """Run tables of the anchor sets i = 0..p: at each T the runs at T, those at
    T + p shifted by -ell (the same for every i) and those at T + p - i shrunk
    to [a - jlo, c - jhi] (the rho with [rho + jlo, rho + jhi] inside [a, c]), intersected."""
    runs = _runs(params)
    p, ell = params.p, params.ell
    anchored = _meet(runs, {T - p: tuple((a - ell, c - ell) for a, c in rs) for T, rs in runs.items()})
    tables = []
    for i in range(p + 1):
        jlo, jhi = a_power_min_exponent(params, i), (p - i) * params.q  # jlo <= jhi since q >= 1
        covering = {T: tuple((a - jlo, c - jhi) for a, c in runs.get(T + p - i, ()) if c - a >= jhi - jlo) for T in anchored}
        tables.append(_meet(anchored, covering))
    return tuple(tables)


def anchor_set_zero_closed(params: FamilyParams) -> tuple[MinkowskiPoint, ...]:
    """Literal closed form of the i = 0 anchor set: b(T) <= rho <= T*q - 4, 2 <= T <= p - 2.

    This simplified description relies on b(T + p) - ell = b(T), which fails
    for some ell > 1 (witness: (p, q, ell) = (5, 2, 4), where the true anchor
    set is {(2, 3)} but this form also lists (0, 2) and (1, 3)).  Use
    anchor_set_zero_closed_repaired for the form that is exact everywhere.
    """
    return _expand(_closed_forms(params)[2])


def anchor_set_zero_closed_repaired(params: FamilyParams) -> tuple[MinkowskiPoint, ...]:
    """Exact closed form of the i = 0 anchor set.

    Lower bound max(b(T), b(T+p) - ell, b(T+p) - j_min(0)): the shifted
    companions (rho + ell, T + p) and (rho + j, T + p) must clear the
    Minkowski lower bound at weight T + p, which cannot be simplified away.
    """
    return _expand(_closed_forms(params)[3])


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
    index_set = build_index_set(params)
    runs = _runs(params)
    b, closed, zero_closed, zero_repaired = _closed_forms(params)
    anchors = _anchor_runs(params)
    zero = anchors[0]

    g = params.genus
    size = _total(runs)
    outside = size - _total(zero)
    bound = 3 * (g - 1)

    tmax = 2 * (params.p - 1)
    subadd = all(b[T + alpha] <= b[T] + alpha for T in range(2, tmax + 1) for alpha in range(0, tmax - T + 1))

    # runs are canonical, so zero lies inside a exactly when it meets a in itself
    contained = all(_meet(zero, a) == zero for a in anchors)

    # unordered pairs: |row|(|row|+1)/2 within a row, |row|*|row'| across two rows
    rows = list(map(_size, _row_runs(index_set).values()))
    pair_total = sum(n * (n + 1) // 2 for n in rows) + sum(m * n for m, n in combinations(rows, 2))

    return CountReport(
        p=params.p,
        q=params.q,
        ell=params.ell,
        genus=g,
        index_set_size=len(index_set),
        minkowski_size=size,
        anchor_sizes=tuple(map(_total, anchors)),
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
        index_set_size_equals_genus=len(index_set) == g,
        degree2_total_matches=pair_total == g * (g + 1) // 2,
    )
