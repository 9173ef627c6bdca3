import itertools
import json
import operator

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import canideal.cli as cli
import canideal.indexsets as indexsets
from canideal.errors import PointNotInMinkowskiSum, TOutOfRange
from canideal.family import validate_params
from canideal.indexsets import (
    CountReport,
    MinkowskiPoint,
    anchor_set,
    build_index_set,
    check_counts,
    minimal_monomial,
    minkowski_sum,
    monomial_classes,
    monomial_multidegrees,
    monomials_at,
    rho_lower_bound,
)
from canideal.termorder import TIE_BREAK_ALT, IndexPair, Monomial

SWEEP = [(p, q, ell) for p in (3, 5, 7) for q in (1, 2, 3) for ell in range(1, p)]
# every ell < p gives m = p*q - ell prime to p, so each of these triples is valid
WIDE_SWEEP = [(p, q, ell) for p in (3, 5, 7, 11, 13) for q in range(1, 5) for ell in range(1, p)]


def pt(rho, T):
    return MinkowskiPoint(rho=rho, T=T)


def closed_form(params, k):
    """The points of closed form k of `indexsets._closed_forms`: 1 the Minkowski
    sum, 2 and 3 anchor set 0, literal and repaired."""
    return indexsets._expand(indexsets._closed_forms(params)[k])


# the 720-triple grid of the CI sweep; every ell < p gives a valid triple
GRID_720 = [(p, q, ell) for p in (3, 5, 7, 11, 13, 17, 19, 23) for q in range(1, 9) for ell in range(1, p)]


def test_row_table_is_the_index_set_grouped_by_rows():
    # the points of the definition, enumerated here, grouped into rows of N
    for p, q, ell in GRID_720:
        params = validate_params(p, q, ell)
        points = [(N, mu) for mu in range(1, p) for N in range(mu * q) if (mu * ell) // p <= N <= mu * q - 2]
        rows = {}
        for N, mu in points:
            rows.setdefault(mu, []).append(N)
        assert all(Ns == list(range(Ns[0], Ns[-1] + 1)) for Ns in rows.values())
        assert indexsets._rows(params) == {mu: (Ns[0], Ns[-1]) for mu, Ns in rows.items()}, (p, q, ell)
        assert build_index_set(params) == tuple(IndexPair(N, mu) for N, mu in points)
        assert len(build_index_set(params)) == params.genus


def test_counting_builds_no_points(monkeypatch, capsys):
    # check_counts and sweep read the row table alone: per-point work fails here
    def no_points(*args):
        raise AssertionError("the counting path built points")

    monkeypatch.setattr(indexsets, "build_index_set", no_points)
    monkeypatch.setattr(indexsets, "_expand", no_points)
    grid = [(p, q, ell) for p in (3, 5, 7, 11) for q in range(1, 5) for ell in range(1, p)]
    assert len(grid) == 88
    assert all(check_counts(validate_params(*triple)).all_pass for triple in grid)
    argv = ["sweep", "--p-set", "3,5,7,11", "--q-set", "1,2,3,4", "--format", "structured"]
    assert cli.main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["rows"]) == 88 and doc["all_pass"] is True


def test_index_set_321():
    params = validate_params(3, 2, 1)
    assert build_index_set(params) == (
        IndexPair(0, 1),
        IndexPair(0, 2),
        IndexPair(1, 2),
        IndexPair(2, 2),
    )


def test_index_set_521_rows():
    params = validate_params(5, 2, 1)
    pts = build_index_set(params)
    assert len(pts) == 16 == params.genus
    assert [f for f in pts if f.mu == 1] == [IndexPair(0, 1)]
    assert [f.N for f in pts if f.mu == 4] == list(range(0, 7))


def test_index_set_empty_row():
    params = validate_params(5, 1, 1)
    assert all(f.mu != 1 for f in build_index_set(params))


def test_minkowski_brute_321(pairwise_sum):
    params = validate_params(3, 2, 1)
    got = pairwise_sum(build_index_set(params))
    assert got == minkowski_sum(params) == (
        pt(0, 2),
        pt(0, 3),
        pt(1, 3),
        pt(2, 3),
        pt(0, 4),
        pt(1, 4),
        pt(2, 4),
        pt(3, 4),
        pt(4, 4),
    )


def test_minkowski_count_521(pairwise_sum):
    params = validate_params(5, 2, 1)
    got = pairwise_sum(build_index_set(params))
    assert got == minkowski_sum(params)
    assert len(got) == 49 == sum(2 * T - 3 for T in range(2, 9))


def test_minkowski_empty(pairwise_sum):
    assert pairwise_sum(()) == () == indexsets._expand(indexsets._row_sums({}))


def test_rho_lower_bound_ell_one():
    params = validate_params(5, 2, 1)
    assert all(rho_lower_bound(params, T) == 0 for T in range(2, 9))


def test_rho_lower_bound_523():
    params = validate_params(5, 2, 3)
    values = {T: rho_lower_bound(params, T) for T in range(2, 9)}
    assert values == {2: 0, 3: 1, 4: 1, 5: 2, 6: 2, 7: 3, 8: 4}


def test_rho_lower_bound_range():
    params = validate_params(5, 2, 3)
    with pytest.raises(TOutOfRange):
        rho_lower_bound(params, 1)
    with pytest.raises(TOutOfRange):
        rho_lower_bound(params, 9)


def test_minkowski_closed_mismatch_is_reported(monkeypatch):
    real = indexsets.rho_lower_bound
    monkeypatch.setattr(indexsets, "rho_lower_bound", lambda params, T: real(params, T) + 1)
    params = validate_params(5, 2, 3)
    report = check_counts(params)
    assert report.minkowski_closed_matches is False
    assert not report.all_pass


@pytest.mark.parametrize("triple", SWEEP)
def test_minkowski_closed_equals_brute(triple, pairwise_sum):
    params = validate_params(*triple)
    assert closed_form(params, 1) == pairwise_sum(build_index_set(params))


def test_minkowski_per_weight_sizes_523():
    params = validate_params(5, 2, 3)
    got = closed_form(params, 1)
    assert len(got) == 36
    sizes = {T: sum(1 for m in got if m.T == T) for T in range(2, 9)}
    assert [sizes[T] for T in range(2, 9)] == [1, 2, 4, 5, 7, 8, 9]


@pytest.mark.parametrize("triple", WIDE_SWEEP)
def test_minkowski_sum_and_anchor_sets_match_definitions(triple, pairwise_sum):
    params = validate_params(*triple)
    p, q, ell = triple
    mink = minkowski_sum(params)
    assert mink == pairwise_sum(build_index_set(params))
    literal = set(mink)
    for i in range(p + 1):
        jlo = 0 if ell == 1 else p - i
        want = tuple(
            m
            for m in mink
            if pt(m.rho + ell, m.T + p) in literal
            and all(pt(m.rho + j, m.T + p - i) in literal for j in range(jlo, (p - i) * q + 1))
        )
        assert anchor_set(params, i) == want, i


def test_anchor_sets_examples():
    assert anchor_set(validate_params(3, 2, 1), 0) == ()
    params = validate_params(5, 2, 1)
    zero = anchor_set(params, 0)
    assert zero == (pt(0, 2), pt(0, 3), pt(1, 3), pt(2, 3))
    assert anchor_set(params, 1) == zero


def test_anchor_zero_closed_forms():
    # the literal simplified description fails at (5,2,4); the repaired form is exact
    params = validate_params(5, 2, 4)
    brute = anchor_set(params, 0)
    assert brute == (pt(2, 3),)
    assert closed_form(params, 2) == (pt(0, 2), pt(1, 3), pt(2, 3))
    assert closed_form(params, 3) == brute


@pytest.mark.parametrize("triple", SWEEP)
def test_anchor_zero_repaired_matches_on_sweep(triple):
    params = validate_params(*triple)
    assert closed_form(params, 3) == anchor_set(params, 0)


LITERAL_CLOSED_FORM_FAILURES = {
    (5, 2, 4),
    (5, 3, 4),
    (7, 1, 3),
    (7, 2, 3),
    (7, 2, 5),
    (7, 2, 6),
    (7, 3, 3),
    (7, 3, 5),
    (7, 3, 6),
}


def test_literal_closed_form_failure_set_is_pinned():
    failures = {
        triple
        for triple in SWEEP
        if closed_form(validate_params(*triple), 2) != anchor_set(validate_params(*triple), 0)
    }
    assert failures == LITERAL_CLOSED_FORM_FAILURES


@pytest.mark.parametrize("triple", SWEEP)
def test_anchor_chain_and_subadditivity(triple):
    params = validate_params(*triple)
    zero = set(anchor_set(params, 0))
    for i in range(params.p + 1):
        assert zero <= set(anchor_set(params, i))
    tmax = 2 * (params.p - 1)
    for T in range(2, tmax + 1):
        for alpha in range(0, tmax - T + 1):
            assert rho_lower_bound(params, T + alpha) <= rho_lower_bound(params, T) + alpha


def test_monomials_at_examples():
    params = validate_params(5, 2, 1)
    only = monomials_at(params, pt(0, 2))
    assert only == [Monomial((IndexPair(0, 1), IndexPair(0, 1)))]
    two = monomials_at(params, pt(1, 7))
    assert set(two) == {
        Monomial((IndexPair(0, 3), IndexPair(1, 4))),
        Monomial((IndexPair(1, 3), IndexPair(0, 4))),
    }
    params3 = validate_params(3, 2, 1)
    pair = monomials_at(params3, pt(2, 4))
    assert set(pair) == {
        Monomial((IndexPair(0, 2), IndexPair(2, 2))),
        Monomial((IndexPair(1, 2), IndexPair(1, 2))),
    }
    with pytest.raises(PointNotInMinkowskiSum):
        monomials_at(params, pt(40, 2))


def test_minimal_monomial_examples():
    params = validate_params(5, 2, 1)
    assert minimal_monomial(params, pt(0, 2)) == Monomial((IndexPair(0, 1), IndexPair(0, 1)))
    # two candidates at (1,7): the enumeration-dependent choice is recorded here
    assert minimal_monomial(params, pt(1, 7)) == Monomial((IndexPair(1, 3), IndexPair(0, 4)))
    params3 = validate_params(3, 2, 1)
    assert minimal_monomial(params3, pt(4, 4)) == Monomial((IndexPair(2, 2), IndexPair(2, 2)))
    with pytest.raises(PointNotInMinkowskiSum):
        minimal_monomial(params, pt(40, 2))


@pytest.mark.parametrize("triple", [(5, 2, 1), (5, 2, 3), (3, 2, 1)])
def test_pair_total_is_triangular(triple, pairwise_sum):
    params = validate_params(*triple)
    mink = pairwise_sum(build_index_set(params))
    total = sum(len(monomials_at(params, m)) for m in mink)
    g = params.genus
    assert total == g * (g + 1) // 2


def _naive_pair_counts(index_set):
    """(T, rho) -> number of unordered pairs (repetition allowed), by a double loop."""
    pts = list(index_set)
    counts = {}
    for i in range(len(pts)):
        for j in range(i, len(pts)):
            key = (pts[i].mu + pts[j].mu, pts[i].N + pts[j].N)
            counts[key] = counts.get(key, 0) + 1
    return counts


def _covered(run):
    lo, hi = run
    return set(range(lo, hi + 1))


@given(q=st.integers(1, 4), lows=st.dictionaries(st.integers(1, 6), st.integers(-3, 12)))
@example(q=1, lows={})
@example(q=2, lows={3: 2})
@example(q=2, lows={1: 0, 2: 0, 3: 9, 4: 9, 5: 0})  # rows 3 and 4 empty: weights 2, 3, 6 met before 4
@example(q=3, lows={4: 5, 1: 0, 2: 4, 3: -2})  # lower ends not monotone in mu
def test_pair_counts_match_a_double_loop(q, lows):
    # rows of the family's shape: any lower end, row mu ending at mu*q - 2,
    # empty rows left out as `_rows` leaves them out
    rows = {mu: (lo, mu * q - 2) for mu, lo in sorted(lows.items()) if lo <= mu * q - 2}
    index_set = [IndexPair(N, mu) for mu, (lo, hi) in rows.items() for N in range(lo, hi + 1)]
    naive = _naive_pair_counts(index_set)
    table = indexsets._row_sums(rows)
    assert list(table) == sorted({T for T, _ in naive})
    for T, run in table.items():
        assert run[0] <= run[1]
        assert _covered(run) == {rho for T2, rho in naive if T2 == T}
    want = tuple(sorted((pt(rho, T) for T, rho in naive), key=lambda m: (m.T, m.rho)))
    assert indexsets._expand(table) == want


run_tables = st.dictionaries(
    st.integers(-4, 12), st.tuples(st.integers(-5, 25), st.integers(0, 12)).map(lambda t: (t[0], t[0] + t[1])), max_size=8
)


@given(table=run_tables, others=run_tables, shift=st.integers(-4, 4), lo=st.integers(-3, 3), width=st.integers(0, 6))
@example(table={2: (0, 9)}, others={3: (4, 12)}, shift=1, lo=2, width=3)  # [rho + 2, rho + 5] inside [4, 12]: rho in [2, 7]
@example(table={2: (0, 9)}, others={3: (4, 6)}, shift=1, lo=0, width=3)  # the window is wider than others: empty
def test_meet_is_its_point_definition(table, others, shift, lo, width):
    # the rho of table at T with every rho + j, lo <= j <= hi, in others at T + shift
    hi = lo + width
    want = {
        T: {rho for rho in _covered(run) if all(rho + j in _covered(others.get(T + shift, (0, -1))) for j in range(lo, hi + 1))}
        for T, run in table.items()
    }
    got = indexsets._meet(table, others, shift, lo, hi)
    assert all(a <= b for a, b in got.values())
    assert {T: _covered(run) for T, run in got.items()} == {T: rhos for T, rhos in want.items() if rhos}


@given(table=run_tables, triple=st.sampled_from([(5, 1, 1), (5, 1, 3), (5, 2, 1), (5, 2, 3)]))
@example(table={2: (0, 9), 6: (0, 3), 7: (0, 9)}, triple=(5, 1, 1))  # zero anchor not inside anchor 1
def test_anchor_runs_follow_the_definition_on_generated_tables(table, triple):
    # the anchor path and the containment check on sums of any interval per weight
    p, q, ell = triple
    points = {(rho, T) for T, run in table.items() for rho in _covered(run)}
    want = [
        {
            (rho, T)
            for rho, T in points
            if (rho + ell, T + p) in points
            and all((rho + j, T + p - i) in points for j in range(0 if ell == 1 else p - i, (p - i) * q + 1))
        }
        for i in range(p + 1)
    ]
    params = validate_params(*triple)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(indexsets, "_runs", lambda params: table)
        report = check_counts(params)
        got = indexsets._anchor_runs(params)
    for runs, expected in zip(got, want):
        assert all(a <= b for a, b in runs.values())
        assert {(rho, T) for T, run in runs.items() for rho in _covered(run)} == expected
    assert report.minkowski_size == len(points)
    assert report.anchor_sizes == tuple(map(len, want))
    assert report.anchor_zero_contained == all(want[0] <= a for a in want)


@pytest.mark.parametrize("triple", [(p, q, ell) for p in (3, 5, 7) for q in range(1, 5) for ell in range(1, p)])
def test_class_sizes_are_monomial_class_sizes(triple):
    # ties the counting path (check_counts) to the certify path (monomials_at)
    params = validate_params(*triple)
    counts = _naive_pair_counts(build_index_set(params))
    mink = minkowski_sum(params)
    assert sorted(counts) == [(m.T, m.rho) for m in mink]
    for m in mink:
        assert counts[(m.T, m.rho)] == len(monomials_at(params, m))


def _reference_count_report(params):
    """CountReport from literal point sets: every pair, and anchor sets as the anchor_set docstring defines them."""
    p, q, ell, g = params.p, params.q, params.ell, params.genus
    index_set = build_index_set(params)
    pairs = [(a.N + b.N, a.mu + b.mu) for a, b in itertools.combinations_with_replacement(index_set, 2)]
    literal = set(pairs)
    anchors = []
    for i in range(p + 1):
        jlo, jhi = (0 if ell == 1 else p - i), (p - i) * q
        anchors.append(
            {
                (rho, T)
                for rho, T in literal
                if (rho + ell, T + p) in literal
                and all((rho + j, T + p - i) in literal for j in range(jlo, jhi + 1))
            }
        )
    tmax = 2 * (p - 1)
    b = {T: rho_lower_bound(params, T) for T in range(2, tmax + 1)}

    def band(weights, lower):
        return {(rho, T) for T in weights for rho in range(lower(T), T * q - 4 + 1)}

    outside = len(literal) - len(anchors[0])
    return CountReport(
        p=p,
        q=q,
        ell=ell,
        genus=g,
        index_set_size=len(index_set),
        minkowski_size=len(literal),
        anchor_sizes=tuple(map(len, anchors)),
        outside_zero=outside,
        bound=3 * (g - 1),
        minkowski_closed_matches=band(range(2, tmax + 1), b.get) == literal,
        anchor_zero_closed_matches=band(range(2, p - 1), b.get) == anchors[0],
        anchor_zero_closed_repaired_matches=band(
            range(2, p - 1), lambda T: max(b[T], b[T + p] - ell, b[T + p] - (0 if ell == 1 else p))
        )
        == anchors[0],
        counting_bound_holds=outside <= 3 * (g - 1),
        counting_bound_applicable=g >= 3,
        counting_bound_equality=outside == 3 * (g - 1),
        rho_bound_subadditive=all(
            b[T + alpha] <= b[T] + alpha for T in range(2, tmax + 1) for alpha in range(tmax - T + 1)
        ),
        anchor_zero_contained=all(anchors[0] <= a for a in anchors),
        index_set_size_equals_genus=len(index_set) == g,
        degree2_total_matches=len(pairs) == g * (g + 1) // 2,
    )


@pytest.mark.parametrize("triple", [(p, q, ell) for p in (3, 5, 7, 11, 13) for q in range(1, 7) for ell in range(1, p)])
def test_check_counts_matches_a_point_set_reference(triple):
    params = validate_params(*triple)
    assert check_counts(params) == _reference_count_report(params)


def test_minkowski_point_is_a_named_pair():
    m = pt(3, 5)
    assert (m.rho, m.T) == (3, 5)
    assert repr(m) == "MinkowskiPoint(rho=3, T=5)"
    assert m == MinkowskiPoint(rho=3, T=5) and hash(m) == hash(MinkowskiPoint(3, 5))


def test_check_counts_key_instances():
    r = check_counts(validate_params(5, 2, 1))
    assert (r.minkowski_size, r.anchor_sizes[0], r.outside_zero, r.bound) == (49, 4, 45, 45)
    assert r.counting_bound_equality and r.all_pass
    r = check_counts(validate_params(5, 2, 3))
    assert (r.minkowski_size, r.anchor_sizes[0], r.outside_zero, r.bound) == (36, 3, 33, 33)
    assert r.counting_bound_equality and r.all_pass
    r = check_counts(validate_params(3, 2, 1))
    assert (r.minkowski_size, r.anchor_sizes[0], r.outside_zero, r.bound) == (9, 0, 9, 9)
    assert r.counting_bound_equality and r.all_pass


def test_check_counts_degenerate_rows():
    r = check_counts(validate_params(3, 1, 1))
    assert not r.counting_bound_holds and not r.counting_bound_applicable
    assert r.all_pass  # non-applicable bound does not block
    r = check_counts(validate_params(5, 1, 4))
    assert r.genus == 0 and not r.counting_bound_holds and r.all_pass


def test_sigma_image_is_tie_break_sensitive_but_sizes_are_not(pairwise_sum):
    params = validate_params(5, 2, 1)
    mink = pairwise_sum(build_index_set(params))
    default_sigma = {m: minimal_monomial(params, m) for m in mink}
    alt_sigma = {m: minimal_monomial(params, m, TIE_BREAK_ALT) for m in mink}
    # both are injective selections of the same total size
    assert len(set(default_sigma.values())) == len(mink)
    assert len(set(alt_sigma.values())) == len(mink)


@pytest.mark.parametrize("triple", [(5, 2, 1), (7, 2, 3), (3, 4, 2)])
def test_monomial_multidegrees_hold_every_class_monomial(triple):
    # one entry per unordered index pair, valued (sum N, sum mu), and the
    # classes of both tie-breaks group exactly these monomial objects
    params = validate_params(*triple)
    table = monomial_multidegrees(params)
    g = params.genus
    assert len(table) == g * (g + 1) // 2
    for m, (rho, T) in table.items():
        assert len(m) == 2 and (rho, T) == (sum(f.N for f in m), sum(f.mu for f in m))
    objects = {id(m) for m in table}
    for tie_break in ("default", "alt"):
        classes = monomial_classes(params, tie_break)
        assert sum(map(len, classes.values())) == len(table)
        assert all(table[m] == point and id(m) in objects for point, monos in classes.items() for m in monos)


@pytest.mark.parametrize("triple", WIDE_SWEEP)
def test_class_order_is_the_term_order(triple):
    # the table's monomials are built and the default classes read from the
    # index-set walk with no sort: each key must still be the canonical
    # factor order and each class the term order, under either tie-break
    # (which class holds which monomial is the test above).  The reference
    # is the order's definition: in one class rules (i)-(iii) tie and the
    # smaller factor fixes the other, so by rule (iv) the larger monomial is
    # the one whose smaller factor, in the tie-break's variable order, comes
    # first; ascending in the term order, that factor strictly descends.
    params = validate_params(*triple)
    table = monomial_multidegrees(params)
    assert all(type(m) is Monomial and len(m) == 2 for m in table)
    assert all((a.mu, a.N) <= (b.mu, b.N) for a, b in table)
    variable_orders = {"default": operator.attrgetter("mu", "N"), "alt": operator.attrgetter("N", "mu")}
    for tie_break, order in variable_orders.items():
        classes = monomial_classes(params, tie_break)
        assert sum(map(len, classes.values())) == len(table)
        for monos in classes.values():
            smaller = [min(map(order, m)) for m in monos]
            assert all(x > y for x, y in zip(smaller, smaller[1:])), tie_break


def test_anchor_sets_zero_and_one_coincide_on_the_grid():
    # anchor set 1, where the special family sits, equals anchor set 0,
    # where the relative and generic ones sit, on every triple of the
    # 136-triple grid (p <= 13, q <= 4), compared on the run tables; so on
    # the grid nothing can tell the special oracle's family at set 1 from
    # one at set 0
    triples = [(p, q, ell) for p in (3, 5, 7, 11, 13) for q in (1, 2, 3, 4) for ell in range(1, p)]
    assert len(triples) == 136
    for triple in triples:
        runs = indexsets._anchor_runs(validate_params(*triple))
        assert runs[0] == runs[1], triple
