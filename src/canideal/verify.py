"""Certification engine.

Symbolic ideal-membership of generators, the degree-2 counting criterion, the
two-fibre compatibility certificate, and an independent kernel oracle.

Membership is collapsed by multidegree: an image depends only on (rho, T),
so sum_m c_m phi(m) = sum_(rho,T) phi(rho, T) * sum_(m in (rho,T)) c_m, and
phi(rho, T) = x^rho * phi(0, T) with phi(0, T) = NF(V^(E-T)) (`fibrealg`).
Coefficients are summed per multidegree before any function-field work,
which cancels every binomial outright, and the rest is one V-polynomial
(`FibreContext.combination_vanishes`), reduced once per (x, V)-shift class
of those sums: generators whose sums differ only by a monomial x^s * V^k
share one verdict.

The oracle builds its matrix exactly, with one row per multidegree class of
`indexsets.monomial_classes` (monomials of one class have equal rows), and
computes each value once: one residue row per weight T, which each class
(rho, T) shifts by x^rho, and one specialization per distinct polynomial
in the symbols (`FibreContext.specialized_value`), read by the generator
rows and by the exact check alike.  Specialization and the reduction to
F_r are ring maps, so equal polynomials have equal values and each table
entry is the value the per-term computation gives.  It checks the generators G
against the matrix by the membership test itself, on the specialized
context: G * M = 0 in the X-basis exactly when each generator's
combination of W-slot images vanishes, because W^i = a(x)^i * X^i is an
invertible diagonal change of basis over a domain.  It finds ranks by
Gaussian elimination over a prime field F_r: r = p on the special fibre,
and on the generic and relative fibres the largest prime r < 2^30 with
r = 1 (mod p), so that every residue is one CPython digit.  Elimination
takes one row at a time: the row is reduced by the pivot row of its
smallest column until that column has none, and then becomes the pivot row
of that column.  `kernel_oracle` states why every
passing report is exact, and why its row and column orders, its binomial
block and its span test, one matrix product and no kernel basis, leave
every report as it was.

`certify` builds no `GeneratorPoly` for an intact family.  The default
binomials m - min(class) are the class table (`indexsets.monomial_classes`):
their membership is a table lookup (`binomial_memberships`), the criterion
counts their leads and the oracles their rank.  Like them, a trinomial-type
family is read as its layout (`generators.trinomial_layout`) and its
anchors: membership takes one verdict for all anchors, one per anchor
weight if V is a zero divisor (`FibreContext.layout_vanishes`), the leads are the class minima at the
anchors, reduction compatibility compares the two layouts once, and each
oracle row places the layout's values.  The `--corrupt-one` control is data
too: the relative layout with 1 added to its last slot at the first anchor,
or, on a triple with no anchor, the first binomial's class sum.  So
`certify` builds no `GeneratorPoly` on any path.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, fields, replace

from .errors import CanidealError, DegenerateSpecialization
from .exactalg import SparsePoly, is_prime, multiply_out, residue, residue_terms
from .family import FamilyParams, deformation_symbols
from .fibrealg import check_specialization, fibre_context, relation_consistency
from .generators import GENERIC, RELATIVE, SPECIAL, GeneratorPoly, check_fibre, trinomial_layout
from .indexsets import anchor_set, check_counts, monomial_classes, monomial_multidegrees
from .termorder import TIE_BREAK_DEFAULT, term_key


# ---------------------------------------------------------------------------
# Linear algebra over a prime field F_r (entries are ints in [0, r))


def oracle_field(p: int) -> tuple[int, int]:
    """(r, phi(lam)): the prime and the image of lam used off the special fibre.

    r is the largest prime below 2^30 with r = 1 (mod p), so F_r contains
    the p-th roots of unity, and every residue is one CPython digit (30
    bits), which keeps the products of the elimination small ints.  A
    smaller r makes a degenerate specialization likelier, which costs a
    retry or a FAIL, never a false pass (`kernel_oracle`).  z is the first
    a^((r-1)/p) != 1 for a = 2, 3, ..., a primitive p-th root of unity, and
    lam = zeta_p - 1 maps to z - 1; this defines a ring homomorphism
    phi: Z[zeta_p] -> F_r.  Both depend on p only.
    """
    r = ((1 << 30) - 2) // p * p + 1
    while not is_prime(r):
        r -= p
    a = 2
    while (z := pow(a, (r - 1) // p, r)) == 1:
        a += 1
    return r, z - 1


def fraction_free_echelon(rows, r: int):
    """Row echelon over F_r of sparse rows (dicts column -> nonzero residue).

    Rows are taken one at a time and never modified in place.  A row is
    reduced by the stored pivot row of its smallest column until that column
    has no pivot row; scaled to a leading 1, it is then stored as the pivot
    row of that column.  Rows that become zero are dropped.  Every stored row
    is zero left of its pivot column, so the pivots, returned as a list of
    (pivot_column, row) sorted by column, form a row echelon of the input
    with the same row space and the same pivot columns as any other echelon.
    """
    pivots: dict[int, dict] = {}
    for row in rows:
        row = dict(row)
        while row:
            col = min(row)
            pivrow = pivots.get(col)
            if pivrow is None:
                inv = pow(row[col], -1, r)
                pivots[col] = {c: v * inv % r for c, v in row.items()}
                break
            f = row[col]
            for c, v in pivrow.items():
                cur = (row.get(c, 0) - f * v) % r
                if cur:
                    row[c] = cur
                else:
                    row.pop(c, None)
    return sorted(pivots.items())


def matrix_rank(rows, r: int) -> int:
    """The rank over F_r of sparse rows; rank is invariant under row permutation."""
    return len(fraction_free_echelon(rows, r))


def kernel_basis(rows, ncols: int, r: int):
    """Basis over F_r of {v : v * M = 0} for M given by `rows` of length ncols each.

    Works on the transpose internally; kernel vectors come out as dicts
    indexed by row position, one per free column, in canonical order.
    Nothing in the package calls it: the tests read it as a reference, and
    `perfbench/spans.py` traces it.
    """
    transpose: list[dict] = [dict() for _ in range(ncols)]
    for ridx, row in enumerate(rows):
        for cidx, val in row.items():
            transpose[cidx][ridx] = val
    # here "columns" of the transposed system are the original row positions
    ech = fraction_free_echelon(transpose, r)
    pivcols = {pc for pc, _ in ech}
    basis = []
    for f in range(len(rows)):
        if f in pivcols:
            continue
        v = {f: 1}
        for pc, row in reversed(ech):
            s = sum(val * v[c] for c, val in row.items() if c != pc and c in v) % r
            if s:
                v[pc] = r - s  # the pivot entry is 1
        basis.append(v)
    return basis


# ---------------------------------------------------------------------------
# Membership and the counting criterion


def check_membership(params: FamilyParams, fibre: str, gen: GeneratorPoly) -> bool:
    """Does the generator map to zero on the fibre, with symbols kept symbolic?
    (`FibreContext.generator_vanishes` on the fibre's symbolic context.)"""
    check_fibre(fibre)
    return fibre_context(params, fibre).generator_vanishes(gen)


def binomial_memberships(params: FamilyParams, classes: dict) -> list[bool]:
    """Membership of the default binomials m - min(class), read from the class
    table `classes` in `binomial_generators` order: classes by (T, rho), then
    class order.  A binomial's images cancel on every fibre exactly when both
    of its monomials have its class's multidegree, so each pair is checked by
    looking both up in the table `generator_vanishes` reads."""
    table = monomial_multidegrees(params)
    out = []
    for point in sorted(classes, key=lambda point: (point[1], point[0])):
        group = classes[point]
        low = table.get(group[0]) == point
        out.extend(low and table.get(m) == point for m in group[1:])
    return out


@dataclass(frozen=True)
class CriterionReport:
    """Degree-2 standard-monomial count against the 3(g-1) bound."""

    label: str
    genus: int
    generator_count: int
    leading_count: int
    standard_monomial_count: int
    bound: int
    passes: bool

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def dimension_criterion(params: FamilyParams, leads, label: str = "", classes: dict | None = None) -> CriterionReport:
    """Count degree-2 standard monomials of the leading-term ideal of a
    family of degree-2 generators, given one lead monomial per generator.

    All generators have degree 2, so the degree-2 part of the leading-term
    ideal is exactly the set of distinct leading monomials and no Groebner
    computation is needed.  A generator object's lead is
    `GeneratorPoly.lead`; a trinomial-type family's leads are the class
    minima at its anchors, where its lead slot (0, 0) sits.

    A class table `classes` adds its default binomials m - min(class): n -
    #classes generators, led by the distinct non-minimal monomials, so a
    lead of the family is new only at a class minimum or outside the table.
    """
    leads = list(leads)
    distinct = set(leads)
    block = 0
    if classes is not None:
        table = monomial_multidegrees(params)
        block = len(table) - len(classes)
        distinct = {m for m in distinct if (point := table.get(m)) is None or classes[point][0] == m}
    lead_count = len(distinct) + block
    g = params.genus
    s = g * (g + 1) // 2 - lead_count
    bound = 3 * (g - 1)
    return CriterionReport(
        label=label,
        genus=g,
        generator_count=len(leads) + block,
        leading_count=lead_count,
        standard_monomial_count=s,
        bound=bound,
        passes=s <= bound,
    )


# ---------------------------------------------------------------------------
# Kernel oracle


@dataclass(frozen=True)
class OracleReport:
    """Exact linear-algebra cross-check of the degree-2 ideal dimension."""

    fibre: str
    model_fibre: str
    specialization: dict
    monomial_count: int
    column_count: int
    rank: int
    kernel_dim: int
    expected_kernel_dim: int
    generators_in_kernel: bool
    kernel_in_span: bool

    @property
    def span_matches_kernel(self) -> bool:
        return self.generators_in_kernel and self.kernel_in_span

    @property
    def passes(self) -> bool:
        return self.kernel_dim == self.expected_kernel_dim and self.span_matches_kernel

    def to_dict(self) -> dict:
        """The fields with the specialization sorted, and both properties."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["specialization"] = dict(sorted(self.specialization.items()))
        out["span_matches_kernel"] = self.span_matches_kernel
        out["passes"] = self.passes
        return out


def default_specialization(params: FamilyParams) -> dict:
    return {s: idx + 1 for idx, s in enumerate(deformation_symbols(params))}


def kernel_oracle(
    params: FamilyParams,
    fibre: str,
    specialization: dict | None = None,
    gens=None,
) -> OracleReport:
    """Independently compute the degree-2 ideal at a specialization.

    M is the matrix of all degree-2 monomial images expanded in the basis
    {x^k * y^i} on the generic fibre and {x^k * X^i} on the others, after
    clearing denominators by one shared factor; G holds the generators'
    vectors in the monomial basis.  The oracle checks G * M = 0 exactly
    (generators_in_kernel) by the membership test on the specialized
    context (`FibreContext.generator_vanishes`, whose typed errors a
    malformed generator raises before any vector is built), then reduces M
    and G through a ring homomorphism phi into F_r (`oracle_field`; on the
    special fibre r = p, and phi reads an int mod p) and computes the
    ranks there.

    Basis.  Off the generic fibre the normal forms live in the basis W^i,
    W = a(x) * X (`fibrealg`); row entries are read from W-slot i times
    a(x)^i (`FibreContext.x_coordinates`).  W^i = a^i * X^i with a != 0 is an
    invertible diagonal change of basis over a domain (polynomials in x over
    Z[lam] or F_p), so by uniqueness of coordinates the X-slot r_i equals
    a^i * s_i exactly, and a combination of images vanishes in one basis
    exactly when it vanishes in the other.

    Class rows.  The monomials and their multidegree classes are read from
    `indexsets.monomial_classes`, the table `monomials_at` reads.  The image
    of a monomial depends only on its multidegree, so monomials of one class
    have equal rows: M = P * C, where C holds one row per class and P maps
    each monomial to its class.  M and C, and phi(M) and phi(C), have the
    same row space, so rank M = rank C and kernel_dim = n - rank_r phi(C)
    for n monomials, the sum of the class sizes.

    Row and column orders.  No rank changes under a row or a column
    permutation, and monomial_count and column_count are the sizes of sets,
    so no order changes a report, and the oracle takes no tie-break: it
    reads the default class table (`monomial_classes`, the walk order
    reversed, no sort).  With gens=None it reads only the class points and
    n; explicit `gens` of any tie-break only reorder the columns of G.  The
    columns are numbered for the elimination, which pivots each row at its
    smallest column (`fraction_free_echelon`).  The columns of C are sorted
    by descending x-degree k, then slot i, and its rows are eliminated
    sparsest first (a stable sort by entry count, which keeps less fill-in
    than the class order); the span test reads them in class order.  For
    explicit `gens` the monomials, the columns of G, keep the class order
    with each class listed minimum last: a default binomial m - min then
    becomes the pivot row of its own column m without a reduction step, an
    alt one may take one step, and the trinomial rows, which touch class
    minima only, are reduced against each other alone.

    Binomial block.  With gens=None, G is the fibre's family: the default
    binomials B, m - min(class) for each non-minimal m, read from the class
    table, and the trinomial-type family F, its layout at the fibre's
    anchors (`generators.trinomial_layout`).  B gets
    no row.  Let pi send e_m to e_min(class), a linear map onto the class
    coordinates.  The rows of B are independent (each has its own
    non-minimal m) and lie in ker pi, whose dimension n - #classes is their
    number, so they span ker pi.  Then span(B + F) contains ker pi, and
    rank(B + F) = dim ker pi + rank pi(F) = #B + rank pi(F), over Q and over
    F_r alike: each F row is summed per class and only those sums are
    eliminated.  A binomial's monomials lie in one class, so its images
    cancel and generators_in_kernel holds for B by the class argument
    (`binomial_memberships`); only F is checked.  Each B row sums to zero
    per class, so B adds nothing to the span test's product, which reads
    the F sums.  Explicit `gens`, a corrupted family included, keep a row
    per generator.

    One row per weight.  image(rho, T) = x^rho * image(0, T), so the entry
    of (rho, T) at column (i, k + rho) is the entry of (0, T) at (i, k).
    The list of (slot i, x-degree k, residue) is built once per weight T
    from the exact support of image(0, T), and each class row is that list
    shifted by rho: the residues are those of the class's own exact
    entries.  Columns are the shifted keys of the exact support, an entry
    whose residue is 0 included, so column_count counts exact columns; on
    the special fibre an exact value is its residue mod p.

    One value per polynomial.  A row entry is residue(phi(c)) of a
    coefficient's specialized value, the sum of gamma times the value of d
    over its groups (gamma, d), each d's value read from the context's table
    (`FibreContext.specialized_value`), which the exact check reads too.
    Specialization and phi are ring maps, and equal polynomials have equal
    images, so the value read from the table equals the per-term value it
    replaces; equal polynomials that hash differently only miss the table.
    An F row is read once per slot (dr, dt, c): at the anchor (rho, T) the
    slot's value sits in the class (rho + dr, T + dt), one class per slot,
    which is the generator's row summed per class, and F's exact check is
    `FibreContext.layout_vanishes`.  That check holds by construction: the
    layout and the context's relation are read off one slot table, so each
    row is x^rho * V^k * (V^p - rhs) modulo its own relation, and a wrong
    slot fails `relation_consistency`, not the oracle.  It is kept, as the
    check explicit `gens` can fail.

    Soundness.  Row g of G * M holds the X-coordinates of
    sum_m g_m * image(m).  By the change of basis above it is zero exactly
    when the same combination of W-slot images is, which is what
    `generator_vanishes` decides, exactly and with no Z[lam] arithmetic of
    the oracle's own: generators_in_kernel is G * M = 0.  phi maps minors to
    minors, so rank_r phi(M) <= rank M and the reported kernel_dim (over
    F_r) is at least the exact kernel dimension.  A report passes only if
    G * M = 0 exactly and rank_r phi(G) = kernel_dim = expected.  Then
    rank G >= rank_r phi(G) = expected and G lies in ker M, so
    dim ker M >= expected; and dim ker M <= kernel_dim = expected.  Hence
    dim ker M = expected, the rank is n - expected and span G = ker M, all
    exactly: every field of a passing report equals its exact value.  If
    kernel_dim != expected, DegenerateSpecialization is raised; when
    kernel_dim < expected the exact dimension is smaller too.  A prime
    dividing a nonzero minor of M or G can therefore cause a retry or a
    failure, never a false pass.

    Span test.  kernel_in_span says that ker phi(M) lies in span phi(G).
    For matrices A and B, v -> v * B maps the row space of A onto the row
    space of A * B, with kernel the part of row space A inside ker B; so
    that part has dimension rank A - rank A * B.  When rank A = dim ker B,
    ker B lies in row space A exactly when A * B = 0.  Hence kernel_in_span
    is rank_r phi(G) = kernel_dim and phi(G) * phi(M) = 0.  A passing report
    has G * M = 0, hence phi(G) * phi(M) = 0, and needs the rank equality
    alone.  Otherwise the product is computed from M = P * C: row g of
    phi(G) * phi(M) is sum_c (sum_(m in c) g_m) * phi(C)_c, so each
    generator row is summed per class (a binomial sums to zero) and the
    sums multiply the class rows, up to the first nonzero entry.  The
    oracle thus eliminates twice, C and G (or pi(F)), and builds no kernel
    basis.

    Each fibre runs through its own context: the relative fibre uses the
    stored relative relation, over the same cyclotomic field as the generic
    fibre, so the report's model_fibre always equals its fibre.
    """
    check_fibre(fibre)
    if specialization is None:
        specialization = default_specialization(params)
    ctx = fibre_context(params, fibre, specialization)
    classes = monomial_classes(params, TIE_BREAK_DEFAULT)
    r, lam = (params.p, 0) if fibre == SPECIAL else oracle_field(params.p)
    # (slot i, x-degree k, residue) over the exact support of image(0, T), once per weight
    weight_rows: dict = {}
    for _, T in classes:
        if T not in weight_rows:
            coords = ctx.x_coordinates(ctx.weight_image(T))
            row = [(i, e[0], residue(val, r, lam)) for i, c in enumerate(coords) for e, val in c.terms.items()]
            weight_rows[T] = [entry for entry in row if entry[2]] if fibre == SPECIAL else row
    # image(rho, T) = x^rho * image(0, T): the row of (0, T) shifted by rho
    col_ids = {(i, k + rho) for rho, T in classes for i, k, _ in weight_rows[T]}
    col_index = {key: idx for idx, key in enumerate(sorted(col_ids, key=lambda key: (-key[1], key[0])))}
    class_rows = [{col_index[i, k + rho]: v for i, k, v in weight_rows[T] if v} for rho, T in classes]

    n = sum(map(len, classes.values()))
    rank = matrix_rank(sorted(class_rows, key=len), r)
    kernel_dim = n - rank
    g = params.genus
    expected = g * (g + 1) // 2 - 3 * (g - 1)
    if kernel_dim != expected:
        raise DegenerateSpecialization(
            f"kernel dimension {kernel_dim} != expected {expected} at {specialization}; "
            "retry with different values"
        )

    if gens is None:
        # F is the fibre's layout at its anchors; the binomial block B has no row
        i = 1 if fibre == SPECIAL else 0
        layout, anchors = trinomial_layout(params, fibre, i), anchor_set(params, i)
        gens_in_kernel = all(ctx.layout_vanishes(layout, anchors))
        position = {point: c for c, point in enumerate(classes)}
        values = [residue(ctx.specialized_value(c), r, lam) for _, _, c in layout]
        rows = [{position[rho + dr, T + dt]: v for (dr, dt, _), v in zip(layout, values) if v} for rho, T in anchors]
        block, class_of = n - len(classes), range(len(classes))
    else:
        # each class's minimum last: the binomial m - min pivots at m with no reduction
        monos = [m for group in classes.values() for m in reversed(group)]
        column, block = {m: idx for idx, m in enumerate(monos)}.__getitem__, 0
        class_of = [c for c, group in enumerate(classes.values()) for _ in group]
        gens_in_kernel, rows = True, []
        for gen in gens:
            # every generator is checked, so a malformed one raises before its vector is built
            gens_in_kernel = ctx.generator_vanishes(gen) and gens_in_kernel
            row: dict[int, int] = {}
            for coeff, mono in gen.terms:
                val = residue(ctx.specialized_value(coeff), r, lam)
                if val:
                    col = column(mono)
                    row[col] = (row.get(col, 0) + val) % r
            rows.append({col: v for col, v in row.items() if v})
    gen_rows = [row for row in rows if row]

    kernel_in_span = block + matrix_rank(gen_rows, r) == kernel_dim
    if kernel_in_span and not gens_in_kernel:
        # phi(G) * phi(M) = 0, row by row: sum each row per class, then multiply by the class rows
        for row in gen_rows:
            sums: dict[int, int] = {}
            for idx, v in row.items():
                sums[class_of[idx]] = sums.get(class_of[idx], 0) + v
            product: dict[int, int] = {}
            for c, s in sums.items():
                for col, v in class_rows[c].items():
                    product[col] = (product.get(col, 0) + s * v) % r
            if any(product.values()):
                kernel_in_span = False
                break

    return OracleReport(
        fibre=fibre,
        model_fibre=fibre,
        specialization=dict(specialization),
        monomial_count=n,
        column_count=len(col_index),
        rank=rank,
        kernel_dim=kernel_dim,
        expected_kernel_dim=expected,
        generators_in_kernel=gens_in_kernel,
        kernel_in_span=kernel_in_span,
    )


ORACLE_ATTEMPTS = 3


def kernel_oracle_with_retry(
    params: FamilyParams,
    fibre: str,
    specialization: dict | None,
    rng: random.Random,
):
    """Try the oracle at up to ORACLE_ATTEMPTS specializations, the given one
    first, then randomized small integers after each degeneracy.

    Returns (report_or_None, list of attempted specializations).

    The oracle on the fibre's own family is a function of (params, fibre,
    specialization), so a specialization already tried, which was
    degenerate, is recorded again and not rerun; the draws are the same, so
    the list is too.  On a triple with no deformation symbols
    every attempt is {}, and the oracle runs once.
    """
    syms = deformation_symbols(params)
    tried = []
    spec = dict(specialization) if specialization is not None else default_specialization(params)
    for _ in range(ORACLE_ATTEMPTS):
        fresh = spec not in tried
        tried.append(dict(spec))
        if fresh:
            try:
                return kernel_oracle(params, fibre, spec), tried
            except DegenerateSpecialization:
                pass
        spec = {s: rng.randint(1, max(9, params.p)) for s in syms}
    return None, tried


# ---------------------------------------------------------------------------
# Two-fibre certification


@dataclass
class Certificate:
    """Machine-readable result of the full certification pipeline."""

    params: FamilyParams
    tie_break: str
    seed: int
    counts: dict
    verdicts: dict
    criteria: dict
    oracles: dict
    specializations: dict
    caveats: list
    overall: str
    timings: dict = field(default_factory=dict)

    def to_dict(self, include_timings: bool = False) -> dict:
        out = {
            "schema": "canideal.certificate/1",
            "params": {
                "p": self.params.p,
                "q": self.params.q,
                "ell": self.params.ell,
                "m": self.params.m,
                "genus": self.params.genus,
            },
            "flags": {
                "hyperelliptic_risk": self.params.hyperelliptic_risk,
                "trigonal_risk": self.params.trigonal_risk,
                "plane_quintic_risk": self.params.plane_quintic_risk,
            },
            "tie_break": self.tie_break,
            "seed": self.seed,
            "counts": self.counts,
            "verdicts": self.verdicts,
            "criteria": self.criteria,
            "oracles": self.oracles,
            "specializations": self.specializations,
            "caveats": list(self.caveats),
            "overall": self.overall,
        }
        if include_timings:
            out["timings"] = {k: round(v, 6) for k, v in self.timings.items()}
        return out


def certify(
    params: FamilyParams,
    specialization: dict | None = None,
    oracle: bool = False,
    tie_break: str = TIE_BREAK_DEFAULT,
    seed: int = 0,
    corrupt_one: bool = False,
) -> Certificate:
    """Run the full two-fibre certification pipeline.

    Order: counting identities; membership of the binomials (from the
    class table) and the relative family (its layout at anchor set 0) on
    the relative model; reduction compatibility with the special fibre; the
    counting criterion on the reduced set over the special fibre and on the
    relative set over the generic fibre, both led by the class minima at
    the anchors; optionally the kernel oracles on both fibres.  Mathematical
    failures produce a failed certificate, never an exception; a
    specialization that does not assign integers to exactly the
    deformation symbols raises BadSpecialization, whether or not the
    oracles run; an unknown tie-break raises UnknownTieBreak.

    corrupt_one adds 1 to the last coefficient of the first relative
    generator, as data: the layout with the group (1, 1) added to its last
    slot, at the first anchor, checked as the intact layout is (membership
    and the residue comparison) while the lead stays.  With no anchor it
    corrupts the first binomial m - min(class), which becomes m alone, the
    sum {class: 1}; with no binomial either it raises CanidealError, as the
    control would corrupt nothing.
    """
    term_key(tie_break)  # raises UnknownTieBreak
    if specialization is not None:
        check_specialization(params, specialization)
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    count_report = check_counts(params)
    timings["counting"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    relations = relation_consistency(params)
    timings["relations"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    # the default binomials are the class table and the relative family is
    # its layout at the i = 0 anchors: no GeneratorPoly is built on any path
    classes = monomial_classes(params, tie_break)
    mem_g1 = binomial_memberships(params, classes)
    anchors = anchor_set(params, 0)
    layout = trinomial_layout(params, RELATIVE, 0)
    leads = [classes[point][0] for point in anchors]
    syms = deformation_symbols(params)
    # (layout, anchors) pairs; the control bumps the last slot at the first anchor
    layouts = [(layout, anchors)]
    corrupted = None
    if corrupt_one:
        unit = SparsePoly.constant(syms, 1)
        if anchors:
            dr, dt, c = layout[-1]
            layouts = [(layout[:-1] + [(dr, dt, c + ((1, unit),))], anchors[:1]), (layout, anchors[1:])]
        elif mem_g1:
            # the first binomial m - min(class), 1 added to its last coefficient, sums to m's class
            point = min((point for point, group in classes.items() if len(group) > 1), key=lambda point: (point[1], point[0]))
            mem_g1[0] = fibre_context(params, RELATIVE).combination_vanishes({point: unit})
        else:
            raise CanidealError(
                f"nothing to corrupt: (p,q,ell)=({params.p},{params.q},{params.ell}) "
                "has no relative generator and no binomial"
            )
        corrupted = 0
    layouts = [(lay, at) for lay, at in layouts if at]
    mem_rel = [v for lay, at in layouts for v in fibre_context(params, RELATIVE).layout_vanishes(lay, at)]
    timings["membership"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    # one comparison per layout decides every generator it places (`reduce_relative_to_special`)
    special = [(dr, dt, multiply_out(c, syms).terms) for dr, dt, c in trinomial_layout(params, SPECIAL, 0)]
    reduction_ok = all([(dr, dt, im) for dr, dt, c in lay if (im := residue_terms(c, params.p, 0))] == special for lay, _ in layouts)
    # the lam-reduced family leads where the relative one does: one count, two labels
    crit_special = dimension_criterion(params, leads, "special-fibre (lam-reduced generators)", classes)
    crit_relative = replace(crit_special, label="generic-fibre view of the relative generators")
    timings["criterion"] = time.perf_counter() - t0

    oracles: dict = {}
    spec_info: dict = {"requested": dict(specialization) if specialization else None}
    if oracle:
        rng = random.Random(seed)
        for fb in (GENERIC, SPECIAL):
            t0 = time.perf_counter()
            report, tried = kernel_oracle_with_retry(params, fb, specialization, rng)
            timings[f"oracle_{fb}"] = time.perf_counter() - t0
            spec_info[f"attempts_{fb}"] = tried
            oracles[fb] = report.to_dict() if report is not None else {"passes": False, "degenerate": True}

    verdicts = {
        "counting_checks": count_report.all_pass,
        "relation_consistency": relations.all_hold,
        "membership_binomials": all(mem_g1),
        "membership_relative": all(mem_rel),
        "reduction_compatibility": reduction_ok,
        "criterion_special": crit_special.passes,
        "criterion_relative": crit_relative.passes,
    }
    if oracle:
        verdicts["oracle_generic"] = oracles[GENERIC]["passes"]
        verdicts["oracle_special"] = oracles[SPECIAL]["passes"]

    caveats = []
    if params.trigonal_risk:
        caveats.append("trigonal-risk: the cover has degree 3, degree-2 generation is not asserted")
    if params.plane_quintic_risk:
        caveats.append("plane-quintic-risk: genus 6 with p = 5, q = 1")
    if params.hyperelliptic_risk:
        caveats.append("hyperelliptic-risk: genus below 3")

    counts = dict(count_report.to_dict())
    counts["degree2_monomials"] = params.genus * (params.genus + 1) // 2
    counts["binomial_generators"] = counts["degree2_monomials"] - len(classes)
    counts["relative_generators"] = count_report.anchor_sizes[0]
    counts["anchors_one_minus_zero"] = count_report.anchor_sizes[1] - count_report.anchor_sizes[0]
    counts["standard_monomials_special"] = crit_special.standard_monomial_count
    counts["standard_monomials_relative"] = crit_relative.standard_monomial_count
    if corrupted is not None:
        counts["corrupted_generator_index"] = corrupted

    if not all(verdicts.values()):
        overall = "FAIL"
    elif caveats:
        overall = "PASS-WITH-CAVEAT"
    else:
        overall = "PASS"

    return Certificate(
        params=params,
        tie_break=tie_break,
        seed=seed,
        counts=counts,
        verdicts=verdicts,
        criteria={
            "special": crit_special.to_dict(),
            "relative": {**crit_relative.to_dict(), "memberships": mem_g1 + mem_rel},
        },
        oracles=oracles,
        specializations=spec_info,
        caveats=caveats,
        overall=overall,
        timings=timings,
    )
