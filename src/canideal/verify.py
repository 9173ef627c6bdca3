"""Certification engine.

Symbolic ideal-membership of generators, the degree-2 counting criterion, the
two-fibre compatibility certificate, and an independent kernel oracle.  The
oracle builds its matrix exactly, checks the generators against it exactly,
and finds ranks by Gaussian elimination over a prime field F_r: r = p on the
special fibre, and on the generic and relative fibres the largest prime
r < 2^61 with r = 1 (mod p).  The pivot rule is: take the smallest column
occurring in any remaining row, from the first remaining row that has it.
`kernel_oracle` states why every passing report is exact.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from .errors import (
    DegenerateSpecialization,
    NonHomogeneous,
    NonIntegralCoefficient,
    ReductionMismatch,
    UnluckyPrime,
    WrongFibre,
)
from .exactalg import CycloElement, PrimeFieldElement, is_prime
from .family import FamilyParams, deformation_symbols
from .fibrealg import check_specialization, fibre_context, relation_consistency
from .generators import (
    ANY_FIBRE,
    GENERIC,
    RELATIVE,
    SPECIAL,
    GeneratorPoly,
    binomial_generators,
    corrupt_generator,
    generic_generators,
    reduce_relative_to_special,
    relative_generators,
    special_generators,
)
from .indexsets import anchor_set, build_index_set, check_counts
from .termorder import TIE_BREAK_DEFAULT, Monomial, leading_term

_FIBRES = (GENERIC, SPECIAL, RELATIVE)


# ---------------------------------------------------------------------------
# Linear algebra over a prime field F_r (entries are ints in [0, r))


def oracle_field(p: int) -> tuple[int, int]:
    """(r, phi(lam)): the prime and the image of lam used off the special fibre.

    r is the largest prime below 2^61 with r = 1 (mod p), so F_r contains
    the p-th roots of unity.  z is the first a^((r-1)/p) != 1 for
    a = 2, 3, ..., a primitive p-th root of unity, and lam = zeta_p - 1 maps
    to z - 1; this defines a ring homomorphism phi: Z[zeta_p] -> F_r.  Both
    depend on p only.
    """
    r = ((1 << 61) - 2) // p * p + 1
    while not is_prime(r):
        r -= p
    a = 2
    while (z := pow(a, (r - 1) // p, r)) == 1:
        a += 1
    return r, z - 1


def residue(value, r: int, lam: int) -> int:
    """phi(value) in F_r, where phi sends lam to `lam`.

    Takes an int, a Fraction, a CycloElement or an element of F_r itself.
    A denominator divisible by r has no image and raises UnluckyPrime.
    """
    if isinstance(value, int):
        return value % r
    if isinstance(value, CycloElement):
        acc = 0
        for c in reversed(value.coeffs):
            acc = (acc * lam + residue(c, r, lam)) % r
        return acc
    if isinstance(value, PrimeFieldElement):
        if value.p != r:
            raise ValueError(f"element of F_{value.p} reduced into F_{r}")
        return value.value
    if value.denominator % r == 0:
        raise UnluckyPrime(f"the denominator of {value} is divisible by r = {r}")
    return value.numerator * pow(value.denominator, -1, r) % r


def _residue_row(row: dict, r: int, lam: int) -> dict:
    out = {}
    for c, v in row.items():
        x = residue(v, r, lam)
        if x:
            out[c] = x
    return out


def fraction_free_echelon(rows, r: int):
    """Row echelon over F_r of sparse rows (dicts column -> nonzero residue).

    Each pivot row is scaled to a leading 1 and subtracted from the remaining
    rows that hold its column; rows that become zero are dropped.  Returns the
    echelon as a list of (pivot_column, row) in elimination order.
    """
    live = [dict(row) for row in rows if row]
    echelon = []
    while live:
        pivcol = min(map(min, live))
        pidx = next(i for i, row in enumerate(live) if pivcol in row)
        pivrow = live.pop(pidx)
        inv = pow(pivrow.pop(pivcol), -1, r)
        pivrow = {c: v * inv % r for c, v in pivrow.items()}
        nxt = []
        for row in live:
            f = row.pop(pivcol, None)
            if f is not None:
                for c, v in pivrow.items():
                    cur = (row.get(c, 0) - f * v) % r
                    if cur:
                        row[c] = cur
                    else:
                        row.pop(c, None)
            if row:
                nxt.append(row)
        pivrow[pivcol] = 1
        echelon.append((pivcol, pivrow))
        live = nxt
    return echelon


def matrix_rank(rows, r: int) -> int:
    return len(fraction_free_echelon(rows, r))


def kernel_basis(rows, ncols: int, r: int):
    """Basis over F_r of {v : v * M = 0} for M given by `rows` of length ncols each.

    Works on the transpose internally; kernel vectors come out as dicts
    indexed by row position, one per free column, in canonical order.
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
    """Does the generator map to zero on the fibre, with symbols kept symbolic?"""
    if fibre not in _FIBRES:
        raise WrongFibre(f"unknown fibre {fibre!r}")
    if gen.fibre not in (fibre, ANY_FIBRE):
        raise WrongFibre(f"generator tagged {gen.fibre!r} checked on {fibre!r}")
    if not gen.is_homogeneous_degree2():
        raise NonHomogeneous("membership requires homogeneous degree-2 generators")
    ctx = fibre_context(params, fibre)
    total = None
    for coeff, mono in gen.terms:
        img = ctx.phi_image(mono).scale_poly(ctx.embed_symbol_poly(coeff))
        total = img if total is None else total + img
    return total is None or total.is_zero


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
    memberships: tuple[bool, ...] | None = None

    def to_dict(self) -> dict:
        out = {
            "label": self.label,
            "genus": self.genus,
            "generator_count": self.generator_count,
            "leading_count": self.leading_count,
            "standard_monomial_count": self.standard_monomial_count,
            "bound": self.bound,
            "passes": self.passes,
        }
        if self.memberships is not None:
            out["memberships"] = list(self.memberships)
        return out


def dimension_criterion(
    params: FamilyParams,
    gens,
    tie_break: str = TIE_BREAK_DEFAULT,
    label: str = "",
    memberships=None,
) -> CriterionReport:
    """Count degree-2 standard monomials of the leading-term ideal of `gens`.

    All generators have degree 2, so the degree-2 part of the leading-term
    ideal is exactly the set of distinct leading monomials and no Groebner
    computation is needed.
    """
    leads = set()
    for gen in gens:
        if not gen.is_homogeneous_degree2():
            raise NonHomogeneous("criterion requires homogeneous degree-2 generators")
        leads.add(leading_term(gen.terms, tie_break)[1])
    g = params.genus
    total = g * (g + 1) // 2
    s = total - len(leads)
    bound = 3 * (g - 1)
    return CriterionReport(
        label=label,
        genus=g,
        generator_count=len(list(gens)),
        leading_count=len(leads),
        standard_monomial_count=s,
        bound=bound,
        passes=s <= bound,
        memberships=tuple(memberships) if memberships is not None else None,
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
        return {
            "fibre": self.fibre,
            "model_fibre": self.model_fibre,
            "specialization": dict(sorted(self.specialization.items())),
            "monomial_count": self.monomial_count,
            "column_count": self.column_count,
            "rank": self.rank,
            "kernel_dim": self.kernel_dim,
            "expected_kernel_dim": self.expected_kernel_dim,
            "generators_in_kernel": self.generators_in_kernel,
            "kernel_in_span": self.kernel_in_span,
            "span_matches_kernel": self.span_matches_kernel,
            "passes": self.passes,
        }


def default_specialization(params: FamilyParams) -> dict:
    return {s: idx + 1 for idx, s in enumerate(deformation_symbols(params))}


def _degree2_monomials(params: FamilyParams) -> list[Monomial]:
    pts = build_index_set(params)
    return [Monomial((pts[i], pts[j])) for i in range(len(pts)) for j in range(i, len(pts))]


def _default_oracle_generators(params: FamilyParams, fibre: str, tie_break: str):
    g1 = binomial_generators(params, tie_break=tie_break)
    if fibre == GENERIC:
        return g1 + generic_generators(params, tie_break=tie_break)
    if fibre == SPECIAL:
        return g1 + special_generators(params, tie_break=tie_break)
    return g1 + relative_generators(params, tie_break=tie_break)


def kernel_oracle(
    params: FamilyParams,
    fibre: str,
    specialization: dict | None = None,
    gens=None,
    tie_break: str = TIE_BREAK_DEFAULT,
) -> OracleReport:
    """Independently compute the degree-2 ideal at a specialization.

    Builds, exactly, the matrix M of all degree-2 monomial images expanded in
    the basis {x^k * V^i} after clearing denominators by one shared factor,
    and the vectors G of the generators in the monomial basis.  It checks
    G * M = 0 exactly (a multiply-only product over the exact entries:
    generators_in_kernel), then reduces M and G through a ring homomorphism
    phi into F_r (`oracle_field`; on the special fibre r = p and phi is the
    identity of F_p) and computes the kernel of phi(M) and the ranks there.

    Soundness.  phi maps minors to minors, so rank_r phi(M) <= rank M and the
    reported kernel_dim (over F_r) is at least the exact kernel dimension.
    A report passes only if G * M = 0 exactly and
    rank_r phi(G) = kernel_dim = expected.  Then rank G >= rank_r phi(G) =
    expected and G lies in ker M, so dim ker M >= expected; and
    dim ker M <= kernel_dim = expected.  Hence dim ker M = expected, the
    rank is n - expected and span G = ker M, all exactly: every field of a
    passing report equals its exact value.  If kernel_dim != expected,
    DegenerateSpecialization is raised; when kernel_dim < expected the exact
    dimension is smaller too.  A prime dividing a nonzero minor of M or G can
    therefore cause a retry or a failure, never a false pass.

    Each fibre runs through its own context: the relative fibre uses the
    stored relative relation, over the same cyclotomic field as the generic
    fibre, so the report's model_fibre always equals its fibre.
    """
    if fibre not in _FIBRES:
        raise WrongFibre(f"unknown fibre {fibre!r}")
    if specialization is None:
        specialization = default_specialization(params)
    model_fibre = fibre
    ctx = fibre_context(params, model_fibre, specialization)
    monos = _degree2_monomials(params)
    images = [ctx.phi_image(m) for m in monos]

    shared = max((c.power for img in images for c in img.coeffs), default=0)
    col_ids: set = set()
    raw_rows = []
    for img in images:
        entries = {}
        for i, c in enumerate(img.coeffs):
            if c.is_zero:
                continue
            num = c.num if c.power == shared else c.num * ctx.a_power(shared - c.power)
            for e, val in num.terms.items():
                key = (i, e[0])
                entries[key] = val
                col_ids.add(key)
        raw_rows.append(entries)
    col_index = {key: idx for idx, key in enumerate(sorted(col_ids))}
    exact_rows = [{col_index[k]: v for k, v in entries.items()} for entries in raw_rows]
    r, lam = (params.p, 0) if fibre == SPECIAL else oracle_field(params.p)
    matrix_rows = [_residue_row(row, r, lam) for row in exact_rows]

    basis = kernel_basis(matrix_rows, len(col_index), r)
    kernel_dim = len(basis)
    rank = len(monos) - kernel_dim
    g = params.genus
    expected = g * (g + 1) // 2 - 3 * (g - 1)
    if kernel_dim != expected:
        raise DegenerateSpecialization(
            f"kernel dimension {kernel_dim} != expected {expected} at {specialization}; "
            "retry with different values"
        )

    if gens is None:
        gens = _default_oracle_generators(params, fibre, tie_break)
    mono_index = {m: idx for idx, m in enumerate(monos)}
    values = {s: ctx.from_int(v) for s, v in specialization.items()}
    gvecs = []
    for gen in gens:
        vec = {}
        for coeff, mono in gen.terms:
            mapped = coeff.map_coefficients(lambda c: ctx.from_int(c) if isinstance(c, int) else c)
            scalar = mapped.specialize({s: values[s] for s in mapped.vars}).constant_value()
            if scalar:
                vec[mono_index[mono]] = scalar
        if vec:
            gvecs.append(vec)

    gens_in_kernel = True
    for vec in gvecs:
        acc: dict = {}
        for midx, val in vec.items():
            for cidx, mval in exact_rows[midx].items():
                t = val * mval
                cur = acc.get(cidx)
                cur = t if cur is None else cur + t
                if cur:
                    acc[cidx] = cur
                elif cidx in acc:
                    del acc[cidx]
        if acc:
            gens_in_kernel = False
            break

    gen_rows = [_residue_row(vec, r, lam) for vec in gvecs]
    rank_g = matrix_rank(gen_rows, r)
    kernel_in_span = rank_g == kernel_dim and matrix_rank(gen_rows + basis, r) == rank_g

    return OracleReport(
        fibre=fibre,
        model_fibre=model_fibre,
        specialization=dict(specialization),
        monomial_count=len(monos),
        column_count=len(col_index),
        rank=rank,
        kernel_dim=kernel_dim,
        expected_kernel_dim=expected,
        generators_in_kernel=gens_in_kernel,
        kernel_in_span=kernel_in_span,
    )


def kernel_oracle_with_retry(
    params: FamilyParams,
    fibre: str,
    specialization: dict | None,
    rng: random.Random,
    attempts: int = 3,
    tie_break: str = TIE_BREAK_DEFAULT,
):
    """Retry the oracle at randomized small integers on degeneracy.

    Returns (report_or_None, list of attempted specializations).
    """
    syms = deformation_symbols(params)
    tried = []
    spec = dict(specialization) if specialization is not None else default_specialization(params)
    for _ in range(attempts):
        tried.append(dict(spec))
        try:
            return kernel_oracle(params, fibre, spec, tie_break=tie_break), tried
        except DegenerateSpecialization:
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

    @property
    def passed(self) -> bool:
        return self.overall in ("PASS", "PASS-WITH-CAVEAT")

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

    Order: counting identities; membership of the binomials and the relative
    family on the relative model; reduction compatibility with the special
    fibre; the counting criterion on the reduced set over the special fibre
    and on the relative set over the generic fibre; optionally the kernel
    oracles on both fibres.  Mathematical failures produce a failed
    certificate, never an exception; a specialization that does not assign
    integers to exactly the deformation symbols raises BadSpecialization,
    whether or not the oracles run.
    """
    if specialization is not None:
        check_specialization(params, specialization)
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    count_report = check_counts(params)
    relations = relation_consistency(params)
    timings["counting"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    g1 = binomial_generators(params, tie_break=tie_break)
    rel = relative_generators(params, tie_break=tie_break)
    corrupted = None
    if corrupt_one:
        if rel:
            corrupted = 0
            rel = [corrupt_generator(rel[0])] + rel[1:]
        elif g1:
            corrupted = 0
            g1 = [corrupt_generator(g1[0])] + g1[1:]
    mem_g1 = [check_membership(params, RELATIVE, g) for g in g1]
    mem_rel = [check_membership(params, RELATIVE, g) for g in rel]
    timings["membership"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    try:
        reduced = reduce_relative_to_special(params, rel)
        reduction_ok = True
    except (ReductionMismatch, NonIntegralCoefficient):
        reduction_ok = False
        reduced = special_generators(params, anchors=anchor_set(params, 0), tie_break=tie_break)
    crit_special = dimension_criterion(
        params, g1 + reduced, tie_break, label="special-fibre (lam-reduced generators)"
    )
    crit_relative = dimension_criterion(
        params,
        g1 + rel,
        tie_break,
        label="generic-fibre view of the relative generators",
        memberships=mem_g1 + mem_rel,
    )
    timings["criterion"] = time.perf_counter() - t0

    oracles: dict = {}
    spec_info: dict = {"requested": dict(specialization) if specialization else None}
    if oracle:
        rng = random.Random(seed)
        for fb in (GENERIC, SPECIAL):
            t0 = time.perf_counter()
            report, tried = kernel_oracle_with_retry(params, fb, specialization, rng, tie_break=tie_break)
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

    anchors_zero = len(anchor_set(params, 0))
    anchors_one = len(anchor_set(params, 1))
    counts = dict(count_report.to_dict())
    counts["degree2_monomials"] = params.genus * (params.genus + 1) // 2
    counts["binomial_generators"] = len(g1)
    counts["relative_generators"] = len(rel)
    counts["anchors_one_minus_zero"] = anchors_one - anchors_zero
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
            "relative": crit_relative.to_dict(),
        },
        oracles=oracles,
        specializations=spec_info,
        caveats=caveats,
        overall=overall,
        timings=timings,
    )
