import functools
import math
import operator
import random

import pytest
import sympy

from canideal.errors import (
    BadSpecialization,
    InvariantViolation,
    ReductionMismatch,
    TOutOfRange,
    VariableOutsideIndexSet,
    WrongDegree,
)
from canideal.exactalg import CycloElement, SparsePoly, residue
from canideal.family import deformation_symbols, validate_params
from canideal.fibrealg import (
    FibreContext,
    FibreRelation,
    _relation_rhs,
    fibre_context,
    reduce_normal_form,
    relation_consistency,
)
from canideal.generators import (
    generic_generators,
    reduce_relative_to_special,
    relative_generators,
    relative_lambda_coefficient,
    special_generators,
    trinomial_slots,
)
from canideal.indexsets import build_index_set, minimal_monomial, minkowski_sum, monomial_classes
from canideal.termorder import IndexPair, Monomial
from canideal.verify import default_specialization


def _nf(e, rel):
    """The normal form of a V-polynomial given as {V-degree: coefficient}."""
    return reduce_normal_form([(k, 0, c) for k, c in e.items()], rel)


def _embed(poly, variables):
    """The polynomial viewed inside a larger variable tuple."""
    pos = [variables.index(v) for v in poly.vars]
    terms = {}
    for e, c in poly.terms.items():
        exps = [0] * len(variables)
        for i, k in zip(pos, e):
            exps[i] = k
        terms[tuple(exps)] = c
    return SparsePoly(variables, terms)


def _read(ctx, poly):
    """A polynomial as the context reads its values: over Z[lam] as it is,
    and on the special fibre, which computes over Z, mod p."""
    if ctx.fibre == "special":
        return poly.map_coefficients(lambda c: c % ctx.p)
    return poly


def _a_polynomial(params):
    """a(x) over ("x",) + symbols by its definition: monic of degree q, the
    symbol x_s the coefficient of x^(q-s)."""
    variables = ("x",) + deformation_symbols(params)
    a = SparsePoly.variable(variables, "x", params.q)
    for s, name in enumerate(deformation_symbols(params), 1):
        a = a + SparsePoly.variable(variables, "x", params.q - s) * SparsePoly.variable(variables, name)
    return a


def _power(f, k):
    """f^k by explicit products, f^0 the constant 1."""
    return functools.reduce(operator.mul, [f] * k, SparsePoly.constant(f.vars, 1))


def _a_power(params, ctx, k):
    """a(x)^k over the context's ring, built from a(x) itself (its residues
    mod p on the special fibre)."""
    a = _a_polynomial(params)
    if ctx.specialization is not None:
        a = a.specialize(ctx.specialization)
    return _read(ctx, _power(a, k).map_coefficients(lambda n: n * ctx.one))


def _value(groups, variables):
    """sum gamma * d of a slot coefficient or a relation slot, held as
    groups (gamma, d), multiplied out term by term."""
    out = SparsePoly.zero(variables)
    for gamma, d in groups:
        out = out + SparsePoly(variables, {e: gamma * k for e, k in d.terms.items()})
    return out


def _rhs(params, fibre):
    """The relation read off the fibre's table, each V-slot multiplied out."""
    variables = ("x",) + deformation_symbols(params)
    return tuple(_value(slot, variables) for slot in _relation_rhs(params, fibre))


def _termwise_product(f, g):
    """f * g by a double loop over the coefficient ring's own product."""
    out = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return SparsePoly(f.vars, out)


def test_generic_relation_rhs():
    params = validate_params(5, 2, 1)
    ctx = fibre_context(params, "generic")
    # V^p reduces to lam^p * x^ell + a(x)^p, a constant in the fibre variable
    one = SparsePoly.constant(ctx.vars, ctx.one)
    nf = _nf({5: one}, ctx.relation)
    lam5 = CycloElement.lam(5) ** 5
    expected = SparsePoly.variable(ctx.vars, "x", 1, lam5) + _a_power(params, ctx, 5)
    assert nf[0] == expected
    assert not any(nf[1:])


def test_special_relation_rhs():
    params = validate_params(5, 2, 1)
    ctx = fibre_context(params, "special")
    one = SparsePoly.constant(ctx.vars, ctx.one)
    nf = _nf({5: one}, ctx.relation)
    # X^p = X + x^ell / a^p, so W = a X gives W^p -> a^(p-1) W + x^ell, mod p
    assert _read(ctx, nf[1]) == _a_power(params, ctx, 4)
    assert _read(ctx, nf[0]) == SparsePoly.variable(ctx.vars, "x", 1, ctx.one)
    assert not any(nf[2:])


@pytest.mark.parametrize("triple", [(5, 2, 1), (3, 4, 2), (7, 1, 3)])
def test_relation_holds_one_polynomial_per_slot(triple):
    # rhs[i] is the whole V^i-coefficient over the fibre's ring (read mod p
    # on the special fibre), built here from a(x) and the closed forms
    params = validate_params(*triple)
    p, ell = params.p, params.ell
    for fibre in ("generic", "special", "relative"):
        ctx = FibreContext(params, fibre)
        # one group per distinct weight, each an int table over the context's variables
        groups = ctx.relation.rhs
        assert len(groups) == p and all(d.vars == ctx.vars for slot in groups for _, d in slot)
        assert all(type(k) is int for slot in groups for _, d in slot for k in d.terms.values())
        assert all(len({w for w, _ in slot}) == len(slot) for slot in groups)
        rhs = [_value(slot, ctx.vars) for slot in groups]
        x_ell = SparsePoly.variable(ctx.vars, "x", ell, ctx.one)
        zero = SparsePoly.zero(ctx.vars)
        if fibre == "generic":
            want = [x_ell.scale(CycloElement.lam(p) ** p) + _a_power(params, ctx, p)] + [zero] * (p - 1)
        elif fibre == "special":
            want = [x_ell, _a_power(params, ctx, p - 1)] + [zero] * (p - 2)
        else:
            want = [x_ell] + [
                _a_power(params, ctx, p - i).scale(-relative_lambda_coefficient(params, i)) for i in range(1, p)
            ]
        assert [_read(ctx, s) for s in rhs] == want, fibre
        ring = int if fibre == "special" else CycloElement
        assert all(type(c) is ring for s in rhs for c in s.terms.values()), fibre


@pytest.mark.parametrize("triple", [(5, 2, 1), (3, 4, 2), (7, 1, 3)])
def test_the_lead_slot_names_the_fibre_ring(triple):
    # each slot table starts with the monic lead (0, 0, 1), its 1 in the
    # fibre's ring (the int 1 on the special fibre, which computes over Z),
    # and every context of the fibre starts its chain there
    params = validate_params(*triple)
    for fibre, ring in (("generic", CycloElement), ("special", int), ("relative", CycloElement)):
        dr, dt, lead = trinomial_slots(params, fibre)[0]
        (one, table), = lead
        assert (dr, dt) == (0, 0) and table == SparsePoly.constant(deformation_symbols(params), 1)
        assert type(one) is ring and one == 1, fibre
        for spec in (None, default_specialization(params)):
            ctx = fibre_context(params, fibre, spec)
            assert type(ctx.one) is ring and ctx.one == one, (fibre, spec)
            assert ctx.power_normal_form(0)[0] == SparsePoly.constant(ctx.vars, one)


@pytest.mark.parametrize("fibre", ["generic", "special", "relative"])
@pytest.mark.parametrize("how", ["doubled", "symbolic", "shifted"])
def test_a_non_monic_lead_raises(fibre, how):
    # the relation is read off the table only when it is monic in V
    params = validate_params(5, 2, 1)
    slots = trinomial_slots(params, fibre)
    dr, dt, lead = slots[0]
    bad = {
        "doubled": (dr, dt, lead + lead),
        "symbolic": (dr, dt, tuple((g, d.mul_var_power("x1", 1)) for g, d in lead)),
        "shifted": (dr, 1, lead),
    }[how]
    params.memo[(trinomial_slots.__wrapped__, fibre)] = (bad,) + slots[1:]
    with pytest.raises(InvariantViolation):
        FibreContext(params, fibre)
    with pytest.raises(InvariantViolation):
        relation_consistency(params)
    if how == "shifted":
        # with no slot at dt = 0 the generators would not lead with the
        # class minimum of their anchor
        builder = {
            "generic": generic_generators,
            "special": special_generators,
            "relative": relative_generators,
        }[fibre]
        with pytest.raises(InvariantViolation):
            builder(params)


def test_low_degree_unchanged():
    params = validate_params(5, 2, 1)
    ctx = fibre_context(params, "relative")
    e = {4: SparsePoly.constant(ctx.vars, 3 * ctx.one)}
    nf = _nf(e, ctx.relation)
    assert nf[4] == e[4]
    assert not any(nf[i] for i in range(4))


def test_phi_image_generic_example():
    # image of the (0, 2) multidegree: y^13 -> y^3 * (lam^5 x + a^5)^2
    params = validate_params(5, 2, 1)
    ctx = fibre_context(params, "generic")
    m = Monomial((IndexPair(0, 1), IndexPair(0, 1)))
    nf = ctx.phi_image(m)
    lam5 = CycloElement.lam(5) ** 5
    f = SparsePoly.variable(ctx.vars, "x", 1, lam5) + _a_power(params, ctx, 5)
    assert nf[3] == f * f
    assert not any(nf[i] for i in (0, 1, 2, 4))


def test_phi_image_special_top_weight():
    # at total weight T = 2(p-1) the uncleared image has fibre-exponent zero,
    # so the cleared image is exactly x^rho * (a X)^p = x^rho * W^p reduced
    params = validate_params(5, 2, 1)
    ctx = fibre_context(params, "special")
    m = Monomial((IndexPair(6, 4), IndexPair(6, 4)))
    nf = ctx.phi_image(m)
    start = {5: SparsePoly.variable(ctx.vars, "x", 12, ctx.one)}
    assert nf == _nf(start, ctx.relation)
    # W^p = x^ell + a^(p-1) * W with ell = 1, mod p
    assert _read(ctx, nf[0]) == SparsePoly.variable(ctx.vars, "x", 13, ctx.one)


def test_equal_multidegree_images_identical():
    params = validate_params(5, 2, 1)
    for fibre in ("generic", "special", "relative"):
        ctx = fibre_context(params, fibre)
        a = ctx.phi_image(Monomial((IndexPair(0, 3), IndexPair(1, 4))))
        b = ctx.phi_image(Monomial((IndexPair(1, 3), IndexPair(0, 4))))
        assert a == b


def test_phi_image_errors():
    ctx = fibre_context(validate_params(5, 2, 1), "generic")
    with pytest.raises(WrongDegree):
        ctx.phi_image(Monomial((IndexPair(0, 1),)))
    with pytest.raises(VariableOutsideIndexSet):
        ctx.phi_image(Monomial((IndexPair(0, 1), IndexPair(9, 1))))


@pytest.mark.parametrize("fibre", ["generic", "special", "relative"])
def test_multidegree_of_reads_the_triple_table(fibre):
    # a degree other than 2 raises WrongDegree, a degree-2 monomial with a
    # factor outside the index set VariableOutsideIndexSet, and a monomial
    # built anew from equal index pairs finds its (rho, T) in the table
    params = validate_params(5, 2, 1)
    basis = build_index_set(params)
    inside, outside = basis[0], IndexPair(9, 1)
    assert outside not in basis
    for spec in (None, default_specialization(params)):
        ctx = fibre_context(params, fibre, spec)
        for factors in [(inside,), (inside, inside, basis[-1]), (inside, outside, outside), (outside,)]:
            with pytest.raises(WrongDegree):
                ctx.multidegree_of(Monomial(factors))
        for factors in [(inside, outside), (outside, outside), (IndexPair(0, 0), inside), (IndexPair(0, 5), inside)]:
            with pytest.raises(VariableOutsideIndexSet):
                ctx.multidegree_of(Monomial(factors))
        for point, monos in monomial_classes(params, "default").items():
            for m in monos:
                fresh = Monomial(tuple(IndexPair(f.N, f.mu) for f in reversed(m)))
                assert fresh == m and fresh[0] is not m[0]
                assert ctx.multidegree_of(fresh) == point == (sum(f.N for f in m), sum(f.mu for f in m))


def test_bad_specialization():
    params = validate_params(5, 2, 1)
    with pytest.raises(BadSpecialization):
        fibre_context(params, "generic", {"x1": 1})
    with pytest.raises(BadSpecialization):
        fibre_context(params, "generic", {"x1": 1, "x2": 2, "x3": 3})


@functools.lru_cache(maxsize=4)
def _expanded_relation(rhs, v, factor, intact=None):
    """factor * (v^p - sum_i rhs[i] * v^i) over the variables of v, by
    Horner's rule in v.  Given the `intact` relation, of which rhs changes a
    few slots, only those slots are expanded: the expression is linear in
    rhs, so it is intact's expansion minus factor * (rhs[i] - intact[i]) * v^i
    summed over the slots i that differ."""
    if intact is not None:
        acc = _expanded_relation(intact, v, factor)
        for i, (new, old) in enumerate(zip(rhs, intact)):
            if new != old:
                acc = acc - (_embed(new - old, v.vars) * _power_of(v, i)).scale(factor)
        return acc
    acc = SparsePoly.constant(v.vars, 1)
    for slot in reversed(rhs):
        acc = acc * v - _embed(slot, v.vars)
    return acc.scale(factor)


@functools.lru_cache(maxsize=32)
def _power_of(v, i):
    """v^i, each power one product from the last."""
    return SparsePoly.constant(v.vars, 1) if i == 0 else _power_of(v, i - 1) * v


@functools.lru_cache(maxsize=2)
def _x_expansion_model(params):
    """W = a*X, y = a*(lam*X + 1) and a^p*(lam*X+1)^p - lam^p*x^ell - a^p,
    expanded over ("x", "X") + symbols."""
    p = params.p
    variables = ("x", "X") + deformation_symbols(params)
    a = _embed(_a_polynomial(params), variables)
    a_p = _power(a, p)
    lam = CycloElement.lam(p)
    lhs = SparsePoly.zero(variables)
    for i in range(p + 1):
        lhs = lhs + a_p.mul_var_power("X", i).scale(lam**i * math.comb(p, i))
    lhs = lhs - SparsePoly.variable(variables, "x", params.ell).scale(lam**p) - a_p
    y = a * (SparsePoly.variable(variables, "X").scale(lam) + SparsePoly.constant(variables, 1))
    return a.mul_var_power("X", 1), y, lhs


def _x_expansion_verdicts(params, intact=None):
    """The three relation checks as identities of polynomials in
    ("x", "X") + symbols, with a(x)^p and both substitutions expanded in
    full: the reference `relation_consistency` must agree with.  Only the
    expansions are cached, so each call reads the current slot tables.
    `intact` maps a fibre to its relation before a perturbation of its
    table, whose expansion is then updated, not redone (`_expanded_relation`)."""
    intact = intact or {}
    W, y, lhs_a = _x_expansion_model(params)
    relative = _rhs(params, "relative")
    # (a): the model against lam^p * (W^p - rhs(W))
    rhs_a = _expanded_relation(relative, W, CycloElement.lam(params.p) ** params.p, intact.get("relative"))
    # (b): slotwise lam-reduction of the relative relation against the
    # special relation, both read mod p
    def mod_p(rhs):
        return tuple(s.map_coefficients(lambda c: residue(c, params.p, 0)) for s in rhs)

    # (c): the generic relation at y = a*(lam*X + 1)
    return (
        lhs_a == rhs_a,
        mod_p(relative) == mod_p(_rhs(params, "special")),
        _expanded_relation(_rhs(params, "generic"), y, 1, intact.get("generic")) == rhs_a,
    )


def _verdicts(report):
    return (
        report.kummer_form_matches_relative,
        report.relative_reduces_to_special,
        report.substitution_recovers_identity,
    )


_RELATION_GRID = [(p, q, ell) for p in (3, 5, 7) for q in range(1, 5) for ell in range(1, p)]


@pytest.mark.parametrize("triple", _RELATION_GRID)
def test_relation_consistency(triple):
    params = validate_params(*triple)
    report = relation_consistency(params)
    assert _verdicts(report) == _x_expansion_verdicts(params) == (True, True, True)
    assert report.all_hold


def test_intact_relations_are_checked_on_coordinates(monkeypatch):
    # once the slot tables and the read-off relations are built, the checks
    # of an intact triple compare coordinates: no polynomial is scaled and no
    # coefficient map is taken
    calls = []
    for name in ("scale", "map_coefficients"):
        real = getattr(SparsePoly, name)
        monkeypatch.setattr(SparsePoly, name, lambda self, *args, real=real, name=name: calls.append(name) or real(self, *args))
    for triple in _RELATION_GRID:
        params = validate_params(*triple)
        for fibre in ("generic", "special", "relative"):
            _relation_rhs(params, fibre)
        calls.clear()
        assert _verdicts(relation_consistency(params)) == (True, True, True), triple
        assert calls == [], triple


def _perturbed_tables(params, fibre):
    """Every single-slot perturbation of the fibre's slot table, lead kept:
    the coefficient doubled, negated or shifted by the ring's 1; dr + 1;
    every other dt in 1..p; and one extra copy of the slot at each dt.  A
    sum is a slot of several groups: c + c is c's group twice, c + 1 adds
    the lead's group."""
    slots = trinomial_slots(params, fibre)
    one = slots[0][2]
    for s in range(1, len(slots)):
        dr, dt, c = slots[s]

        def put(*new):
            return slots[:s] + new + slots[s + 1 :]

        yield put((dr, dt, c + c))
        yield put((dr, dt, tuple((-g, d) for g, d in c)))
        yield put((dr, dt, c + one))
        yield put((dr + 1, dt, c))
        for other in range(1, params.p + 1):
            if other != dt:
                yield put((dr, other, c))
            yield put((dr, dt, c), (dr, other, c))


@pytest.mark.parametrize("triple", [(5, 2, 1), (5, 2, 3), (3, 2, 1), (7, 1, 1), (7, 2, 3), (5, 1, 2)])
@pytest.mark.parametrize("fibre", ["generic", "special", "relative"])
def test_perturbed_slot_tables_fail_as_the_x_expansion_does(triple, fibre):
    # a wrong slot moves the read-off relation: the generic table fails (c)
    # alone, the special table (b) alone, the relative table (a) and (c)
    # the unperturbed relations keep their expansions (cached), and the
    # perturbed one updates its intact expansion at the slots it changes
    params = validate_params(*triple)
    tables = list(_perturbed_tables(params, fibre))
    assert len(tables) == (len(trinomial_slots(params, fibre)) - 1) * (2 * params.p + 3)
    intact = {fibre: _rhs(params, fibre)}
    for table in tables:
        params.memo[(trinomial_slots.__wrapped__, fibre)] = table
        params.memo.pop((_relation_rhs.__wrapped__, fibre), None)
        got = _verdicts(relation_consistency(params))
        assert got == _x_expansion_verdicts(params, intact), (fibre, table)
        if fibre == "generic":
            assert got == (True, True, False), table
        elif fibre == "special":
            assert got == (True, False, True), table
        else:
            assert not got[0] and not got[2], table


def _relative_table_with_int_one(params):
    """The relative slot table with the int 1 added to the first slot whose
    coefficient has no constant term: a second group, of the int weight 1."""
    slots = trinomial_slots(params, "relative")
    syms = deformation_symbols(params)
    s = next(s for s, (_, _, c) in enumerate(slots) if not _value(c, syms).constant_value())
    dr, dt, c = slots[s]
    return slots[:s] + ((dr, dt, c + ((1, SparsePoly.constant(syms, 1)),)),) + slots[s + 1 :]


@pytest.mark.parametrize("triple", [(5, 2, 1), (5, 2, 3), (7, 2, 3)])
def test_a_relative_slot_with_an_int_term_fails_the_reduction(triple):
    # an int term stands for its image in Z[lam] and reduces to n mod p: the
    # lam-reduction check fails, where it raised AttributeError, and the
    # relative family no longer reduces to the special one
    params = validate_params(*triple)
    table = _relative_table_with_int_one(params)
    assert any(type(g) is int for _, _, c in table for g, _ in c)
    params.memo[(trinomial_slots.__wrapped__, "relative")] = table
    params.memo.pop((_relation_rhs.__wrapped__, "relative"), None)
    got = _verdicts(relation_consistency(params))
    assert got == _x_expansion_verdicts(params)
    assert got[1] is False
    with pytest.raises(ReductionMismatch):
        reduce_relative_to_special(params, relative_generators(params))


@pytest.mark.parametrize(
    "fibre, value", [("generic", 3), ("relative", 3), ("generic", CycloElement(7, (1, 0, 0, 0, 0, 9)))]
)
def test_a_slot_of_ints_or_of_another_ring_reads_as_unequal(fibre, value):
    # the coordinate checks read an int as its own lam^0 coordinate and an
    # element of Z[zeta_7] in a p = 5 table as equal to nothing, as the
    # polynomial comparison does: with the last slot's values replaced by
    # either, the checks that read that table fail, and nothing raises
    params = validate_params(5, 2, 1)
    slots = trinomial_slots(params, fibre)
    dr, dt, c = slots[-1]
    ones = _value(c, deformation_symbols(params)).map_coefficients(lambda v: 1)
    params.memo[(trinomial_slots.__wrapped__, fibre)] = slots[:-1] + ((dr, dt, ((value, ones),)),)
    got = _verdicts(relation_consistency(params))
    assert got == ((True, True, False) if fibre == "generic" else (False, False, False))
    if type(value) is int:
        assert got == _x_expansion_verdicts(params)


def _conv(e1, e2):
    out = {}
    for i, a in e1.items():
        for j, b in e2.items():
            k = i + j
            prod = a * b
            out[k] = out[k] + prod if k in out else prod
    return out


@pytest.mark.parametrize("fibre", ["generic", "special", "relative"])
def test_normal_form_is_multiplicative(fibre):
    params = validate_params(5, 2, 1)
    ctx = fibre_context(params, fibre)
    rng = random.Random(808)

    def rand_elem():
        out = {}
        for _ in range(rng.randint(1, 3)):
            exp = rng.randint(0, 6)
            num = SparsePoly(
                ctx.vars,
                {
                    tuple(
                        rng.randint(0, 2) if k == 0 else rng.randint(0, 1)
                        for k in range(len(ctx.vars))
                    ): rng.randint(-3, 3) * ctx.one
                    for _ in range(2)
                },
            )
            if num:
                out[exp] = num
        return out or {0: SparsePoly.constant(ctx.vars, ctx.one)}

    for _ in range(6):
        e1, e2 = rand_elem(), rand_elem()
        direct = _nf(_conv(e1, e2), ctx.relation)
        nf1 = _nf(e1, ctx.relation)
        nf2 = _nf(e2, ctx.relation)
        stepped = _nf(
            _conv(dict(enumerate(nf1)), dict(enumerate(nf2))), ctx.relation
        )
        assert direct == stepped


def _direct_image(ctx, rho, T):
    """Reduce the full start x^rho * (y^(3p-T) or (a X)^(3p-2-T) = W^(3p-2-T)) in one go."""
    p = ctx.p
    x_rho = SparsePoly.variable(ctx.vars, "x", rho, ctx.one)
    e = 3 * p - T if ctx.fibre == "generic" else 3 * p - 2 - T
    return _nf({e: x_rho}, ctx.relation)


@pytest.mark.parametrize("triple", [(5, 2, 1), (5, 2, 3), (3, 4, 2)])
@pytest.mark.parametrize("specialized", [False, True])
def test_shifted_weight_image_equals_direct_reduction(triple, specialized):
    # image(rho, T) = x^rho * image(0, T): every V-slot equals that of a
    # direct reduction of x^rho times the start
    params = validate_params(*triple)
    spec = default_specialization(params) if specialized else None
    for fibre in ("generic", "special", "relative"):
        ctx = fibre_context(params, fibre, spec)
        for pt in minkowski_sum(params):
            got = ctx.phi_image(minimal_monomial(params, pt))
            want = _direct_image(ctx, pt.rho, pt.T)
            assert got == want, (triple, fibre, pt)


def _largest_power(ctx, params):
    """Largest V-exponent a weight image starts from: 3p - T or 3p - 2 - T."""
    low = min(pt.T for pt in minkowski_sum(params))
    return 3 * ctx.p - low - (0 if ctx.fibre == "generic" else 2)


@pytest.mark.parametrize("triple", [(5, 2, 1), (5, 2, 3), (3, 4, 2)])
@pytest.mark.parametrize("specialized", [False, True])
def test_normal_form_chain_equals_reduction_from_scratch(triple, specialized):
    # NF(V^(e+1)) = NF(V * NF(V^e)) gives the normal form of V^e itself
    params = validate_params(*triple)
    spec = default_specialization(params) if specialized else None
    for fibre in ("generic", "special", "relative"):
        ctx = FibreContext(params, fibre, spec)
        one = SparsePoly.constant(ctx.vars, ctx.one)
        top = _largest_power(ctx, params)
        ctx.power_normal_form(top)
        assert len(ctx._chain) == top + 1
        for e in range(top + 1):
            got = ctx.power_normal_form(e)
            want = _nf({e: one}, ctx.relation)
            assert got == want, (triple, fibre, e)


def _relation_polynomial(ctx, params):
    """V^p minus the right-hand side of the fibre's relation, over
    ("V",) + ctx.vars, built from a(x) and the closed forms of the relations
    rather than from the stored relation."""
    p, ell = params.p, params.ell
    variables = ("V",) + ctx.vars
    a = _embed(_a_power(params, ctx, 1), variables)
    V = SparsePoly.variable(variables, "V", 1, ctx.one)
    x_ell = SparsePoly.variable(variables, "x", ell, ctx.one)
    if ctx.fibre == "generic":
        return _power(V, p) - x_ell.scale(CycloElement.lam(p) ** p) - _power(a, p)
    if ctx.fibre == "special":
        # X^p - X = x^ell / a^p, times a^p, with W = a X
        return _power(V, p) - x_ell - _power(a, p - 1) * V
    # X^p = x^ell / a^p - sum c_i X^i, times a^p
    rel = _power(V, p) - x_ell
    for i in range(1, p):
        rel = rel + (_power(a, p - i) * _power(V, i)).scale(relative_lambda_coefficient(params, i))
    return rel


@pytest.mark.parametrize("triple", [(5, 2, 1), (5, 2, 3), (3, 4, 2)])
@pytest.mark.parametrize("specialized", [False, True])
def test_weight_images_are_congruent_to_their_starts(triple, specialized):
    # W^e - sum_i s_i W^i (y on the generic fibre) is a multiple of the
    # relation polynomial: long division leaves remainder 0 (0 mod p on the
    # special fibre, whose relation polynomial is the closed form over F_p)
    params = validate_params(*triple)
    spec = default_specialization(params) if specialized else None
    for fibre in ("generic", "special", "relative"):
        ctx = FibreContext(params, fibre, spec)
        relation = _relation_polynomial(ctx, params)
        variables = relation.vars
        for T in sorted({pt.T for pt in minkowski_sum(params)}):
            e = 3 * ctx.p - T if fibre == "generic" else 3 * ctx.p - 2 - T
            diff = SparsePoly.variable(variables, "V", e, ctx.one)
            for i, s in enumerate(ctx.weight_image(T)):
                diff = diff - _embed(s, variables).mul_var_power("V", i)
            quo, rem = diff.divmod_monic(relation, "V")
            assert not _read(ctx, rem), (triple, fibre, T)
            assert _read(ctx, quo * relation) == _read(ctx, diff)


@pytest.mark.parametrize("triple", [(5, 2, 1), (5, 2, 3), (7, 1, 3)])
@pytest.mark.parametrize("specialized", [False, True])
def test_int_a_power_product_equals_ring_product(triple, specialized):
    # every context keeps a(x)^k with int coefficients; W-slots meet them
    # (the X-coordinates) in SparsePoly.__mul__, over Z[lam] on its int fast
    # path.  The product equals a term-by-term product with a(x)^k over
    # the ring (over F_p on the special fibre, both products read mod p)
    params = validate_params(*triple)
    spec = default_specialization(params) if specialized else None
    for fibre in ("generic", "special", "relative"):
        ctx = FibreContext(params, fibre, spec)
        assert len(ctx.a_powers) == ctx.p + 1
        power_is_int = all(type(c) is int for c in ctx.a_powers[ctx.p].terms.values())
        assert power_is_int
        nums = [
            c
            for T in sorted({pt.T for pt in minkowski_sum(params)})
            for c in ctx.weight_image(T)
            if c
        ]
        assert nums
        for num in nums[:6]:
            for k in range(ctx.p + 1):
                ring = _a_power(params, ctx, k)
                if fibre == "special":
                    assert all(type(c) is int and 0 < c < ctx.p for c in ring.terms.values())
                else:
                    assert all(type(c) is not int for c in ring.terms.values())
                assert _read(ctx, num * ctx.a_powers[k]) == _read(ctx, _termwise_product(num, ring)), (fibre, k)


@pytest.mark.parametrize("triple", [(5, 2, 1), (5, 2, 3), (7, 1, 3)])
def test_x_coordinates_are_w_slots_times_a_powers(triple):
    # the oracle's X-slot i is a(x)^i times the W-slot i; y-slots stay as they are
    params = validate_params(*triple)
    spec = default_specialization(params)
    for fibre in ("generic", "special", "relative"):
        ctx = FibreContext(params, fibre, spec)
        for T in sorted({pt.T for pt in minkowski_sum(params)}):
            img = ctx.weight_image(T)
            coords = ctx.x_coordinates(img)
            for i, (s, r) in enumerate(zip(img, coords)):
                assert _read(ctx, r) == _read(ctx, s if fibre == "generic" else s * _a_power(params, ctx, i)), (fibre, T, i)


def _sympy_power_normal_form(params, ctx, e):
    """NF(V^e) by sympy (`_sympy_normal_form`)."""
    return _sympy_normal_form(params, ctx, sympy.Symbol("V") ** e)


def _sympy_normal_form(params, ctx, f):
    """NF(f) by sympy, for f a sympy polynomial in V, t = lam and ctx.vars,
    independent of the package's relation and of its arithmetic: f is
    reduced modulo the fibre relation, built from a(x) and the closed forms
    of the relations, and every coefficient, a polynomial in t, modulo the
    minimal polynomial of lam (one multivariate division by both).  Returns
    {(V-slot, exponents over ctx.vars): coordinates}, the special fibre's
    read mod p."""
    p, ell = params.p, params.ell
    t, V = sympy.symbols("t V")
    xs = sympy.symbols(ctx.vars)
    min_poly = sum(math.comb(p, i) * t ** (i - 1) for i in range(1, p + 1))
    values = dict(zip(sympy.symbols(deformation_symbols(params)), (ctx.specialization or {}).values()))
    syms = sympy.symbols(deformation_symbols(params))
    a = xs[0] ** params.q + sum(s * xs[0] ** (params.q - k) for k, s in enumerate(syms, 1))
    a = a.subs(values)
    if ctx.fibre == "generic":
        relation = V**p - t**p * xs[0] ** ell - a**p
    elif ctx.fibre == "special":
        relation = V**p - xs[0] ** ell - a ** (p - 1) * V
    else:
        relation = V**p - xs[0] ** ell
        for i in range(1, p):
            # c_i = binom(p, i) / lam^(p-i), an integral element of Z[lam]
            c = sympy.rem(math.comb(p, i) * sympy.invert(t ** (p - i), min_poly, t), min_poly, t)
            assert all(coeff.is_integer for coeff in sympy.Poly(c, t).coeffs())
            relation += c * a ** (p - i) * V**i
    # the relation's lead V^p and the minimal polynomial's t^(p-1) are
    # coprime, so the two form a Groebner basis in lex order with V first,
    # and the remainder of the division by both is unique
    _, nf = sympy.reduced(sympy.expand(f), [sympy.expand(relation), min_poly], V, t, *xs, order="lex")
    out = {}
    for (i, *exps, j), coeff in sympy.Poly(nf, V, *xs, t).terms():
        coords = out.setdefault((i, tuple(exps)), [0] * (p - 1))
        coords[j] += int(coeff)
    if ctx.fibre == "special":
        out = {key: [coords[0] % p] for key, coords in out.items()}
    return {key: tuple(coords) for key, coords in out.items() if any(coords)}


def _slot_coordinates(ctx, nf):
    """{(V-slot, exponents): coordinates} of a normal form, the special
    fibre's read mod p."""
    out = {}
    for i, slot in enumerate(nf):
        for exps, c in slot.terms.items():
            if ctx.fibre == "special":
                coords = (c % ctx.p,)
            else:
                coords = c.coeffs if isinstance(c, CycloElement) else (c,) + (0,) * (ctx.p - 2)
            if any(coords):
                out[i, exps] = coords
    return out


@pytest.mark.parametrize("triple", [(3, 1, 1), (3, 2, 2), (5, 1, 1)])
@pytest.mark.parametrize("specialized", [False, True])
def test_power_normal_forms_match_a_sympy_reduction(triple, specialized):
    # the packed reduction against sympy's remainders, slot by slot: V^e
    # reduced modulo the fibre relation and lam's minimal polynomial
    params = validate_params(*triple)
    spec = default_specialization(params) if specialized else None
    for fibre in ("generic", "special", "relative"):
        ctx = FibreContext(params, fibre, spec)
        p = ctx.p
        # the clearing exponent E at p = 3 only, where sympy reduces V^E quickly
        for e in sorted({p, p + 1, 2 * p - 1, ctx.clearing if p == 3 else p}):
            want = _sympy_power_normal_form(params, ctx, e)
            assert want
            assert _slot_coordinates(ctx, ctx.power_normal_form(e)) == want, (triple, fibre, e)


def _sympy_groups(ctx, groups):
    """sum gamma * d of groups over ctx.vars[1:] as a sympy polynomial in t = lam."""
    t, names = sympy.Symbol("t"), sympy.symbols(ctx.vars[1:])
    out = 0
    for gamma, d in groups:
        g = sum(c * t**j for j, c in enumerate(gamma.coeffs)) if isinstance(gamma, CycloElement) else gamma
        out += g * sum(k * sympy.Mul(*(s**x for s, x in zip(names, e))) for e, k in d.terms.items())
    return out


@pytest.mark.parametrize("triple", [(3, 1, 1), (3, 2, 2), (5, 1, 1)])
@pytest.mark.parametrize("specialized", [False, True])
def test_multi_group_parts_reduce_as_their_sum(triple, specialized):
    # a part given as several groups (gamma, d) reduces as sum gamma * d,
    # against sympy's remainders, slot by slot and by the zero test: a part
    # whose groups cancel, gamma * d + (-gamma) * d, and a part with two
    # distinct weights in one coefficient, over the symbols or, on a
    # specialized context, over no variable
    params = validate_params(*triple)
    spec = default_specialization(params) if specialized else None
    for fibre in ("generic", "special", "relative"):
        ctx = FibreContext(params, fibre, spec)
        p, symbols = ctx.p, ctx.vars[1:]
        lam = CycloElement.lam(p)
        one, two = (2, 3) if fibre == "special" else (lam + 2, 3 - lam * lam)
        d = SparsePoly(symbols, {(1,) * len(symbols): 3, (0,) * len(symbols): -2})
        e = SparsePoly(symbols, {(0,) * len(symbols): 5})
        cancelling, mixed = ((one, d), (-one, d)), ((one, d), (two, e))
        V, x = sympy.Symbol("V"), sympy.Symbol("x")
        for parts in (
            [(p + 1, 1, cancelling)],
            [(p + 1, 1, mixed), (p, 0, cancelling), (p - 1, 2, mixed)],
            [(p, 0, mixed), (p, 0, ((-one, d), (-two, e)))],
        ):
            f = sum(x**rho * _sympy_groups(ctx, c) * V**k for k, rho, c in parts)
            want = _sympy_normal_form(params, ctx, f)
            assert _slot_coordinates(ctx, reduce_normal_form(parts, ctx.relation)) == want, (fibre, parts)
            assert reduce_normal_form(parts, ctx.relation, zero_test=True) is (not want), (fibre, parts)


def _spy_unpacker(monkeypatch):
    """The coordinate widths B of every unpacker a reduction makes."""
    import canideal.fibrealg as fibrealg

    widths = []
    real = fibrealg._unpacker
    monkeypatch.setattr(fibrealg, "_unpacker", lambda width, n: widths.append(width) or real(width, n))
    return widths


@pytest.mark.parametrize("m", [2, 5, 64, 200])
def test_packed_coordinates_reach_the_digit_bound(monkeypatch, m):
    # on V^3 = d over Z[lam] (p = 3), x * lam * V^3 + x * s * lam reduces in
    # one round to x * (s + d) * lam; with |s| + |d| = 2^m - 1 the round is
    # sized at B = m + 1, so the coordinate s + d is +-(2^(B-1) - 1), the
    # largest signed digit, and it reads back exactly; s = -d reads as zero.
    # The x-shift makes every part a packed one.
    widths = _spy_unpacker(monkeypatch)
    p, variables = 3, ("x",)
    lam = SparsePoly.constant(variables, CycloElement.lam(p))
    zero = SparsePoly.zero(variables)
    for sign in (1, -1):
        d, s = sign, sign * (2**m - 2)
        rel = FibreRelation("generic", p, variables, (((1, SparsePoly.constant(variables, d)),), (), ()))
        parts = [(p, 1, lam), (0, 1, lam.scale(s))]
        widths.clear()
        nf = reduce_normal_form(parts, rel)
        assert widths == [m + 1]
        assert nf == (lam.scale(sign * (2**m - 1)).mul_var_power("x", 1), zero, zero)
        assert reduce_normal_form(parts, rel, zero_test=True) is False
        assert reduce_normal_form([(p, 1, lam), (0, 1, lam.scale(-d))], rel, zero_test=True) is True
    # a coordinate vector (2^k, -1) packs to 2^k - 2^(k+B'), zero at B' = k:
    # at the width chosen for it, it neither aliases to zero nor misreads
    for k in range(1, 80):
        c = SparsePoly.constant(variables, CycloElement(p, (2**k, -1)))
        assert reduce_normal_form([(1, 1, c)], rel, zero_test=True) is False
        assert reduce_normal_form([(1, 1, c)], rel) == (zero, c.mul_var_power("x", 1), zero)


@pytest.mark.parametrize("fibre", ["generic", "relative"])
def test_multi_round_reduction_repacks_exactly(monkeypatch, fibre):
    # a non-cancelling combination over several V-degrees runs many rounds;
    # its coordinates outgrow the width sized for round 1, so the reduction
    # re-packs, and it still equals sum_e c_e * NF(V^e) from the chain
    params = validate_params(5, 2, 1)
    ctx = FibreContext(params, fibre)
    lam = CycloElement.lam(5)
    x = SparsePoly.variable(ctx.vars, "x")
    coeffs = {
        ctx.clearing: x.scale(3 * ctx.one),
        ctx.clearing - 2: SparsePoly.constant(ctx.vars, lam**3 - 7),
        ctx.p + 1: x * x.scale(lam),
    }
    want = [SparsePoly.zero(ctx.vars)] * ctx.p
    for e, c in coeffs.items():
        want = [w + s * c for w, s in zip(want, ctx.power_normal_form(e))]
    widths = _spy_unpacker(monkeypatch)
    got = reduce_normal_form([(e, 0, c) for e, c in coeffs.items()], ctx.relation)
    assert list(got) == want and any(want)
    assert len(set(widths)) > 1
    assert reduce_normal_form([(e, 0, c) for e, c in coeffs.items()], ctx.relation, zero_test=True) is False


@pytest.mark.parametrize("m", [3, 40])
def test_repack_covers_a_slot_that_grows_over_rounds(monkeypatch, m):
    # on V^3 = d + d * V + V^2 over Z[lam] (p = 3), x * lam * V^4 reduces in
    # two rounds to x * lam * (d + 2d * V + (d + 1) * V^2): round 1 puts d in
    # slots 1 and 2 and 1 in slot 3, sized for d = 2^m - 1; round 2, whose
    # top is that 1, adds d to slot 1 again, so slot 1 outgrows the width
    # round 1 chose unless its running bound is kept, and re-packs
    widths = _spy_unpacker(monkeypatch)
    p, variables, d = 3, ("x",), 2**m - 1
    lam_x = SparsePoly.variable(variables, "x", 1, CycloElement.lam(p))
    rhs = tuple(((1, SparsePoly.constant(variables, c)),) for c in (d, d, 1))
    rel = FibreRelation("generic", p, variables, rhs)
    lam = SparsePoly.constant(variables, CycloElement.lam(p))
    nf = reduce_normal_form([(4, 1, lam)], rel)
    assert nf == (lam_x.scale(d), lam_x.scale(2 * d), lam_x.scale(d + 1))
    assert len(set(widths)) > 1


@pytest.mark.parametrize("specialized", [False, True])
@pytest.mark.parametrize("fibre", ["generic", "relative"])
def test_reduction_rejects_another_cyclotomic_ring(fibre, specialized):
    # a Z[zeta_7] coefficient on a p = 5 fibre has 6 coordinates against the
    # ring's 4; read against 4 unit rows it would be truncated, and this one
    # would read as zero.  It raises whether round 1 reduces it (V^6) or it
    # sits in a lower slot (V^3), on either path of the reduction
    params = validate_params(5, 2, 1)
    ctx = fibre_context(params, fibre, default_specialization(params) if specialized else None)
    alien = SparsePoly.constant(ctx.vars[1:], CycloElement(7, (0, 0, 0, 0, 5, 6)))
    for k in (6, 3):
        for zero_test in (True, False):
            with pytest.raises(ValueError, match="mixed cyclotomic rings"):
                reduce_normal_form([(k, 0, alien)], ctx.relation, zero_test=zero_test)


@pytest.mark.parametrize("fibre", ["generic", "special", "relative"])
def test_chain_reads_only_its_own_exponents_and_weights(fibre):
    # a negative exponent would index the chain from its end (V^-1 read as
    # NF(V^(p-1))), and a weight outside [2, 2(p-1)] would reach one
    params = validate_params(5, 2, 1)
    ctx = fibre_context(params, fibre, default_specialization(params))
    p = ctx.p
    for e in (-1, -2, -ctx.clearing):
        with pytest.raises(ValueError):
            ctx.power_normal_form(e)
    for T in (-1, 0, 1, 2 * p - 1, ctx.clearing, ctx.clearing + 1):
        with pytest.raises(TOutOfRange):
            ctx.weight_image(T)
    for T in (2, 2 * p - 2):
        assert ctx.weight_image(T) == ctx.power_normal_form(ctx.clearing - T)


def test_special_reduction_takes_ints_only():
    params = validate_params(5, 2, 1)
    ctx = fibre_context(params, "special")
    ring_one = SparsePoly.constant(ctx.vars, CycloElement.one(5))
    with pytest.raises(InvariantViolation):
        reduce_normal_form([(5, 0, ring_one)], ctx.relation)


@pytest.mark.parametrize("fibre", ["generic", "special", "relative"])
@pytest.mark.parametrize("degree", [1, 6])
def test_packed_memo_reads_equal_polynomials_in_any_term_order(fibre, degree):
    # equal coefficient polynomials whose terms come in another order, as
    # sums taken in another order give, share one memo entry; the entry's
    # packed pairs must not be matched with the terms of the one passed later
    params = validate_params(5, 2, 1)
    ctx = FibreContext(params, fibre)
    symbols = ctx.vars[1:]
    one = 1 if fibre == "special" else CycloElement.lam(5) + 2
    terms = [((1, 0), one), ((0, 2), 3), ((1, 1), -7)]
    first = SparsePoly(symbols, dict(terms))
    later = SparsePoly(symbols, dict(reversed(terms)))
    assert first == later and list(first.terms) != list(later.terms)
    memo = {}
    rel = ctx.relation
    assert not reduce_normal_form([(degree, 0, first)], rel, zero_test=True, memo=memo)
    assert reduce_normal_form([(degree, 0, later), (degree, 0, -first)], rel, zero_test=True, memo=memo)
    assert not reduce_normal_form([(degree, 0, later), (degree, 1, -first)], rel, zero_test=True, memo=memo)
    # the slots agree with those the same reduction gives with no memo
    for poly in (first, later):
        assert reduce_normal_form([(degree, 0, poly)], rel, memo=memo) == reduce_normal_form([(degree, 0, first)], rel)
