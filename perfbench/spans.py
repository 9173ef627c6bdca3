"""Span tracing of canideal's layers, done from outside the package.

`install()` replaces the public functions of each layer module (and a few
methods) with timing wrappers.  A function imported by name into another
module is patched there too, because e.g. `verify` calls `check_counts` and
`fibrealg` calls `reduce_normal_form` through their own globals.

Every call records one span: name, start, end, parent span, operation id,
a tag (the fibre of a kernel-oracle call) and the exception it raised, if any.
Spans stay in memory until the end of the pass.  Counts are derived from call
arguments and results only, never from the package's private state.

Per-layer `_s` metrics are self times (a span's duration minus the time its
child spans cover) unless `PHASES` below says otherwise.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
from collections import Counter, defaultdict

# (span name, module, attribute, class or None).  Span names are the
# module-qualified names of the wrapped callables.
TARGETS = [
    ("cli._json", "cli", "_json", None),
    ("cli._emit", "cli", "_emit", None),
    ("verify.certify", "verify", "certify", None),
    ("verify.check_membership", "verify", "check_membership", None),
    ("verify.dimension_criterion", "verify", "dimension_criterion", None),
    ("verify.kernel_oracle", "verify", "kernel_oracle", None),
    ("verify.kernel_basis", "verify", "kernel_basis", None),
    ("verify.fraction_free_echelon", "verify", "fraction_free_echelon", None),
    ("indexsets.check_counts", "indexsets", "check_counts", None),
    ("indexsets.monomials_at", "indexsets", "monomials_at", None),
    ("indexsets.anchor_set", "indexsets", "anchor_set", None),
    ("termorder.sort_monomials", "termorder", "sort_monomials", None),
    ("termorder.leading_term", "termorder", "leading_term", None),
    ("family.a_power_coefficients", "family", "a_power_coefficients", None),
    ("generators.binomial_generators", "generators", "binomial_generators", None),
    ("generators.generic_generators", "generators", "generic_generators", None),
    ("generators.special_generators", "generators", "special_generators", None),
    ("generators.relative_generators", "generators", "relative_generators", None),
    ("generators.reduce_relative_to_special", "generators", "reduce_relative_to_special", None),
    ("fibrealg.relation_consistency", "fibrealg", "relation_consistency", None),
    ("fibrealg.reduce_normal_form", "fibrealg", "reduce_normal_form", None),
    ("fibrealg.FibreContext.__init__", "fibrealg", "__init__", "FibreContext"),
    ("fibrealg.FibreContext.phi_image", "fibrealg", "phi_image", "FibreContext"),
    ("exactalg.CycloElement.inverse", "exactalg", "inverse", "CycloElement"),
    ("exactalg.PrimeFieldElement.inverse", "exactalg", "inverse", "PrimeFieldElement"),
    ("exactalg.SparsePoly.divmod_monic", "exactalg", "divmod_monic", "SparsePoly"),
]

BUILDERS = (
    "generators.binomial_generators",
    "generators.generic_generators",
    "generators.special_generators",
    "generators.relative_generators",
)

# Self time summed over the named spans.
SELF_TIMES = {
    "cli.main_s": ("cli.main",),
    "cli.emit_s": ("cli._json", "cli._emit"),
    "verify.certify_s": ("verify.certify",),
    "verify.check_membership_s": ("verify.check_membership",),
    "verify.dimension_criterion_s": ("verify.dimension_criterion",),
    "verify.echelon_s": ("verify.fraction_free_echelon",),
    "indexsets.check_counts_s": ("indexsets.check_counts",),
    "indexsets.monomials_at_s": ("indexsets.monomials_at",),
    "indexsets.anchor_set_s": ("indexsets.anchor_set",),
    "termorder.sort_monomials_s": ("termorder.sort_monomials",),
    "family.a_power_coefficients_s": ("family.a_power_coefficients",),
    "generators.build_s": BUILDERS,
    "generators.reduce_relative_to_special_s": ("generators.reduce_relative_to_special",),
    "fibrealg.relation_consistency_s": ("fibrealg.relation_consistency",),
    "fibrealg.context_build_s": ("fibrealg.FibreContext.__init__",),
    "fibrealg.normal_form_s": ("fibrealg.reduce_normal_form",),
    "fibrealg.phi_image_s": ("fibrealg.FibreContext.phi_image",),
    "exactalg.cyclo_inverse_s": ("exactalg.CycloElement.inverse",),
    "exactalg.divmod_monic_s": ("exactalg.SparsePoly.divmod_monic",),
}

# Number of spans with the given name.
CALLS = {
    "indexsets.monomials_at_calls": "indexsets.monomials_at",
    "termorder.sort_monomials_calls": "termorder.sort_monomials",
    "termorder.leading_term_calls": "termorder.leading_term",
    "fibrealg.normal_forms": "fibrealg.reduce_normal_form",
    "fibrealg.phi_image_calls": "fibrealg.FibreContext.phi_image",
    "verify.memberships": "verify.check_membership",
    "verify.oracle_attempts": "verify.kernel_oracle",
    "verify.echelon_calls": "verify.fraction_free_echelon",
    "exactalg.cyclo_inverse_calls": "exactalg.CycloElement.inverse",
    "exactalg.prime_inverse_calls": "exactalg.PrimeFieldElement.inverse",
    "exactalg.divmod_monic_calls": "exactalg.SparsePoly.divmod_monic",
}

# Counts accumulated by the hooks below, from arguments and results.
COUNTS = (
    "indexsets.minkowski_points",
    "generators.count",
    "fibrealg.contexts_built.symbolic",
    "fibrealg.contexts_built.specialized",
    "fibrealg.normal_form_rounds",
    "verify.echelon_input_rows",
    "verify.echelon_pivots",
    "verify.oracle_monomials",
    "verify.oracle_columns",
    "verify.oracle_rank",
    "cli.output_bytes",
)

# Inclusive phase times of the kernel oracle (see oracle_phases).
PHASES = (
    "verify.kernel_oracle_s.generic",
    "verify.kernel_oracle_s.special",
    "verify.oracle_matrix_build_s",
    "verify.kernel_basis_s",
    "verify.span_check_s",
)

# Computed from the spans: retries are oracle calls that raised
# DegenerateSpecialization.
DERIVED = ("verify.oracle_retries", "fibrealg.image_hit_ratio", "bench.self_time_total_s")

# Every per-layer metric a traced run reports; the last is computed by run.py.
PER_LAYER = (*SELF_TIMES, *CALLS, *COUNTS, *PHASES, *DERIVED, "bench.tracing_overhead_s")

ROOT = "cli.main"


class Tracer:
    """In-memory span store; one per traced pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # [name_id, start, end, parent, op, tag, exception name]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1
        self.counts: Counter = Counter()

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name, fn, tag=None, after=None, prepare=None):
        """Timing wrapper around fn recording one span per call."""
        nid = self.name_id(name)
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if prepare is not None:
                args = prepare(args)
            idx = len(spans)
            record = [nid, 0.0, 0.0, stack[-1] if stack else -1, self.op,
                      None if tag is None else tag(args, kwargs), None]
            spans.append(record)
            stack.append(idx)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                record[2] = clock()
                record[6] = type(exc).__name__
                raise
            finally:
                stack.pop()
            record[2] = clock()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def to_jsonable(self) -> dict:
        return {"names": self.names, "spans": self.spans}


def unit(metric: str) -> str:
    if metric.endswith("_s") or metric.startswith("verify.kernel_oracle_s."):
        return "s"
    if metric == "cli.output_bytes":
        return "bytes"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _hooks(tracer: Tracer) -> dict:
    counts = tracer.counts

    class CountingRhs(tuple):
        # reduce_normal_form walks the relation's right-hand side once per
        # substitution round, so iterations of it are exactly the rounds.
        __slots__ = ()

        def __iter__(self):
            counts["fibrealg.normal_form_rounds"] += 1
            return tuple.__iter__(self)

    def count_rounds(args):
        e, rel = args[0], args[1]
        return (e, dataclasses.replace(rel, rhs=CountingRhs(rel.rhs))) + tuple(args[2:])

    def minkowski(args, kwargs, report):
        counts["indexsets.minkowski_points"] += report.minkowski_size

    def built(args, kwargs, gens):
        counts["generators.count"] += len(gens)

    def context(args, kwargs, _):
        spec = _arg(args, kwargs, 3, "specialization")
        counts["fibrealg.contexts_built." + ("symbolic" if spec is None else "specialized")] += 1

    def echelon(args, kwargs, echelon_rows):
        counts["verify.echelon_input_rows"] += len(_arg(args, kwargs, 0, "rows"))
        counts["verify.echelon_pivots"] += len(echelon_rows)

    def oracle(args, kwargs, report):
        counts["verify.oracle_monomials"] += report.monomial_count
        counts["verify.oracle_columns"] += report.column_count
        counts["verify.oracle_rank"] += report.rank

    def emitted(args, kwargs, _):
        counts["cli.output_bytes"] += len(_arg(args, kwargs, 0, "text").encode("utf-8"))

    def fibre_tag(args, kwargs):
        return _arg(args, kwargs, 1, "fibre")

    return {
        "indexsets.check_counts": {"after": minkowski},
        **{name: {"after": built} for name in BUILDERS},
        "fibrealg.FibreContext.__init__": {"after": context},
        "fibrealg.reduce_normal_form": {"prepare": count_rounds},
        "verify.fraction_free_echelon": {"after": echelon},
        "verify.kernel_oracle": {"after": oracle, "tag": fibre_tag},
        "cli._emit": {"after": emitted},
    }


def install(tracer: Tracer) -> None:
    """Patch every target in every loaded canideal module."""
    hooks = _hooks(tracer)
    modules = [m for n, m in sorted(sys.modules.items()) if n == "canideal" or n.startswith("canideal.")]
    for name, mod_name, attr, cls_name in TARGETS:
        module = sys.modules["canideal." + mod_name]
        if cls_name is not None:
            cls = getattr(module, cls_name)
            setattr(cls, attr, tracer.wrap(name, cls.__dict__[attr], **hooks.get(name, {})))
            continue
        original = getattr(module, attr)
        wrapped = tracer.wrap(name, original, **hooks.get(name, {}))
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


def self_times(tracer: Tracer) -> list[float]:
    """Self time of every span: duration minus the durations of its children."""
    spans = tracer.spans
    child = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child[span[3]] += span[2] - span[1]
    return [span[2] - span[1] - child[i] for i, span in enumerate(spans)]


def oracle_phases(tracer: Tracer) -> dict:
    """Inclusive phase times of every kernel-oracle call.

    kernel_oracle_s.<fibre> is the whole call, retried attempts included.
    The call splits at its kernel_basis child into matrix build (context,
    images, matrix assembly), kernel basis, and span check (generator
    vectors, membership in the kernel and the two rank computations).
    """
    out = dict.fromkeys(PHASES, 0.0)
    names = tracer.names
    basis_of: dict[int, list] = {}
    for span in tracer.spans:
        if names[span[0]] == "verify.kernel_basis" and span[3] >= 0:
            basis_of.setdefault(span[3], span)
    for idx, (nid, start, end, _, _, fibre, _) in enumerate(tracer.spans):
        if names[nid] != "verify.kernel_oracle":
            continue
        total = "verify.kernel_oracle_s." + fibre
        if total in out:
            out[total] += end - start
        basis = basis_of.get(idx)
        if basis is None:  # raised before the kernel basis
            out["verify.oracle_matrix_build_s"] += end - start
            continue
        out["verify.oracle_matrix_build_s"] += basis[1] - start
        out["verify.kernel_basis_s"] += basis[2] - basis[1]
        out["verify.span_check_s"] += end - basis[2]
    return out


def layer_metrics(tracer: Tracer) -> dict:
    """Every per-layer metric of one traced pass, except the tracing overhead."""
    names = tracer.names
    selfs = self_times(tracer)
    by_name_self: dict[str, float] = defaultdict(float)
    by_name_calls: Counter = Counter()
    retries = 0
    for span, s in zip(tracer.spans, selfs):
        name = names[span[0]]
        by_name_self[name] += s
        by_name_calls[name] += 1
        if name == "verify.kernel_oracle" and span[6] == "DegenerateSpecialization":
            retries += 1
    out: dict[str, float] = {}
    for metric, span_names in SELF_TIMES.items():
        out[metric] = sum(by_name_self[n] for n in span_names)
    for metric, span_name in CALLS.items():
        out[metric] = by_name_calls[span_name]
    for metric in COUNTS:
        out[metric] = tracer.counts[metric]
    out["verify.oracle_retries"] = retries
    out.update(oracle_phases(tracer))
    phi = out["fibrealg.phi_image_calls"]
    out["fibrealg.image_hit_ratio"] = 1.0 - out["fibrealg.normal_forms"] / phi if phi else 0.0
    out["bench.self_time_total_s"] = sum(selfs)
    return out
