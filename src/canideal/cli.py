"""Command-line surface: info, generators, certify, sweep.

Exit codes: 0 success, 1 mathematical failure, 2 usage or invalid parameters,
3 I/O failure.  All outputs are deterministic for a fixed configuration.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import CanidealError
from .family import validate_params
from .generators import (
    GENERIC,
    RELATIVE,
    SPECIAL,
    binomial_generators,
    generators_document,
    generic_generators,
    relative_generators,
    special_generators,
)
from .indexsets import check_counts
from .termorder import TIE_BREAK_DEFAULT, TIE_BREAKS
from .verify import certify

EXIT_OK = 0
EXIT_MATH_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3


def _add_param_args(sub):
    sub.add_argument("-p", type=int, required=True, help="odd prime p >= 3")
    sub.add_argument("-q", type=int, required=True, help="positive integer q")
    sub.add_argument("-l", "--ell", type=int, required=True, help="1 <= ell <= p-1")
    sub.add_argument("--tie-break", choices=TIE_BREAKS, default=TIE_BREAK_DEFAULT)
    sub.add_argument("--format", choices=("structured", "table"), default="structured")
    sub.add_argument("--out", default=None, help="output path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="canideal",
        description="Construct and certify degree-2 canonical-ideal generators "
        "for cyclic-cover curve families.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_info = subs.add_parser("info", help="parameters, genus, flags and set sizes")
    _add_param_args(p_info)

    p_gen = subs.add_parser("generators", help="export a generator family")
    _add_param_args(p_gen)
    p_gen.add_argument("--fibre", choices=(GENERIC, SPECIAL, RELATIVE), default=RELATIVE)
    p_gen.add_argument("--all-pairs", action="store_true", help="emit every binomial pair")

    p_cert = subs.add_parser("certify", help="run the two-fibre certification")
    _add_param_args(p_cert)
    p_cert.add_argument("--oracle", action="store_true", help="also run the kernel oracles")
    p_cert.add_argument("--spec", default=None, help='specialization, e.g. "x1=1,x2=2"')
    p_cert.add_argument("--seed", type=int, default=0, help="seed for degeneracy retries")
    p_cert.add_argument("--timings", action="store_true", help="include timings in the output")
    p_cert.add_argument(
        "--corrupt-one", action="store_true", help="negative control: corrupt one generator"
    )

    p_sweep = subs.add_parser("sweep", help="counting identities over parameter ranges")
    p_sweep.add_argument("--p-set", default="3,5,7", help="comma list of primes")
    p_sweep.add_argument("--q-set", default="1,2,3", help="comma list of q values")
    p_sweep.add_argument("--l-set", default="all", help='comma list of ell values or "all"')
    p_sweep.add_argument("--format", choices=("structured", "table"), default="table")
    p_sweep.add_argument("--out", default=None)
    return parser


def _parse_spec(text: str | None) -> dict | None:
    if text is None:
        return None
    out = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        name, _, value = chunk.partition("=")
        name = name.strip()
        if name in out:
            raise CanidealError(f"bad specialization: {name!r} is assigned twice")
        try:
            out[name] = int(value)
        except ValueError:
            raise CanidealError(f"bad specialization entry {chunk!r}")
    return out


def _emit(text: str, out_path: str | None) -> int:
    if out_path is None:
        sys.stdout.write(text)
        return EXIT_OK
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {out_path}: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def _json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def cmd_info(args) -> int:
    params = validate_params(args.p, args.q, args.ell)
    report = check_counts(params)
    doc = {
        "schema": "canideal.info/1",
        "params": {"p": params.p, "q": params.q, "ell": params.ell, "m": params.m},
        "genus": params.genus,
        "flags": {
            "hyperelliptic_risk": params.hyperelliptic_risk,
            "trigonal_risk": params.trigonal_risk,
            "plane_quintic_risk": params.plane_quintic_risk,
        },
        "counts": report.to_dict(),
    }
    if args.format == "table":
        lines = [
            f"p={params.p} q={params.q} ell={params.ell} m={params.m} genus={params.genus}",
            f"index set        : {report.index_set_size}",
            f"minkowski sum    : {report.minkowski_size}",
            f"anchor sizes     : {list(report.anchor_sizes)}",
            f"outside zero-set : {report.outside_zero} (bound {report.bound})",
            f"all checks pass  : {report.all_pass}",
        ]
        return _emit("\n".join(lines) + "\n", args.out)
    return _emit(_json(doc), args.out)


def cmd_generators(args) -> int:
    params = validate_params(args.p, args.q, args.ell)
    gens = binomial_generators(params, all_pairs=args.all_pairs, tie_break=args.tie_break)
    if args.fibre == GENERIC:
        gens = gens + generic_generators(params, tie_break=args.tie_break)
    elif args.fibre == SPECIAL:
        gens = gens + special_generators(params, tie_break=args.tie_break)
    else:
        gens = gens + relative_generators(params, tie_break=args.tie_break)
    doc = generators_document(params, gens, args.fibre, args.tie_break)
    if args.format == "table":
        lines = [f"{g.provenance} anchor={g.anchor} terms={len(g.terms)}" for g in gens]
        return _emit("\n".join(lines) + "\n", args.out)
    return _emit(_json(doc), args.out)


def cmd_certify(args) -> int:
    params = validate_params(args.p, args.q, args.ell)
    cert = certify(
        params,
        specialization=_parse_spec(args.spec),
        oracle=args.oracle,
        tie_break=args.tie_break,
        seed=args.seed,
        corrupt_one=args.corrupt_one,
    )
    doc = cert.to_dict(include_timings=args.timings)
    if args.format == "table":
        lines = [f"overall: {cert.overall}"]
        lines += [f"{k:28s}: {v}" for k, v in sorted(cert.verdicts.items())]
        text = "\n".join(lines) + "\n"
    else:
        text = _json(doc)
    code = _emit(text, args.out)
    if code != EXIT_OK:
        return code
    if cert.overall == "FAIL":
        return EXIT_MATH_FAIL
    if cert.overall == "PASS-WITH-CAVEAT":
        for note in cert.caveats:
            print(f"warning: {note}", file=sys.stderr)
    return EXIT_OK


def _parse_int_set(text: str) -> list[int]:
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if chunk:
            out.append(int(chunk))
    return out


def cmd_sweep(args) -> int:
    try:
        p_set = _parse_int_set(args.p_set)
        q_set = _parse_int_set(args.q_set)
        l_set = None if args.l_set == "all" else _parse_int_set(args.l_set)
    except ValueError as exc:
        print(f"error: bad range: {exc}", file=sys.stderr)
        return EXIT_USAGE
    rows = []
    all_pass = True
    for p in p_set:
        for q in q_set:
            for ell in range(1, p) if l_set is None else l_set:
                params = validate_params(p, q, ell)
                report = check_counts(params)
                all_pass = all_pass and report.all_pass
                rows.append(report)
    if args.format == "structured":
        doc = {"schema": "canideal.sweep/1", "rows": [r.to_dict() for r in rows], "all_pass": all_pass}
        return _emit(_json(doc), args.out)
    header = f"{'p':>3} {'q':>3} {'ell':>4} {'g':>5} {'|A+A|':>6} {'|C0|':>5} {'diff':>5} {'bound':>6} {'eq':>3} {'ok':>3}"
    lines = [header]
    for r in rows:
        lines.append(
            f"{r.p:>3} {r.q:>3} {r.ell:>4} {r.genus:>5} {r.minkowski_size:>6} "
            f"{r.anchor_sizes[0]:>5} {r.outside_zero:>5} {r.bound:>6} "
            f"{'y' if r.counting_bound_equality else 'n':>3} {'y' if r.all_pass else 'N':>3}"
        )
    code = _emit("\n".join(lines) + "\n", args.out)
    if code != EXIT_OK:
        return code
    return EXIT_OK if all_pass else EXIT_MATH_FAIL


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command == "info":
            return cmd_info(args)
        if args.command == "generators":
            return cmd_generators(args)
        if args.command == "certify":
            return cmd_certify(args)
        if args.command == "sweep":
            return cmd_sweep(args)
    except CanidealError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    parser.error("unknown command")
    return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
