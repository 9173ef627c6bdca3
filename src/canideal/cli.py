"""Command-line surface: info, generators, certify, sweep.

Exit codes: 0 success, 1 mathematical failure, 2 usage or invalid parameters,
3 I/O failure.  All outputs are deterministic for a fixed configuration.

A runner (`COMMANDS`) returns its document, whether it passed and the notes
to warn of; `main` alone formats the document (`_json`, or the `_TABLES` lines
read from it), writes it (`_emit`), then warns once per note and maps the
outcome to 0 or 1; a failed write exits 3 at once, with no warning.

Each command's options are one table (`COMMANDS`), and both readers of an
argv read it, so they cannot drift.  A well-formed argv takes the strict
reader `_parse`: every token is one of the command's own option strings,
spelled in full, and each option that takes a value is followed by a token
that does not start with "-", passes the option's int() if it is an int and
lies in its choices if it has any; a repeated option keeps its last value, and
every required option is given.  Such an argv means the same to argparse, and
its call imports no argparse and builds no parser, which costs more than most
certificates: argparse and the gettext and locale modules it loads take
milliseconds to import and to build.  Every other argv goes to argparse, which
stays the one authority for help, usage and errors: -h, --opt=value, -p5, an
abbreviation, a negative number, "--", an unknown token, a bad int or choice,
a missing option.  Deferring is always safe, so `_parse` imitates no error.
`build_parser` makes each command's parser from the same table, one
add_argument call per row (`canideal <command>`, so its usage and errors name
the command), once per call that needs it; the top-level parser knows the
command names and their help alone and is built only for an empty argv,
`--help` or an unknown command.

The JSON writer `_json` exists for speed and must keep every byte: it returns
exactly `json.dumps(doc, indent=2, sort_keys=True) + "\n"`.  `indent=` makes
`json` take its pure-Python encoder, which writes a large certificate's
memberships list one value at a time; `_json` writes the same layout with
strings through the C `encode_basestring_ascii`, a list of like scalars as
one join, and any value it does not know, a float from `--timings` say,
through `json.dumps` of that value alone.
"""

from __future__ import annotations

import json
import sys
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace

from .errors import CanidealError
from .family import validate_p_q, validate_params
from .generators import GENERIC, RELATIVE, SPECIAL, fibre_generators, generators_document
from .indexsets import MinkowskiPoint, check_counts
from .termorder import TIE_BREAK_DEFAULT, TIE_BREAKS
from .verify import certify

EXIT_OK = 0
EXIT_MATH_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3


def _option(*flags, kind=str, default=None, choices=None, required=False, help=None):
    """One row of an option table: (flags, dest, kind, default, choices,
    required, help).  kind is int, str or bool, a store_true flag; dest is
    argparse's own, the long flag's name, which the table lists last."""
    dest = flags[-1].lstrip("-").replace("-", "_")
    return flags, dest, kind, False if kind is bool else default, choices, required, help


_FORMATS = ("structured", "table")
_PARAM_OPTIONS = (
    _option("-p", kind=int, required=True, help="odd prime p >= 3"),
    _option("-q", kind=int, required=True, help="positive integer q"),
    _option("-l", "--ell", kind=int, required=True, help="1 <= ell <= p-1"),
    _option("--tie-break", choices=TIE_BREAKS, default=TIE_BREAK_DEFAULT),
    _option("--format", choices=_FORMATS, default="structured"),
    _option("--out", help="output path (default: stdout)"),
)
_GENERATORS_OPTIONS = _PARAM_OPTIONS + (
    _option("--fibre", choices=(GENERIC, SPECIAL, RELATIVE), default=RELATIVE),
    _option("--all-pairs", kind=bool, help="emit every binomial pair"),
)
_CERTIFY_OPTIONS = _PARAM_OPTIONS + (
    _option("--oracle", kind=bool, help="also run the kernel oracles"),
    _option("--spec", help='specialization, e.g. "x1=1,x2=2"'),
    _option("--seed", kind=int, default=0, help="seed for degeneracy retries"),
    _option("--timings", kind=bool, help="include timings in the output"),
    _option("--corrupt-one", kind=bool, help="negative control: corrupt one generator"),
)
_SWEEP_OPTIONS = (
    _option("--p-set", default="3,5,7", help="comma list of primes"),
    _option("--q-set", default="1,2,3", help="comma list of q values"),
    _option("--l-set", default="all", help='comma list of ell values or "all"'),
    _option("--format", choices=_FORMATS, default="table"),
    _option("--out"),
)


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


# a list whose values are all of one of these types is one join
_SCALARS = {str: encode_basestring_ascii, int: int.__repr__, bool: ("false", "true").__getitem__}


def _encode(value, pad: str) -> str:
    """`value` as `json.dumps(value, indent=2, sort_keys=True)` writes it,
    nested at the indentation `pad`."""
    kind = type(value)
    if kind in _SCALARS:
        return _SCALARS[kind](value)
    if value is None:
        return "null"
    inner = pad + "  "
    if kind is dict and all(type(key) is str for key in value):
        if not value:
            return "{}"
        items = [f"{encode_basestring_ascii(key)}: {_encode(value[key], inner)}" for key in sorted(value)]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        kinds = set(map(type, value))
        write = _SCALARS.get(kinds.pop()) if len(kinds) == 1 else None
        items = map(write, value) if write else [_encode(item, inner) for item in value]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    # json's own text for anything else, a float or a dict with non-str keys
    # say; its strings escape every newline, so each one is a line break
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + pad)


def _json(doc: dict) -> str:
    """Exactly `json.dumps(doc, indent=2, sort_keys=True) + "\\n"` (module docstring)."""
    return _encode(doc, "") + "\n"


def cmd_info(args):
    params = validate_params(args.p, args.q, args.ell)
    doc = {
        "schema": "canideal.info/1",
        "params": {"p": params.p, "q": params.q, "ell": params.ell, "m": params.m},
        "genus": params.genus,
        "flags": {
            "hyperelliptic_risk": params.hyperelliptic_risk,
            "trigonal_risk": params.trigonal_risk,
            "plane_quintic_risk": params.plane_quintic_risk,
        },
        "counts": check_counts(params).to_dict(),
    }
    return doc, True, ()


def _info_table(doc: dict) -> list[str]:
    params, counts = doc["params"], doc["counts"]
    return [
        f"p={params['p']} q={params['q']} ell={params['ell']} m={params['m']} genus={doc['genus']}",
        f"index set        : {counts['index_set_size']}",
        f"minkowski sum    : {counts['minkowski_size']}",
        f"anchor sizes     : {counts['anchor_sizes']}",
        f"outside zero-set : {counts['outside_zero']} (bound {counts['bound']})",
        f"all checks pass  : {counts['all_pass']}",
    ]


def cmd_generators(args):
    params = validate_params(args.p, args.q, args.ell)
    gens = fibre_generators(params, args.fibre, all_pairs=args.all_pairs, tie_break=args.tie_break)
    return generators_document(params, gens, args.fibre, args.tie_break), True, ()


def _generators_table(doc: dict) -> list[str]:
    # an anchor reads back as the MinkowskiPoint it was written from; null stays None
    return [
        f"{g['provenance']} anchor={g['anchor'] and MinkowskiPoint(*g['anchor'])} terms={len(g['terms'])}"
        for g in doc["generators"]
    ]


def cmd_certify(args):
    params = validate_params(args.p, args.q, args.ell)
    cert = certify(
        params,
        specialization=_parse_spec(args.spec),
        oracle=args.oracle,
        tie_break=args.tie_break,
        seed=args.seed,
        corrupt_one=args.corrupt_one,
    )
    notes = cert.caveats if cert.overall == "PASS-WITH-CAVEAT" else ()
    return cert.to_dict(include_timings=args.timings), cert.overall != "FAIL", notes


def _certify_table(doc: dict) -> list[str]:
    return [f"overall: {doc['overall']}"] + [f"{k:28s}: {v}" for k, v in sorted(doc["verdicts"].items())]


def _parse_int_set(text: str, option: str) -> list[int]:
    """A comma list of distinct ints; an empty or repeating list is a usage
    error, so a sweep never passes vacuously or emits a row twice."""
    out = [int(chunk) for chunk in map(str.strip, text.split(",")) if chunk]
    if not out:
        raise ValueError(f"{option} is empty")
    if len(set(out)) != len(out):
        raise ValueError(f"{option} repeats a value")
    return out


def cmd_sweep(args):
    try:
        p_set = _parse_int_set(args.p_set, "--p-set")
        q_set = _parse_int_set(args.q_set, "--q-set")
        l_set = None if args.l_set == "all" else _parse_int_set(args.l_set, "--l-set")
    except ValueError as exc:
        raise CanidealError(f"bad range: {exc}") from None
    # every (p, q) is checked before ell is enumerated: with p < 2 the range
    # of ell is empty, and no row would reach validate_params
    for p in p_set:
        for q in q_set:
            validate_p_q(p, q)
    # every row is counted before any is serialised: to_dict in this loop ran 2% slower
    reports = [
        check_counts(validate_params(p, q, ell))
        for p in p_set
        for q in q_set
        for ell in (range(1, p) if l_set is None else l_set)
    ]
    rows = [report.to_dict() for report in reports]
    all_pass = all(row["all_pass"] for row in rows)
    return {"schema": "canideal.sweep/1", "rows": rows, "all_pass": all_pass}, all_pass, ()


def _sweep_table(doc: dict) -> list[str]:
    header = f"{'p':>3} {'q':>3} {'ell':>4} {'g':>5} {'|A+A|':>6} {'|C0|':>5} {'diff':>5} {'bound':>6} {'eq':>3} {'ok':>3}"
    return [header] + [
        f"{r['p']:>3} {r['q']:>3} {r['ell']:>4} {r['genus']:>5} {r['minkowski_size']:>6} "
        f"{r['anchor_sizes'][0]:>5} {r['outside_zero']:>5} {r['bound']:>6} "
        f"{'y' if r['checks']['counting_bound_equality'] else 'n':>3} {'y' if r['all_pass'] else 'N':>3}"
        for r in doc["rows"]
    ]


# name: (help, options, runner); a runner returns (document, passed, notes)
COMMANDS = {
    "info": ("parameters, genus, flags and set sizes", _PARAM_OPTIONS, cmd_info),
    "generators": ("export a generator family", _GENERATORS_OPTIONS, cmd_generators),
    "certify": ("run the two-fibre certification", _CERTIFY_OPTIONS, cmd_certify),
    "sweep": ("counting identities over parameter ranges", _SWEEP_OPTIONS, cmd_sweep),
}
# name: the lines of --format table, read from the runner's document
_TABLES = {"info": _info_table, "generators": _generators_table, "certify": _certify_table, "sweep": _sweep_table}


def build_parser(command: str | None = None):
    """The argparse parser of one command, one add_argument call per row of
    its option table, or with None the top-level parser, which holds the
    command names and their help only."""
    import argparse

    if command is not None:
        parser = argparse.ArgumentParser(prog=f"canideal {command}")
        for flags, dest, kind, default, choices, required, help_text in COMMANDS[command][1]:
            kwargs = {"action": "store_true"} if kind is bool else {"type": kind, "choices": choices}
            parser.add_argument(*flags, dest=dest, default=default, required=required, help=help_text, **kwargs)
        return parser
    parser = argparse.ArgumentParser(
        prog="canideal",
        description="Construct and certify degree-2 canonical-ideal generators "
        "for cyclic-cover curve families.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in COMMANDS.items():
        subs.add_parser(name, help=help_text)
    return parser


def _parse(command: str, argv: list[str]) -> SimpleNamespace | None:
    """The options of `argv` as argparse reads them, when `argv` has the
    strict form the module docstring states; otherwise None."""
    options = COMMANDS[command][1]
    by_flag = {flag: option for option in options for flag in option[0]}
    given = {}
    tokens = iter(argv)
    for token in tokens:
        if token not in by_flag:
            return None
        _, dest, kind, _, choices, _, _ = by_flag[token]
        if kind is bool:
            given[dest] = True
            continue
        text = next(tokens, "-")  # no value left reads as a dash: deferred
        if text.startswith("-"):
            return None
        try:
            value = kind(text)
        except ValueError:
            return None
        if choices is not None and value not in choices:
            return None
        given[dest] = value
    if any(required and dest not in given for _, dest, _, _, _, required, _ in options):
        return None
    return SimpleNamespace(**{option[1]: option[3] for option in options} | given)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        if not argv or argv[0] not in COMMANDS:
            # no command first: the top-level parser prints its help or a usage error
            build_parser().parse_args(argv)
            return EXIT_USAGE
        args = _parse(argv[0], argv[1:])
        if args is None:
            # --help, a usage error or a form the table reader leaves to argparse
            args = build_parser(argv[0]).parse_args(argv[1:])
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        doc, passed, notes = COMMANDS[argv[0]][2](args)
        text = "\n".join(_TABLES[argv[0]](doc)) + "\n" if args.format == "table" else _json(doc)
        code = _emit(text, args.out)
    except (CanidealError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, CanidealError) else EXIT_IO
    if code != EXIT_OK:
        return code
    for note in notes:
        print(f"warning: {note}", file=sys.stderr)
    return EXIT_OK if passed else EXIT_MATH_FAIL


if __name__ == "__main__":
    raise SystemExit(main())
