import ast
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import canideal
import canideal.cli as cli
import canideal.indexsets as indexsets
from canideal.cli import main
from canideal.exactalg import SparsePoly, multiply_out
from canideal.family import deformation_symbols, validate_params
from canideal.generators import (
    binomial_generators,
    generators_document,
    generic_generators,
    relative_generators,
    special_generators,
    trinomial_slots,
)
from canideal.verify import certify


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_info_structured(capsys):
    code, out, _ = run(capsys, "info", "-p", "5", "-q", "2", "-l", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["genus"] == 16
    assert doc["counts"]["minkowski_size"] == 49
    assert doc["counts"]["anchor_sizes"][0] == 4


def test_info_rejects_composite(capsys):
    code, _, err = run(capsys, "info", "-p", "4", "-q", "2", "-l", "1")
    assert code == 2
    assert "prime" in err


def test_info_table(capsys):
    code, out, _ = run(capsys, "info", "-p", "5", "-q", "2", "-l", "3", "--format", "table")
    assert code == 0
    assert "genus=12" in out
    assert "minkowski sum    : 36" in out


def test_generators_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["generators", "-p", "5", "-q", "2", "-l", "1", "--fibre", "relative"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    assert doc["count"] == 87 + 4


def test_generators_p3_generic(capsys):
    code, out, _ = run(capsys, "generators", "-p", "3", "-q", "2", "-l", "1", "--fibre", "generic")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 1
    provs = [g["provenance"] for g in doc["generators"]]
    assert provs == ["binomial"]


@pytest.mark.parametrize("fibre", ["generic", "special", "relative"])
@pytest.mark.parametrize("all_pairs", [False, True])
@pytest.mark.parametrize("tie_break", ["default", "alt"])
def test_generators_bytes_are_binomials_then_family(capsys, fibre, all_pairs, tie_break):
    # the CLI's single family builder gives the bytes of the explicit
    # concatenation of the binomials and the fibre's trinomial family
    params = validate_params(5, 2, 1)
    argv = ["generators", "-p", "5", "-q", "2", "-l", "1", "--fibre", fibre, "--tie-break", tie_break]
    code, out, _ = run(capsys, *(argv + (["--all-pairs"] if all_pairs else [])))
    assert code == 0
    family = {"generic": generic_generators, "special": special_generators, "relative": relative_generators}[fibre]
    gens = binomial_generators(params, all_pairs=all_pairs, tie_break=tie_break) + family(params, tie_break=tie_break)
    doc = generators_document(params, gens, fibre, tie_break)
    assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"


# sha256 of `canideal generators` stdout: the export bytes are fixed, however
# the generators and the fibre relations are derived from the slot tables
GENERATOR_DIGESTS = [
    ((3, 2, 1), "generic", (), "58592075956894b96d9277c9c8a05d1593481e53bcc5e658a8c5c84e39d03811"),
    ((3, 2, 1), "special", (), "aec8550c78bba7a6f9519805ab9f636da1a1c5d763c255c67df21d1cfa9c27df"),
    ((3, 2, 1), "relative", (), "acb94c08dc1a63bba34643fdf193c19f23b25409df935a37a45300ef9fd2acf9"),
    ((5, 2, 1), "generic", (), "e5c5be36b91dfd3118973561c11da2a809283a85ef12a7b1cfc6c193da9c2172"),
    ((5, 2, 1), "special", (), "72ece0bf0f0dd2f6eb0c2ba8c74470bd3c2321b29d4ef5aba1da57af23896555"),
    ((5, 2, 1), "relative", (), "7db7a0a1581d380f754c405a11cff85ad179979eb7779a39ff010377b49b4a32"),
    ((5, 2, 4), "generic", (), "a4d61856c09bfb59270f72d606dedafc492b1dccf8de32d57dd97b78618cc345"),
    ((5, 2, 4), "special", (), "2a7128ec908e96833581ce05ce10630602cc90bc4398b7392b9cb96e56c1b7dd"),
    ((5, 2, 4), "relative", (), "4199bf52248fb754a277933ffc0bb87384134de440eaf51ef4619453b28484b1"),
    ((7, 2, 5), "generic", (), "2bd8acd0042ab357e86eac1ccac9756a14319b8a12d7545649b18663e7f74ee9"),
    ((7, 2, 5), "special", (), "d9aca1ba56789cbf9bf1875e4cee6bfa9b988ccc7bcf45af84e782d2a8b8347a"),
    ((7, 2, 5), "relative", (), "5090ba5c4054bfb8fbdbf48611321eeae3f40da5075a084b68abb287870a911e"),
    ((5, 2, 1), "relative", ("--all-pairs",), "4abc7f0da422786c2c14e96f1b03435d58673b69ebea14d1972fd3f48e84ad12"),
    ((5, 2, 4), "generic", ("--tie-break", "alt"), "2e4f5daf8251c0b472a6e9b76e3e7cca9b926bf78118c289c9f218b142b87eaf"),
    ((7, 2, 1), "relative", ("--tie-break", "alt"), "a0c50b6b46f280e0cf3275367b9f1b7594726d5806c4312ef995732076974ff0"),
    ((7, 2, 1), "special", ("--tie-break", "alt"), "19f924764c5d3e03711e00877c5ca333c9b67be6e627cfa413db7bd3f170ee5c"),
    # the merged (ell, p) slot of the generic fibre at ell = 1, under alt
    ((7, 2, 1), "generic", ("--tie-break", "alt"), "e49ba8ab636ccec1164b8bc4606b91b995b6bd4b871de2a60dfa419786ae07a6"),
    (
        (5, 2, 1),
        "relative",
        ("--all-pairs", "--tie-break", "alt"),
        "40cfeb274220021af32d0e963fcd7bab20dca99fa25ef5c475dd16c5dc76476f",
    ),
]


@pytest.mark.parametrize("triple,fibre,extra,digest", GENERATOR_DIGESTS)
def test_generators_export_bytes_are_pinned(capsys, triple, fibre, extra, digest):
    p, q, ell = map(str, triple)
    code, out, _ = run(capsys, "generators", "-p", p, "-q", q, "-l", ell, "--fibre", fibre, *extra)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# sha256 of `canideal certify --oracle --tie-break alt` stdout: the benchmark's
# recorded workloads run only the default tie-break, so the alternative's
# certificate bytes are pinned here
@pytest.mark.parametrize(
    "triple,digest",
    [
        ((7, 2, 1), "c44ee15895dc672053dfb96697fbf586e0cdf15eeec9514edd6ffca69e13a98d"),
        ((5, 4, 1), "41e96822c43380459b0bdfcfdfde04d7cef85a8bd6e86863cb142e96fcb0eca0"),
    ],
)
def test_certify_oracle_alt_tie_break_bytes_are_pinned(capsys, triple, digest):
    p, q, ell = map(str, triple)
    code, out, _ = run(capsys, "certify", "-p", p, "-q", q, "-l", ell, "--oracle", "--tie-break", "alt")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_certify_corrupt_one_alt_tie_break_bytes_are_pinned(capsys):
    # the control adds 1 to the last slot of the relative layout, the last
    # term of the first generator, so these bytes depend on that term order
    code, out, _ = run(
        capsys, "certify", "-p", "5", "-q", "2", "-l", "1", "--oracle", "--corrupt-one", "--tie-break", "alt"
    )
    assert code == 1
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "210d9494beb70861dbff7a08e5faa9951749664d675814c8251831cf09671922"
    )


def test_certify_fails_on_a_relative_slot_with_an_int_term(capsys, monkeypatch):
    # the int 1 added to a relative slot coefficient with no constant term:
    # certify reports FAIL with exit 1, not a traceback from the lam-reduction
    real = cli.validate_params

    def planted(p, q, ell):
        params = real(p, q, ell)
        slots = trinomial_slots(params, "relative")
        syms = deformation_symbols(params)
        s = next(s for s, (_, _, c) in enumerate(slots) if not multiply_out(c, syms).constant_value())
        dr, dt, c = slots[s]
        table = slots[:s] + ((dr, dt, c + ((1, SparsePoly.constant(syms, 1)),)),) + slots[s + 1 :]
        params.memo[(trinomial_slots.__wrapped__, "relative")] = table
        return params

    monkeypatch.setattr(cli, "validate_params", planted)
    code, out, _ = run(capsys, "certify", "-p", "5", "-q", "2", "-l", "1")
    assert code == 1
    doc = json.loads(out)
    assert doc["overall"] == "FAIL"
    assert doc["verdicts"]["relation_consistency"] is False
    assert doc["verdicts"]["reduction_compatibility"] is False


def test_generators_io_failure(tmp_path):
    code = main(
        [
            "generators",
            "-p",
            "3",
            "-q",
            "2",
            "-l",
            "1",
            "--out",
            str(tmp_path / "missing" / "file.json"),
        ]
    )
    assert code == 3


def test_certify_pass(capsys):
    code, out, _ = run(capsys, "certify", "-p", "5", "-q", "2", "-l", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["overall"] == "PASS"
    assert doc["counts"]["outside_zero"] == 45


def test_certify_caveat(capsys):
    code, out, err = run(capsys, "certify", "-p", "3", "-q", "2", "-l", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["overall"] == "PASS-WITH-CAVEAT"
    assert "warning" in err


def test_certify_corrupt_one(capsys):
    code, out, _ = run(capsys, "certify", "-p", "5", "-q", "2", "-l", "1", "--corrupt-one")
    assert code == 1
    assert json.loads(out)["overall"] == "FAIL"


@pytest.mark.parametrize("triple, expected", [((3, 2, 2), 2), ((5, 1, 3), 2), ((5, 1, 2), 1)])
def test_corrupt_one_exits_2_when_there_is_nothing_to_corrupt(capsys, triple, expected):
    # (3,2,2) and (5,1,3) have no relative generator and no binomial: the
    # control would corrupt nothing, so it is a usage error, not a pass
    p, q, ell = map(str, triple)
    code, out, err = run(capsys, "certify", "-p", p, "-q", q, "-l", ell, "--corrupt-one")
    assert code == expected
    if expected == 2:
        assert out == ""
        assert f"(p,q,ell)=({p},{q},{ell})" in err
        assert run(capsys, "certify", "-p", p, "-q", q, "-l", ell)[0] == 0
    else:
        assert json.loads(out)["overall"] == "FAIL"


def test_corrupt_one_with_nothing_to_corrupt_exits_2_under_optimized_mode():
    # python -O strips assert statements; the usage error is raised, not asserted
    env = {**os.environ, "PYTHONPATH": str(Path(canideal.__file__).resolve().parents[1])}
    argv = ["certify", "-p", "3", "-q", "2", "-l", "2", "--corrupt-one"]
    done = subprocess.run(
        [sys.executable, "-O", "-m", "canideal.cli", *argv], capture_output=True, env=env, timeout=300
    )
    assert done.returncode == 2
    assert done.stdout == b""


def test_readme_library_block_runs_and_its_numbers_hold():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    scope = {}
    exec(block, scope)
    report, crit, oracle = scope["report"], scope["crit"], scope["oracle"]
    assert scope["params"].genus == 16
    assert (report.index_set_size, report.minkowski_size, report.anchor_sizes[0]) == (16, 49, 4)
    assert report.outside_zero == report.bound == 45
    assert crit.standard_monomial_count == 45
    assert oracle.kernel_dim == 91 and oracle.span_matches_kernel
    assert scope["cert"].overall == "PASS"


def test_corrupt_one_fails_through_the_class_memo(capsys):
    # the relative trinomials of (5,3,2) share one (x, V)-shift class; the
    # bumped layout has its own key, so its verdict is computed, not reused
    code, out, _ = run(capsys, "certify", "-p", "5", "-q", "3", "-l", "2")
    assert code == 0
    assert json.loads(out)["verdicts"]["membership_relative"]
    code, out, _ = run(capsys, "certify", "-p", "5", "-q", "3", "-l", "2", "--corrupt-one")
    assert code == 1
    doc = json.loads(out)
    assert doc["overall"] == "FAIL"
    assert not doc["verdicts"]["membership_relative"]


def test_certify_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["certify", "-p", "5", "-q", "2", "-l", "3"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_certify_spec_parse(capsys):
    code, out, _ = run(
        capsys, "certify", "-p", "5", "-q", "2", "-l", "1", "--spec", "x1=1,x2=2"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["specializations"]["requested"] == {"x1": 1, "x2": 2}


def test_certify_bad_spec(capsys):
    code, _, err = run(capsys, "certify", "-p", "5", "-q", "2", "-l", "1", "--spec", "x1=oops")
    assert code == 2
    assert "bad specialization" in err


@pytest.mark.parametrize(
    "triple, spec",
    [
        (("5", "1", "2"), "x1=1"),  # (5,1,2) has no deformation symbols
        (("5", "2", "1"), "x1=1,x1=2"),
    ],
)
def test_certify_spec_must_name_the_symbols_once(capsys, triple, spec):
    p, q, ell = triple
    code, out, err = run(capsys, "certify", "-p", p, "-q", q, "-l", ell, "--spec", spec)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_sweep_table(capsys):
    code, out, _ = run(capsys, "sweep", "--p-set", "3,5", "--q-set", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1 + 2 + 4
    assert all(line.endswith("y") for line in lines[1:])


def test_sweep_structured_single_cell_matches_info(capsys):
    code, out, _ = run(
        capsys, "sweep", "--p-set", "5", "--q-set", "2", "--l-set", "1", "--format", "structured"
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["rows"]) == 1
    code, out, _ = run(capsys, "info", "-p", "5", "-q", "2", "-l", "1")
    info = json.loads(out)
    assert doc["rows"][0] == info["counts"]


def test_sweep_empty(capsys):
    # zero rows would make "all_pass": true vacuous
    code, out, err = run(capsys, "sweep", "--p-set", "", "--q-set", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "--p-set is empty" in err


@pytest.mark.parametrize(
    "option, value",
    [
        ("--p-set", ""),
        ("--p-set", " , "),
        ("--q-set", ""),
        ("--l-set", ""),
        ("--p-set", "3,3"),
        ("--q-set", "1,1"),
        ("--l-set", "1,2,1"),
    ],
)
def test_sweep_rejects_empty_or_repeated_sets(capsys, option, value):
    argv = {"--p-set": "3", "--q-set": "2", "--l-set": "all", "--format": "structured"}
    argv[option] = value
    code, out, err = run(capsys, "sweep", *[x for kv in argv.items() for x in kv])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and option in err


@pytest.mark.parametrize(
    "p_set, q_set, message",
    [
        ("1", "1", "p must be an odd prime"),
        ("0", "1", "p must be an odd prime"),
        ("-3", "1", "p must be an odd prime"),
        ("1", "0", "p must be an odd prime"),
        ("3,1", "2", "p must be an odd prime"),
        ("3", "0", "q must be a positive integer"),
        ("3", "2,-1", "q must be a positive integer"),
    ],
)
@pytest.mark.parametrize("fmt", ["table", "structured"])
def test_sweep_rejects_invalid_p_or_q_before_any_row(capsys, p_set, q_set, message, fmt):
    # with p < 2 the range of ell is empty; the sweep must not pass with no rows
    code, out, err = run(capsys, "sweep", f"--p-set={p_set}", f"--q-set={q_set}", "--format", fmt)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("fmt", ["table", "structured"])
def test_sweep_exits_1_on_a_failing_row_in_every_format(capsys, monkeypatch, fmt):
    real = indexsets.rho_lower_bound
    monkeypatch.setattr(indexsets, "rho_lower_bound", lambda params, T: real(params, T) + 1)
    code, out, _ = run(capsys, "sweep", "--p-set", "5", "--q-set", "2", "--l-set", "3", "--format", fmt)
    assert code == 1
    if fmt == "structured":
        doc = json.loads(out)
        assert doc["all_pass"] is False
        assert not doc["rows"][0]["checks"]["minkowski_closed_matches"]
    else:
        assert out.splitlines()[-1].endswith("N")


def test_sweep_matches_recorded_benchmark_output(capsys):
    # the benchmark's recorded sweep (88 triples), read and left unmodified
    recorded = Path(__file__).resolve().parent.parent / "perfbench" / "expected" / "counting.json"
    ops = json.loads(recorded.read_text(encoding="utf-8"))["ops"]
    assert ops
    for op in ops:
        code, out, _ = run(capsys, *op["argv"])
        assert code == op["code"], op["argv"]
        assert out == op["stdout"], op["argv"]


def test_sweep_bad_l_set(capsys):
    code, out, err = run(capsys, "sweep", "--p-set", "3", "--q-set", "2", "--l-set", "x")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["certify", "-p", "5", "-q", "1", "-l", "2", "--corrupt-one"], 1),
        (["sweep", "--p-set", "3", "--q-set", "2", "--format", "structured"], 0),
    ],
)
def test_optimized_mode_parity(argv, expected):
    # python -O strips assert statements; no verdict may depend on them
    env = {**os.environ, "PYTHONPATH": str(Path(canideal.__file__).resolve().parents[1])}
    runs = [
        subprocess.run(
            [sys.executable, *flags, "-m", "canideal.cli", *argv],
            capture_output=True,
            env=env,
            timeout=300,
        )
        for flags in ([], ["-O"])
    ]
    assert [r.returncode for r in runs] == [expected, expected]
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stdout


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "-p", "7", "-q", "2", "-l", "3", "--oracle"],
        ["generators", "-p", "7", "-q", "2", "-l", "3", "--fibre", "special"],
    ],
    ids=["certify-oracle", "generators-special"],
)
def test_output_does_not_depend_on_the_hash_seed(argv):
    # coefficient dicts, sets and memo keys hash ints, ring elements and
    # polynomials; no output byte may follow the hash seed
    env = {**os.environ, "PYTHONPATH": str(Path(canideal.__file__).resolve().parents[1])}
    runs = [
        subprocess.run(
            [sys.executable, "-m", "canideal.cli", *argv],
            capture_output=True,
            env={**env, "PYTHONHASHSEED": seed},
            timeout=300,
        )
        for seed in ("0", "1")
    ]
    assert [r.returncode for r in runs] == [0, 0]
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stdout


def test_every_call_in_a_process_reads_as_in_a_fresh_one(capsys, monkeypatch):
    # a usage error or --help must leave nothing changed for the next call,
    # and every call reads as it does in a fresh process; each call starts
    # with argparse unloaded, and only the calls argparse reads load it
    monkeypatch.setenv("COLUMNS", "80")
    bogus = ["certify", "-p", "3", "-q", "2", "-l", "1", "--bogus"]
    argvs = [
        ["sweep", "--p-set", "3", "--bogus"],
        ["--help"],
        ["sweep", "--p-set", "3,5", "--q-set", "1,2"],
        *([name, "--help"] for name in cli.COMMANDS),
        ["bogus"],
        [],
        bogus,
        bogus[:-1],
        bogus,
        # forms the table reader leaves to argparse, which reads them
        ["certify", "-p", "3", "-q", "2", "--ell=1"],
        ["certify", "-p", "-3", "-q", "2", "-l", "1"],
    ]
    got, loaded = [], []
    for argv in argvs:
        monkeypatch.delitem(sys.modules, "argparse", raising=False)
        got.append(run(capsys, *argv))
        loaded.append("argparse" in sys.modules)
    assert [code for code, _, _ in got] == [2, 0, 0, 0, 0, 0, 0, 2, 2, 2, 0, 2, 0, 2]
    assert [i for i, hit in enumerate(loaded) if not hit] == [2, 10]
    assert all(out for code, out, _ in got if code == 0)
    env = {**os.environ, "PYTHONPATH": str(Path(canideal.__file__).resolve().parents[1])}
    for argv, (code, out, err) in zip(argvs, got):
        fresh = subprocess.run(
            [sys.executable, "-m", "canideal.cli", *argv], capture_output=True, text=True, env=env, timeout=60
        )
        assert (fresh.returncode, fresh.stdout, fresh.stderr) == (code, out, err), argv


def test_an_unknown_option_reports_the_command_usage(capsys):
    # the invoked command's own parser reports it: stdout stays empty and
    # the exit code is 2, as with every usage error
    code, out, err = run(capsys, "certify", "-p", "3", "-q", "2", "-l", "1", "--bogus")
    assert (code, out) == (2, "")
    assert err.startswith("usage: canideal certify [-h] -p P -q Q -l ELL")
    assert err.endswith("canideal certify: error: unrecognized arguments: --bogus\n")
    code, out, err = run(capsys, "bogus")
    assert (code, out) == (2, "")
    assert err.startswith("usage: canideal [-h] {info,generators,certify,sweep} ...")


# every option string of the four commands, forms argparse reads but the
# table reader leaves to it, and values good and bad for int, str and choices
# each command's parser, built once for every example: parse_args leaves it unchanged
_PARSERS = {name: cli.build_parser(name) for name in cli.COMMANDS}
_FLAGS = sorted({flag for _, options, _ in cli.COMMANDS.values() for option in options for flag in option[0]})
_OTHER_TOKENS = ["--orac", "--tie", "--ell=1", "-p5", "--", "-", "-h"]
_VALUES = ["1", "5", "-3", "+5", " 5", "0x5", "", "alt", "nope", "x1=1", "table", "special", "3,5", "-", "--", "-h", "--out"]
_PIECE = st.one_of(
    st.tuples(st.sampled_from(_FLAGS), st.sampled_from(_VALUES)),
    st.tuples(st.sampled_from(_FLAGS + _OTHER_TOKENS)),
    st.tuples(st.sampled_from(_VALUES)),
)


def _own_piece(option):
    """One of the command's own options, with a value from its choices or
    one that int() reads, so that many argvs are well formed."""
    flags, _, kind, _, choices, _, _ = option
    if kind is bool:
        return st.tuples(st.sampled_from(flags))
    values = choices or (["1", "+5", " 5"] if kind is int else ["x1=1", "3,5", ""])
    return st.tuples(st.sampled_from(flags), st.sampled_from(values))


@settings(max_examples=200, deadline=None)
@given(command=st.sampled_from(sorted(cli.COMMANDS)), data=st.data())
def test_the_table_reader_reads_every_argv_it_accepts_as_argparse_does(command, data):
    # whenever _parse returns a namespace, argparse reads the same one
    # without exiting; so whenever argparse exits, _parse returned None
    options = cli.COMMANDS[command][1]
    own = st.sampled_from(options).flatmap(_own_piece)
    pieces = data.draw(st.lists(own, max_size=5)) + data.draw(st.lists(_PIECE, max_size=2))
    if data.draw(st.integers(0, 3)):
        pieces += [(flags[0], "5") for flags, _, _, _, _, required, _ in options if required]
    argv = [token for piece in data.draw(st.permutations(pieces)) for token in piece]
    ours = cli._parse(command, argv)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            theirs = vars(_PARSERS[command].parse_args(argv))
    except SystemExit:
        theirs = None
    if ours is not None:
        # with each value's type: True == 1, but argparse stores True
        assert {k: (type(v), v) for k, v in vars(ours).items()} == {k: (type(v), v) for k, v in theirs.items()}, argv


def test_import_builds_no_parser():
    # parsers are built by the call that needs one, never at import, and a
    # well-formed call of any command neither imports argparse nor builds
    # one; a usage error builds its own command's parser alone
    env = {**os.environ, "PYTHONPATH": str(Path(canideal.__file__).resolve().parents[1])}
    params = ["-p", "5", "-q", "2", "-l", "1"]
    calls = [
        ["info", *params, "--format", "table"],
        ["generators", *params, "--fibre", "special", "--all-pairs"],
        ["certify", *params, "--oracle", "--seed", "3", "--spec", "x1=1,x2=2", "-p", "5"],
        ["sweep", "--p-set", "3", "--q-set", "1,2", "--format", "structured"],
        ["certify", *params, "--bogus"],
        ["certify", "-p", "3", "-q", "2"],
    ]
    probe = "\n".join(
        [
            "import contextlib, io, sys",
            "import canideal.cli as cli",
            "built, real = [], cli.build_parser",
            "cli.build_parser = lambda command=None: built.append(command) or real(command)",
            "print(None, 'argparse' in sys.modules, built)",
            "for argv in %r:" % calls,
            "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):",
            "        code = cli.main(argv)",
            "    print(code, 'argparse' in sys.modules, built)",
        ]
    )
    fresh = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60)
    assert fresh.returncode == 0, fresh.stderr
    assert fresh.stdout.splitlines() == [
        "None False []",
        *["0 False []"] * 4,
        "2 True ['certify']",
        "2 True ['certify', 'certify']",
    ]


def _dumps(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_json_writer_keeps_every_recorded_output():
    # every JSON stdout the benchmark recorded, read and left unmodified
    recorded = sorted((Path(__file__).resolve().parent.parent / "perfbench" / "expected").glob("*.json"))
    outs = [op["stdout"] for path in recorded for op in json.loads(path.read_text(encoding="utf-8"))["ops"]]
    assert recorded and outs
    for out in outs:
        assert cli._json(json.loads(out)) == out


@pytest.mark.parametrize("triple", [(3, 2, 1), (5, 2, 1), (7, 1, 5), (5, 1, 2)])
def test_json_writer_matches_json_dumps_on_every_document(triple):
    # the documents as the commands build them, before any JSON round
    # trip: info's counts, a generator export, certificates with the
    # oracle, the corrupted control and --timings' floats, and a sweep
    params = validate_params(*triple)
    report = indexsets.check_counts(params)
    docs = [
        report.to_dict(),
        {"schema": "canideal.sweep/1", "rows": [report.to_dict()], "all_pass": report.all_pass},
        generators_document(params, binomial_generators(params) + relative_generators(params), "relative", "default"),
    ]
    for oracle in (False, True):
        for corrupt_one in (False, True):
            cert = certify(params, oracle=oracle, corrupt_one=corrupt_one)
            docs += [cert.to_dict(), cert.to_dict(include_timings=True)]
    assert any(type(v) is float for doc in docs for v in doc.get("timings", {}).values())
    for doc in docs:
        assert cli._json(doc) == _dumps(doc)


@pytest.mark.parametrize("argv", [["info", "-p", "7", "-q", "3", "-l", "2"], ["sweep", "--p-set", "3,5", "--format", "structured"]])
def test_json_writer_matches_json_dumps_on_the_command_output(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == _dumps(json.loads(out))


_TEXT = st.text(alphabet=st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u00e9\u2028\U0001f600'), st.characters()))
_SCALAR = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), _TEXT)
_VALUE = st.recursive(
    _SCALAR,
    lambda children: st.one_of(
        st.lists(children),
        st.lists(children).map(tuple),
        st.dictionaries(_TEXT, children),
        st.dictionaries(st.integers(), children),
        st.lists(st.booleans()),
        st.lists(st.integers()),
        st.lists(_TEXT),
    ),
    max_leaves=12,
)


@settings(max_examples=100, deadline=None)
@given(_VALUE)
def test_json_writer_matches_json_dumps_on_any_value(doc):
    # nested dicts and lists, empty ones included, lists of one scalar type
    # (the joined path), non-ASCII, quote and control-character strings,
    # ints, bools, None, floats and int keys
    assert cli._json(doc) == _dumps(doc)


def test_usage_error(capsys):
    assert main(["info", "-p", "5"]) == 2


def test_certify_with_oracle(capsys):
    code, out, _ = run(capsys, "certify", "-p", "5", "-q", "2", "-l", "1", "--oracle")
    assert code == 0
    doc = json.loads(out)
    assert doc["overall"] == "PASS"
    assert doc["oracles"]["generic"]["kernel_dim"] == 91
    assert doc["oracles"]["special"]["kernel_dim"] == 91
    assert doc["verdicts"]["oracle_generic"] and doc["verdicts"]["oracle_special"]


def test_no_check_rests_on_assert():
    # python -O strips assert statements, so no check of the package may be one
    sources = sorted(Path(canideal.__file__).resolve().parent.glob("*.py"))
    assert sources
    asserts = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []
