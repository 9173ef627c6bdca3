import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import canideal
import canideal.cli as cli
import canideal.indexsets as indexsets
from canideal.cli import main
from canideal.family import validate_params
from canideal.generators import (
    binomial_generators,
    generators_document,
    generic_generators,
    relative_generators,
    special_generators,
)


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
]


@pytest.mark.parametrize("triple,fibre,extra,digest", GENERATOR_DIGESTS)
def test_generators_export_bytes_are_pinned(capsys, triple, fibre, extra, digest):
    p, q, ell = map(str, triple)
    code, out, _ = run(capsys, "generators", "-p", p, "-q", q, "-l", ell, "--fibre", fibre, *extra)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


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


def test_corrupt_one_fails_through_the_class_memo(capsys):
    # the relative trinomials of (5,3,2) share two shift classes; the
    # corrupted copy has its own key, so its verdict is computed, not reused
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


def test_one_parser_serves_every_call_in_a_process(capsys, monkeypatch):
    # the parser is built once per process; a usage error or --help must not
    # leave it changed for the next call
    monkeypatch.setenv("COLUMNS", "80")
    assert cli.build_parser() is cli.build_parser()
    argvs = [["sweep", "--p-set", "3", "--bogus"], ["--help"], ["sweep", "--p-set", "3,5", "--q-set", "1,2"]]
    got = [run(capsys, *argv)[:2] for argv in argvs]
    assert [code for code, _ in got] == [2, 0, 0]
    env = {**os.environ, "PYTHONPATH": str(Path(canideal.__file__).resolve().parents[1])}
    for argv, (code, out) in zip(argvs, got):
        fresh = subprocess.run(
            [sys.executable, "-m", "canideal.cli", *argv], capture_output=True, text=True, env=env, timeout=60
        )
        assert (fresh.returncode, fresh.stdout) == (code, out)


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
