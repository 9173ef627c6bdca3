import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import canideal
from canideal.cli import main


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
    code, out, _ = run(capsys, "sweep", "--p-set", "", "--q-set", "1")
    assert code == 0
    assert len(out.strip().splitlines()) == 1  # header only


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
