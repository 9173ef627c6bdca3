"""canideal benchmark: end-to-end metrics, correctness gate and layer tracing.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {oracle,membership,counting} \
        --seed N --seconds S --trace {0,1}

The package is imported from the checkout's `src/`; nothing is installed.
Every operation's exit code and stdout are compared byte for byte against
the seed commit's recorded outputs (perfbench/expected/).

--trace 0 measures `setup_s` (median of several cold interpreter starts
through `import canideal`), then runs whole passes of the workload, each in a
fresh process, while the next pass is expected to end within --seconds (at
least one pass), and reports the median over passes of `wall_s`,
`triples_per_s` and `peak_rss_mb`.

`setup_s`, `wall_s` and `triples_per_s` are given at reference speed
(calib.py): every cold start is bracketed by the reference loop, and each
pass runs the loop in short bursts throughout its operations, so that the
drift of a shared host's speed cancels while a slower program still reads
slower.  The measured seconds and the loop times are kept in the record.

--trace 1 runs one untraced and one traced pass and reports the per-layer
metrics of the traced pass plus `bench.tracing_overhead_s`, the traced minus
the untraced `wall_s`; its times are at reference speed as well.  Both
passes must emit the recorded bytes.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; `failed / attempted` is the benchmark's
`failed_ratio`.  The line before it holds the run metadata.  A readable
summary goes to stderr and a full record to `.perfbench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

sys.path.insert(0, HERE)
import calib  # noqa: E402
import spans  # noqa: E402
from workloads import PUBLIC, WORKLOADS, triples, with_seed  # noqa: E402

SETUP_STARTS = 15
# reference-loop rounds around each cold start (about 0.1 s)
SETUP_LOOP_ROUNDS = 40
# a run must end within 180 s whatever the program does
RUN_LIMIT_S = 170
SETUP_CODE = (
    "import sys, canideal\n"
    "sys.stdout.write(canideal.__file__ + '\\n')\n"
    "sys.stdout.flush()\n"
)
SEED_LINE = '\n  "seed": {},\n'


class HarnessError(Exception):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    # fixed string hashing, so set iteration orders and thus timings do not
    # vary between runs; the outputs are deterministic either way
    env["PYTHONHASHSEED"] = "0"
    return env


def check_package(path: str) -> None:
    if not os.path.abspath(path).startswith(SRC + os.sep):
        raise HarnessError(f"imported canideal from {path}, not from {SRC}")


def cold_start(env: dict) -> float:
    """Seconds from spawning an interpreter until `import canideal` returned."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", SETUP_CODE], stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait()
    if code != 0 or not line:
        raise HarnessError("cold start failed to import canideal")
    check_package(line.strip())
    return elapsed


def setup_seconds(env: dict) -> tuple[float, list[float]]:
    """Median cold start at reference speed, and the measured starts."""
    cold_start(env)  # untimed: leaves the bytecode cache written
    calib.loop_seconds(5)  # warm-up
    loops = [calib.loop_seconds(SETUP_LOOP_ROUNDS)]
    starts = []
    for _ in range(SETUP_STARTS):
        starts.append(cold_start(env))
        loops.append(calib.loop_seconds(SETUP_LOOP_ROUNDS))
    scaled = [calib.to_reference(s, (a + b) / 2) for s, a, b in zip(starts, loops, loops[1:])]
    return statistics.median(scaled), starts


def run_pass(
    ops: list[list[str]], env: dict, trace: bool, timeout: float, spans_out: str | None = None
) -> dict:
    """One pass of the workload in a fresh interpreter; returns its report."""
    job = json.dumps({"ops": ops, "trace": trace, "spans_out": spans_out})
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), job],
            capture_output=True,
            cwd=ROOT,
            env=env,
            text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"workload pass did not end within {RUN_LIMIT_S} s of the run's start") from exc
    if proc.returncode != 0:
        raise HarnessError(f"workload pass exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    report = json.loads(proc.stdout.splitlines()[-1])
    check_package(report["package"])
    return report


def load_expected(workload: str) -> list[dict]:
    path = os.path.join(HERE, "expected", workload + ".json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["ops"]


def expected_stdout(template: str, seed: int) -> str:
    """The recorded output (made with --seed 0) rendered for another seed."""
    if template.count(SEED_LINE.format(0)) != 1:
        return template
    return template.replace(SEED_LINE.format(0), SEED_LINE.format(seed))


def gate(outcomes: list[dict], expected: list[dict], seed: int) -> list[str]:
    """One message per operation that raised, or whose exit code or stdout
    differ from the record."""
    problems = []
    for got, want in zip(outcomes, expected, strict=True):
        label = " ".join(got["argv"])
        if got["argv"] != with_seed(want["argv"], seed):
            problems.append(f"{label}: not the recorded operation {want['argv']}")
        elif got["error"] is not None:
            problems.append(f"{label}: raised\n{got['error']}")
        elif got["code"] != want["code"]:
            problems.append(f"{label}: exit {got['code']}, recorded {want['code']}")
        elif got["stdout"] != expected_stdout(want["stdout"], seed):
            problems.append(f"{label}: stdout differs from the recorded bytes")
    return problems


def metadata() -> dict:
    """Run metadata; none of it is a metric."""
    lines, digest = 0, hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    data = fh.read()
                lines += data.count(b"\n")
                digest.update(os.path.relpath(os.path.join(dirpath, name), SRC).encode() + b"\0" + data)
    return {
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
    }


def git_sha() -> str | None:
    """HEAD commit read from the checkout's own .git, if it has one."""
    git_dir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git_dir, *ref.split("/"))
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git_dir, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "triples_per_s": "1/s", "peak_rss_mb": "MB"}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run the workload and return the result object (plus a record)."""
    if not os.path.isfile(os.path.join(SRC, "canideal", "__init__.py")):
        raise HarnessError(f"no canideal package under {SRC}")
    expected = load_expected(workload)
    ops = [with_seed(argv, seed) for argv in WORKLOADS[workload]]
    if len(ops) != len(expected):
        raise HarnessError(f"{workload}: {len(ops)} operations defined, {len(expected)} recorded")
    n_triples = sum(triples(argv) for argv in ops)
    env = child_env()
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    started = time.perf_counter()
    deadline = started + seconds

    def remaining() -> float:
        return RUN_LIMIT_S - (time.perf_counter() - started)

    starts = None
    if trace:
        untraced = run_pass(ops, env, False, remaining())
        traced = run_pass(ops, env, True, remaining(), os.path.join(OUT_DIR, f"spans-{tag}.json"))
        passes = [untraced, traced]
        values = dict(traced["layers"])
        values["bench.tracing_overhead_s"] = traced["ref_wall_s"] - untraced["ref_wall_s"]
        metrics = {name: {"value": v, "unit": spans.unit(name)} for name, v in values.items()}
    else:
        setup, starts = setup_seconds(env)
        passes = []
        last = 0.0
        while not passes or time.perf_counter() + last <= deadline:
            begun = time.perf_counter()
            passes.append(run_pass(ops, env, False, remaining()))
            last = time.perf_counter() - begun
        walls = [p["ref_wall_s"] for p in passes]
        values = {
            "setup_s": setup,
            "wall_s": statistics.median(walls),
            "triples_per_s": statistics.median(n_triples / w for w in walls),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}

    problems = [msg for p in passes for msg in gate(p["outcomes"], expected, seed)]
    result = {
        "correct": not problems,
        "attempted": len(passes) * len(ops),
        "failed": len(problems),
        "metrics": metrics,
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "meta": metadata(),
        "triples_per_pass": n_triples,
        "setup_starts_s": starts,
        "passes": [
            {
                "wall_s": p["wall_s"],
                "ref_wall_s": p["ref_wall_s"],
                "loop_s": p["loop_s"],
                "peak_rss_mb": p["peak_rss_mb"],
                "op_seconds": [o["seconds"] for o in p["outcomes"]],
            }
            for p in passes
        ],
        "problems": problems,
        "elapsed_s": time.perf_counter() - started,
        "result": result,
    }
    with open(os.path.join(OUT_DIR, f"run-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    return record


def summary(record: dict) -> str:
    result = record["result"]
    lines = [f"workload {record['workload']}  seed {record['seed']}  passes {len(record['passes'])}"]
    for name, m in result["metrics"].items():
        lines.append(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    if not record["trace"]:
        measured = statistics.median(p["wall_s"] for p in record["passes"])
        lines.append(f"  {'measured wall_s (not rescaled)':40s} {measured:.6g} s")
    ratio = result["failed"] / result["attempted"]
    lines.append(f"  {'failed_ratio':40s} {ratio:.6g} ratio ({result['failed']}/{result['attempted']})")
    lines += [f"  FAILED {p}" for p in record["problems"]]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=PUBLIC)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (HarnessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(summary(record), file=sys.stderr)
    print(json.dumps({"meta": record["meta"]}, sort_keys=True))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
