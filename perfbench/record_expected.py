"""Record the outputs the correctness gate compares against.

Usage (from the root of a checkout of the commit whose outputs are the
reference): python3 perfbench/record_expected.py [workload ...]

Runs every operation of the named workloads (default: all) once with
`--seed 0` and once with `--seed 1`, requires the two to differ only in the
certificate's `"seed"` line, and writes each operation's argv, exit code and
stdout to perfbench/expected/<workload>.json.  The files in the repository
were recorded at the seed commit of the benchmark; regenerate them only from
that commit (e.g. a `git archive` of it), never from a later one, or the gate
stops guarding the seed's bytes.
"""

from __future__ import annotations

import json
import os
import sys

import run
from workloads import WORKLOADS, with_seed


def record(workload: str) -> dict:
    env = run.child_env()
    base = WORKLOADS[workload]
    first = run.run_pass([with_seed(a, 0) for a in base], env, False, run.RUN_LIMIT_S)["outcomes"]
    second = run.run_pass([with_seed(a, 1) for a in base], env, False, run.RUN_LIMIT_S)["outcomes"]
    ops = []
    for argv, a, b in zip(base, first, second, strict=True):
        if a["error"] or b["error"]:
            raise SystemExit(f"{argv} raised:\n{a['error'] or b['error']}")
        if (a["code"], run.expected_stdout(a["stdout"], 1)) != (b["code"], b["stdout"]):
            raise SystemExit(f"{argv}: output depends on the seed beyond the seed field")
        ops.append({"argv": argv, "code": a["code"], "stdout": a["stdout"]})
    return {"recorded_at": run.metadata(), "ops": ops}


def main(names) -> int:
    for workload in names or list(WORKLOADS):
        doc = record(workload)
        path = os.path.join(run.HERE, "expected", workload + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{workload}: {len(doc['ops'])} operations -> {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
