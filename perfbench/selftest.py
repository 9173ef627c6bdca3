"""Fast self-test of the benchmark harness on the small triple (3,2,1).

Usage (from the root of a checkout): python3 perfbench/selftest.py

Checks that an untraced run emits every end-to-end metric of BENCHMARK.json
and a traced run every per-layer metric, each with its unit; that both runs
pass the correctness gate; and that one altered byte in the recorded output
makes the gate fail the operation, so failed / attempted rises above 0.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import sys

import run
import spans


def check(cond: bool, message: str, failures: list[str]) -> None:
    print(("ok    " if cond else "FAIL  ") + message)
    if not cond:
        failures.append(message)


def metrics_match(result: dict, declared: list[dict], failures: list[str], label: str) -> None:
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    check(got == want, f"{label}: metrics and units are exactly those of BENCHMARK.json", failures)
    values = [m["value"] for m in result["metrics"].values()]
    check(all(isinstance(v, (int, float)) for v in values), f"{label}: every value is a number", failures)


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    failures: list[str] = []

    check(
        [m["name"] for m in bench["per_layer"]] == list(spans.PER_LAYER),
        "BENCHMARK.json lists the per-layer metrics the tracer reports",
        failures,
    )

    plain = run.measure("selftest", seed=3, seconds=1, trace=False)["result"]
    check(plain["correct"] and plain["failed"] == 0, "untraced run passes the gate", failures)
    metrics_match(plain, bench["end_to_end"], failures, "untraced run")
    check(all(m["value"] > 0 for m in plain["metrics"].values()), "end-to-end metrics are nonzero", failures)

    traced = run.measure("selftest", seed=3, seconds=1, trace=True)["result"]
    check(traced["correct"] and traced["failed"] == 0, "traced run emits the recorded bytes", failures)
    metrics_match(traced, bench["per_layer"], failures, "traced run")
    layers = {name: m["value"] for name, m in traced["metrics"].items()}
    check(layers["verify.oracle_attempts"] == 2, "both oracle fibres are traced", failures)

    altered = run.load_expected("selftest")
    text = altered[0]["stdout"]
    altered[0]["stdout"] = text[:10] + ("0" if text[10] != "0" else "1") + text[11:]
    run.load_expected = lambda workload: altered
    broken = run.measure("selftest", seed=3, seconds=1, trace=False)["result"]
    check(
        not broken["correct"] and broken["failed"] / broken["attempted"] > 0,
        "one altered output byte raises failed_ratio above 0",
        failures,
    )

    print("selftest " + ("passed" if not failures else f"FAILED ({len(failures)})"))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
