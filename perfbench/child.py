"""One pass of a workload in a fresh interpreter.

Usage: python perfbench/child.py '<json job>'

The job names the argv list to run through `canideal.cli.main`, whether to
trace, and where to write the spans.  Each operation's stdout is captured in
memory; the pass ends by writing one JSON report to the real stdout: every
operation's exit code and output, the wall time of the whole list (import
excluded), the process's peak resident memory and, when traced, the
per-layer metrics.

Throughout the list the reference loop of calib.py runs in short bursts
between the program's bytecodes.  The bursts are left out of every
operation's time and of every span, and the report adds the loop's mean
time (`loop_s`) and the list's wall time at reference speed (`ref_wall_s`);
the per-layer times are given at reference speed too.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import traceback

import calib


def run_ops(main, ops, sampler, tracer=None):
    outcomes = []
    for op_id, argv in enumerate(ops):
        if tracer is not None:
            tracer.op = op_id
        out, err = io.StringIO(), io.StringIO()
        error = None
        op_start = sampler.clock()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except Exception:
                code, error = None, traceback.format_exc()
        outcomes.append(
            {
                "argv": argv,
                "code": code,
                "stdout": out.getvalue(),
                "error": error,
                "seconds": sampler.clock() - op_start,
            }
        )
    return outcomes


def main() -> int:
    job = json.loads(sys.argv[1])
    import canideal.cli

    sampler = calib.Sampler()
    tracer = None
    entry = canideal.cli.main
    if job["trace"]:
        import spans

        tracer = spans.Tracer(sampler.clock)
        spans.install(tracer)
        entry = tracer.wrap(spans.ROOT, entry)

    calib.loop_seconds(5)  # warm-up
    with sampler:
        outcomes = run_ops(entry, job["ops"], sampler, tracer)
    wall = sum(o["seconds"] for o in outcomes)
    loop_s = sampler.loop_s()
    report = {
        "package": canideal.__file__,
        "outcomes": outcomes,
        "wall_s": wall,
        "loop_s": loop_s,
        "ref_wall_s": calib.to_reference(wall, loop_s),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        layers = spans.layer_metrics(tracer)
        report["layers"] = {
            name: calib.to_reference(v, loop_s) if spans.unit(name) == "s" else v
            for name, v in layers.items()
        }
        with open(job["spans_out"], "w", encoding="utf-8") as fh:
            json.dump(tracer.to_jsonable(), fh, separators=(",", ":"))
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
