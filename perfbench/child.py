"""Workload process: runs one workload's commands through `tanglesim.cli.main`.

Started by run.py with PYTHONPATH pointing at the checkout's `src`.  Runs
whole rounds until `--seconds` have passed and writes to `result.json` in
the work directory what each command returned, each step's time as measured
and scaled by the host-speed reference (see hostspeed.py), and the peak
memory of this process and its workers.  A round's wall time is the sum of
its scaled step times, so reference work is not counted.  With `--trace 1`
rounds cycle, in whole cycles, through untraced, traced with spans only,
and traced with spans and the `GridRecorder.advance` wrapper (see
spans.py), and the spans of the traced rounds go to `spans.jsonl`.  run.py
checks the outputs afterwards, so checking shows neither in the timings nor
in the peak memory.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import hostspeed
from spans import Tracer
from workloads import WORKLOADS, Op


def run_op(main, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except Exception:  # a crash is this operation's failure, not the run's
        rc = None
        err.write(traceback.format_exc())
    seconds = time.perf_counter() - started
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(), "seconds": seconds}


def run_round(ops: list[Op], inputs: Path, out: Path, speed: hostspeed.HostSpeed,
              tracer: Tracer | None, trace: str, index: int) -> dict:
    from tanglesim import cli

    results = []
    raw_steps: dict[str, float] = {}
    ranges = []  # per step: speed.samples[first:last] span its start to its end
    speed.point()
    for step in dict.fromkeys(op.step for op in ops):
        step_ops = [op for op in ops if op.step == step]
        # The timer's units would compete with worker processes for the cores.
        timed = all(op.workers == 1 for op in step_ops)
        first = len(speed.samples) - hostspeed.UNITS_PER_POINT
        in_steps = speed.in_steps_s
        if timed:
            speed.start()
        t0 = time.perf_counter()
        for op in step_ops:
            argv = [a.replace("{in}", str(inputs)).replace("{out}", str(out / op.subdir)) for a in op.argv]
            span = tracer.open("op", label=op.label, round=index, trace=trace) if tracer else None
            results.append({"label": op.label, **run_op(cli.main, argv)})
            if span is not None:
                tracer.close(span)
        elapsed = time.perf_counter() - t0
        if timed:
            speed.stop()
        raw_steps[step] = elapsed - (speed.in_steps_s - in_steps)
        speed.point()
        ranges.append((first, len(speed.samples), timed))
    steps = {}
    for j, step in enumerate(raw_steps):
        first, last, timed = ranges[j]
        if not timed:  # borrow the samples of the neighbouring steps
            first, last = ranges[max(j - 1, 0)][0], ranges[min(j + 1, len(ranges) - 1)][1]
        steps[step] = raw_steps[step] * speed.scale(first, last)
    return {"dir": out.name, "trace": trace, "ops": results, "raw_steps": raw_steps,
            "steps": steps, "wall": sum(steps.values())}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--work", required=True, type=Path)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    import tanglesim.cli

    ops = WORKLOADS[args.workload]
    speed = hostspeed.HostSpeed()
    tracer = Tracer(speed.clock) if args.trace else None
    cycle = ("none", "spans", "advance") if args.trace else ("none",)
    rounds = []
    started = time.perf_counter()
    while True:
        k = len(rounds)
        trace = cycle[k % len(cycle)]
        out = args.work / f"round{k:03d}"
        out.mkdir()
        if trace != "none":
            tracer.install(wrap_advance=trace == "advance")
        try:
            rounds.append(run_round(ops, args.work / "inputs", out, speed,
                                    tracer if trace != "none" else None, trace, k))
        finally:
            if trace != "none":
                tracer.uninstall()
        if len(rounds) % len(cycle) == 0 and time.perf_counter() - started >= args.seconds:
            break

    if tracer is not None:
        tracer.write(args.work / "spans.jsonl")
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    result = {
        "tanglesim": tanglesim.cli.__file__,
        "rounds": rounds,
        "peak_rss_kb": peak_kb,
        "speed_scale": hostspeed.REFERENCE_S / statistics.median(speed.samples),
    }
    (args.work / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
