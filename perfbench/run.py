"""Benchmark for tanglesim: one workload, one run.

    python3 perfbench/run.py --workload ledger-ensembles --seed 0 --seconds 20 --trace 0

Run from the root of a checkout.  The program is imported from the
checkout's `src/` (nothing is installed).  The run

1. writes the workload's scenario copies for `--seed` into
   `.perfbench_work/<workload>/inputs`;
2. times set-up (a fresh interpreter importing tanglesim and parsing those
   files) several times and keeps the median;
3. starts child.py, which runs whole rounds of the workload's commands
   through `tanglesim.cli.main` for `--seconds` seconds;
4. checks every command of every round, and that all rounds wrote
   byte-identical CSVs (traced and untraced rounds alike);
5. prints one line per metric and, last, one JSON object with `correct`,
   `attempted`, `failed` and `metrics`: the end-to-end metrics with
   `--trace 0`, the per-layer metrics from the traced rounds with `--trace 1`.

Exits 2 without a result when the checkout holds no tanglesim source or the
workload process fails.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
from spans import LAYER_UNITS, layer_metrics, read_spans  # noqa: E402
from workloads import KNOWN_FAILURE, STEP_NAMES, STEPS, WORKLOADS, Result, write_inputs  # noqa: E402

SETUP_REPEATS = 9
RUN_LIMIT_S = 170.0  # the whole run, set-up included, must end within this


class BenchError(RuntimeError):
    pass


def program_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def time_setup(root: Path, files: list[Path], deadline: float) -> list[float]:
    """Set-up times in reference seconds, the first (cache-filling) probe dropped."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), *map(str, files)]
    env = program_env(root)
    speed = hostspeed.HostSpeed()
    samples = []
    speed.point()
    for k in range(SETUP_REPEATS + 1):
        first = len(speed.samples) - hostspeed.UNITS_PER_POINT
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{proc.stderr}")
        imported = Path(proc.stdout.strip())
        if root / "src" not in imported.parents:
            raise BenchError(f"tanglesim imported from {imported}, not from {root / 'src'}")
        speed.point()
        if k:  # the first probe fills the bytecode cache
            samples.append(elapsed * speed.scale(first, len(speed.samples)))
    return samples


def csv_digests(directory: Path) -> dict[str, str]:
    return {
        str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*.csv"))
    }


def check_rounds(workload: str, work: Path, rounds: list[dict]) -> tuple[int, int, list[str]]:
    """Check every operation of every round.

    Returns (attempted, failed, problems).  Any failure other than the
    known injected-pair failure is a problem that makes the run incorrect.
    """
    ops = {op.label: op for op in WORKLOADS[workload]}
    attempted = failed = 0
    problems: list[str] = []
    first_digests = None
    for rnd in rounds:
        out = work / rnd["dir"]
        results = {}
        for raw in rnd["ops"]:
            op = ops[raw["label"]]
            results[raw["label"]] = Result(op, raw["rc"], raw["stdout"], raw["stderr"], out / op.subdir, results)
        for label, res in results.items():
            attempted += 1
            op = res.op
            if res.rc is None:
                msgs = [f"crashed:\n{res.stderr}"]
            else:
                try:
                    msgs = op.check(res)
                except (OSError, ValueError, KeyError, IndexError) as e:
                    msgs = [f"output unreadable: {e!r}"]
                if res.rc != 0:
                    msgs.append(f"exit code {res.rc}: {res.stderr.strip()[-300:]}")
            if msgs:
                failed += 1
                known = label == KNOWN_FAILURE and res.rc == 1
                if not known:
                    problems.extend(f"{rnd['dir']} {label}: {m}" for m in msgs)
        digests = csv_digests(out)
        if first_digests is None:
            first_digests = digests
        elif digests != first_digests:
            problems.append(f"{rnd['dir']} CSVs differ from {rounds[0]['dir']} (trace: {rnd['trace']})")
    return attempted, failed, problems


def end_to_end(rounds: list[dict], setup: list[float], peak_kb: int) -> dict[str, float]:
    """Medians over the run's rounds, times in reference seconds."""
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(r["wall"] for r in rounds),
        "peak_rss_mb": peak_kb / 1024.0,
    }
    metrics.update({s: statistics.median(r["steps"][s] for r in rounds) for s in STEPS})
    return metrics


def per_layer(rounds: list[dict], spans_path: Path, factor: float) -> dict[str, float]:
    """Per-layer metrics of the traced rounds, times in reference seconds.

    Layer times are scaled by the run's median reference unit; the tracing
    overhead is the median round wall time traced with spans only minus the
    untraced one, each scaled step by step like the end-to-end times.
    """
    metrics = layer_metrics(read_spans(spans_path))
    metrics = {k: v * factor if LAYER_UNITS[k] in ("s", "us") else v for k, v in metrics.items()}
    wall = {kind: statistics.median(r["wall"] for r in rounds if r["trace"] == kind)
            for kind in ("none", "spans", "advance")}
    metrics["trace.overhead_s"] = wall["spans"] - wall["none"]
    print(f"# rounds that also wrap GridRecorder.advance: {wall['advance'] - wall['none']:.6g} s "
          "longer than untraced ones")
    return metrics


UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", **dict.fromkeys(STEPS, "s")}


def run(args) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    root = Path.cwd()
    if not (root / "src" / "tanglesim" / "cli.py").is_file():
        raise BenchError(f"no tanglesim source under {root / 'src'}; run from the root of a checkout")
    work = root / ".perfbench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    try:
        inputs = write_inputs(args.workload, args.seed, work / "inputs")
        scenario_inputs = [p for p in inputs if not p.name.startswith("roots_")]
        setup = time_setup(root, scenario_inputs, deadline)
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload, "--work", str(work),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, env=program_env(root), capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
        if proc.returncode != 0:
            raise BenchError(f"workload process exited {proc.returncode}:\n{proc.stderr}")
        child = json.loads((work / "result.json").read_text())
        if root / "src" not in Path(child["tanglesim"]).parents:
            raise BenchError(f"workload process imported tanglesim from {child['tanglesim']}")
        rounds = child["rounds"]
        attempted, failed, problems = check_rounds(args.workload, work, rounds)
        for p in problems:
            print(f"CHECK FAILED {p}")
        if args.trace:
            metrics, units = per_layer(rounds, work / "spans.jsonl", child["speed_scale"]), LAYER_UNITS
        else:
            metrics, units = end_to_end(rounds, setup, child["peak_rss_kb"]), UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # only if no other run uses it
            work.parent.rmdir()

    names = dict(zip(STEPS, STEP_NAMES[args.workload]))
    print(f"# {args.workload} seed={args.seed} rounds={len(rounds)} attempted={attempted} failed={failed}")
    for name in units:
        alias = f" ({names[name]})" if name in names else ""
        print(f"{args.workload} {name}{alias} = {metrics[name]:.6g} {units[name]}")
    for s in STEPS:
        measured = statistics.median(r["raw_steps"][s] for r in rounds)
        print(f"# {s} as measured, before host-speed scaling: {measured:.6g} s")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0, help="0 reproduces the seeds of scenarios/")
    ap.add_argument("--seconds", type=float, default=20.0, help="run length: whole rounds until it has passed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    try:
        result = run(args)
    except (BenchError, subprocess.TimeoutExpired, OSError) as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
