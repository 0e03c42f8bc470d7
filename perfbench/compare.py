"""Run sets of benchmark runs of the same code and compare them.

    python3 perfbench/compare.py --runs 10 --sets 2

For each set, runs the command in BENCHMARK.json `--runs` times on every
workload (workloads interleaved, a new seed for every run), then reports per
workload and end-to-end metric:

- the median and quartiles of each set and the spread, the distance
  between the quartiles as a share of the median;
- whether the spread stays within the metric's bound;
- with two sets, whether the second median is no worse than the first by
  more than the bound;
- whether every run failed the same share of its operations.

`--sets 1 --runs 1` runs every workload once and prints every metric.  Exit
status 0 when every check holds.  The raw results go to `--out` as JSON.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    for line in lines[:-1]:
        if line.startswith("CHECK FAILED"):
            print(f"  {workload} seed {seed}: {line}", flush=True)
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def worse_by(metric: dict, before: float, after: float) -> float:
    """How much worse `after` is than `before`, as a share of `before`."""
    change = (after - before) / before
    return change if metric["better"] == "lower" else -change


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per workload and set")
    ap.add_argument("--sets", type=int, default=2, choices=(1, 2))
    ap.add_argument("--seed", type=int, default=1, help="seed of the first run; later runs count up")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, help="write every run's result here as JSON")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    results: dict[str, list[list[dict]]] = {w: [[] for _ in range(args.sets)] for w in workloads}
    seed = args.seed
    for s in range(args.sets):
        for i in range(args.runs):
            for w in workloads:
                res = run_once(spec, w, seed, args.trace)
                results[w][s].append({"seed": seed, **res})
                seed += 1
                print(f"set {s + 1} run {i + 1} {w}: correct={res['correct']} "
                      f"attempted={res['attempted']} failed={res['failed']}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(results, indent=1))

    ok = True
    for w in workloads:
        sets = results[w]
        runs = [r for group in sets for r in group]
        shares = {Fraction(r["failed"], r["attempted"]) for r in runs}
        correct = all(r["correct"] for r in runs)
        ok &= correct and len(shares) == 1
        print(f"\n{w}: correct={correct} failed shares={sorted(str(x) for x in shares)}")
        print(f"  {'metric':28} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}  verdict")
        for m in metrics:
            name, bound = m["name"], m.get("bound")
            medians = []
            for k, group in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in group]
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / med if med else float("nan")
                medians.append(med)
                verdict = ""
                if bound is not None and len(values) > 1:
                    verdict = "ok" if spread <= bound else "TOO WIDE"
                    ok &= spread <= bound
                print(f"  {name:28} {k + 1:>3} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:7.3f} "
                      f"{bound if bound is not None else '':>6}  {verdict}")
            if bound is not None and len(medians) == 2:
                worse = worse_by(m, medians[0], medians[1])
                agree = worse <= bound
                ok &= agree
                print(f"  {name:28} set 2 vs 1: {worse:+.3f} worse  {'agree' if agree else 'DISAGREE'}")
    print(f"\n{'all checks hold' if ok else 'SOME CHECKS FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
