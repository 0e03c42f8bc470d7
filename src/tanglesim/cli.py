"""Command-line surface: simulate / validate / stability / roots.

Exit codes: 0 success (or PASS), 1 FAIL verdict, 2 usage or runtime error.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from . import compliance, harness, stability
from .harness import ScenarioError, parse_scenario


def _cmd_simulate(args) -> int:
    scenario = parse_scenario(args.scenario)
    summary = harness.run_scenario(
        scenario,
        out_dir=args.out,
        runs=args.runs,
        seed=args.seed,
        workers=args.workers,
        check=args.check,
    )
    print(json.dumps(asdict(summary), indent=2))
    return 0


def _cmd_validate(args) -> int:
    agent = parse_scenario(args.agent_scenario)
    reduced = parse_scenario(args.reduced_scenario)
    report = harness.validate(agent, reduced, workers=args.workers)
    payload = asdict(report)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "validation_report.json").write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))
    print(f"validation: {'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


def _cmd_stability(args) -> int:
    scenario = parse_scenario(args.network)
    if scenario.kind != "compliance-net":
        raise ScenarioError("stability expects a compliance-net scenario file")
    net = scenario.model
    sol = compliance.static_solution(net)
    report = stability.check_sufficient_condition(net)
    passed = sol.feasible and report.passed
    payload = {
        "static": {
            "costs": [float(c) for c in sol.costs],
            "feasible": sol.feasible,
            "violations": list(sol.violations),
        },
        "sufficient_condition": {
            "passed": report.passed,
            "threshold": report.threshold,
            "max_eigenvalue_modulus": report.witness_modulus,
            "margin": report.margin,
            "witness": [report.witness.real, report.witness.imag],
            "grid_shape": list(report.grid_shape),
            "skipped_poles": report.skipped_poles,
        },
        "ring_condition": report.ring_condition,
        "notes": report.notes,
        "verdict": "PASS" if passed else "FAIL",
    }
    print(json.dumps(payload, indent=2))
    return 0 if passed else 1


def _cmd_roots(args) -> int:
    kind, f, region = harness.parse_roots_spec(args.spec)
    count = stability.count_roots(f, region)
    print(
        json.dumps(
            {
                "kind": kind,
                "count": count,
                "region": {
                    "re": [region.re_min, region.re_max],
                    "im": [region.im_min, region.im_max],
                },
            },
            indent=2,
        )
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tanglesim",
        description=(
            "Simulation and numerical analysis of DAG-ledger tip dynamics "
            "and deposit-priced compliance control"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a scenario file, write CSV + summary")
    sim.add_argument("scenario", help="path to a scenario JSON file")
    sim.add_argument("--runs", type=int, default=None, help="override ensemble size")
    sim.add_argument("--seed", type=int, default=None, help="override master seed")
    sim.add_argument("--out", default=".", help="output directory")
    sim.add_argument("--workers", type=int, default=1, help="parallel processes")
    sim.add_argument(
        "--check", action="store_true", help="check a tangle model's invariants (slower)"
    )
    sim.set_defaults(func=_cmd_simulate)

    val = sub.add_parser(
        "validate", help="compare agent-based and reduced ensembles (PASS/FAIL)"
    )
    val.add_argument("agent_scenario", help="tangle-agent scenario JSON")
    val.add_argument("reduced_scenario", help="tangle-reduced scenario JSON")
    val.add_argument("--out", default=None, help="directory for the report JSON")
    val.add_argument("--workers", type=int, default=1)
    val.set_defaults(func=_cmd_validate)

    stab = sub.add_parser(
        "stability", help="static solution + spectral sufficient condition"
    )
    stab.add_argument("network", help="compliance-net scenario JSON")
    stab.set_defaults(func=_cmd_stability)

    roots = sub.add_parser(
        "roots", help="count roots of a characteristic function in a rectangle"
    )
    roots.add_argument("spec", help="equation spec JSON")
    roots.set_defaults(func=_cmd_roots)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except stability.ContourError as e:
        print(f"error: contour failure, no count reported: {e}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
