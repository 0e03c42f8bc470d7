"""Spans recorded around the public calls of each tanglesim module.

The wrappers are installed from the benchmark's own files by replacing
module and class attributes; nothing under `src/` is edited.  A span holds
its name, start, end and parent, plus counts taken from the call's
arguments or return value.

`GridRecorder.advance` runs once per model event, millions of times a
round, and any wrapper around it costs about as much as the call itself.
So it is wrapped only in rounds of their own (`wrap_advance`), which give
`trajectory.advance_s` and `trajectory.advance_calls` and nothing else:
each call adds its count and duration to the enclosing span's `leaf`
totals.  Every other metric comes from rounds where `advance` runs
unwrapped, so the self times of `reduced.run` and `agent.run` include their
`advance` calls and carry none of that wrapper's cost.
"""
from __future__ import annotations

import functools
import json
import statistics
import time
from pathlib import Path

import numpy as np


class Tracer:
    """Records spans with `clock`, which may stand still while other work
    (the host-speed reference) runs in the same process."""

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def open(self, name: str, **attrs) -> dict:
        span = {
            "id": len(self.spans),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
            "start": self._clock(),
            **attrs,
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = self._clock()
        self._stack.pop()

    def _span(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(span)
            if count is not None:
                span.update(count(args, kwargs, out))
            return out

        return wrapper

    def _leaf(self, name: str, fn):
        stack = self._stack
        clock = self._clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                if stack:
                    tot = stack[-1].setdefault("leaf", {}).setdefault(name, [0, 0.0])
                    tot[0] += 1
                    tot[1] += clock() - t0

        return wrapper

    def _contour(self, fn):
        """count_roots wrapper that also counts evaluations of f."""
        def wrapper(f, region, *args, **kwargs):
            evals = [0]

            def counted(z):
                evals[0] += 1
                return f(z)

            span = self.open("stability.count_roots")
            try:
                return fn(counted, region, *args, **kwargs)
            finally:
                self.close(span)
                span["evals"] = evals[0]

        return functools.wraps(fn)(wrapper)

    # -- installation -------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self, wrap_advance: bool) -> None:
        from tanglesim import agent, arrivals, cli, compliance, fluid, harness, junction, reduced, stability, trajectory

        def frame_counts(args, kwargs, frame):
            sim, horizon = args[0], args[1]
            # creations (honest and injected) plus attaches: a transaction
            # created at or before horizon - delay has attached by the
            # horizon; exact when that time lies on the output grid
            k = int(np.searchsorted(frame.times, horizon - sim.delay, side="right")) - 1
            attaches = int(frame.created[k].sum()) - 1 if k >= 0 else 0
            creations = int(frame.created[-1].sum()) - 1
            return {"events": creations + attaches, "rows": len(frame.times)}

        def ensemble_counts(args, kwargs, out):
            names = ("kind", "params", "horizon", "seed", "runs", "workers")
            bound = dict(zip(names, args), **kwargs)
            return {"members": bound["runs"], "workers": bound.get("workers", 1)}

        def csv_counts(args, kwargs, out):
            return {"bytes": Path(args[0]).stat().st_size}

        def jn_counts(args, kwargs, ens):
            return {"unit_steps": ens.runs * (len(ens.times) - 1)}

        def fluid_counts(args, kwargs, traj):
            return {"steps": len(traj.times) - 1 - round(traj.delay / traj.step)}

        def scan_counts(args, kwargs, report):
            return {"points": report.grid_shape[0] * report.grid_shape[1]}

        s = self._span
        self._patch(arrivals.ArrivalProcess, "times",
                    s("arrivals.times", arrivals.ArrivalProcess.times, lambda a, k, out: {"draws": len(out)}))
        self._patch(reduced.ReducedTangleSim, "run", s("reduced.run", reduced.ReducedTangleSim.run, frame_counts))
        self._patch(agent.AgentTangleSim, "run", s("agent.run", agent.AgentTangleSim.run, frame_counts))
        if wrap_advance:
            self._patch(trajectory.GridRecorder, "advance",
                        self._leaf("trajectory.advance", trajectory.GridRecorder.advance))
        parse = s("harness.parse_scenario", harness.parse_scenario)
        self._patch(harness, "parse_scenario", parse)
        self._patch(cli, "parse_scenario", parse)
        self._patch(harness, "ensemble_stats", s("harness.ensemble_stats", harness.ensemble_stats))
        self._patch(harness, "write_csv", s("harness.write_csv", harness.write_csv, csv_counts))
        self._patch(harness, "run_tangle_ensemble",
                    s("harness.run_tangle_ensemble", harness.run_tangle_ensemble, ensemble_counts))
        self._patch(compliance, "simulate",
                    s("compliance.simulate", compliance.simulate, lambda a, k, tr: {"steps": len(tr.times) - 1}))
        self._patch(stability, "check_sufficient_condition",
                    s("stability.check_sufficient_condition", stability.check_sufficient_condition, scan_counts))
        self._patch(stability, "count_roots", self._contour(stability.count_roots))
        self._patch(fluid, "integrate", s("fluid.integrate", fluid.integrate, fluid_counts))
        self._patch(junction, "run_ensemble", s("junction.run_ensemble", junction.run_ensemble, jn_counts))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# -- derivation ---------------------------------------------------------------

def read_spans(path: Path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus child spans."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    out = dict(own)
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= own[s["id"]]
    return out


# Per-layer metric -> unit; every traced run reports all of them.
LAYER_UNITS = {
    "arrivals.times_s": "s", "arrivals.draws": "count",
    "reduced.run_s": "s", "reduced.events": "count", "reduced.us_per_event": "us",
    "agent.run_s": "s", "agent.events": "count", "agent.us_per_event": "us",
    "trajectory.advance_s": "s", "trajectory.advance_calls": "count", "trajectory.rows": "count",
    "harness.parse_s": "s",
    "harness.ensemble_stats_s": "s", "harness.ensemble_stats_calls": "count",
    "harness.write_csv_s": "s", "harness.csv_bytes": "bytes", "harness.csv_files": "count",
    "harness.member_run_ratio": "ratio",
    "harness.fanout_s": "s",
    "compliance.simulate_s": "s", "compliance.steps": "count", "compliance.us_per_step": "us",
    "stability.scan_s": "s", "stability.scan_points": "count",
    "stability.contour_s": "s", "stability.contour_evals": "count",
    "fluid.integrate_s": "s", "fluid.steps": "count",
    "junction.run_s": "s", "junction.unit_steps": "count", "junction.us_per_unit_step": "us",
    "trace.overhead_s": "s",
}


def _per_us(seconds: float, count: float) -> float:
    return seconds / count * 1e6 if count else 0.0


def round_layers(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one round traced with spans only."""
    selft = self_times(spans)
    by_id = {s["id"]: s for s in spans}

    def op_of(s: dict) -> str:
        while s["parent"] is not None:
            s = by_id[s["parent"]]
        return s["label"]

    def total(name: str, key: str | None = None) -> float:
        return sum((s.get(key, 0) if key else selft[s["id"]]) for s in spans if s["name"] == name)

    m = {
        "arrivals.times_s": total("arrivals.times"),
        "arrivals.draws": total("arrivals.times", "draws"),
        "reduced.run_s": total("reduced.run"),
        "reduced.events": total("reduced.run", "events"),
        "agent.run_s": total("agent.run"),
        "agent.events": total("agent.run", "events"),
        "trajectory.rows": total("reduced.run", "rows") + total("agent.run", "rows"),
        "harness.parse_s": total("harness.parse_scenario"),
        "harness.ensemble_stats_s": total("harness.ensemble_stats"),
        "harness.ensemble_stats_calls": sum(1 for s in spans if s["name"] == "harness.ensemble_stats"),
        "harness.write_csv_s": total("harness.write_csv"),
        "harness.csv_bytes": total("harness.write_csv", "bytes"),
        "harness.csv_files": sum(1 for s in spans if s["name"] == "harness.write_csv"),
        "compliance.simulate_s": total("compliance.simulate"),
        "compliance.steps": total("compliance.simulate", "steps"),
        "stability.scan_s": total("stability.check_sufficient_condition"),
        "stability.scan_points": total("stability.check_sufficient_condition", "points"),
        "stability.contour_s": total("stability.count_roots"),
        "stability.contour_evals": total("stability.count_roots", "evals"),
        "fluid.integrate_s": total("fluid.integrate"),
        "fluid.steps": total("fluid.integrate", "steps"),
        "junction.run_s": total("junction.run_ensemble"),
        "junction.unit_steps": total("junction.run_ensemble", "unit_steps"),
    }
    m["reduced.us_per_event"] = _per_us(m["reduced.run_s"], m["reduced.events"])
    m["agent.us_per_event"] = _per_us(m["agent.run_s"], m["agent.events"])
    m["compliance.us_per_step"] = _per_us(m["compliance.simulate_s"], m["compliance.steps"])
    m["junction.us_per_unit_step"] = _per_us(m["junction.run_s"], m["junction.unit_steps"])

    # Member runs of a multi-worker ensemble happen in worker processes,
    # whose spans are not recorded, so only 1-worker ensembles count.
    members = sum(s["members"] for s in spans
                  if s["name"] == "harness.run_tangle_ensemble" and s["workers"] == 1)
    runs = sum(1 for s in spans if s["name"] in ("reduced.run", "agent.run"))
    m["harness.member_run_ratio"] = members / runs if runs else 0.0

    # validate_w2 runs the ensembles of validate on 2 workers: its fan-out
    # cost is its ensemble time minus half of validate's member time.
    ens = sum(s["end"] - s["start"] for s in spans
              if s["name"] == "harness.run_tangle_ensemble" and op_of(s) == "validate_w2")
    member = sum(s["end"] - s["start"] for s in spans
                 if s["name"] in ("reduced.run", "agent.run") and op_of(s) == "validate")
    m["harness.fanout_s"] = ens - 0.5 * member
    return m


def advance_layers(spans: list[dict]) -> dict[str, float]:
    """`GridRecorder.advance` totals of one round traced with `wrap_advance`."""
    calls, seconds = 0, 0.0
    for s in spans:
        n, t = s.get("leaf", {}).get("trajectory.advance", (0, 0.0))
        calls += n
        seconds += t
    return {"trajectory.advance_s": seconds, "trajectory.advance_calls": calls}


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Medians over traced rounds: `trajectory.advance_*` over the rounds
    that wrap `advance`, every other layer over the rounds that do not."""
    rounds: dict[int, list[dict]] = {}
    root_round: dict[int, int] = {}
    for s in spans:
        r = s["round"] if s["parent"] is None else root_round[s["parent"]]
        root_round[s["id"]] = r
        rounds.setdefault(r, []).append(s)
    per_round = [round_layers(g) for g in rounds.values() if g[0]["trace"] == "spans"]
    per_advance = [advance_layers(g) for g in rounds.values() if g[0]["trace"] == "advance"]
    out = {}
    for group in (per_round, per_advance):
        out.update({name: statistics.median(m[name] for m in group) for name in group[0]})
    return out
