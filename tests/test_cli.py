"""End-to-end CLI tests driven through main(argv)."""
import concurrent.futures
import hashlib
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import tanglesim
from tanglesim import AgentTangleSim, ComplianceNetwork, JunctionConfig, fluid, harness, reduced
from tanglesim.cli import main
from tanglesim.reduced import _TangleSim
from tanglesim.stability import count_roots
from test_fluid import oracle_integrate
from test_stability import shipped_window


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def ring_scenario(tmp_path):
    return _write(
        tmp_path, "ring.json",
        {"kind": "compliance-net", "horizon": 50.0, "window": 5.0,
         "targets": 0.9, "baselines": 0.5,
         "ring": {"n": 8, "coupling": 0.1, "lag": 1.0}},
    )


def test_simulate_writes_outputs_and_prints_summary(tmp_path, capsys):
    scenario = _write(
        tmp_path, "small.json",
        {"kind": "tangle-reduced", "rate": 40.0, "delay": 1.0,
         "horizon": 8.0, "runs": 3},
    )
    code = main(["simulate", scenario, "--out", str(tmp_path / "res")])
    assert code == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["kind"] == "tangle-reduced"
    assert (tmp_path / "res" / "small_ensemble.csv").exists()
    assert (tmp_path / "res" / "small_summary.json").exists()


def test_simulate_rejects_bad_scenario(tmp_path, capsys):
    scenario = _write(tmp_path, "bad.json", {"kind": "tangle-reduced"})
    assert main(["simulate", scenario]) == 2
    assert "error:" in capsys.readouterr().err


def test_simulate_missing_file(tmp_path, capsys):
    assert main(["simulate", str(tmp_path / "nope.json")]) == 2
    assert "not found" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags", [["--runs", "0"], ["--runs", "-1"], ["--workers", "0"]]
)
def test_simulate_rejects_bad_overrides(tmp_path, capsys, flags):
    scenario = _write(
        tmp_path, "small.json",
        {"kind": "tangle-reduced", "rate": 40.0, "delay": 1.0,
         "horizon": 8.0, "runs": 3},
    )
    code = main(["simulate", scenario, "--out", str(tmp_path / "res"), *flags])
    assert code == 2
    assert flags[0].lstrip("-") in capsys.readouterr().err
    assert not (tmp_path / "res").exists()


@pytest.mark.parametrize(
    "change, field",
    [({"per_run": "no"}, "per_run"), ({"per_run": 1}, "per_run"),
     ({"out": 5}, "out"), ({"out": ["a"]}, "out"), ({"out": ""}, "out")],
)
def test_simulate_rejects_non_boolean_per_run_and_non_string_out(tmp_path, capsys, change, field):
    scenario = _write(
        tmp_path, "small.json",
        {"kind": "tangle-reduced", "rate": 40.0, "delay": 1.0,
         "horizon": 8.0, "runs": 3, **change},
    )
    assert main(["simulate", scenario, "--out", str(tmp_path / "res")]) == 2
    assert f"small.{field}" in capsys.readouterr().err
    assert not (tmp_path / "res").exists()


def test_simulate_rejects_fractional_junction_horizon(tmp_path, capsys):
    scenario = _write(
        tmp_path, "junction.json",
        {"kind": "junction", "mode": "fixed", "Q": 0.8, "horizon": 10.5},
    )
    assert main(["simulate", scenario, "--out", str(tmp_path / "res")]) == 2
    assert "horizon" in capsys.readouterr().err


@pytest.mark.parametrize("rate, horizon, code", [(9.2e18, 1, 0), (9.2e18, 10, 2), (9.3e18, 10, 2),
                                                 (1e19, 10, 2)],
                         ids=["9.2e+18-0", "9.2e+18-2", "9.3e+18-2", "1e+19-2"])
def test_simulate_refuses_an_arrival_rate_beyond_numpys_poisson(tmp_path, capsys, rate, horizon,
                                                                code):
    # numpy's Poisson draws means up to about 9.2234e18, and the int64 queue
    # counts hold a run's arrivals while arrival_rate * horizon stays below
    # the same bound: a larger rate, or a larger product, is refused at parse
    # time, with the field named and before any output
    scenario = _write(tmp_path, "busy.json",
                      {**_JUNCTION, "horizon": horizon, "config": {"arrival_rate": rate}})
    out = tmp_path / "res"
    assert main(["simulate", scenario, "--out", str(out)]) == code
    if code:
        err = capsys.readouterr().err
        assert f"busy: arrival_rate{' * horizon' if rate == 9.2e18 else ''}" in err
        assert "must be at most 9.2" in err
        assert not out.exists()
    else:
        assert (out / "busy_junction.csv").exists()


def test_validate_rejects_zero_workers(tmp_path, capsys):
    pair = [
        _write(tmp_path, f"{kind}.json",
               {"kind": f"tangle-{kind}", "rate": 40.0, "delay": 1.0,
                "horizon": 8.0, "runs": 3})
        for kind in ("agent", "reduced")
    ]
    assert main(["validate", *pair, "--workers", "0"]) == 2
    assert "workers" in capsys.readouterr().err


def test_validate_refuses_a_bad_reduced_file_before_any_agent_run(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(AgentTangleSim, "run", lambda *a, **k: calls.append(a))
    agent = _write(tmp_path, "agent.json", {**_TANGLE, "kind": "tangle-agent"})
    reduced = _write(
        tmp_path, "reduced.json",
        {**_TANGLE, "injections": [{"time": 2.0, "type": 3, "count": 5}]},
    )
    assert main(["validate", agent, reduced]) == 2
    assert "reduced: injection type 3" in capsys.readouterr().err
    assert calls == []


def test_validate_pass_and_report(tmp_path, capsys):
    agent = _write(
        tmp_path, "agent.json",
        {"kind": "tangle-agent", "rate": 60.0, "delay": 3.0,
         "horizon": 30.0, "runs": 40, "seed": 5},
    )
    reduced = _write(
        tmp_path, "reduced.json",
        {"kind": "tangle-reduced", "rate": 60.0, "delay": 3.0,
         "horizon": 30.0, "runs": 40, "seed": 6},
    )
    code = main(["validate", agent, reduced, "--out", str(tmp_path / "rep"),
                 "--workers", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.strip().endswith("validation: PASS")
    report = json.loads((tmp_path / "rep" / "validation_report.json").read_text())
    assert report["passed"] is True
    assert report["max_rel_L"] < 0.05


def test_validate_negative_control_fails(tmp_path, capsys):
    agent = _write(
        tmp_path, "agent.json",
        {"kind": "tangle-agent", "rate": 60.0, "delay": 3.0,
         "horizon": 30.0, "runs": 10, "seed": 5},
    )
    reduced = _write(
        tmp_path, "reduced.json",
        {"kind": "tangle-reduced", "rate": 60.0, "delay": 5.0,
         "horizon": 30.0, "runs": 10, "seed": 6},
    )
    code = main(["validate", agent, reduced])
    assert code == 1
    assert capsys.readouterr().out.strip().endswith("validation: FAIL")


def test_validate_structural_mismatch_is_an_error(tmp_path, capsys):
    agent = _write(
        tmp_path, "agent.json",
        {"kind": "tangle-agent", "rate": 60.0, "delay": 3.0,
         "horizon": 30.0, "runs": 5},
    )
    reduced = _write(
        tmp_path, "reduced.json",
        {"kind": "tangle-reduced", "rate": 60.0, "delay": 3.0,
         "horizon": 60.0, "runs": 5},
    )
    assert main(["validate", agent, reduced]) == 2
    assert "not comparable" in capsys.readouterr().err


def test_validate_refuses_a_horizon_inside_the_transient_before_any_ensemble(
        tmp_path, capsys, monkeypatch):
    # t > 5 * delay = 15 leaves no grid time before the horizon 10
    calls = []
    ensemble = harness.run_tangle_ensemble

    def counted(*args, **kwargs):
        calls.append(args)
        return ensemble(*args, **kwargs)

    monkeypatch.setattr(harness, "run_tangle_ensemble", counted)
    pair = [
        _write(tmp_path, f"{kind}.json",
               {"kind": f"tangle-{kind}", "rate": 10.0, "delay": 3.0,
                "horizon": 10.0, "runs": 2})
        for kind in ("agent", "reduced")
    ]
    assert main(["validate", *pair]) == 2
    err = capsys.readouterr().err
    assert "transient" in err and "horizon 10.0" in err and "15.0" in err
    assert calls == []


def test_stability_pass_for_weak_ring(ring_scenario, capsys):
    code = main(["stability", ring_scenario])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "PASS"
    assert payload["static"]["feasible"] is True
    assert abs(payload["static"]["costs"][0] - 0.22) < 1e-12
    assert payload["ring_condition"] is True
    assert payload["sufficient_condition"]["max_eigenvalue_modulus"] < 2.5


def test_stability_fail_for_strong_ring(tmp_path, capsys):
    strong = _write(
        tmp_path, "strong.json",
        {"kind": "compliance-net", "horizon": 50.0, "window": 5.0,
         "targets": 0.9, "baselines": 0.5,
         "ring": {"n": 8, "coupling": 2.0, "lag": 1.0}},
    )
    code = main(["stability", strong])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "FAIL"
    assert payload["ring_condition"] is False


def test_stability_rejects_wrong_kind(tmp_path, capsys):
    wrong = _write(
        tmp_path, "wrong.json",
        {"kind": "junction", "horizon": 10.0, "mode": "fixed", "Q": 0.9},
    )
    assert main(["stability", wrong]) == 2


def test_roots_tip_characteristic_is_stable(tmp_path, capsys):
    spec = _write(tmp_path, "tip.json", {"kind": "tip-characteristic", "delay": 3.0})
    code = main(["roots", spec])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 0
    assert payload["kind"] == "tip-characteristic"


def test_roots_polynomial_known_count(tmp_path, capsys):
    spec = _write(
        tmp_path, "poly.json",
        {"kind": "polynomial", "coefficients": [2.0, -3.0, 1.0],  # (z-1)(z-2)
         "region": {"re": [0.5, 3.0], "im": [-1.0, 1.0]}},
    )
    code = main(["roots", spec])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["count"] == 2


def test_roots_compliance_window(tmp_path, ring_scenario, capsys):
    spec = _write(
        tmp_path, "win.json",
        {"kind": "compliance-window", "network": "ring.json",
         "region": {"re": [0.0001, 3.0], "im": [-6.0, 6.0], "samples": 200}},
    )
    code = main(["roots", spec])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["count"] == 0


def test_roots_contour_error_is_reported(tmp_path, capsys):
    spec = _write(
        tmp_path, "onroot.json",
        {"kind": "polynomial", "coefficients": [-1.0, 1.0],  # z - 1
         "region": {"re": [1.0, 2.0], "im": [-1.0, 1.0]}},  # root on edge
    )
    assert main(["roots", spec]) == 2
    assert "contour" in capsys.readouterr().err


def test_roots_pole_on_the_contour_is_reported(tmp_path, ring_scenario, capsys):
    # the contour samples z = -1, the ring's transfer pole -delta; the
    # window characteristic has no poles, but the ring's coupling matrix is
    # singular, so -1 is a root of it: exit 2 with no count (exit 1 would
    # be a FAIL verdict), never a traceback
    spec = _write(
        tmp_path, "pole.json",
        {"kind": "compliance-window", "network": "ring.json",
         "region": {"re": [-1.0, 1.0], "im": [-1.0, 1.0], "samples": 2}},
    )
    assert main(["roots", spec]) == 2
    err = capsys.readouterr().err
    assert "no count reported" in err and "|f| = 0 " in err and "at -1" in err


_TWO_NODE = {"kind": "compliance-net", "horizon": 20.0, "window": 4.0, "n": 2,
             "targets": [0.9, 0.8], "baselines": [0.4, 0.3],
             "cost_sens": [1.0, 2.0], "ctrl_gain": [0.5, 1.0],
             "coupling": [[0.0, 0.2], [0.3, 0.0]], "lags": [[0.0, 1.5], [0.7, 0.0]]}


@pytest.mark.parametrize("im, inside", [([-0.1, 0.1], True), ([0.05, 0.1], False)])
def test_roots_region_around_a_transfer_pole_is_refused(tmp_path, capsys, im, inside):
    # the poles -E_i k_i = -0.5, -2 are real: a region holds one only if
    # its imaginary range straddles 0.  Such a region is no longer refused:
    # the window characteristic has no poles, so the count is its zeros (0
    # here), where the pole-carrying form's winding number reads 0 - inside
    _write(tmp_path, "two.json", _TWO_NODE)
    spec = _write(tmp_path, "spec.json", {"kind": "compliance-window", "network": "two.json",
                                          "region": {"re": [-0.51, -0.49], "im": im}})
    assert main(["roots", spec]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 0
    _, _, region = harness.parse_roots_spec(spec)
    pole_form = shipped_window(harness.parse_scenario(tmp_path / "two.json").model)
    assert count_roots(pole_form, region) == -inside


@pytest.mark.parametrize(
    "spec, where, cause",
    [
        # e^(-3z) overflows at Re z = -400 (it used to escape as OverflowError)
        ({"kind": "tip-characteristic", "delay": 3.0,
          "region": {"re": [-400.0, 1.0], "im": [-1.0, 1.0]}}, "-400-1j", "overflow"),
        # z^2 overflows at |z| = 1e300 (it used to read "phase step nan")
        ({"kind": "polynomial", "coefficients": [1.0, 2.0, 3.0],
          "region": {"re": [-1e300, 1e300], "im": [-1e300, 1e300]}}, "-1e+300-1e+300j", "overflow"),
    ],
)
def test_roots_non_finite_values_are_reported(tmp_path, capsys, spec, where, cause):
    assert main(["roots", _write(tmp_path, "spec.json", spec)]) == 2
    err = capsys.readouterr().err
    assert "no count reported" in err and "not finite" in err
    assert f"at {where} on the contour: an {cause}" in err


@pytest.mark.parametrize(
    "region, field",
    [
        ({"re": [-1], "im": [-1.0, 1.0]}, "re"),
        ({"re": [0, 1, 5], "im": [-1.0, 1.0]}, "re"),
        ({"re": [0.5, 3.0], "im": [-1.0, "1"]}, "im"),
        ({"re": [0.5, 3.0], "im": [-1.0, 1.0], "samples": 8.9}, "samples"),
        ({"re": [0.5, 3.0], "im": [-1.0, 1.0], "samples": 1}, "samples"),
        # 4 * samples + 1 boundary points, more than any grid may hold
        ({"re": [0.5, 3.0], "im": [-1.0, 1.0], "samples": 2_500_000}, "samples"),
    ],
)
def test_roots_rejects_malformed_regions(tmp_path, capsys, region, field):
    spec = _write(
        tmp_path, "poly.json",
        {"kind": "polynomial", "coefficients": [2.0, -3.0, 1.0], "region": region},
    )
    assert main(["roots", spec]) == 2
    assert f"poly.region.{field}" in capsys.readouterr().err


_REGION = {"re": [0.5, 3.0], "im": [-1.0, 1.0]}


@pytest.mark.parametrize(
    "name, spec, field",
    [
        ("poly", {"kind": "polynomial", "coefficients": [[1.0], 2.0], "region": _REGION},
         "coefficients[0]"),
        ("poly", {"kind": "polynomial", "coefficients": ["1+2j", True], "region": _REGION},
         "coefficients[0]"),
        ("poly", {"kind": "polynomial", "coefficients": [1.0, True], "region": _REGION},
         "coefficients[1]"),
        ("poly", {"kind": "polynomial", "coefficients": [], "region": _REGION},
         "coefficients"),
        ("win", {"kind": "compliance-window", "network": 5}, "network"),
        ("tip", {"kind": "tip-characteristic", "delay": "3"}, "delay"),
    ],
)
def test_roots_rejects_malformed_specs(tmp_path, capsys, name, spec, field):
    # exit 2 with the field named; no traceback, no exit 1 (a FAIL verdict)
    assert main(["roots", _write(tmp_path, f"{name}.json", spec)]) == 2
    assert f"{name}.{field}" in capsys.readouterr().err


def test_roots_unknown_kind(tmp_path, capsys):
    spec = _write(tmp_path, "odd.json", {"kind": "wavelet"})
    assert main(["roots", spec]) == 2


_FLUID = {"kind": "fluid", "delay": 3.0, "x0": [1.5, 1.5], "l0": [3.0, 3.0],
          "horizon": 9.0}
_RING = {"kind": "compliance-net", "horizon": 20.0, "window": 5.0,
         "targets": 0.9, "baselines": 0.5,
         "ring": {"n": 4, "coupling": 0.1, "lag": 1.0}}
_TANGLE = {"kind": "tangle-reduced", "rate": 40.0, "delay": 1.0, "horizon": 8.0,
           "runs": 3, "types": 2}
_JUNCTION = {"kind": "junction", "mode": "closed-loop", "horizon": 10.0, "runs": 2}
# coupled lags of 1e-14 and a window of 1e-13: the largest step is 2e-16
_TINY = {"kind": "compliance-net", "n": 2, "window": 1e-13, "horizon": 1e-11,
         "targets": [0.9, 0.8], "baselines": [0.5, 0.4], "coupling": [[0.0, 0.1], [0.1, 0.0]],
         "lags": [[0.0, 1e-14], [1e-14, 0.0]]}


@pytest.mark.parametrize(
    "base, change, field",
    [
        (_FLUID, {"x0": [], "l0": []}, "l0"),
        (_FLUID, {"x0": [0.0, 0.0], "l0": [0.0, 0.0]}, "l0"),
        (_FLUID, {"x0": [-0.5, 1.5]}, "x0[0]"),
        (_FLUID, {"x0": [1.5, 3.5]}, "x0[1]"),
        (_FLUID, {"horizon": 3.0}, "horizon"),
        (_FLUID, {"step": 0.05}, "step"),
        (_RING, {"step": 0.05}, "step"),
        (_RING, {"targets": 1.2}, "targets"),
        (_RING, {"targets": -0.1}, "targets"),
        (_RING, {"initial_costs": -0.2}, "initial_costs"),
        (_RING, {"initial_costs": [0.1, 0.2]}, "initial_costs"),
        # rules only a model's constructor holds: the model is built at
        # parse time and its message is reported against the file
        (_TANGLE, {"injections": [{"time": 2.0, "type": 3, "count": 5}]},
         "bad: injection type 3 exceeds declared types 2"),
        (_TANGLE, {"injections": [{"time": -1.0, "type": 2, "count": 5}]},
         "bad: injection time"),
        (_TANGLE, {"stop_arrivals_at": -1.0}, "bad: arrival stop time"),
        (_JUNCTION, {"controller": {"target": 1.5}}, "bad: target"),
        (_JUNCTION, {"config": {"slowdown": -1.0}}, "bad: slowdown"),
        # NaN and Infinity are JSON to Python's reader, but no field's value
        (_TANGLE, {"horizon": float("inf")}, "bad.horizon"),
        (_RING, {"initial_q_offset": float("nan")}, "bad.initial_q_offset"),
        # a grid no run could allocate
        (_TANGLE, {"grid_dt": 1e-300}, "bad.grid_dt"),
        # a ring takes one value for all its activities
        (_RING, {"targets": [0.9, 0.9, 0.9, 0.9]}, "bad.targets: expected a number, got [0.9"),
        # a service_rate past the int64 counts' bound, and a service_rate *
        # cross_time past the largest double, which service_capacity cannot
        # turn into a car count
        (_JUNCTION, {"config": {"service_rate": 10**400}}, "bad: service_rate must be at most"),
        (_JUNCTION, {"config": {"service_rate": 10**18, "cross_time": 1e300}},
         "bad: service_rate * cross_time must be finite"),
        # steps that are not positive, which the integrators refuse
        (_FLUID, {"step": 0.0}, "bad: step must be positive"),
        (_FLUID, {"step": -1.0}, "bad: step must be positive"),
        (_RING, {"step": 0.0}, "bad: step must be positive"),
        (_RING, {"step": -1.0}, "bad: step must be positive"),
        # a step count past the largest float
        (_RING, {"horizon": 1e300, "step": 1e-300}, "bad: horizon over step 1e-300 gives inf rows"),
        # per-run CSVs exist for tangle kinds only
        (_FLUID, {"per_run": True}, "bad.per_run: applies to tangle kinds only"),
        (_RING, {"per_run": True}, "bad.per_run: applies to tangle kinds only"),
        (_JUNCTION, {"per_run": True}, "bad.per_run: applies to tangle kinds only"),
        # 2,500 times the largest step, which an absolute margin of 1e-12 let through
        (_TINY, {"step": 5e-13}, "bad: step must be positive and at most 2e-16, got 5e-13"),
    ],
)
def test_simulate_rejects_bad_inputs_before_any_output(tmp_path, capsys, base, change, field):
    # each of these is refused at parse time, before any run or output
    scenario = _write(tmp_path, "bad.json", {**base, **change})
    assert main(["simulate", scenario, "--out", str(tmp_path / "res")]) == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "res").exists()


@pytest.mark.parametrize("kind", ["agent", "reduced"])
def test_a_delay_below_one_ulp_of_the_horizon_is_refused(tmp_path, capsys, kind):
    # at delay 1e-300, ct + delay == ct: each creation would count itself as
    # attached before it is made (the agent crashed in its attach loop with
    # an IndexError, the reduced model ran without a word)
    tiny = {**_TANGLE, "kind": f"tangle-{kind}", "delay": 1e-300,
            "injections": [{"time": 2.0, "type": 2, "count": 5}]}
    scenario = _write(tmp_path, "tiny.json", tiny)
    assert main(["simulate", scenario, "--out", str(tmp_path / "res")]) == 2
    assert "tiny.delay: must be at least 1.78e-15, one ulp of the horizon 8" in capsys.readouterr().err
    assert not (tmp_path / "res").exists()
    # one ulp is enough: every t + delay > t up to the horizon
    edge = _write(tmp_path, "edge.json", {**tiny, "delay": math.ulp(8.0)})
    assert main(["simulate", edge, "--out", str(tmp_path / "edge")]) == 0


def test_validate_refuses_a_delay_below_one_ulp_of_the_horizon_before_any_ensemble(
        tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(harness, "run_tangle_ensemble", lambda *a, **k: calls.append(a))
    pair = [
        _write(tmp_path, f"{kind}.json", {**_TANGLE, "kind": f"tangle-{kind}", "delay": 1e-300})
        for kind in ("agent", "reduced")
    ]
    assert main(["validate", *pair]) == 2
    assert "agent.delay: must be at least" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("name", ["ring_compliance", "fluid_equilibrium"])
def test_simulate_refuses_a_horizon_with_too_many_steps(tmp_path, capsys, name):
    # a shipped file at horizon 1e12: its integrator's steps are more rows
    # than any run could allocate, so the file is refused at parse time
    # (exit 2, naming horizon and step) rather than by numpy's MemoryError
    shipped = Path(__file__).parent.parent / "scenarios" / f"{name}.json"
    scenario = _write(tmp_path, f"{name}.json", {**json.loads(shipped.read_text()), "horizon": 1e12})
    assert main(["simulate", scenario, "--out", str(tmp_path / "res")]) == 2
    err = capsys.readouterr().err
    assert f"{name}.horizon: horizon over step 0.0" in err and "rows, more than 1e+07" in err
    assert not (tmp_path / "res").exists()


# the workflow's compliance smoke files: an explicit 3-activity network
# (signed coupling, a zero-lag edge 0 <- 1, self-couplings on 0 and 2) and
# a zero-lag 2-cycle, whose two activities step together, row by row
_EXPLICIT = {"kind": "compliance-net", "n": 3, "window": 2.0, "horizon": 30.0,
             "targets": [0.9, 0.85, 0.8], "baselines": [0.4, 0.3, 0.5], "cost_sens": [1.0, 2.0, 0.5],
             "coupling": [[0.2, 0.1, -0.05], [0.2, 0.0, 0.1], [-0.1, 0.15, -0.1]],
             "lags": [[0.0, 0.0, 2.0], [1.0, 0.0, 0.7], [2.0, 1.0, 0.0]],
             "initial_q_offset": 0.03, "out": "explicit"}
_CYCLE = {"kind": "compliance-net", "n": 2, "window": 2.5, "horizon": 30.0,
          "targets": [0.9, 0.8], "baselines": [0.5, 0.4], "cost_sens": [1.0, 0.5],
          "ctrl_gain": [1.0, 2.0], "coupling": [[0.0, 0.2], [-0.3, 0.0]],
          "lags": [[0.0, 0.0], [0.0, 0.0]], "initial_q_offset": 0.03, "out": "cycle"}


@pytest.mark.parametrize("scenario, lines, digest", [
    (_EXPLICIT, 2145, "152921d8a5a9643f4055c6e3f78094cf18884531b0fde27096818c233774632c"),
    (_CYCLE, 602, "5b53557652be4bcaa50796bf2850e01e31f2de33bd180a585c6311798a6d30d0"),
], ids=["explicit", "cycle"])
def test_compliance_smoke_files_keep_their_bytes(tmp_path, scenario, lines, digest):
    # the zero-lag reads, the row-by-row cycle and the self-couplings run on
    # no shipped file, so their CSV bytes are pinned here
    path = _write(tmp_path, f"{scenario['out']}.json", scenario)
    assert main(["simulate", path, "--out", str(tmp_path / "res")]) == 0
    data = (tmp_path / "res" / f"{scenario['out']}_compliance.csv").read_bytes()
    assert data.count(b"\n") == lines
    assert hashlib.sha256(data).hexdigest() == digest


def test_simulate_refuses_a_junction_horizon_with_too_many_units(tmp_path, capsys):
    # a junction steps whole units, one row each: 1e12 of them are refused
    # at parse time rather than looped over
    shipped = Path(__file__).parent.parent / "scenarios" / "junction_fixed.json"
    scenario = _write(tmp_path, "junction_fixed.json", {**json.loads(shipped.read_text()), "horizon": 1e12})
    assert main(["simulate", scenario, "--out", str(tmp_path / "res")]) == 2
    err = capsys.readouterr().err
    assert "junction_fixed.horizon: horizon over step 1 gives 1e+12 rows, more than 1e+07" in err
    assert not (tmp_path / "res").exists()


@pytest.mark.parametrize("kind", ["agent", "reduced"])
@pytest.mark.parametrize(
    "change, field",
    [({"rate": 1e9, "horizon": 1000.0}, "rate: expects 1e+12 creations"),
     ({"injections": [{"time": 2.0, "type": 2, "count": 10**12}]}, "injections: expects 1e+12 creations")],
    ids=["rate", "burst"],
)
def test_simulate_refuses_a_run_of_too_many_creations(tmp_path, capsys, kind, change, field):
    # 1e12 expected creations would end in numpy's MemoryError, in the
    # arrival draw or the schedule; the file is refused at parse time
    scenario = _write(tmp_path, "huge.json", {**_TANGLE, "kind": f"tangle-{kind}", **change})
    assert main(["simulate", scenario, "--out", str(tmp_path / "res")]) == 2
    err = capsys.readouterr().err
    assert f"huge.{field} per run, more than 1e+07" in err
    assert not (tmp_path / "res").exists()


def test_the_creation_cap_counts_arrivals_to_their_stop_and_bursts_to_the_horizon():
    # 1e9 * 0.01 = 1e7 honest creations is at the cap, and a burst past the
    # horizon is never made; one more creation is over it
    edge = {**_TANGLE, "rate": 1e9, "stop_arrivals_at": 0.01,
            "injections": [{"time": 9.0, "type": 2, "count": 10**12}]}
    harness.parse_scenario(edge)
    with pytest.raises(harness.ScenarioError, match=r"\.injections: expects 1e\+07 creations"):
        harness.parse_scenario({**edge, "injections": [{"time": 8.0, "type": 2, "count": 1}]})


@pytest.mark.parametrize(
    "payload, message",
    [
        # no pending tips: the one type's density dies at t = 6
        ({"kind": "fluid", "delay": 1.0, "horizon": 20.0, "x0": [3.0], "l0": [3.0]},
         "tip densities"),
        ({**_RING, "targets": 0.2, "baselines": 0.9}, "infeasible"),
    ],
)
def test_simulate_run_failure_leaves_no_output(tmp_path, capsys, payload, message):
    # these inputs parse; only the run itself fails
    scenario = _write(tmp_path, "dies.json", payload)
    assert main(["simulate", scenario, "--out", str(tmp_path / "res")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "res").exists()


def test_simulate_refuses_a_fluid_file_by_the_steps_integrate_makes(tmp_path, capsys):
    # step 1/100.5 rounds down to delay / 101: horizon 99,502.48 is
    # 9,999,999.24 of the given steps but 10,049,751 of the steps made
    payload = {"kind": "fluid", "delay": 1.0, "step": 1 / 100.5, "x0": [1.0], "l0": [2.0]}
    scenario = _write(tmp_path, "over.json", {**payload, "horizon": 99502.48})
    assert main(["simulate", scenario, "--out", str(tmp_path / "res")]) == 2
    err = capsys.readouterr().err
    assert "over.horizon: horizon over step 0.00990099 gives 10049751 rows, more than 1e+07" in err
    assert not (tmp_path / "res").exists()
    # the edge: horizon 99,009.9 makes exactly 1e7 steps, 99,009.91 one more
    assert fluid.step_grid(1.0, 99009.9, 1 / 100.5)[2] == 10**7
    harness.parse_scenario({**payload, "horizon": 99009.9})
    with pytest.raises(harness.ScenarioError, match="gives 10000001 rows"):
        harness.parse_scenario({**payload, "horizon": 99009.91})
    # a subnormal step: delay / step overflows a float, so no count is made
    with pytest.raises(harness.ScenarioError, match="gives inf rows"):
        harness.parse_scenario({**payload, "step": 5e-324, "horizon": 2.0})


# type 1 has no pending tips and dies at row 201; type 3 is dead from the start
_DYING_FLUID = {"kind": "fluid", "delay": 3.0, "x0": [3.0, 0.0, 0.0],
                "l0": [3.0, 0.2, 1e-13], "horizon": 60.0, "out": "dies"}


def test_simulate_writes_a_dying_fluid_type_as_the_oracle_does(tmp_path, capsys):
    scenario = _write(tmp_path, "dies.json", _DYING_FLUID)
    with pytest.warns(RuntimeWarning, match="clamped to zero") as caught:
        assert main(["simulate", scenario, "--out", str(tmp_path / "res")]) == 0
    assert len(caught) == 1
    hx, hl = fluid.constant_history(_DYING_FLUID["x0"], _DYING_FLUID["l0"])
    with pytest.warns(RuntimeWarning, match="clamped to zero"):
        want = oracle_integrate(hx, hl, 3.0, 60.0)
    header, *rows = (tmp_path / "res" / "dies_fluid.csv").read_text().splitlines()
    cells = list(zip(*(row.split(",") for row in rows)))
    columns = header.split(",")
    assert len(rows) == len(want.times)
    for i in range(3):
        for var, ref in (("x", want.x), ("l", want.l)):
            got = cells[columns.index(f"{var}{i + 1}")]
            assert list(got) == [repr(v) for v in ref[:, i].tolist()]
    assert want.l[201, 0] == 0.0 < want.l[200, 0]


def test_simulate_accepts_the_boundary_inputs(tmp_path, capsys):
    # the largest allowed steps, x0 == l0 and a dead type still run
    for name, payload in (
        ("fluid", {**_FLUID, "x0": [1.5, 1.0, 0.0], "l0": [3.0, 1.0, 0.0], "step": 0.03}),
        ("ring", {**_RING, "step": 0.02, "initial_costs": [0.0, 0.1, 0.2, 0.3]}),
    ):
        scenario = _write(tmp_path, f"{name}.json", payload)
        assert main(["simulate", scenario, "--out", str(tmp_path / name)]) == 0


@pytest.mark.parametrize("kind", ["tangle-reduced", "tangle-agent"])
def test_check_keeps_every_csv_byte(tmp_path, capsys, kind):
    scenario = _write(tmp_path, "small.json", {
        **_TANGLE, "kind": kind, "per_run": True,
        "injections": [{"time": 2.0, "type": 2, "count": 5}]})
    for flags in ([], ["--check"]):
        out = tmp_path / ("checked" if flags else "plain")
        assert main(["simulate", scenario, "--out", str(out), *flags]) == 0
    csvs = sorted(p.name for p in (tmp_path / "plain").glob("*.csv"))
    assert len(csvs) == 4
    for name in csvs:
        assert (tmp_path / "checked" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()


def test_check_passes_a_fixed_lattice_ending_at_the_horizon(tmp_path, capsys):
    # at rate 10 the lattice's 17th time is 1.7000000000000002, past the
    # horizon; it is not made, so the checks find nothing to report
    scenario = _write(tmp_path, "lattice.json", {
        "kind": "tangle-reduced", "rate": 10.0, "delay": 1.0, "arrival_kind": "fixed",
        "horizon": 1.7, "grid_dt": 0.3, "runs": 3, "seed": 0})
    for flags in ([], ["--check"]):
        out = tmp_path / ("checked" if flags else "plain")
        assert main(["simulate", scenario, "--out", str(out), *flags]) == 0, capsys.readouterr().err
    csvs = sorted(p.name for p in (tmp_path / "plain").glob("*.csv"))
    assert csvs
    for name in csvs:
        assert (tmp_path / "checked" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()


def test_summary_schema_records_the_check_status(tmp_path, capsys):
    types = {"kind": str, "config_hash": str, "seed": int, "runs": int,
             "wall_time_s": float, "outputs": list, "checks": str}
    for name, payload, flags, checks in (
        ("tangle", _TANGLE, [], "off"),
        ("tangle", _TANGLE, ["--check"], "passed"),
        ("tangle", {**_TANGLE, "kind": "tangle-agent"}, ["--check"], "passed"),
        ("ring", _RING, [], "off"),
    ):
        out = tmp_path / f"{payload['kind']}{len(flags)}"
        scenario = _write(tmp_path, f"{name}.json", payload)
        assert main(["simulate", scenario, "--out", str(out), *flags]) == 0
        summary = json.loads((out / f"{name}_summary.json").read_text())
        assert {k: type(v) for k, v in summary.items()} == types
        assert summary["checks"] == checks


def test_each_command_builds_each_model_once(tmp_path, capsys, monkeypatch):
    # parse_scenario builds the model, and the command runs that object
    built = []

    def count(owner, attr, name):
        original = getattr(owner, attr)

        def counted(self, *args, **kwargs):
            built.append(name)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)

    count(_TangleSim, "__init__", "tangle")
    count(ComplianceNetwork, "__post_init__", "network")
    count(JunctionConfig, "__post_init__", "junction")
    ring = _write(tmp_path, "ring.json", _RING)
    out = str(tmp_path / "res")
    commands = [
        (["simulate", _write(tmp_path, "tangle.json", _TANGLE), "--out", out], ["tangle"]),
        (["simulate", ring, "--out", out], ["network"]),
        (["simulate", _write(tmp_path, "junction.json", _JUNCTION), "--out", out], ["junction"]),
        (["stability", ring], ["network"]),
        (["roots", _write(tmp_path, "win.json",
                          {"kind": "compliance-window", "network": "ring.json"})], ["network"]),
        (["validate", _write(tmp_path, "agent.json", {**_TANGLE, "kind": "tangle-agent"}),
          _write(tmp_path, "reduced.json", _TANGLE)], ["tangle", "tangle"]),
    ]
    for argv, want in commands:
        built.clear()
        assert main(argv) in (0, 1), argv  # validate may give a FAIL verdict
        assert built == want, argv


def test_check_needs_a_tangle_scenario(tmp_path, capsys):
    scenario = _write(tmp_path, "ring.json", _RING)
    assert main(["simulate", scenario, "--check", "--out", str(tmp_path / "res")]) == 2
    assert "tangle scenario" in capsys.readouterr().err
    assert not (tmp_path / "res").exists()


# Each patch breaks one model's counters mid-run: the reduced model's
# type-1 counters are reset to one free tip by a spurious seed half-way
# through the schedule, and the agent's frame reports one pending tip too
# many at the end.
_CORRUPT = {
    "tangle-reduced": ("free 1 + pending", """
        from tanglesim import reduced
        schedule = reduced._schedule
        def corrupt(*args):
            ct, A, blocks, seeds, reads = schedule(*args)
            start, stop, forced, draws, seed = blocks[-1]
            half = (start + stop) // 2
            blocks = blocks[:-1] + [(start, half, forced, draws, seed), (half, stop, 0, False, True)]
            return ct, A, blocks, seeds, reads
        reduced._schedule = corrupt
    """),
    "tangle-agent": ("the last grid row of pending differs", """
        from tanglesim import agent
        fill = agent._fill_grid
        def corrupt(*args):
            frame = fill(*args)
            frame.pending[-1, 0] += 1
            return frame
        agent._fill_grid = corrupt
    """),
}


@pytest.mark.parametrize("kind", sorted(_CORRUPT))
def test_check_reports_a_corrupted_counter_under_python_O(tmp_path, kind):
    # ``python -O`` drops assert statements; the checks must still raise
    scenario = _write(tmp_path, "small.json", {**_TANGLE, "kind": kind, "types": 1})
    message, patch = _CORRUPT[kind]
    script = textwrap.dedent(patch) + textwrap.dedent(f"""
        import sys
        from tanglesim.cli import main
        sys.exit(main(["simulate", {scenario!r}, "--check", "--out", {str(tmp_path / "res")!r}]))
    """)
    env = {**os.environ, "PYTHONPATH": str(Path(tanglesim.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ") and message in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "res").exists()


def test_check_exits_2_on_one_corrupted_member_of_a_block(tmp_path, capsys, monkeypatch):
    # only the second of four members gets the spurious type-1 seed of
    # _CORRUPT; the four run as one lockstep block
    schedule = reduced._schedule
    made = []

    def corrupt(*args):
        ct, A, blocks, seeds, reads = schedule(*args)
        made.append(1)
        if len(made) % 4 != 2:
            return ct, A, blocks, seeds, reads
        start, stop, forced, draws, seed = blocks[-1]
        half = (start + stop) // 2
        blocks = blocks[:-1] + [(start, half, forced, draws, seed), (half, stop, 0, False, True)]
        return ct, A, blocks, seeds, reads

    monkeypatch.setattr(reduced, "_schedule", corrupt)
    scenario = _write(tmp_path, "small.json", {**_TANGLE, "types": 1, "runs": 4})
    assert main(["simulate", scenario, "--out", str(tmp_path / "plain")]) == 0
    assert main(["simulate", scenario, "--check", "--out", str(tmp_path / "res")]) == 2
    assert "free 1 + pending" in capsys.readouterr().err
    assert not (tmp_path / "res").exists()


def test_each_command_starts_at_most_one_process_pool(tmp_path, capsys, monkeypatch):
    made = []

    class Counted(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            made.append(args)
            super().__init__(*args, **kwargs)

    # seeding imports the pool class from the package when it makes a pool
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counted)
    agent = _write(tmp_path, "agent.json", {**_TANGLE, "kind": "tangle-agent"})
    pair = [agent, _write(tmp_path, "reduced.json", _TANGLE)]
    reports = []
    for workers in ("1", "2"):
        made.clear()
        assert main(["validate", *pair, "--workers", workers]) in (0, 1)
        reports.append(capsys.readouterr().out)
        assert len(made) == (workers == "2")
    # both ensembles of one validate share its pool, and the report is the same
    assert made == [(2,)]
    assert reports[0] == reports[1]
    made.clear()
    assert main(["simulate", pair[1], "--workers", "3", "--out", str(tmp_path / "res")]) == 0
    assert made == [(3,)]


def test_validate_sizes_its_pool_by_the_larger_ensembles_blocks(tmp_path, capsys, monkeypatch):
    # an in-process pool that records its size: 8 workers on 3 runs make 3
    # blocks, so a pool of 8 would start 5 idle processes
    made = []

    class InProcess:
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return None

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcess)
    agent = _write(tmp_path, "agent.json", {**_TANGLE, "kind": "tangle-agent"})
    reduced = _write(tmp_path, "reduced.json", _TANGLE)
    reports = []
    for argv in ([agent, reduced, "--workers", "8"],
                 [agent, _write(tmp_path, "more.json", {**_TANGLE, "runs": 7}), "--workers", "4"]):
        assert main(["validate", *argv]) in (0, 1)
        reports.append(capsys.readouterr().out)
    # 7 runs on 4 workers are 4 blocks of 2, 2, 2 and 1
    assert made == [3, 4]
    assert main(["validate", agent, reduced]) in (0, 1)
    assert made == [3, 4] and capsys.readouterr().out == reports[0]


def test_a_one_worker_command_never_imports_the_process_pool(tmp_path):
    # a fresh interpreter that imports the CLI and parses every shipped file
    # has not loaded concurrent.futures.process, which only a pool needs
    script = textwrap.dedent("""
        import sys
        from pathlib import Path
        import tanglesim.cli
        from tanglesim.harness import parse_roots_spec, parse_scenario
        for path in sorted(Path(sys.argv[1]).glob("*.json")):
            (parse_roots_spec if path.name.startswith("roots_") else parse_scenario)(path)
        print("concurrent.futures.process" in sys.modules)
    """)
    env = {**os.environ, "PYTHONPATH": str(Path(tanglesim.__file__).parents[1])}
    scenarios = Path(__file__).parent.parent / "scenarios"
    proc = subprocess.run([sys.executable, "-c", script, str(scenarios)], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
