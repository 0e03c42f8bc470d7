"""Scenario parsing, seeded ensembles, outputs, and the model comparator."""
import csv
import functools
import json
import tempfile
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tanglesim import ReducedTangleSim, harness
from tanglesim.harness import (
    Scenario,
    ScenarioError,
    config_hash,
    ensemble_stats,
    nearest_rank_index,
    parse_scenario,
    run_scenario,
    run_tangle_ensemble,
    validate,
    write_csv,
)
from tanglesim.junction import ControllerParams, JunctionConfig, compliance_path
from tanglesim.seeding import seed_stream, seeded_runs, worker_pool


def _reduced_dict(**over):
    base = {"kind": "tangle-reduced", "rate": 60.0, "delay": 3.0, "horizon": 20.0}
    base.update(over)
    return base


def _reduced_sim(**over) -> ReducedTangleSim:
    """The model a parsed scenario carries; its grid_dt is the default 0.5."""
    return parse_scenario(_reduced_dict(**over)).model


# -- parsing --------------------------------------------------------------------

def test_parse_minimal_scenario_fills_defaults():
    sc = parse_scenario(_reduced_dict(), name="demo")
    assert sc.kind == "tangle-reduced"
    assert sc.seed == 0 and sc.runs == 100
    assert sc.params["types"] == 1
    assert sc.params["grid_dt"] == 0.5
    assert sc.params["arrival_kind"] == "poisson"
    assert sc.params["injections"] == []


def test_unknown_field_is_rejected_by_name():
    with pytest.raises(ScenarioError, match="lambda_rate"):
        parse_scenario(_reduced_dict(lambda_rate=3.0))


def test_missing_required_field_is_named():
    bad = _reduced_dict()
    del bad["rate"]
    with pytest.raises(ScenarioError, match="'rate'"):
        parse_scenario(bad)


def test_output_naming_does_not_change_the_config_hash():
    plain = parse_scenario(_reduced_dict(), name="a")
    named = parse_scenario(_reduced_dict(out="stem", per_run=True), name="b")
    assert (named.out_stem, named.per_run) == ("stem", True)
    assert config_hash(named) == config_hash(plain)


def test_type_errors_are_rejected():
    with pytest.raises(ScenarioError, match="number"):
        parse_scenario(_reduced_dict(rate="fast"))
    with pytest.raises(ScenarioError, match="integer"):
        parse_scenario(_reduced_dict(types=2.5))
    with pytest.raises(ScenarioError, match="number"):
        parse_scenario(_reduced_dict(rate=True))  # bools are not numbers
    with pytest.raises(ScenarioError, match="positive"):
        parse_scenario(_reduced_dict(horizon=-5.0))


def test_unknown_kind_is_rejected():
    with pytest.raises(ScenarioError, match="unknown kind"):
        parse_scenario({"kind": "tangle-3d", "horizon": 1.0})


def test_injection_parsing_and_limits():
    sc = parse_scenario(
        _reduced_dict(types=2, injections=[{"time": 5.0, "type": 2, "count": 7}])
    )
    assert sc.params["injections"] == [{"time": 5.0, "type": 2, "count": 7}]
    with pytest.raises(ScenarioError, match="type"):
        parse_scenario(
            _reduced_dict(types=2, injections=[{"time": 5.0, "type": 1, "count": 7}])
        )
    with pytest.raises(ScenarioError, match="surprise"):
        parse_scenario(
            _reduced_dict(
                types=2,
                injections=[{"time": 5.0, "type": 2, "count": 7, "surprise": 1}],
            )
        )


def test_compliance_ring_and_matrix_forms_are_exclusive():
    ring = {
        "kind": "compliance-net", "horizon": 50.0, "window": 5.0,
        "targets": 0.9, "baselines": 0.5, "ring": {"n": 8, "coupling": 0.1, "lag": 1.0},
    }
    sc = parse_scenario(ring)
    assert sc.params["ring"]["n"] == 8
    conflicted = dict(ring)
    conflicted["n"] = 8
    with pytest.raises(ScenarioError, match="either"):
        parse_scenario(conflicted)


def test_compliance_matrix_form_checks_shapes():
    base = {
        "kind": "compliance-net", "horizon": 50.0, "window": 5.0,
        "targets": [0.9, 0.8], "baselines": [0.5, 0.4], "n": 2,
        "coupling": [[0.0, 0.1], [0.1, 0.0]], "lags": [[0.0, 1.0], [1.0, 0.0]],
    }
    sc = parse_scenario(base)
    assert sc.params["coupling"][0][1] == 0.1
    bad = dict(base)
    bad["coupling"] = [[0.0, 0.1]]
    with pytest.raises(ScenarioError, match="matrix"):
        parse_scenario(bad)


def test_fluid_history_lengths_must_match():
    with pytest.raises(ScenarioError, match="equal length"):
        parse_scenario(
            {"kind": "fluid", "horizon": 30.0, "delay": 3.0,
             "x0": [1.5, 1.5], "l0": [3.0]}
        )


def test_junction_horizon_must_be_whole_steps():
    with pytest.raises(ScenarioError, match="horizon"):
        parse_scenario(
            {"kind": "junction", "horizon": 10.5, "mode": "fixed", "Q": 0.8}
        )


def test_junction_modes():
    sc = parse_scenario(
        {"kind": "junction", "horizon": 100.0, "mode": "fixed", "Q": 0.8}
    )
    assert sc.params["Q"] == 0.8
    sc = parse_scenario(
        {"kind": "junction", "horizon": 100.0, "mode": "closed-loop",
         "controller": {"gain": 0.2}}
    )
    assert sc.params["controller"]["gain"] == 0.2
    with pytest.raises(ScenarioError, match="mode"):
        parse_scenario({"kind": "junction", "horizon": 100.0, "mode": "manual"})
    with pytest.raises(ScenarioError, match="Q"):
        parse_scenario(
            {"kind": "junction", "horizon": 100.0, "mode": "fixed", "Q": 1.2}
        )


_JUNCTION = {"kind": "junction", "horizon": 30.0, "mode": "closed-loop"}
_BLOCKS = {"config": JunctionConfig, "controller": ControllerParams}
# a valid value other than the default for each field of either block
_GIVEN = {"switch_period": 7, "cross_time": 1.5, "slowdown": 0.25, "service_rate": 5,
          "arrival_rate": 2.5, "slope": 0.8, "memory": 0.9, "gain": 0.3, "target": 0.5}


@pytest.mark.parametrize("block, name", [(b, f.name) for b, cls in _BLOCKS.items()
                                         for f in fields(cls)])
def test_a_junction_field_given_alone_builds_what_its_constructor_builds(block, name):
    want = _BLOCKS[block](**{name: _GIVEN[name]})
    sc = parse_scenario({**_JUNCTION, block: {name: _GIVEN[name]}})
    config, path = sc.model
    assert sc.params[block] == asdict(want)
    if block == "config":
        assert config == want
        assert np.array_equal(path, compliance_path(30, controller=ControllerParams()))
    else:
        assert config == JunctionConfig()
        assert np.array_equal(path, compliance_path(30, controller=want))


@pytest.mark.parametrize("block", sorted(_BLOCKS))
def test_a_junction_hashes_the_same_whether_its_defaults_are_absent_empty_or_spelled_out(block):
    spelled = asdict(_BLOCKS[block]())
    hashes = {config_hash(parse_scenario({**_JUNCTION, **given}))
              for given in ({}, {block: {}}, {block: spelled})}
    assert len(hashes) == 1
    first = fields(_BLOCKS[block])[0].name
    assert config_hash(parse_scenario({**_JUNCTION, block: {first: _GIVEN[first]}})) not in hashes


@pytest.mark.parametrize("block", sorted(_BLOCKS))
def test_a_junction_block_refuses_an_unknown_key_by_name(block):
    with pytest.raises(ScenarioError, match=rf"{block}: unknown field\(s\) \['bogus'\]"):
        parse_scenario({**_JUNCTION, block: {"bogus": 1.0}})


@pytest.mark.parametrize("name", ["switch_period", "service_rate"])
def test_a_junction_count_must_be_an_integer(name):
    with pytest.raises(ScenarioError, match=rf"scenario\.config\.{name}: expected an integer, got 2\.5"):
        parse_scenario({**_JUNCTION, "config": {name: 2.5}})


def test_parse_from_file_and_bad_json(tmp_path):
    path = tmp_path / "ok.json"
    path.write_text(json.dumps(_reduced_dict()))
    sc = parse_scenario(path)
    assert sc.name == "ok"
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ScenarioError, match="invalid JSON"):
        parse_scenario(bad)
    with pytest.raises(ScenarioError, match="not found"):
        parse_scenario(tmp_path / "missing.json")


# every shipped scenario's config hash, pinned: the parser stores each value
# with the type and value it always had
_SHIPPED_HASHES = {
    "double_spend_attack": "c1214779ab7f1443e408fd18e971875e6dbf0079a347aade188683e2cf0088fb",
    "fluid_equilibrium": "9c11eb24b2efbacb56356605dad489db6a599b029dffa3e31c5ef583cc9b7543",
    "fluid_window_surplus": "7c1285b2a87a365c93669a80d0f23364d2e4aeeaa47b240dd344b97bdfe042be",
    "junction_controller": "ca817b9d248f71cf150a3f2f89099ffe421bdd7e25dd75b2a57491580d272880",
    "junction_fixed": "c301c376881285f226e5628ee131b94158f3f4e7e70a5d8c25de44cdbb7bde07",
    "ring_compliance": "8d0732a8ce8220b247cf6d551cfdd785dae35b522a73dcc238efa37926855555",
    "steady_state": "71a2fcfe10fe4be48adac428478283315e9de97b1ef0b79c62f86d8fc19c5bd4",
    "validation_agent": "702bb7b55882424df6227e758fb0f7e39abe590dc2d93102a2203aa492d9eddc",
    "validation_reduced": "d386b7095ddc566514264577c2fbb6d2c899da6954bea1b954dc17fece26864e",
}
_SHIPPED = sorted((Path(__file__).parent.parent / "scenarios").glob("*.json"))


@pytest.mark.parametrize("path", _SHIPPED, ids=lambda p: p.stem)
def test_shipped_files_parse(path):
    if path.stem.startswith("roots_"):
        kind, f, region = harness.parse_roots_spec(path)
        assert kind == json.loads(path.read_text())["kind"]
        assert isinstance(f(region.re_max + 1j * region.im_max), complex)
    else:
        assert config_hash(parse_scenario(path)) == _SHIPPED_HASHES[path.stem]


# -- hashing ---------------------------------------------------------------------

def test_config_hash_tracks_semantics_only():
    a = parse_scenario(_reduced_dict(), name="a")
    b = parse_scenario(_reduced_dict(), name="b")
    assert config_hash(a) == config_hash(b)  # name does not matter
    c = parse_scenario(_reduced_dict(out="elsewhere"), name="a")
    assert config_hash(a) == config_hash(c)  # output naming does not matter
    d = parse_scenario(_reduced_dict(seed=1), name="a")
    assert config_hash(a) != config_hash(d)
    e = parse_scenario(_reduced_dict(rate=61.0), name="a")
    assert config_hash(a) != config_hash(e)


# -- seeding ---------------------------------------------------------------------

def test_seed_stream_is_deterministic_and_decorrelated():
    a1 = seed_stream(9, 4).random(8)
    a2 = seed_stream(9, 4).random(8)
    assert np.array_equal(a1, a2)
    b = seed_stream(9, 5).random(8)
    assert not np.array_equal(a1, b)
    with pytest.raises(ValueError):
        seed_stream(9, -1)


def test_run_order_does_not_change_member_streams():
    # member r's stream depends only on (seed, r), not on which members ran
    draws = {r: seed_stream(3, r).random(4) for r in (5, 1, 3)}
    assert np.array_equal(draws[1], seed_stream(3, 1).random(4))
    assert np.array_equal(draws[5], seed_stream(3, 5).random(4))


# -- statistics -------------------------------------------------------------------

def test_nearest_rank_percentile_indices():
    assert nearest_rank_index(5, 100) == 4
    assert nearest_rank_index(95, 100) == 94
    assert nearest_rank_index(50, 10) == 4
    assert nearest_rank_index(5, 1) == 0
    assert nearest_rank_index(100, 7) == 6


def test_ensemble_stats_against_manual_numpy():
    rng = np.random.default_rng(0)
    stack = rng.normal(size=(40, 7))
    vs = ensemble_stats(stack)
    assert np.allclose(vs.mean, stack.mean(axis=0))
    assert np.allclose(vs.std, stack.std(axis=0))
    srt = np.sort(stack, axis=0)
    assert np.array_equal(vs.p5, srt[1])  # ceil(0.05*40)-1 = 1
    assert np.array_equal(vs.p95, srt[37])  # ceil(0.95*40)-1 = 37


def test_workers_do_not_change_results():
    sim = _reduced_sim(rate=40.0, delay=1.0)
    times, serial = run_tangle_ensemble(sim, 0.5, 10.0, 3, 6, workers=1)
    pooled = run_tangle_ensemble(sim, 0.5, 10.0, 3, 6, workers=3)[1]
    assert np.array_equal(times, np.arange(21) * 0.5)
    assert np.array_equal(serial, pooled)


def test_ensemble_stats_are_the_per_variable_per_type_stats():
    # row r holds run r's (tips, free, pending, created), and one stats
    # call over the stack gives what a call per variable and type over its
    # (runs, G) slice gives, bit for bit
    sim = _reduced_sim(rate=40.0, delay=1.0, types=2,
                       injections=[{"time": 3.0, "type": 2, "count": 10}])
    times, stack = run_tangle_ensemble(sim, 0.5, 10.0, 4, 7)
    assert stack.shape == (7, 4, 21, 2)
    frames = [sim.run(10.0, seed_stream(4, r), grid_dt=0.5) for r in range(7)]
    for r, frame in enumerate(frames):
        assert np.array_equal(frame.times, times)
        assert np.array_equal(stack[r], [frame.tips, frame.free, frame.pending, frame.created])
    stats = ensemble_stats(stack)
    for v, attr in enumerate(("tips", "free", "pending", "created")):
        for i in range(2):
            one = ensemble_stats(np.stack([getattr(f, attr)[:, i] for f in frames]))
            for stat in ("mean", "std", "p5", "p95"):
                assert np.array_equal(getattr(one, stat), getattr(stats, stat)[v, :, i])


def _int_block(rng: np.random.Generator) -> np.ndarray:
    """A (2, 3) integer run: stacking must convert it to float64."""
    return rng.integers(0, 100, size=(2, 3))


def _int_rows(rngs) -> np.ndarray:
    """A block member: the stacked ``_int_block`` of each generator."""
    return np.stack([_int_block(rng) for rng in rngs])


def _doubles(rngs) -> np.ndarray:
    """A block member of one double per run."""
    return np.array([rng.random() for rng in rngs])


def _double_list(rngs) -> list:
    """A block member that gives a list, not an array."""
    return [rng.random() for rng in rngs]


@pytest.mark.parametrize("runs, workers", [(1, 1), (1, 2), (5, 2), (5, 3), (4, 6)])
def test_seeded_runs_yields_the_members_in_run_index_order(runs, workers):
    doubles = seeded_runs(_doubles, 7, runs, workers)
    assert doubles.shape == (runs,) and doubles.dtype == np.float64
    assert doubles.tolist() == [seed_stream(7, r).random() for r in range(runs)]
    listed = seeded_runs(_double_list, 7, runs, workers)
    assert listed.dtype == np.float64 and listed.tolist() == doubles.tolist()
    stack = seeded_runs(_int_rows, 7, runs, workers)
    assert stack.shape == (runs, 2, 3) and stack.dtype == np.float64
    assert np.array_equal(stack, [_int_block(seed_stream(7, r)) for r in range(runs)])
    assert np.array_equal(stack, seeded_runs(_int_rows, 7, runs, 1))


@pytest.mark.parametrize("runs, workers", [(1, 1), (1, 2), (5, 1), (5, 2), (5, 3), (4, 6)])
def test_seeded_runs_hands_block_members_contiguous_blocks(runs, workers):
    want = [_int_block(seed_stream(7, r)) for r in range(runs)]
    assert np.array_equal(seeded_runs(_int_rows, 7, runs, workers), want)
    with worker_pool(workers) as pool:  # one pool serves several ensembles
        for _ in range(2):
            assert np.array_equal(seeded_runs(_int_rows, 7, runs, workers, pool), want)


@pytest.mark.parametrize("runs, workers", [(0, 1), (3, 0)])
def test_seeded_runs_rejects_empty_or_workerless_ensembles(runs, workers):
    with pytest.raises(ValueError, match="runs" if runs < 1 else "workers"):
        seeded_runs(_doubles, 7, runs, workers)


# -- scenario execution ----------------------------------------------------------

def test_run_scenario_tangle_outputs(tmp_path):
    sc = parse_scenario(
        _reduced_dict(runs=3, horizon=10.0, per_run=True), name="smoke"
    )
    summary = run_scenario(sc, out_dir=tmp_path)
    ens = tmp_path / "smoke_ensemble.csv"
    assert ens.exists()
    assert (tmp_path / "smoke_run0000.csv").exists()
    assert (tmp_path / "smoke_run0002.csv").exists()
    meta = json.loads((tmp_path / "smoke_summary.json").read_text())
    assert meta["kind"] == "tangle-reduced"
    assert meta["runs"] == 3
    assert meta["config_hash"] == config_hash(sc)
    header = ens.read_text().splitlines()[0].split(",")
    assert header[0] == "time"
    assert "L1_mean" in header and "N1_p95" in header
    run_header = (tmp_path / "smoke_run0000.csv").read_text().splitlines()[0]
    assert run_header == "time,type,tips,free,pending,created"


def test_run_scenario_is_byte_reproducible(tmp_path):
    sc = parse_scenario(_reduced_dict(runs=4, horizon=10.0), name="rep")
    run_scenario(sc, out_dir=tmp_path / "first")
    run_scenario(sc, out_dir=tmp_path / "second")
    a = (tmp_path / "first" / "rep_ensemble.csv").read_bytes()
    b = (tmp_path / "second" / "rep_ensemble.csv").read_bytes()
    assert a == b


def test_run_scenario_fluid_static_stays_flat(tmp_path):
    sc = parse_scenario(
        {"kind": "fluid", "horizon": 12.0, "delay": 3.0,
         "x0": [1.5, 1.5], "l0": [3.0, 3.0]},
        name="flat",
    )
    run_scenario(sc, out_dir=tmp_path)
    rows = (tmp_path / "flat_fluid.csv").read_text().splitlines()
    assert rows[0] == "time,x1,l1,w1,x2,l2,w2"
    assert rows[1].startswith("0.0,")
    first = [float(v) for v in rows[1].split(",")]
    last = [float(v) for v in rows[-1].split(",")]
    assert first[1:] == last[1:] == [1.5, 3.0, 1.5, 1.5, 3.0, 1.5]


def test_run_scenario_compliance_ring(tmp_path):
    sc = parse_scenario(
        {"kind": "compliance-net", "horizon": 30.0, "window": 5.0,
         "targets": 0.9, "baselines": 0.5,
         "ring": {"n": 4, "coupling": 0.1, "lag": 1.0},
         "initial_q_offset": 0.05},
        name="ring4",
    )
    run_scenario(sc, out_dir=tmp_path)
    rows = (tmp_path / "ring4_compliance.csv").read_text().splitlines()
    assert rows[0].split(",") == (
        ["time"] + [f"Q{i}" for i in (1, 2, 3, 4)]
        + [f"C{i}" for i in (1, 2, 3, 4)] + [f"Qbar{i}" for i in (1, 2, 3, 4)]
    )
    last = [float(v) for v in rows[-1].split(",")]
    assert all(abs(q - 0.9) < 1e-3 for q in last[1:5])  # settled back


def test_run_scenario_compliance_refuses_infeasible_static_start(tmp_path):
    sc = parse_scenario(
        {"kind": "compliance-net", "horizon": 30.0, "window": 5.0,
         "targets": 0.2, "baselines": 0.9,
         "ring": {"n": 4, "coupling": 0.1, "lag": 1.0}},
        name="infeasible",
    )
    with pytest.raises(ScenarioError, match="infeasible"):
        run_scenario(sc, out_dir=tmp_path)


def test_run_scenario_junction(tmp_path):
    sc = parse_scenario(
        {"kind": "junction", "horizon": 50.0, "mode": "fixed", "Q": 0.9,
         "runs": 5},
        name="traffic",
    )
    run_scenario(sc, out_dir=tmp_path)
    rows = (tmp_path / "traffic_junction.csv").read_text().splitlines()
    assert rows[0] == "time,vbar_mean,vbar_std,q_mean,c_mean"
    assert len(rows) == 52  # header + horizon + 1


def test_run_scenario_overrides(tmp_path):
    sc = parse_scenario(_reduced_dict(runs=50), name="ovr")
    summary = run_scenario(sc, out_dir=tmp_path, runs=2, seed=9)
    assert summary.runs == 2
    assert summary.seed == 9
    # the overrides apply to a copy, not to the caller's scenario
    assert (sc.runs, sc.seed) == (50, 0)


@pytest.mark.parametrize(
    "override", [{"runs": 0}, {"runs": -2}, {"seed": -1}, {"workers": 0}]
)
def test_run_scenario_rejects_bad_overrides_before_any_work(tmp_path, override):
    sc = parse_scenario(_reduced_dict(runs=3), name="bad")
    name = next(iter(override))
    with pytest.raises(ScenarioError, match=name):
        run_scenario(sc, out_dir=tmp_path / "out", **override)
    assert not (tmp_path / "out").exists()


def test_run_tangle_ensemble_rejects_empty_or_workerless_ensembles():
    sim = _reduced_sim(rate=40.0, delay=1.0)
    with pytest.raises(ScenarioError, match="runs"):
        run_tangle_ensemble(sim, 0.5, 5.0, 0, 0)
    with pytest.raises(ScenarioError, match="workers"):
        run_tangle_ensemble(sim, 0.5, 5.0, 0, 2, workers=0)


_WORKER_SCENARIOS = {
    "junction": {"kind": "junction", "horizon": 40.0, "mode": "closed-loop", "seed": 3},
    "injected": _reduced_dict(types=2, horizon=12.0, seed=5, per_run=True,
                              injections=[{"time": 4.0, "type": 2, "count": 30}]),
    "agent": _reduced_dict(kind="tangle-agent", horizon=12.0, seed=8, per_run=True),
}


@pytest.mark.parametrize("runs", [1, 5])
@pytest.mark.parametrize("name", sorted(_WORKER_SCENARIOS))
def test_csvs_are_byte_identical_for_any_worker_count(tmp_path, name, runs):
    sc = parse_scenario(dict(_WORKER_SCENARIOS[name], runs=runs), name=name)
    outputs = {}
    for workers in (1, 2, 3):
        summary = run_scenario(sc, out_dir=tmp_path / f"w{workers}", workers=workers)
        outputs[workers] = {Path(p).name: Path(p).read_bytes()
                            for p in summary.outputs if p.endswith(".csv")}
    assert len(outputs[1]) == (1 + runs if sc.per_run else 1)
    assert outputs[1] == outputs[2] == outputs[3]


@pytest.mark.parametrize("workers", [1, 2])
def test_per_run_csvs_come_from_the_ensemble_members(tmp_path, monkeypatch, workers):
    sc = parse_scenario(
        _reduced_dict(runs=3, horizon=10.0, types=2, per_run=True,
                      injections=[{"time": 4.0, "type": 2, "count": 5}]),
        name="perrun",
    )
    calls = []
    run, run_block = ReducedTangleSim.run, ReducedTangleSim.run_block

    @functools.wraps(run_block)  # a pooled block pickles as getattr(sim, "run_block")
    def counted(self, horizon, rngs, *args, **kwargs):
        calls.extend(rngs)
        return run_block(self, horizon, rngs, *args, **kwargs)

    monkeypatch.setattr(ReducedTangleSim, "run_block", counted)
    run_scenario(sc, out_dir=tmp_path, workers=workers)
    if workers == 1:  # pool members run in other processes
        assert len(calls) == sc.runs  # one history per member, none rerun
    for r in range(sc.runs):
        frame = run(sc.model, 10.0, seed_stream(sc.seed, r), grid_dt=0.5)
        rows = _read_csv(tmp_path / f"perrun_run{r:04d}.csv")
        assert rows[0] == ["time", "type", "tips", "free", "pending", "created"]
        # one row per grid time and type, in that order, with 1-based
        # integer type labels and float counters
        want = [
            [repr(float(t)), str(i + 1)]
            + [repr(float(getattr(frame, a)[g, i]))
               for a in ("tips", "free", "pending", "created")]
            for g, t in enumerate(frame.times) for i in range(2)
        ]
        assert rows[1:] == want


# -- CSV writer ----------------------------------------------------------------

def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _float_rows(*columns):
    """CSV rows as the writer must print them: each value a Python float."""
    return [[repr(float(v)) for v in row] for row in zip(*columns)]


def _recorded(monkeypatch, owner, name):
    """Replace ``owner.name`` by a wrapper that keeps every return value."""
    seen = []
    fn = getattr(owner, name)

    def wrapper(*args, **kwargs):
        seen.append(fn(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(owner, name, wrapper)
    return seen


def test_write_csv_round_trip(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], [np.array([1, 3]), np.array([2.5, 4.0])])
    assert path.read_bytes() == b"a,b\r\n1,2.5\r\n3,4.0\r\n"


@pytest.mark.parametrize("n", [1, 511, 512, 513, 1025])
def test_write_csv_writes_every_row_across_block_boundaries(tmp_path, n):
    rng = np.random.default_rng(n)
    ints = np.arange(n) * 7
    floats = rng.normal(size=n)
    strided = rng.normal(size=(n, 3))[:, 1]
    path = tmp_path / "t.csv"
    write_csv(path, ["i", "x", "y"], [ints, floats, strided])
    rows = _read_csv(path)
    assert rows[0] == ["i", "x", "y"]
    assert rows[1:] == [
        [str(int(i)), repr(float(x)), repr(float(y))]
        for i, x, y in zip(ints, floats, strided)
    ]


def oracle_write_csv(path, header, columns):
    """The csv-module form of `write_csv`: its bytes are the reference."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for a in range(0, len(columns[0]), 512):
            writer.writerows(zip(*(c[a:a + 512].tolist() for c in columns)))


_EDGE_FLOATS = [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324, 1e16, 0.1]
_EDGE_INTS = [2**63 - 1, 2**63 - 2, -(2**63), -(2**63) + 1, 0, -1]
_NANS = np.array([0x7FF8000000000001, 0xFFF8000000000000, 0x7FF8000000000000, 0x7FF0000000000001],
                 dtype=np.uint64).view(np.float64)


@st.composite
def csv_tables(draw):
    """Numeric columns of one length: float64 or int64, some strided."""
    n = draw(st.sampled_from([1, 511, 512, 513]) | st.integers(1, 1100))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            values, dtype = st.sampled_from(_EDGE_INTS) | st.integers(-(2**63), 2**63 - 1), np.int64
        else:
            values, dtype = st.sampled_from(_EDGE_FLOATS) | st.floats(), np.float64
        pool = np.array(draw(st.lists(values, min_size=1, max_size=20)), dtype=dtype)
        stride = draw(st.sampled_from([1, 2, 3]))
        columns.append(np.resize(pool, n * stride)[::stride])
    return [f"c{i}" for i in range(len(columns))], columns


@settings(max_examples=60, deadline=None)
@given(table=csv_tables())
@example(table=(["x", "i"], [np.resize(np.array(_EDGE_FLOATS), 2 * 513)[::2],
                             np.resize(np.array(_EDGE_INTS, dtype=np.int64), 513)]))
# cells are keyed by bit pattern: -0.0 and 0.0 in one column and one block,
# then in two columns, must not share a text
@example(table=(["x"], [np.array([0.0, -0.0, 1.0, -0.0, 0.0])]))
@example(table=(["x", "y"], [np.array([-0.0, 0.0, -0.0]), np.array([0.0, -0.0, 0.0])]))
# a quiet NaN with a payload, a negative NaN, the default NaN and a signalling NaN
@example(table=(["x", "i"], [_NANS, np.arange(len(_NANS))]))
# one value in two columns and on both sides of the row 511/512 block edge,
# with -0.0 next to 0.0 in each block
@example(table=(["x", "y"], [np.r_[np.full(512, 0.1), -0.0, 0.0],
                             np.r_[np.zeros(511), -0.0, 0.1, 0.1]]))
def test_write_csv_gives_the_csv_modules_bytes(table):
    header, columns = table
    with tempfile.TemporaryDirectory() as d:
        ours, theirs = Path(d) / "ours.csv", Path(d) / "theirs.csv"
        write_csv(ours, header, columns)
        oracle_write_csv(theirs, header, columns)
        assert ours.read_bytes() == theirs.read_bytes()


@pytest.mark.parametrize(
    "header, columns",
    [(["a"], [np.zeros(3), np.zeros(3)]), (["a", "b"], [np.zeros(3), np.zeros(2)])],
)
def test_write_csv_rejects_mismatched_columns(tmp_path, header, columns):
    with pytest.raises(ValueError, match="column"):
        write_csv(tmp_path / "out" / "t.csv", header, columns)
    assert not (tmp_path / "out").exists()


def test_fluid_csv_holds_every_row_as_python_floats(tmp_path, monkeypatch):
    # a moving two-type state over more than two 512-row blocks
    trajs = _recorded(monkeypatch, harness.fluid, "integrate")
    sc = parse_scenario(
        {"kind": "fluid", "horizon": 10.5, "delay": 1.0,
         "x0": [0.5, 1.0], "l0": [2.0, 1.5]},
        name="moving",
    )
    run_scenario(sc, out_dir=tmp_path)
    (traj,) = trajs
    rows = _read_csv(tmp_path / "moving_fluid.csv")
    assert rows[0] == ["time", "x1", "l1", "w1", "x2", "l2", "w2"]
    assert len(rows) - 1 == len(traj.times) > 1024
    w = traj.l - traj.x
    assert rows[1:] == _float_rows(
        traj.times, traj.x[:, 0], traj.l[:, 0], w[:, 0], traj.x[:, 1], traj.l[:, 1], w[:, 1]
    )


def test_compliance_csv_holds_every_row_as_python_floats(tmp_path, monkeypatch):
    # 1251 rows: two whole 512-row blocks and a partial one
    trajs = _recorded(monkeypatch, harness.compliance, "simulate")
    sc = parse_scenario(
        {"kind": "compliance-net", "horizon": 25.0, "window": 5.0,
         "targets": 0.9, "baselines": 0.5,
         "ring": {"n": 3, "coupling": 0.1, "lag": 1.0},
         "initial_q_offset": 0.05},
        name="ring3",
    )
    run_scenario(sc, out_dir=tmp_path)
    (traj,) = trajs
    rows = _read_csv(tmp_path / "ring3_compliance.csv")
    assert len(rows) - 1 == len(traj.times) == 1251
    assert rows[1:] == _float_rows(traj.times, *traj.Q.T, *traj.C.T, *traj.Qbar.T)


def test_junction_csv_prints_times_as_floats(tmp_path, monkeypatch):
    ensembles = _recorded(monkeypatch, harness.junction, "run_ensemble")
    sc = parse_scenario(
        {"kind": "junction", "horizon": 20.0, "mode": "fixed", "Q": 0.8, "runs": 4},
        name="jn",
    )
    run_scenario(sc, out_dir=tmp_path)
    (ens,) = ensembles
    rows = _read_csv(tmp_path / "jn_junction.csv")
    assert rows[1][0] == "0.0"
    assert rows[1:] == _float_rows(
        ens.times, ens.vbar_mean, ens.vbar_std, ens.q_mean, ens.c_mean
    )


# -- agent-vs-reduced validation -----------------------------------------------------

def _val_pair(**reduced_over):
    a = parse_scenario(
        {"kind": "tangle-agent", "rate": 60.0, "delay": 3.0,
         "horizon": 30.0, "runs": 40, "seed": 5},
        name="a",
    )
    rd = {"kind": "tangle-reduced", "rate": 60.0, "delay": 3.0,
          "horizon": 30.0, "runs": 40, "seed": 6}
    rd.update(reduced_over)
    return a, parse_scenario(rd, name="r")


def test_validation_passes_for_matching_models():
    a, r = _val_pair()
    rep = validate(a, r, workers=4)
    assert rep.passed
    assert rep.max_rel_L < 0.05 and rep.max_rel_X < 0.05
    assert rep.compared_from == 15.0
    assert rep.compared_points == 30


def test_validation_passes_for_one_injected_burst():
    # two types, one type-2 burst of 60 at t = 20: both models seed the type
    # with one attached tip and create the other 59 members at that instant
    base = {"rate": 60.0, "delay": 3.0, "types": 2, "horizon": 60.0,
            "runs": 100, "seed": 42,
            "injections": [{"time": 20.0, "type": 2, "count": 60}]}
    a, r = (parse_scenario(dict(base, kind=f"tangle-{k}"), name=k)
            for k in ("agent", "reduced"))
    rep = validate(a, r, workers=2)
    assert rep.passed
    assert rep.max_rel_L < 0.05 and rep.max_rel_X < 0.05


def test_validation_report_is_identical_for_any_worker_count():
    a, r = _val_pair(runs=5)
    a.runs = 5
    reports = [json.dumps(asdict(validate(a, r, workers=w))) for w in (1, 2, 3)]
    assert reports[0] == reports[1] == reports[2]


def test_validation_fails_honestly_for_different_physics():
    a, r = _val_pair(delay=5.0, runs=10)
    a.runs = 10
    rep = validate(a, r)
    assert not rep.passed
    assert rep.max_rel_L > 0.2


def test_validation_refuses_structural_mismatch():
    a, r = _val_pair(types=2)
    with pytest.raises(ScenarioError, match="type counts"):
        validate(a, r)
    a, r = _val_pair(horizon=60.0)
    with pytest.raises(ScenarioError, match="horizons"):
        validate(a, r)
    a, r = _val_pair(grid_dt=1.0)
    with pytest.raises(ScenarioError, match="grids"):
        validate(a, r)


def test_validation_checks_kinds():
    a, r = _val_pair()
    with pytest.raises(ScenarioError, match="tangle-agent"):
        validate(r, r)
    with pytest.raises(ScenarioError, match="tangle-reduced"):
        validate(a, a)
