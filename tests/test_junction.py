"""Traffic-junction Monte Carlo tests.

The service law and controller map are pinned with hand-computed values.
The controller sees Q, never the queues, so Q and C are one deterministic
path per ensemble (``compliance_path``) and ``run`` steps only the queues
along its Q row.  ``run`` makes a member's draws with two numpy array
calls, each queue's Poisson(rate / 3) arrivals per unit and two red
uniforms per unit, then steps a block of members together in int64 lanes
one switch period at a time, with a capacity table in place of per-unit
``service_capacity`` calls.  Its readable form, a queue state object
advanced by ``advance`` on the same draws laid out the same way, with the
controller update after each unit, is kept here as the oracle: on a block
of one to seven generators, each of ``run``'s rows must equal its
member's oracle vbar row bit for bit and leave that member's generator
where the oracle leaves it, and ``compliance_path`` must equal its Q and C
rows.  The property runs over arrival rates from 0 to 150 and over the
lanes' shapes: the shipped files' regimes, a run that ends mid-period, a
period longer than the run, one-unit periods, and the largest arrivals
the int64 counts hold.

``step`` advances the state on numpy's scalar calls instead: one
``poisson(rate)`` spread by one multinomial over the three queues, then one
``random()`` per nonempty red queue.  That was the model's draw order
before ``run`` drew its arrivals per queue; by Poisson splitting the two
have the same law, and a fixed-seed ensemble test holds ``run`` to
``step``'s means within sampling error.  ``step`` also carries the
single-unit dynamics tests and the vehicle-conservation fuzz.
The closed-loop fixed point is matched against plain iteration of the
controller map.  An ensemble's ``q_mean`` and ``c_mean`` are pinned to the
mean of ``runs`` stacked copies of the path, bit for bit: that is what the
CSVs held when every run recorded Q and C.
"""
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tanglesim import junction, seeding
from tanglesim.junction import (
    ControllerParams,
    JunctionConfig,
    compliance_path,
    controller_step,
    run,
    run_ensemble,
    service_capacity,
)
from tanglesim.seeding import seed_stream


# -- reference oracle ----------------------------------------------------------------

@dataclass
class JunctionState:
    queues: np.ndarray  # (3,) int
    phase: int = 0  # index of the green queue
    unit: int = 0
    phase_violations: int = 0  # incursions since the last switch
    Q: float = 1.0
    C: float = 0.0

    @property
    def vbar(self) -> float:
        return float(self.queues.sum()) / 3.0


def advance(state: JunctionState, config: JunctionConfig, arrivals, red_uniform):
    """Advance one time unit in place on its draws; returns (arrivals,
    violations, served).

    ``arrivals`` holds the unit's arrivals per queue, and ``red_uniform(k)``
    gives the uniform of the k-th red queue (lower index first); it is
    called only for a nonempty red queue.  Order within the unit: arrivals,
    red-queue incursion attempts (at most one per nonempty red queue, each
    with probability 1 - Q), green service throttled by the incursions
    accumulated this phase, then the signal switch check.  Vehicle
    conservation: arrivals - served = change in the total queue length
    (incursions move no vehicles).
    """
    state.queues += arrivals
    violations = 0
    reds = [r for r in range(3) if r != state.phase]
    for k, r in enumerate(reds):
        if state.queues[r] > 0 and red_uniform(k) < 1.0 - state.Q:
            violations += 1
    state.phase_violations += violations
    cap = service_capacity(config, state.phase_violations)
    served = min(int(state.queues[state.phase]), cap)
    state.queues[state.phase] -= served
    state.unit += 1
    if state.unit % config.switch_period == 0:
        state.phase = (state.phase + 1) % 3
        state.phase_violations = 0
    return int(sum(arrivals)), violations, served


def step(state: JunctionState, config: JunctionConfig, rng: np.random.Generator):
    """``advance`` on numpy's scalar calls: ``poisson(rate)`` arrivals
    spread by one multinomial, then one ``random()`` per nonempty red queue."""
    arrivals = rng.multinomial(rng.poisson(config.arrival_rate), (1 / 3, 1 / 3, 1 / 3))
    return advance(state, config, arrivals, lambda k: rng.random())


def kernel_draws(config: JunctionConfig, units: int, rng: np.random.Generator):
    """The (units, 3) arrivals and (units, 2) red uniforms, drawn as ``run``
    draws them."""
    return rng.poisson(config.arrival_rate / 3, (units, 3)), rng.random((units, 2))


def oracle_run(config, horizon, rng, fixed_Q=None, controller=None, scalar=False) -> np.ndarray:
    """``run`` through the state object: rows vbar, Q, C.  The units step
    on ``kernel_draws``, or with ``scalar`` on ``step``'s scalar calls."""
    q0 = fixed_Q if fixed_Q is not None else 0.0
    state = JunctionState(queues=np.zeros(3, dtype=np.int64), Q=q0, C=0.0)
    if not scalar:
        arrivals, uniforms = kernel_draws(config, horizon, rng)
    out = np.zeros((3, horizon + 1))
    out[1, 0] = state.Q
    for t in range(1, horizon + 1):
        if scalar:
            step(state, config, rng)
        else:
            advance(state, config, arrivals[t - 1], uniforms[t - 1].__getitem__)
        if controller is not None:
            state.C, state.Q = controller_step(state.C, state.Q, controller)
        out[:, t] = state.vbar, state.Q, state.C
    return out


_CONFIGS = st.builds(
    JunctionConfig,
    switch_period=st.integers(1, 12),
    cross_time=st.floats(0.2, 3.0),
    slowdown=st.floats(0.0, 2.0),
    service_rate=st.integers(1, 5),
    arrival_rate=st.floats(0.0, 150.0),
)
_CONTROLLERS = st.builds(
    ControllerParams,
    slope=st.floats(0.05, 5.0),
    memory=st.floats(0.0, 1.2),
    gain=st.floats(0.0, 1.0),
    target=st.floats(0.0, 1.0),
)


@settings(max_examples=60, deadline=None)
@given(config=_CONFIGS,
       mode=st.one_of(st.sampled_from([0.0, 0.8, 1.0]), st.floats(0.0, 1.0), _CONTROLLERS),
       horizon=st.integers(1, 120),
       seed=st.integers(0, 2**32 - 1),
       members=st.integers(1, 7))
# arrival rates 0 (no arrivals), 9.99 and 10, and 120: a queue's mean of 40
# is past 10, where numpy's Poisson changes method
@example(config=JunctionConfig(arrival_rate=0.0), mode=0.0, horizon=50, seed=1, members=1)
@example(config=JunctionConfig(arrival_rate=9.99), mode=0.8, horizon=120, seed=2, members=1)
@example(config=JunctionConfig(arrival_rate=10.0), mode=ControllerParams(), horizon=120, seed=3,
         members=1)
@example(config=JunctionConfig(arrival_rate=120.0), mode=0.5, horizon=120, seed=4, members=1)
# the lanes' shapes: the shipped fixed file's regime (about 120 cars
# queued, capacity 0 for most of each period), the shipped controller, a
# run that ends mid-period, one-unit periods (alone and in a block of
# seven), both reds drawing each unit, and a period longer than the run
@example(config=JunctionConfig(), mode=0.8, horizon=1000, seed=77, members=1)
@example(config=JunctionConfig(), mode=ControllerParams(), horizon=600, seed=9, members=1)
@example(config=JunctionConfig(switch_period=7), mode=ControllerParams(), horizon=45, seed=5,
         members=1)
@example(config=JunctionConfig(switch_period=1), mode=0.5, horizon=120, seed=6, members=1)
@example(config=JunctionConfig(switch_period=1), mode=0.5, horizon=120, seed=10, members=7)
@example(config=JunctionConfig(arrival_rate=9.99), mode=0.0, horizon=120, seed=7, members=1)
@example(config=JunctionConfig(switch_period=12), mode=0.3, horizon=5, seed=11, members=4)
# the overflow edge: arrival_rate * horizon just below the int64 bound, on
# one unit and over one whole ten-unit period
@example(config=JunctionConfig(arrival_rate=9.2e18), mode=0.5, horizon=1, seed=12, members=3)
@example(config=JunctionConfig(arrival_rate=9.2e17), mode=0.5, horizon=10, seed=13, members=3)
def test_run_matches_the_state_object_oracle(config, mode, horizon, seed, members):
    kw = {"controller": mode} if isinstance(mode, ControllerParams) else {"fixed_Q": mode}
    path = compliance_path(horizon, **kw)
    ours = [np.random.default_rng(seed + r) for r in range(members)]
    theirs = [np.random.default_rng(seed + r) for r in range(members)]
    got = run(config, path[0], ours)
    assert got.shape == (members, horizon + 1) and path.shape == (2, horizon + 1)
    for row, mine, oracle_rng in zip(got, ours, theirs):
        want = oracle_run(config, horizon, oracle_rng, **kw)
        assert np.array_equal(row, want[0])
        assert np.array_equal(path, want[1:])
        assert mine.random() == oracle_rng.random()  # the same draws, no more


def second_half_slope(times: np.ndarray, values: np.ndarray) -> float:
    """Least-squares slope of values over the second half of the record."""
    k = len(times) // 2
    t = times[k:]
    v = values[k:]
    t = t - t.mean()
    return float((t * (v - v.mean())).sum() / (t * t).sum())


# -- service law -------------------------------------------------------------------

def test_service_capacity_hand_table():
    cfg = JunctionConfig()  # service_rate 3, cross_time 1, slowdown 1
    # floor(3 * 1 / (1 + v)): 3, 1, 1, 0, ...
    assert service_capacity(cfg, 0) == 3
    assert service_capacity(cfg, 1) == 1
    assert service_capacity(cfg, 2) == 1
    assert service_capacity(cfg, 3) == 0
    assert service_capacity(cfg, 100) == 0


def test_service_capacity_scales_with_slowdown():
    gentle = JunctionConfig(slowdown=0.25)
    assert service_capacity(gentle, 1) == 2  # 3 / 1.25
    assert service_capacity(gentle, 4) == 1  # 3 / 2


def test_config_validation():
    with pytest.raises(ValueError):
        JunctionConfig(switch_period=0)
    for period in (2.5, 10.0):
        with pytest.raises(ValueError, match="switch_period"):
            JunctionConfig(switch_period=period)
    assert JunctionConfig(switch_period=np.int64(7)).switch_period == 7
    with pytest.raises(ValueError):
        JunctionConfig(cross_time=0.0)
    with pytest.raises(ValueError):
        JunctionConfig(service_rate=0)
    # int(2.5) would serve 2 cars a unit without a word
    with pytest.raises(ValueError, match="service_rate"):
        JunctionConfig(service_rate=2.5)
    assert JunctionConfig(service_rate=np.int64(4)).service_rate == 4
    # a service_rate above the int64 counts' bound (10**400 does not even
    # convert to a double), or a service_rate * cross_time past the largest
    # double, is refused here, not by an OverflowError or int(inf) in a run
    with pytest.raises(ValueError, match="service_rate must be at most"):
        JunctionConfig(service_rate=10**400)
    with pytest.raises(ValueError, match=r"service_rate \* cross_time must be finite"):
        JunctionConfig(service_rate=10**18, cross_time=1e300)
    # numpy's Poisson serves means up to about 9.2234e18
    assert JunctionConfig(arrival_rate=9.2e18).arrival_rate == 9.2e18
    with pytest.raises(ValueError, match="arrival_rate"):
        JunctionConfig(arrival_rate=9.3e18)
    # and the int64 lanes hold arrival_rate * horizon up to the same bound
    busy = JunctionConfig(arrival_rate=9.2e17)
    assert run(busy, compliance_path(10, fixed_Q=1.0)[0], [seed_stream(1, 0)]).shape == (1, 11)
    with pytest.raises(ValueError, match=r"arrival_rate \* horizon"):
        run(busy, compliance_path(11, fixed_Q=1.0)[0], [seed_stream(1, 0)])
    # and the cars a switch period can serve, which the lanes sum too
    with pytest.raises(ValueError, match="service_rate"):
        run(JunctionConfig(service_rate=10**18), compliance_path(10, fixed_Q=1.0)[0],
            [seed_stream(1, 0)])


# -- controller map ----------------------------------------------------------------

def test_controller_step_by_hand():
    p = ControllerParams(slope=0.6, memory=1.0, gain=0.1, target=0.95)
    c1, q1 = controller_step(0.0, 0.0, p)
    assert c1 == pytest.approx(0.095)
    assert q1 == pytest.approx(0.057)
    c2, q2 = controller_step(c1, q1, p)
    assert c2 == pytest.approx(0.095 + 0.1 * (0.95 - 0.057))
    assert q2 == pytest.approx(0.6 * c2)


def test_controller_fixed_point_matches_map_iteration():
    p = ControllerParams()
    c, q = 0.0, 0.0
    for _ in range(600):
        c, q = controller_step(c, q, p)
    # at the fixed point q = target, c = target / slope
    assert abs(q - 0.95) < 1e-9
    assert abs(c - 0.95 / 0.6) < 1e-9


def test_controller_respects_clamps():
    p = ControllerParams(slope=5.0, memory=1.0, gain=1.0, target=1.0)
    c, q = controller_step(0.0, 0.0, p)
    assert q == 1.0  # slope * cost clamps at 1
    p2 = ControllerParams(slope=0.5, memory=0.0, gain=1.0, target=0.0)
    c, q = controller_step(0.2, 0.9, p2)
    assert c == 0.0  # cost clamps at 0
    assert q == 0.0


def test_controller_validation():
    with pytest.raises(ValueError):
        ControllerParams(slope=0.0)
    with pytest.raises(ValueError):
        ControllerParams(target=1.5)


# -- single-unit dynamics -------------------------------------------------------------

def test_full_compliance_never_violates():
    cfg = JunctionConfig()
    state = JunctionState(queues=np.zeros(3, dtype=np.int64), Q=1.0)
    rng = seed_stream(50, 0)
    assert sum(step(state, cfg, rng)[1] for _ in range(500)) == 0


def test_zero_compliance_violates_whenever_a_red_queue_is_loaded():
    cfg = JunctionConfig(arrival_rate=30.0)  # keep every queue nonempty
    state = JunctionState(queues=np.full(3, 100, dtype=np.int64), Q=0.0)
    rng = seed_stream(51, 0)
    _, violations, _ = step(state, cfg, rng)
    assert violations == 2  # both red queues incur


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.floats(min_value=0.0, max_value=1.0))
def test_vehicle_conservation_fuzz(seed, q):
    cfg = JunctionConfig()
    state = JunctionState(queues=np.zeros(3, dtype=np.int64), Q=q)
    rng = np.random.default_rng(seed)
    for _ in range(40):
        before = int(state.queues.sum())
        arrivals, _, served = step(state, cfg, rng)
        after = int(state.queues.sum())
        assert after - before == arrivals - served
        assert np.all(state.queues >= 0)


def test_phase_switches_and_violation_reset():
    cfg = JunctionConfig(switch_period=10, arrival_rate=0.0)
    state = JunctionState(queues=np.full(3, 50, dtype=np.int64), Q=0.0)
    rng = seed_stream(52, 0)
    for k in range(1, 10):
        step(state, cfg, rng)
        assert state.phase == 0
        assert state.phase_violations == 2 * k  # two red queues, always loaded
    step(state, cfg, rng)
    assert state.phase == 1
    assert state.phase_violations == 0


def test_throttling_blocks_service_under_heavy_incursion():
    # with both red queues loaded and Q=0, capacity is 1 after the first
    # unit's two violations and 0 from the third unit on
    cfg = JunctionConfig(arrival_rate=0.0)
    state = JunctionState(queues=np.full(3, 50, dtype=np.int64), Q=0.0)
    rng = seed_stream(53, 0)
    served = [step(state, cfg, rng)[2] for _ in range(9)]
    assert served[0] == 1  # floor(3 / (1 + 2))
    assert all(s == 0 for s in served[2:])


# -- runs and ensembles ----------------------------------------------------------------

def test_compliance_path_requires_exactly_one_mode():
    with pytest.raises(ValueError, match="exactly one"):
        compliance_path(10)
    with pytest.raises(ValueError, match="exactly one"):
        compliance_path(10, fixed_Q=0.9, controller=ControllerParams())
    with pytest.raises(ValueError, match="fixed_Q"):
        compliance_path(10, fixed_Q=1.5)
    with pytest.raises(ValueError, match="horizon"):
        compliance_path(0, fixed_Q=0.9)


@pytest.mark.parametrize("mode", [{"fixed_Q": 0.8}, {"controller": ControllerParams()}])
def test_a_compliance_path_holds_little_more_than_its_own_rows(mode):
    # the parser builds the path, so its peak is parse-time memory; a list
    # of (q, c) tuples peaked at ten times the result
    tracemalloc.start()
    try:
        path = compliance_path(10_000, **mode)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.shape == (2, 10_001)
    assert peak < 1.1 * path.nbytes


def test_fixed_mode_records_constant_q():
    cfg = JunctionConfig()
    q, c = compliance_path(50, fixed_Q=0.8)
    assert np.all(q == 0.8)
    assert np.all(c == 0.0)
    [vbar] = run(cfg, q, [seed_stream(55, 0)])
    # the recorded mean queue is the state's after each unit on the same draws
    state = JunctionState(queues=np.zeros(3, dtype=np.int64), Q=0.8)
    arrivals, uniforms = kernel_draws(cfg, 50, seed_stream(55, 0))
    want = [state.vbar]
    for a, u in zip(arrivals, uniforms):
        advance(state, cfg, a, u.__getitem__)
        want.append(state.vbar)
    assert vbar.tolist() == want


@pytest.mark.parametrize("config, mode, seed", [
    (JunctionConfig(), {"fixed_Q": 0.8}, 81),
    (JunctionConfig(), {"controller": ControllerParams()}, 82),
    (JunctionConfig(switch_period=7, arrival_rate=12.0), {"controller": ControllerParams()}, 83),
], ids=["fixed-0.8", "closed-loop", "rate12-period7"])
def test_run_has_the_law_of_the_scalar_calls(config, mode, seed):
    # Poisson(rate) spread uniformly over three queues is three independent
    # Poisson(rate / 3) queues: run's mean queue must match step's within
    # sampling error, 300 independent runs a side
    runs, horizon = 300, 200
    ens = run_ensemble(config, compliance_path(horizon, **mode), runs, master_seed=seed)
    old = np.stack([oracle_run(config, horizon, seed_stream(seed + 100, r), scalar=True, **mode)[0]
                    for r in range(runs)])
    t = np.arange(20, horizon + 1, 20)
    se = np.sqrt((ens.vbar_std[t] ** 2 + old[:, t].var(axis=0)) / runs)
    z = (ens.vbar_mean[t] - old[:, t].mean(axis=0)) / se
    assert np.all(np.abs(z) < 4), z


def test_closed_loop_q_tracks_the_deterministic_map():
    p = ControllerParams()
    qs, cs = compliance_path(200, controller=p)
    c, q = 0.0, 0.0
    for k in range(1, 201):
        c, q = controller_step(c, q, p)
    assert abs(qs[-1] - q) < 1e-12
    assert abs(cs[-1] - c) < 1e-12


def test_ensemble_statistics_and_determinism():
    cfg, path = JunctionConfig(), compliance_path(100, fixed_Q=0.9)
    a = run_ensemble(cfg, path, runs=20, master_seed=57)
    b = run_ensemble(cfg, path, runs=20, master_seed=57)
    assert np.array_equal(a.vbar_mean, b.vbar_mean)
    assert np.array_equal(a.vbar_std, b.vbar_std)
    assert a.runs == 20
    c = run_ensemble(cfg, path, runs=20, master_seed=58)
    assert not np.array_equal(a.vbar_mean, c.vbar_mean)


def test_ensemble_members_are_the_seeded_runs_on_any_worker_count(monkeypatch):
    # blocks of any size, so that 1, 2 and 3 workers make 1, 2 and 3 blocks,
    # each run in lane groups of two members (60 member-units of 30 units)
    monkeypatch.setattr(junction, "_MIN_BLOCK_UNITS", 1)
    monkeypatch.setattr(junction, "_LANE_ENTRIES", 60)
    cfg = JunctionConfig()
    path = compliance_path(30, fixed_Q=0.8)
    members = [run(cfg, path[0], [seed_stream(60, r)])[0] for r in range(5)]
    for workers in (1, 2, 3):
        ens = run_ensemble(cfg, path, runs=5, master_seed=60, workers=workers)
        assert np.array_equal(ens.vbar_mean, np.stack(members).mean(axis=0))
        assert np.array_equal(ens.vbar_std, np.stack(members).std(axis=0))


def test_a_shipped_size_ensemble_starts_no_pool(monkeypatch):
    # 100 runs of 1,000 units are one block's worth of work: a pool would
    # cost more to start than a second worker saves
    def refuse(workers):
        raise AssertionError(f"a pool of {workers} was started")

    monkeypatch.setattr(seeding, "worker_pool", refuse)
    cfg, path = JunctionConfig(), compliance_path(1000, fixed_Q=0.8)
    ens = run_ensemble(cfg, path, runs=100, master_seed=77, workers=2)
    assert np.array_equal(ens.vbar_mean, run(cfg, path[0], [seed_stream(77, r) for r in range(100)])
                          .mean(axis=0))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("runs", [1, 2, 3, 7, 30, 100])
@pytest.mark.parametrize("mode", [{"fixed_Q": 0.8}, {"controller": ControllerParams()}],
                         ids=["fixed", "closed-loop"])
def test_ensemble_q_and_c_means_are_the_means_of_stacked_copies(mode, runs, workers):
    # the bytes of the CSVs from when every run recorded Q and C: numpy's
    # mean over a stride-0 axis must round as over ``runs`` real copies
    path = compliance_path(60, **mode)
    ens = run_ensemble(JunctionConfig(), path, runs, master_seed=61, workers=workers)
    want = np.stack([path] * runs).mean(axis=0)
    assert ens.q_mean.tobytes() == want[0].tobytes()
    assert ens.c_mean.tobytes() == want[1].tobytes()
    if runs == 100 and "fixed_Q" in mode:
        assert ens.q_mean[0] == 0.7999999999999985  # a mean of copies, not Q itself


@pytest.mark.parametrize("runs, workers", [(0, 1), (3, 0)])
def test_ensemble_rejects_empty_or_workerless_ensembles(runs, workers):
    with pytest.raises(ValueError, match="runs" if runs < 1 else "workers"):
        run_ensemble(JunctionConfig(), compliance_path(10, fixed_Q=0.9), runs, master_seed=1,
                     workers=workers)


def test_low_compliance_grows_queues_faster():
    cfg = JunctionConfig()
    hi = run_ensemble(cfg, compliance_path(400, fixed_Q=1.0), runs=30, master_seed=59)
    lo = run_ensemble(cfg, compliance_path(400, fixed_Q=0.7), runs=30, master_seed=59)
    assert lo.vbar_mean[-1] > 5 * hi.vbar_mean[-1]
    assert second_half_slope(lo.times, lo.vbar_mean) > 0.05


def test_second_half_slope_on_synthetic_line():
    t = np.arange(100.0)
    assert second_half_slope(t, 3.0 * t + 2.0) == pytest.approx(3.0)
    assert abs(second_half_slope(t, np.full(100, 7.0))) < 1e-12
