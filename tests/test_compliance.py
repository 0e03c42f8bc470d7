"""Compliance-network model tests.

Static costs are checked against a hand-solved two-activity case, the
windowed average against piecewise-linear signals where the trapezoid rule
is exact, and the simulator against its own fixed point (which must hold to
rounding, not just approximately).

The response function, the trapezoid windowed average and the numpy
formulation of the simulator loop live here as reference oracles;
`simulate` must reproduce the loop bit for bit.
"""
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tanglesim import compliance
from tanglesim.compliance import (
    ComplianceNetwork,
    ComplianceTrajectory,
    _as_vector,
    default_step,
    simulate,
    static_solution,
)
from tanglesim.harness import parse_scenario, run_scenario


# -- reference oracles ----------------------------------------------------------------

def response(net: ComplianceNetwork, i: int, qbar, cost: float) -> float:
    """Compliance of activity i given delayed window averages and cost."""
    raw = (
        net.baselines[i]
        + float(np.dot(net.coupling[i], np.asarray(qbar, dtype=float)))
        + net.cost_sens[i] * cost
    )
    return min(max(raw, 0.0), 1.0)


def windowed_average(times, values, t: float, width: float, history=None):
    """(1/width) * integral of values over [t - width, t], trapezoid rule.

    times must be ascending; values may be (K,) or (K, n).  Before times[0]
    the signal is extended as the constant `history` (default: values[0]).
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if not width > 0:
        raise ValueError("window width must be positive")
    if t > times[-1] + 1e-12:
        raise ValueError("window end lies past the stored history")
    lo = t - width
    h0 = values[0] if history is None else np.asarray(history, dtype=float)
    total = 0.0
    if lo < times[0]:
        total = h0 * (min(times[0], t) - lo)
        lo = times[0]
        if t <= lo:
            return total / width
    inner = (times > lo) & (times < t)
    grid = np.concatenate(([lo], times[inner], [t]))
    if values.ndim == 1:
        vals = np.interp(grid, times, values)
        seg = np.trapezoid(vals, grid)
    else:
        cols = [
            np.trapezoid(np.interp(grid, times, values[:, j]), grid)
            for j in range(values.shape[1])
        ]
        seg = np.array(cols)
    return (total + seg) / width


def oracle_simulate(net, horizon, initial_Q=None, initial_C=None, step=None):
    """`simulate` with whole-row numpy prefix lookups."""
    if not horizon > 0:
        raise ValueError("horizon must be positive")
    n = net.n
    q0 = _as_vector(initial_Q if initial_Q is not None else net.targets, n, "initial_Q")
    c0 = _as_vector(initial_C if initial_C is not None else 0.0, n, "initial_C")
    if np.any(c0 < 0):
        raise ValueError("initial costs must be non-negative")
    max_step = default_step(net)
    if step is None:
        step = max_step
    if step > max_step + 1e-12:
        raise ValueError(f"step must be at most {max_step:.6g}")
    K = max(int(np.ceil(horizon / step - 1e-9)), 1)
    dt = horizon / K
    times = np.arange(K + 1) * dt
    Q = np.empty((K + 1, n))
    C = np.empty((K + 1, n))
    P = np.empty((K + 1, n))  # prefix integral of Q
    C[0] = c0
    P[0] = 0.0
    w = net.window

    def prefix_at(s: float, last: int) -> np.ndarray:
        if s <= 0.0:
            return q0 * s
        j = min(int(s / dt), last)
        if j == last:
            return P[last] + (s - times[last]) * Q[last]
        return P[j] + (s - times[j]) / dt * (P[j + 1] - P[j])

    for k in range(K + 1):
        t = times[k]
        last = max(k - 1, 0)
        for i in range(n):
            acc = net.baselines[i] + net.cost_sens[i] * C[k, i]
            for j in range(n):
                if net.coupling[i, j] != 0.0:
                    s = t - net.lags_to[i, j]
                    hi = prefix_at(s, last)[j] if k else q0[j] * min(s, 0.0)
                    lo = prefix_at(s - w, last)[j]
                    acc += net.coupling[i, j] * (hi - lo) / w
            Q[k, i] = min(max(acc, 0.0), 1.0)
        if k:
            P[k] = P[k - 1] + dt * 0.5 * (Q[k - 1] + Q[k])
        if k < K:
            C[k + 1] = np.maximum(
                C[k] + dt * net.ctrl_gain * (net.targets - Q[k]), 0.0
            )
    qbar = np.empty((K + 1, n))
    for k in range(K + 1):
        hi = prefix_at(times[k], K)
        lo = prefix_at(times[k] - w, K)
        qbar[k] = (hi - lo) / w
    return ComplianceTrajectory(times, Q, C, qbar)


def _pair(targets=(0.9, 0.9), baselines=(0.5, 0.5), coupling=0.1, window=4.0):
    d = float(coupling)
    return ComplianceNetwork.build(
        targets=list(targets),
        baselines=list(baselines),
        cost_sens=1.0,
        ctrl_gain=1.0,
        coupling=[[0.0, d], [d, 0.0]],
        lags=[[0.0, 1.0], [1.0, 0.0]],
        window=window,
    )


# -- network construction ---------------------------------------------------------

def test_build_broadcasts_scalars():
    net = _pair()
    assert net.n == 2
    assert np.array_equal(net.cost_sens, [1.0, 1.0])
    assert np.array_equal(net.targets, [0.9, 0.9])


def test_validation_rejects_bad_networks():
    with pytest.raises(ValueError, match="cost sensitivity"):
        ComplianceNetwork.build(0.9, 0.5, 0.0, 1.0, [[0.0]], [[0.0]], 4.0)
    with pytest.raises(ValueError, match="targets"):
        ComplianceNetwork.build(1.5, 0.5, 1.0, 1.0, [[0.0]], [[0.0]], 4.0)
    with pytest.raises(ValueError, match="lags"):
        ComplianceNetwork.build(0.9, 0.5, 1.0, 1.0, [[0.0]], [[1.0]], 4.0)
    for window in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="window must be positive and finite"):
            ComplianceNetwork.build(0.9, 0.5, 1.0, 1.0, [[0.0]], [[0.0]], window)
    for lag in (np.nan, np.inf):
        with pytest.raises(ValueError, match="lags must be finite"):
            ComplianceNetwork.build(
                0.9, 0.5, 1.0, 1.0, [[0.0, 0.1], [0.1, 0.0]], [[0.0, lag], [1.0, 0.0]], 4.0
            )
    with pytest.raises(ValueError, match="ring"):
        ComplianceNetwork.ring(2, 0.1, 1.0, 5.0, 0.9, 0.5)


@pytest.mark.parametrize("field, value", [
    ("targets", [np.nan, 0.8]),
    ("baselines", [0.5, -np.inf]),
    ("cost_sens", [1.0, np.nan]),
    ("ctrl_gain", [np.inf, 1.0]),
    ("coupling", [[0.0, np.nan], [0.1, 0.0]]),
])
def test_non_finite_parameters_are_refused(field, value):
    # each was accepted, and simulate gave non-finite compliance
    args = dict(targets=[0.9, 0.8], baselines=[0.5, 0.4], cost_sens=1.0, ctrl_gain=1.0,
                coupling=[[0.0, 0.1], [0.1, 0.0]], lags=[[0.0, 1.0], [1.0, 0.0]], window=2.5)
    with pytest.raises(ValueError, match=f"^{field} must be finite$"):
        ComplianceNetwork.build(**{**args, field: value})


def test_response_interior_and_clamped():
    net = _pair()
    # interior: baseline + D * qbar + E * C
    got = response(net, 0, [0.0, 0.8], 0.2)
    assert abs(got - (0.5 + 0.1 * 0.8 + 0.2)) < 1e-15
    assert response(net, 0, [0.0, 0.0], 5.0) == 1.0  # clamped high
    assert response(net, 0, [0.0, 0.0], -5.0) == 0.0  # clamped low


def test_response_derivatives_match_coupling_coefficients():
    # the linearization the spectral checks rely on: d(response)/d(qbar_j)
    # equals the coupling entry and d(response)/d(cost) the cost sensitivity
    net = ComplianceNetwork.build(
        targets=[0.9, 0.85, 0.8],
        baselines=[0.4, 0.3, 0.5],
        cost_sens=[1.0, 2.0, 0.5],
        ctrl_gain=1.0,
        coupling=[[0.0, 0.1, -0.05], [0.2, 0.0, 0.1], [-0.1, 0.15, 0.0]],
        lags=[[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]],
        window=4.0,
    )
    st = static_solution(net)
    assert st.feasible
    eps = 1e-6
    q0 = np.asarray(net.targets, dtype=float)
    for i in range(net.n):
        for j in range(net.n):
            e = np.zeros(net.n)
            e[j] = eps
            fd = (
                response(net, i, q0 + e, st.costs[i])
                - response(net, i, q0 - e, st.costs[i])
            ) / (2 * eps)
            assert abs(fd - net.coupling[i, j]) < 1e-4
        fd_c = (
            response(net, i, q0, st.costs[i] + eps)
            - response(net, i, q0, st.costs[i] - eps)
        ) / (2 * eps)
        assert abs(fd_c - net.cost_sens[i]) / net.cost_sens[i] < 1e-4


# -- static costs -------------------------------------------------------------------

def test_static_costs_hand_solved_pair():
    st = static_solution(_pair())
    # C = (0.9 - 0.5 - 0.1 * 0.9) / 1
    assert np.allclose(st.costs, [0.31, 0.31], atol=1e-15)
    assert st.feasible
    assert st.violations == ()


def test_static_costs_flag_negative_requirement():
    st = static_solution(_pair(targets=(0.2, 0.9), baselines=(0.5, 0.5)))
    assert not st.feasible
    assert any("activity 0" in v and "negative" in v for v in st.violations)


def test_static_costs_flag_boundary_target():
    st = static_solution(_pair(targets=(1.0, 0.9)))
    assert not st.feasible
    assert any("interior" in v for v in st.violations)


# -- windowed average ---------------------------------------------------------------

def test_windowed_average_of_a_constant():
    t = np.linspace(0, 10, 101)
    v = np.full_like(t, 0.7)
    for q in (2.0, 5.0, 10.0):
        assert abs(windowed_average(t, v, q, 3.0) - 0.7) < 1e-14


def test_windowed_average_of_a_ramp_lags_half_window():
    t = np.linspace(0, 10, 201)
    v = t.copy()
    w = 4.0
    for q in (4.0, 7.0, 10.0):
        assert abs(windowed_average(t, v, q, w) - (q - w / 2)) < 1e-12


def test_windowed_average_triangle_wave_over_full_period():
    # piecewise-linear signal: trapezoid integration is exact on its breaks
    t = np.arange(0.0, 12.5, 0.5)
    v = np.abs((t % 2.0) - 1.0)  # triangle between 0 and 1, period 2
    for q in (4.0, 7.0, 12.0):
        assert abs(windowed_average(t, v, q, 2.0) - 0.5) < 1e-12


def test_windowed_average_square_wave_is_its_duty_cycle():
    t = np.arange(0.0, 20.0, 0.01)
    v = ((t % 2.0) < 1.0).astype(float)
    got = windowed_average(t, v, 15.0, 2.0)
    assert abs(got - 0.5) < 2e-2


def test_windowed_average_uses_constant_history_before_start():
    t = np.array([0.0, 1.0, 2.0])
    v = np.array([1.0, 1.0, 1.0])
    # window [ -2, 2 ]: half history at 0.5, half signal at 1.0
    got = windowed_average(t, v, 2.0, 4.0, history=0.5)
    assert abs(got - 0.75) < 1e-14
    # default history extends values[0]
    assert abs(windowed_average(t, v, 2.0, 4.0) - 1.0) < 1e-14


def test_windowed_average_validation():
    t = np.array([0.0, 1.0])
    v = np.array([1.0, 1.0])
    with pytest.raises(ValueError):
        windowed_average(t, v, 5.0, 1.0)  # beyond stored history
    with pytest.raises(ValueError):
        windowed_average(t, v, 1.0, 0.0)


def test_default_step_uses_shortest_timescale():
    assert default_step(_pair(window=4.0)) == pytest.approx(1.0 / 50.0)
    wide = ComplianceNetwork.build(
        0.9, 0.5, 1.0, 1.0, [[0.0]], [[0.0]], window=2.5
    )
    assert default_step(wide) == pytest.approx(2.5 / 50.0)


@pytest.mark.parametrize("lags", [[[0.0, 1.0], [0.01, 0.0]], [[0.0, 1.0], [0.0, 0.0]]])
def test_default_step_ignores_the_lags_of_uncoupled_pairs(lags):
    # activity 1 does not read activity 0, so the lag from 0 to 1 bounds nothing
    net = ComplianceNetwork.build(0.9, 0.5, 1.0, 1.0, [[0.0, 0.1], [0.0, 0.0]], lags, window=1.0)
    assert default_step(net) == pytest.approx(1.0 / 50.0)


# -- simulator -----------------------------------------------------------------------

def test_fixed_point_holds_to_rounding():
    net = _pair()
    st = static_solution(net)
    traj = simulate(net, 30.0, initial_Q=net.targets, initial_C=st.costs)
    assert np.abs(traj.Q - net.targets).max() < 1e-12
    assert np.abs(traj.C - st.costs).max() < 1e-12
    assert np.abs(traj.Qbar - net.targets).max() < 1e-12


def test_perturbed_start_decays_back_to_targets():
    net = ComplianceNetwork.ring(3, coupling=0.1, lag=1.0, window=5.0,
                                 target=0.9, baseline=0.5)
    st = static_solution(net)
    q0 = net.targets + np.array([0.05, -0.05, 0.05])
    traj = simulate(net, 60.0, initial_Q=q0, initial_C=st.costs)
    assert np.abs(traj.Q[0] - net.targets).max() > 0.005  # perturbed at t=0
    assert np.abs(traj.Q[-1] - net.targets).max() < 1e-6
    assert np.abs(traj.C[-1] - st.costs).max() < 1e-5


def test_bounds_hold_even_when_feedback_is_strong():
    net = ComplianceNetwork.ring(4, coupling=2.0, lag=1.0, window=5.0,
                                 target=0.9, baseline=0.5)
    traj = simulate(net, 40.0, initial_Q=net.targets + 0.05, initial_C=0.0)
    assert np.all(traj.Q >= 0.0) and np.all(traj.Q <= 1.0)
    assert np.all(traj.C >= 0.0)


def test_cost_clamp_pins_overshooting_baseline():
    # baseline already above target: the controller would need a negative
    # deposit, so the cost rail sits at zero and compliance stays high
    net = _pair(targets=(0.2, 0.2), baselines=(0.6, 0.6))
    traj = simulate(net, 30.0, initial_Q=net.targets, initial_C=0.0)
    assert np.all(traj.C[-5:] == 0.0)
    assert np.all(traj.Q[-1] > 0.5)


def test_qbar_matches_windowed_average_recomputation():
    net = _pair()
    q0 = net.targets + np.array([0.05, -0.05])
    traj = simulate(net, 20.0, initial_Q=q0, initial_C=0.3)
    for t in (5.0, 12.0, 20.0):
        k = int(round(t / (traj.times[1] - traj.times[0])))
        for j in range(2):
            want = windowed_average(
                traj.times, traj.Q[:, j], traj.times[k], net.window,
                history=q0[j],
            )
            assert abs(traj.Qbar[k, j] - want) < 1e-10


def test_simulate_validation():
    net = _pair()
    with pytest.raises(ValueError, match="step"):
        simulate(net, 10.0, step=1.0)
    with pytest.raises(ValueError, match="non-negative"):
        simulate(net, 10.0, initial_C=-0.1)


@pytest.mark.parametrize("q0, c0, field", [
    ([np.nan, 0.9], None, "initial_Q"),
    ([0.9, np.inf], None, "initial_Q"),
    (None, [0.1, np.nan], "initial_C"),
    (None, [np.inf, 0.1], "initial_C"),
])
def test_simulate_refuses_non_finite_initial_values(q0, c0, field):
    with pytest.raises(ValueError, match=f"^{field} must be finite$"):
        simulate(_pair(), 5.0, q0, c0)


@pytest.mark.parametrize("step", [0.0, -1.0, float("nan")])
def test_a_step_that_is_not_positive_is_refused(step):
    # a step of -1 ran one Euler step of dt = horizon, and 0 divided by zero
    for run in (compliance.step_grid, simulate):
        with pytest.raises(ValueError, match="step must be positive"):
            run(_pair(), 10.0, step=step)


@pytest.mark.parametrize("horizon, step", [(float("inf"), None), (1e300, 1e-300)])
def test_a_step_count_past_the_largest_double_is_refused(horizon, step):
    # int(inf) raised OverflowError, not a ValueError naming the horizon
    for run in (compliance.step_grid, simulate):
        with pytest.raises(ValueError, match="horizon over step .* gives inf rows"):
            run(_pair(), horizon, step=step)


def test_a_step_is_refused_past_the_default_by_a_relative_margin():
    # coupled lags of 1e-14 and a window of 1e-13 give a largest step of
    # 2e-16; an absolute margin of 1e-12 accepted 5e-13, 2,500 times that
    net = _two([[0.0, 0.1], [0.1, 0.0]], [[0.0, 1e-14], [1e-14, 0.0]], window=1e-13)
    assert default_step(net) == 2e-16
    for run in (compliance.step_grid, simulate):
        with pytest.raises(ValueError, match="at most 2e-16, got 5e-13"):
            run(net, 1e-11, step=5e-13)
    assert compliance.step_grid(net, 1e-11, default_step(net)) == (2e-16, 50000)


def test_step_grid_gives_the_rows_simulate_makes():
    net = _pair()
    for step in (None, 0.013, default_step(net)):
        dt, K = compliance.step_grid(net, 2.5, step)
        traj = simulate(net, 2.5, step=step)
        assert traj.times.tolist() == (np.arange(K + 1) * dt).tolist()


@pytest.mark.parametrize("horizon", [0.0, -1.0, float("nan")])
def test_simulate_refuses_a_horizon_that_is_not_positive(horizon):
    for run in (simulate, oracle_simulate):
        with pytest.raises(ValueError, match="horizon must be positive"):
            run(_pair(), horizon)


def test_a_horizon_shorter_than_the_step_takes_one_step():
    traj = simulate(_pair(), 1e-12)
    assert traj.times.tolist() == [0.0, 1e-12]


def test_trajectory_row_layout(tmp_path):
    # the CSV of an explicit two-activity network: time, then Q, C and
    # Qbar per activity
    sc = parse_scenario(
        {"kind": "compliance-net", "horizon": 5.0, "window": 4.0,
         "targets": [0.9, 0.9], "baselines": [0.5, 0.5], "n": 2,
         "coupling": [[0.0, 0.1], [0.1, 0.0]], "lags": [[0.0, 1.0], [1.0, 0.0]]},
        name="pair",
    )
    run_scenario(sc, out_dir=tmp_path)
    rows = (tmp_path / "pair_compliance.csv").read_text().splitlines()
    assert rows[0] == "time,Q1,Q2,C1,C2,Qbar1,Qbar2"
    first = rows[1].split(",")
    assert len(first) == 1 + 3 * 2
    assert first[0] == "0.0"


# -- scalar kernel vs the numpy oracle ---------------------------------------------

def _outcome(run):
    """Output bytes (or the error) and every warning of one simulation."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            traj = run()
        except ValueError as e:
            result = (type(e), str(e))
        else:
            result = tuple(
                getattr(traj, a).tobytes() for a in ("times", "Q", "C", "Qbar")
            )
    return result, [(w.category, str(w.message)) for w in caught]


@st.composite
def compliance_cases(draw):
    n = draw(st.integers(2, 6))
    vec = lambda lo, hi: st.lists(st.floats(lo, hi), min_size=n, max_size=n)  # noqa: E731
    # sparse couplings, self-coupling included; zero lags are allowed
    coupling = np.array(draw(st.lists(
        st.just(0.0) | st.floats(-0.4, 0.4), min_size=n * n, max_size=n * n,
    ))).reshape(n, n)
    lags = np.array(draw(st.lists(
        st.sampled_from([0.0, 0.5, 0.75, 1.0, 1.7]), min_size=n * n, max_size=n * n,
    ))).reshape(n, n)
    np.fill_diagonal(lags, 0.0)
    net = ComplianceNetwork.build(
        targets=draw(vec(0.05, 0.95)),
        baselines=draw(vec(0.0, 0.8)),
        cost_sens=draw(vec(0.2, 2.0)),
        ctrl_gain=draw(vec(0.2, 2.0)),
        coupling=coupling,
        lags=lags,
        window=draw(st.sampled_from([0.5, 1.0, 2.5])),
    )
    step = draw(st.sampled_from([None, 1.0, 0.7, 0.5]))
    return (
        net,
        draw(st.sampled_from([0.6, 1.3, 2.5])),
        draw(vec(0.0, 1.0)),
        draw(vec(0.0, 1.0)),
        None if step is None else step * default_step(net),
    )


def _two(coupling, lags, window=2.5):
    return ComplianceNetwork.build(
        targets=[0.9, 0.8], baselines=[0.5, 0.4], cost_sens=[1.0, 0.5], ctrl_gain=[1.0, 2.0],
        coupling=coupling, lags=lags, window=window,
    )


_RING = ComplianceNetwork.ring(8, coupling=0.1, lag=1.0, window=5.0, target=0.9, baseline=0.5)
# activities 0 and 1 read each other with lag 0, activity 2 reads 1 with
# lag 0 and itself, and activity 0 reads 2 with lag 1
_TANGLED = ComplianceNetwork.build(
    targets=[0.9, 0.8, 0.85], baselines=[0.5, 0.4, 0.45], cost_sens=[1.0, 0.5, 1.5],
    ctrl_gain=[1.0, 2.0, 0.7], coupling=[[0.0, 0.2, 0.1], [-0.3, 0.0, 0.0], [0.0, 0.25, -0.2]],
    lags=[[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]], window=2.5,
)


@settings(max_examples=30, deadline=None)
@given(case=compliance_cases())
@example(case=(_pair(), 6.0, [0.95, 0.85], [0.3, 0.0], None))
# the shipped ring: 1,001 rows in blocks of about 50
@example(case=(_RING, 20.0, (_RING.targets + 0.05).tolist(),
               static_solution(_RING).costs.tolist(), None))
# a zero-lag edge between two activities: its near read is taken on
# floats in the recurrence, activity 1's column steps before activity 0
# reads it, and the window sets blocks of about w / dt rows
@example(case=(_two([[0.0, 0.2], [-0.3, 0.0]], [[0.0, 0.0], [1.0, 0.0]]),
               2.5, [0.7, 0.95], [0.1, 0.4], None))
# a zero-lag 2-cycle: the two columns step together, one row at a time
@example(case=(_two([[0.0, 0.2], [-0.3, 0.0]], [[0.0, 0.0], [0.0, 0.0]]),
               6.0, [0.7, 0.95], [0.1, 0.4], None))
# a zero-lag cycle, an activity downstream of it and a self-coupling
@example(case=(_TANGLED, 6.0, [0.7, 0.95, 0.6], [0.1, 0.4, 0.0], None))
# a zero-lag self-coupling, over 13 blocks
@example(case=(_two([[0.3, 0.1], [0.1, -0.2]], [[0.0, 1.0], [1.0, 0.0]]),
               12.0, [0.7, 0.95], [0.1, 0.4], None))
# a lag of 71.5 steps: reads between rows, blocks of 71 and 72 rows
@example(case=(_two([[0.0, 0.2], [0.1, 0.0]], [[0.0, 1.0], [1.0, 0.0]]),
               4.0, [0.7, 0.95], [0.1, 0.4], 0.7 * 0.02))
# a horizon inside the shortest lag: history reads only, one block
@example(case=(_pair(), 0.6, [0.95, 0.85], [0.3, 0.0], None))
def test_simulate_matches_numpy_oracle(case):
    net, horizon, q0, c0, step = case
    want = _outcome(lambda: oracle_simulate(net, horizon, q0, c0, step))
    got = _outcome(lambda: simulate(net, horizon, q0, c0, step))
    assert got == want


def oracle_block_starts(net, dt, K):
    """The lag-safe blocks by the per-block rule: row k > k0 is late if any
    edge's latest array read (t - lag, or t - window for a zero lag) lands
    at s > 0 with int(s / dt) >= k0 - 1, and a block ends at its first late
    row or after `span` rows."""
    lags = net.lags_to[net.coupling != 0]
    reach = np.where(lags > 0.0, lags, net.window)
    span = compliance._block_rows(2 * len(lags))
    if len(lags):
        span = min(span, int(reach.min() / dt) + 2)
    times = np.arange(K + 1) * dt
    starts = [0]
    while starts[-1] <= K:
        k0 = starts[-1]
        later = times[k0 + 1:min(k0 + span, K + 1), None] - reach
        pos = later > 0.0
        late = (pos & ((np.where(pos, later, 0.0) / dt).astype(np.intp) >= k0 - 1)).any(axis=1)
        starts.append(k0 + 1 + (int(late.argmax()) if late.any() else len(later)))
    return starts


@settings(max_examples=60, deadline=None)
@given(case=compliance_cases())
# no edges: blocks of _BLOCK_ENTRIES rows
@example(case=(_two([[0.0, 0.0], [0.0, 0.0]], [[0.0, 1.0], [1.0, 0.0]]), 300.0, [], [], None))
# zero-lag edges only: the window is the reach
@example(case=(_two([[0.0, 0.2], [-0.3, 0.0]], [[0.0, 0.0], [0.0, 0.0]]), 6.0, [], [], None))
def test_block_starts_match_the_per_block_rule(case):
    net, horizon, _, _, step = case
    dt, K = compliance.step_grid(net, horizon, step)
    assert compliance._block_starts(net, dt, K) == oracle_block_starts(net, dt, K)


@pytest.mark.parametrize("net", [
    _pair(),
    _two([[0.3, 0.1], [0.1, -0.2]], [[0.0, 1.0], [1.0, 0.0]]),
    _RING,
    _TANGLED,
])
def test_a_network_wider_than_a_block_steps_one_row_at_a_time(monkeypatch, net):
    # a block's temporaries hold at most _BLOCK_ENTRIES entries, both window
    # ends counted, so a network with more than half that many edges or
    # activities (1,025 of them at the shipped size) steps one-row blocks
    # and reads Qbar one row at a time; the budget is shrunk here instead of
    # building such a network, so every block is one row, zero-lag cycle or
    # not
    monkeypatch.setattr(compliance, "_BLOCK_ENTRIES", 1)
    q0 = (net.targets + 0.03).tolist()
    want = _outcome(lambda: oracle_simulate(net, 3.0, q0, 0.1))
    assert _outcome(lambda: simulate(net, 3.0, q0, 0.1)) == want
