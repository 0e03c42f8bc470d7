"""Delay-differential fluid model tests.

The static state is constructed so the inflow and outflow terms cancel
bitwise, which the hold tests verify literally (zero drift, not just small
drift).  The conserved window-load quantity fixes the limit a constant
perturbation converges to; the mode-shaped perturbation is the one that
actually grows.

The elementwise numpy formulation of the right-hand side and the RK4 loop
built on it live here as the reference oracle; `integrate` must reproduce
it bit for bit, warnings and errors included.
"""
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tanglesim.fluid import (
    L_FLOOR,
    FluidIntegrationError,
    FluidSingularError,
    FluidTrajectory,
    constant_history,
    integrate,
    static_solution,
    step_grid,
)
from tanglesim.harness import parse_scenario, run_scenario
from unbalanced_mode import find_x0, mode_ratio


# -- reference oracle -----------------------------------------------------------

def tip_shares(l) -> np.ndarray:
    """p_i = l_i^2 / sum_j l_j^2."""
    l = np.asarray(l, dtype=float)
    sq = l * l
    denom = sq.sum()
    if denom == 0.0:
        raise FluidSingularError("all tip densities are zero")
    return sq / denom


def selection_rates(x, l) -> np.ndarray:
    """u_i = 2 x_i l_i / sum_j l_j^2 (mean free-tip consumption rate)."""
    x = np.asarray(x, dtype=float)
    l = np.asarray(l, dtype=float)
    denom = (l * l).sum()
    if denom == 0.0:
        raise FluidSingularError("all tip densities are zero")
    return (2.0 * x) * l / denom


def fluid_rhs(x_now, l_now, x_del, l_del):
    """Time derivatives (dx/dt, dl/dt) given current and delay-lagged state.

    dx_i/dt = p_i(t-h) - u_i(t)
    dl_i/dt = p_i(t-h) - u_i(t-h)
    """
    p_del = tip_shares(l_del)
    u_del = selection_rates(x_del, l_del)
    u_now = selection_rates(x_now, l_now)
    return p_del - u_now, p_del - u_del


def interp_row(arr: np.ndarray, q: float, k_max: int) -> np.ndarray:
    """Cubic Lagrange interpolation of grid rows at fractional index q."""
    j = int(math.floor(q))
    if abs(q - round(q)) < 1e-9:
        return arr[int(round(q))]
    j0 = min(max(j - 1, 0), k_max - 3)
    s = q - j0
    w0 = -(s - 1) * (s - 2) * (s - 3) / 6.0
    w1 = s * (s - 2) * (s - 3) / 2.0
    w2 = -s * (s - 1) * (s - 3) / 2.0
    w3 = s * (s - 1) * (s - 2) / 6.0
    return w0 * arr[j0] + w1 * arr[j0 + 1] + w2 * arr[j0 + 2] + w3 * arr[j0 + 3]


def oracle_integrate(x_history, l_history, delay, horizon, step=None):
    """`integrate` as one numpy expression per stage on whole state rows."""
    h = float(delay)
    if not h > 0:
        raise ValueError("delay must be positive")
    if not horizon > h:
        raise ValueError("horizon must exceed the delay")
    if step is None:
        step = h / 100.0
    if step > h / 100.0 + 1e-15:
        raise ValueError("step must be at most delay/100")
    n_sub = max(int(math.ceil(h / step - 1e-9)), 100)
    dt = h / n_sub
    n_steps = int(math.ceil(horizon / dt - 1e-9))

    x0 = np.asarray(x_history(0.0), dtype=float)
    d = x0.shape[0]
    times = np.arange(n_steps + 1) * dt
    X = np.empty((n_steps + 1, d))
    L = np.empty((n_steps + 1, d))
    for k in range(n_sub + 1):
        t = times[k]
        X[k] = np.asarray(x_history(t), dtype=float)
        L[k] = np.asarray(l_history(t), dtype=float)
        if np.any(L[k] < X[k] - 1e-12) or np.any(X[k] < -1e-12):
            raise ValueError("history must satisfy 0 <= x_i <= l_i")

    alive = L[n_sub] > L_FLOOR
    warned = False
    neg_limit = -10.0 * dt

    def delayed(q: float, k_done: int) -> tuple[np.ndarray, np.ndarray]:
        return interp_row(X, q, k_done), interp_row(L, q, k_done)

    def rhs_masked(xv, lv, xd, ld):
        dx, dl = fluid_rhs(xv, lv, xd, ld)
        dx[~alive] = 0.0
        dl[~alive] = 0.0
        return dx, dl

    for k in range(n_sub, n_steps):
        t = times[k]
        xd0, ld0 = X[k - n_sub], L[k - n_sub]
        xdh, ldh = delayed(k - n_sub + 0.5, k)
        xd1, ld1 = X[k - n_sub + 1], L[k - n_sub + 1]

        k1x, k1l = rhs_masked(X[k], L[k], xd0, ld0)
        k2x, k2l = rhs_masked(X[k] + 0.5 * dt * k1x, L[k] + 0.5 * dt * k1l, xdh, ldh)
        k3x, k3l = rhs_masked(X[k] + 0.5 * dt * k2x, L[k] + 0.5 * dt * k2l, xdh, ldh)
        k4x, k4l = rhs_masked(X[k] + dt * k3x, L[k] + dt * k3l, xd1, ld1)
        xn = X[k] + dt / 6.0 * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        ln = L[k] + dt / 6.0 * (k1l + 2.0 * k2l + 2.0 * k3l + k4l)

        if np.any(ln < neg_limit):
            raise FluidIntegrationError(
                f"tip density fell below {neg_limit:.3g} at t = {t + dt:.6g}"
            )
        bad = (ln < 0.0) | (xn < 0.0)
        if np.any(bad & alive) and not warned:
            warnings.warn(
                "small negative fluid densities clamped to zero", RuntimeWarning
            )
            warned = True
        np.clip(xn, 0.0, None, out=xn)
        np.clip(ln, 0.0, None, out=ln)
        dying = alive & (ln <= L_FLOOR)
        if np.any(dying):
            ln[dying] = 0.0
            xn[dying] = 0.0
            alive = alive & ~dying
        np.minimum(xn, ln, out=xn)
        X[k + 1] = xn
        L[k + 1] = ln
    return FluidTrajectory(times, X, L, h, dt)


def index_at(traj, t: float) -> int:
    """Row of a trajectory's stored grid that holds time t."""
    k = int(round(t / traj.step))
    if k < 0 or k >= len(traj.times) or abs(traj.times[k] - t) > traj.step / 2:
        raise ValueError(f"time {t} outside the stored grid")
    return k


def at_time(traj, t: float) -> tuple[np.ndarray, np.ndarray]:
    k = index_at(traj, t)
    return traj.x[k], traj.l[k]


H = 3.0


def _mode_history(h, eps):
    """History rows shaped like the unstable two-type mode."""
    x0 = find_x0()
    r0 = mode_ratio(x0)
    z = x0 / h

    def hx(t):
        g = eps * np.exp(z * t)
        return np.array([h / 2 + r0 * g, h / 2 - r0 * g])

    def hl(t):
        g = eps * np.exp(z * t)
        return np.array([h + g, h - g])

    return hx, hl


# -- algebra ---------------------------------------------------------------------

def test_tip_shares_square_law_and_normalization():
    p = tip_shares(np.array([1.0, 2.0, 3.0]))
    assert np.allclose(p, np.array([1.0, 4.0, 9.0]) / 14.0)
    assert p.sum() == pytest.approx(1.0, abs=1e-15)


def test_tip_shares_rejects_empty_ledger():
    with pytest.raises(FluidSingularError):
        tip_shares(np.zeros(3))


def test_selection_rates_at_static_state_equal_shares_bitwise():
    for k in (1, 2, 5):
        st = static_solution(k, H)
        p = tip_shares(st.l)
        u = selection_rates(st.x, st.l)
        assert np.array_equal(p, u)  # bitwise: (2x)*l == l*l when l == 2x
        assert np.allclose(u, 1.0 / k)


def test_rhs_vanishes_exactly_at_static_state():
    st = static_solution(4, H)
    dx, dl = fluid_rhs(st.x, st.l, st.x, st.l)
    assert np.all(dx == 0.0)
    assert np.all(dl == 0.0)


def test_static_solution_support_and_window_load():
    st = static_solution(3, H, support=(0, 2))
    assert st.support == (0, 2)
    assert np.allclose(st.x, [H / 2, 0.0, H / 2])
    assert np.array_equal(st.l, 2.0 * st.x)
    assert np.allclose(st.w, [H / 2, 0.0, H / 2])  # w = l - x = h/k


def test_static_solution_validation():
    with pytest.raises(ValueError):
        static_solution(2, H, support=())
    with pytest.raises(ValueError):
        static_solution(2, H, support=(2,))
    with pytest.raises(ValueError):
        static_solution(2, 0.0)


# -- integrate: holds and limits ----------------------------------------------------

def test_static_state_holds_bitwise_under_integration():
    st = static_solution(2, H)
    hx, hl = constant_history(st.x, st.l)
    traj = integrate(hx, hl, H, 8 * H)
    assert np.all(traj.x == st.x)
    assert np.all(traj.l == st.l)


def test_constant_perturbation_converges_to_window_load_limit():
    # w(t) - integral of the selection rate over the trailing window is
    # conserved, so a constant-history start with surplus tips converges to
    # x* = h + (w0 - h*u0), l* = 2*x*, NOT back to the unperturbed state.
    x0 = np.array([H])
    l0 = np.array([2.0 * H * 1.2])
    surplus = (l0[0] - x0[0]) - H * (2.0 * x0[0] / l0[0])
    x_star = H + surplus
    hx, hl = constant_history(x0, l0)
    traj = integrate(hx, hl, H, 60 * H)
    assert abs(traj.x[-1, 0] - x_star) < 5e-6
    assert abs(traj.l[-1, 0] - 2.0 * x_star) < 1e-5


def test_mode_perturbation_grows_at_the_predicted_rate():
    hx, hl = _mode_history(H, 1e-3)
    traj = integrate(hx, hl, H, 8 * H)
    z = find_x0() / H
    i0, i1 = index_at(traj, H), index_at(traj, 6 * H)
    gap = traj.l[i0 : i1 + 1, 0] - traj.l[i0 : i1 + 1, 1]
    assert np.all(np.diff(gap) > 0)
    slope = np.polyfit(traj.times[i0 : i1 + 1], np.log(gap), 1)[0]
    assert abs(slope / z - 1.0) < 1e-3


def test_mode_perturbation_starves_the_minority_type():
    hx, hl = _mode_history(H, 1e-3)
    traj = integrate(hx, hl, H, 150 * H)
    tail = slice(index_at(traj, 100 * H), None)
    minority = traj.l[tail, 1]
    assert np.all(np.diff(minority) < 0)  # still shrinking
    assert minority[-1] < 0.15  # far below the h = 3 equilibrium share
    assert traj.l[-1, 0] > 2 * H - 0.2  # survivor absorbs the whole rate


def test_rescaled_ensemble_tracks_fluid_density():
    # mean tips / rate from the counter model should ride the fluid curve
    # once the ledger has grown past its ramp-up (about ten delays here)
    from tanglesim.arrivals import ArrivalProcess
    from tanglesim.reduced import ReducedTangleSim
    from tanglesim.seeding import seed_stream
    from tanglesim.trajectory import make_grid

    lam = 600.0
    sim = ReducedTangleSim(arrivals=ArrivalProcess(rate=lam), delay=H)
    # row r of the block is sim.run(60.0, seed_stream(17, r))
    block = sim.run_block(60.0, [seed_stream(17, r) for r in range(10)])
    times = make_grid(60.0, 0.5)
    mean = np.mean(block[:, 0, :, 0], axis=0) / lam

    st = static_solution(1, H)
    traj = integrate(*constant_history(st.x, st.l), delay=H, horizon=60.0)
    fluid_l = np.array([traj.l[index_at(traj, t), 0] for t in times])

    mask = times > 10 * H
    rel = np.abs(mean[mask] - fluid_l[mask]) / fluid_l[mask]
    assert rel.max() < 0.05


def test_halving_the_step_barely_moves_the_endpoint():
    hx, hl = _mode_history(H, 1e-3)
    a = integrate(hx, hl, H, 10 * H, step=H / 100)
    b = integrate(hx, hl, H, 10 * H, step=H / 200)
    assert abs(a.x[-1] - b.x[-1]).max() < 1e-8
    assert abs(a.l[-1] - b.l[-1]).max() < 1e-8


# -- window-load consistency ---------------------------------------------------------

def test_window_load_matches_trailing_quadrature():
    hx, hl = _mode_history(H, 1e-3)
    traj = integrate(hx, hl, H, 8 * H)
    k_h = int(round(H / traj.step))
    u = np.array([selection_rates(traj.x[k], traj.l[k]) for k in range(len(traj.times))])
    for k in range(2 * k_h, len(traj.times), 41):
        quad = np.trapezoid(u[k - k_h : k + 1], dx=traj.step, axis=0)
        assert np.abs(quad - traj.w[k]).max() < 1e-6


def test_window_load_quadrature_is_exact_at_the_static_state():
    st = static_solution(3, H)
    hx, hl = constant_history(st.x, st.l)
    traj = integrate(hx, hl, H, 5 * H)
    k_h = int(round(H / traj.step))
    u = np.array([selection_rates(traj.x[k], traj.l[k]) for k in range(len(traj.times))])
    quad = np.trapezoid(u[-(k_h + 1) :], dx=traj.step, axis=0)
    assert np.abs(quad - traj.w[-1]).max() < 1e-12


# -- trajectory container -------------------------------------------------------------

def test_index_at_and_at_time():
    st = static_solution(1, H)
    hx, hl = constant_history(st.x, st.l)
    traj = integrate(hx, hl, H, 2 * H)
    x, l = at_time(traj, H)
    assert x[0] == st.x[0] and l[0] == st.l[0]
    with pytest.raises(ValueError):
        index_at(traj, 100 * H)
    with pytest.raises(ValueError):
        index_at(traj, -1.0)


def test_row_iter_layout(tmp_path):
    # the written fluid CSV: time, then x, l, w for each type in turn
    st = static_solution(2, H)
    sc = parse_scenario(
        {"kind": "fluid", "horizon": 2 * H, "delay": H,
         "x0": st.x.tolist(), "l0": st.l.tolist()},
        name="static",
    )
    run_scenario(sc, out_dir=tmp_path)
    rows = (tmp_path / "static_fluid.csv").read_text().splitlines()
    row = [float(v) for v in rows[1].split(",")]
    assert len(row) == 1 + 3 * 2
    assert row[0] == 0.0
    assert row[1:4] == [st.x[0], st.l[0], st.w[0]]


def test_cubic_interpolation_reproduces_cubics():
    k = np.arange(12, dtype=float)
    arr = (0.5 * k**3 - 2 * k**2 + k - 7).reshape(-1, 1)
    for q in (2.3, 0.4, 10.6):
        got = interp_row(arr, q, 11)[0]
        want = 0.5 * q**3 - 2 * q**2 + q - 7
        assert abs(got - want) < 1e-9


# -- validation and failure modes ------------------------------------------------------

def test_integrate_rejects_bad_steps_and_horizons():
    st = static_solution(1, H)
    hx, hl = constant_history(st.x, st.l)
    with pytest.raises(ValueError, match="step"):
        integrate(hx, hl, H, 10 * H, step=H / 10)
    with pytest.raises(ValueError, match="horizon"):
        integrate(hx, hl, H, H / 2)
    with pytest.raises(ValueError, match="delay"):
        integrate(hx, hl, 0.0, 10.0)


@pytest.mark.parametrize("step", [0.0, -1.0, float("nan")])
def test_a_step_that_is_not_positive_is_refused(step):
    # a step of -1 ran at the default dt, and 0 divided by zero
    hx, hl = constant_history([1.5], [3.0])
    with pytest.raises(ValueError, match="step must be positive"):
        step_grid(H, 10 * H, step)
    with pytest.raises(ValueError, match="step must be positive"):
        integrate(hx, hl, H, 10 * H, step=step)


@pytest.mark.parametrize("horizon, step", [(float("inf"), None), (1e300, 1e-300), (10 * H, 5e-324)])
def test_a_step_count_past_the_largest_double_is_refused(horizon, step):
    # math.ceil(inf) raised OverflowError, not a ValueError naming the horizon
    hx, hl = constant_history([1.5], [3.0])
    with pytest.raises(ValueError, match="horizon over step .* gives inf rows"):
        step_grid(H, horizon, step)
    with pytest.raises(ValueError, match="horizon over step .* gives inf rows"):
        integrate(hx, hl, H, horizon, step=step)


def test_integrate_rejects_inconsistent_history():
    hx, hl = constant_history([2.0], [1.0])  # x > l
    with pytest.raises(ValueError, match="history"):
        integrate(hx, hl, H, 10 * H)


def _row_history(xs, ls, dt):
    """History rows xs[k], ls[k] at time k * dt; the last row holds on."""
    def at(rows):
        return lambda t: np.atleast_1d(np.asarray(rows[min(round(t / dt), len(rows) - 1)], float))

    return at(xs), at(ls)


# l dips from 8.9 to 1 and back over history rows 0-3 while x peaks: the
# cubic through those rows puts the midpoint of rows 1 and 2 at l = 0.0125
# and x = 1.125, a selection rate of 180, which drives l below the guard
# at the second integrated step
_RUNAWAY = _row_history([0.0, 1.0, 1.0, 0.0, 0.5], [8.9, 1.0, 1.0, 8.9, 1.0], H / 100)


def test_integrate_flags_runaway_negative_density():
    with pytest.raises(FluidIntegrationError, match=r"at t = 3\.06$"):
        integrate(*_RUNAWAY, H, 10 * H)


def test_no_warnings_on_clean_runs():
    hx, hl = _mode_history(H, 1e-3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        integrate(hx, hl, H, 20 * H)


# -- scalar kernel vs the numpy oracle ---------------------------------------------

def _outcome(run):
    """Output bytes (or the error) and every warning of one integration."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            traj = run()
        except (ValueError, RuntimeError) as e:
            result = (type(e), str(e))
        else:
            result = (
                traj.times.tobytes(), traj.x.tobytes(), traj.l.tobytes(),
                traj.delay, traj.step,
            )
    return result, [(w.category, str(w.message)) for w in caught]


def _wave_history(x0, l0, amp, omega):
    """x_i, l_i oscillating about (x0_i, l0_i) with 0 <= x_i <= l_i kept."""
    x0, l0, amp = (np.asarray(v, dtype=float) for v in (x0, l0, amp))
    phase = np.arange(len(l0), dtype=float)

    def shape(t):
        return 1.0 + amp * np.sin(omega * t + phase)

    return (lambda t: x0 * shape(t)), (lambda t: l0 * shape(t))


@st.composite
def fluid_cases(draw):
    d = draw(st.integers(1, 7))
    delay = draw(st.sampled_from([1.0, 2.5, 3.0]))
    # past two delays the delayed rows are integrated rows, not history;
    # a lag-safe block is n_sub - 1 steps, so 4 and 6.5 delays cross
    # several block edges
    horizon = delay * draw(st.sampled_from([1.01, 1.5, 2.2, 2.5, 4.0, 6.5]))
    l0 = draw(st.lists(st.floats(1e-3, 6.0), min_size=d, max_size=d))
    for i in draw(st.sets(st.integers(0, d - 1), max_size=d - 1)):
        l0[i] = 0.0  # a type that is dead from the start
    frac = draw(st.lists(st.floats(0.0, 1.0), min_size=d, max_size=d))
    x0 = [f * v for f, v in zip(frac, l0)]
    step = draw(st.sampled_from([None, 1 / 100, 1 / 150, 1 / 237]))
    step = None if step is None else step * delay
    history = draw(st.sampled_from(["constant", "wave", "mode", "dip"]))
    if history == "mode" and d == 2:
        hist = _mode_history(delay, draw(st.floats(1e-4, 0.3)))
    elif history == "wave":
        amp = draw(st.lists(st.floats(0.0, 0.9), min_size=d, max_size=d))
        hist = _wave_history(x0, l0, amp, draw(st.floats(0.1, 5.0)))
    elif history == "dip":
        # _RUNAWAY's shape: l dips from c * l0 to l0 and back over rows 0-3
        # while x peaks at l, so the cubic midpoint of rows 1 and 2 has l
        # of (9 - c) / 8 * l0; near c = 9 that drives densities below zero
        # (clamp warnings, dying types and the negative-density error)
        c = 9.0 - draw(st.floats(0.0, 1.0)) ** 4
        ls = [np.multiply(l0, v) for v in (c, 1.0, 1.0, c)] + [l0]
        xs = [0.0 * ls[0], ls[1], ls[2], 0.0 * ls[3], x0]
        hist = _row_history(xs, ls, step_grid(delay, horizon, step)[1])
    else:
        hist = constant_history(x0, l0)
    return hist, delay, horizon, step


@settings(max_examples=60, deadline=None)
@given(case=fluid_cases())
@example(case=(_RUNAWAY, H, 2.5 * H, None))
# type 2 has no tips before t = 1 and 0.01 from then on, all free, while
# type 1 is dead from t = 1: type 2's x overshoots below zero at the first
# step, and the clamp warns without a death
@example(case=(_row_history([[0.5, 0.0]] * 100 + [[0.0, 0.01]], [[1.0, 0.0]] * 100 + [[0.0, 0.01]], 0.01),
               1.0, 2.5, None))
@example(case=(constant_history([0.0, 0.0], [0.0, 0.0]), 1.0, 1.5, None))
@example(case=(_mode_history(H, 1e-3), H, 2.5 * H, H / 150))
# type 1 dies at row 203, in the second block, after one clamp warning
@example(case=(constant_history([3.0, 0.0], [3.0, 0.5]), H, 7 * H, None))
# type 3 is dead from the start without being zero
@example(case=(constant_history([3.0, 0.0, 0.0], [3.0, 0.2, 1e-13]), H, 7 * H, None))
# -0.0 in the history: a live type's x and a dead type's l
@example(case=(constant_history([-0.0, 0.0], [1.5, -0.0]), 1.0, 4.0, None))
# a dead type's l of -1e-13 is clamped to 0.0 at the first step
@example(case=(constant_history([0.0, 1.0], [-1e-13, 2.0]), 1.0, 4.0, None))
# the cubic through rows 0-3 puts the first midpoint at l = 0.003125: the
# density check fails at the first step, so its clamp warning never fires
@example(case=(_row_history([0.0, 1.0, 0.0, 0.0, 0.5], [1.0, 1.0, 4.19, 1.0, 1.0], 0.01),
               1.0, 2.5, None))
# the last step ends the second block: rows 100 .. 298
@example(case=(_wave_history([0.5, 1.0], [1.0, 1.5], [0.3, 0.2], 2.0), 1.0, 2.98, None))
# the one type dies at row 326 with a clamp warning, and the next
# block's first step finds every tip density zero
@example(case=(constant_history([0.75], [1.0]), 1.0, 6.5, None))
def test_integrate_matches_numpy_oracle(case):
    (hx, hl), delay, horizon, step = case
    want = _outcome(lambda: oracle_integrate(hx, hl, delay, horizon, step))
    got = _outcome(lambda: integrate(hx, hl, delay, horizon, step))
    assert got == want


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 23, 130])
def test_integrate_matches_numpy_summation_order_for_many_types(d):
    # the kernel's row sums of l*l are numpy's, which add a row of one to
    # seven terms left to right and one of eight or more pairwise, as the
    # oracle's sum over one row does
    rng = np.random.default_rng(d)
    l0 = rng.uniform(0.1, 3.0, d)
    hx, hl = _wave_history(rng.uniform(0.0, 1.0, d) * l0, l0, np.full(d, 0.3), 2.0)
    want = _outcome(lambda: oracle_integrate(hx, hl, 1.0, 5.0))
    got = _outcome(lambda: integrate(hx, hl, 1.0, 5.0))
    assert got == want
