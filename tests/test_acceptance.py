"""End-to-end acceptance suite.

Each test pins one headline behaviour of the toolkit at its stated tolerance
and prints a single summary line that stays visible under pytest's capture
(via capsys.disabled).  Configurations and seeds are frozen so the suite is
bit-reproducible; expected runtime for the whole module is around a minute.

One check is marked xfail on purpose: the branch die-out headline asks for
the starved branch's tip count to reach exactly zero, but the counter model
keeps every established type at one tip or more by construction (an attach
always leaves the new site as a tip of its own type), so zero is unreachable.
The companion floor test pins the decay that does happen.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from tanglesim.arrivals import ArrivalProcess
from tanglesim.reduced import Injection, ReducedTangleSim
from tanglesim.agent import AgentTangleSim
from tanglesim.fluid import constant_history, integrate, static_solution
from tanglesim.stability import (
    SpectralRegion,
    balanced_characteristic,
    check_sufficient_condition,
    count_roots,
)
from tanglesim.compliance import ComplianceNetwork, simulate
from tanglesim.compliance import static_solution as compliance_static
from tanglesim.junction import (
    ControllerParams,
    JunctionConfig,
    compliance_path,
    run,
    run_ensemble,
)
from tanglesim.harness import parse_scenario, run_tangle_ensemble, validate
from tanglesim.seeding import seed_stream
from tanglesim.trajectory import make_grid

from test_fluid import fluid_rhs  # the oracle's right-hand side
from test_reduced import free_consumed_distribution, type_probabilities
from test_junction import second_half_slope
from unbalanced_mode import find_x0, mode_ratio, verify_unstable_mode


def _report(capsys, tag: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\n[acceptance {tag}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


# -- shared ensembles ---------------------------------------------------------

@pytest.fixture(scope="module")
def steady_sweep():
    """Steady tip-count means for delays 1,3,5,7 (rate 60, 100 seeds)."""
    means = {}
    for h in (1.0, 3.0, 5.0, 7.0):
        sim = parse_scenario(
            {"kind": "tangle-reduced", "rate": 60.0, "delay": h, "horizon": 100.0}
        ).model
        times, stack = run_tangle_ensemble(
            sim,
            grid_dt=0.5,
            horizon=100.0,
            seed=11,
            runs=100,
            workers=4,
        )
        mask = times >= 50.0
        means[h] = float(stack[:, 0].mean(axis=0)[mask, 0].mean())  # L of type 1
    return means


@pytest.fixture(scope="module")
def attack_runs():
    """100 seeded two-type runs with a 200-transaction burst at t=100."""
    sim = ReducedTangleSim(
        arrivals=ArrivalProcess(rate=60.0),
        delay=3.0,
        types=2,
        injections=(Injection(100.0, 2, 200),),
    )
    # row r of the block is sim.run(200.0, seed_stream(404, r))
    tips2 = sim.run_block(200.0, [seed_stream(404, r) for r in range(100)])[:, 0, :, 1]
    burst = make_grid(200.0, 0.5) >= 100.0
    return tips2[:, -1], tips2[:, burst].max(axis=1), tips2[:, burst].min(axis=1)


# -- tip-count dynamics -------------------------------------------------------

def test_a01_steady_state_tip_count(steady_sweep, capsys):
    mean = steady_sweep[3.0]
    target = 2.0 * 60.0 * 3.0
    rel = abs(mean - target) / target
    _report(
        capsys,
        "01",
        rel < 0.10,
        f"time-averaged mean tip count over t in [50,100] = {mean:.1f}, "
        f"target {target:.0f}, rel err {rel:.3%} (need < 10%)",
    )


def test_a02_delay_scaling(steady_sweep, capsys):
    delays = (1.0, 3.0, 5.0, 7.0)
    means = [steady_sweep[h] for h in delays]
    targets = [2.0 * 60.0 * h for h in delays]
    rels = [abs(m - t) / t for m, t in zip(means, targets)]
    ordered = all(a < b for a, b in zip(means, means[1:]))
    ok = ordered and all(r < 0.10 for r in rels)
    pairs = ", ".join(
        f"h={h:g}: {m:.0f}/{t:.0f} ({r:.2%})"
        for h, m, t, r in zip(delays, means, targets, rels)
    )
    _report(capsys, "02", ok, f"steady means ordered={ordered}; {pairs} (need < 10% each)")


def test_a03_agent_reduced_agreement(capsys):
    base = {"rate": 60.0, "delay": 3.0, "horizon": 60.0, "seed": 42, "runs": 100}
    agent = parse_scenario(dict(base, kind="tangle-agent"), name="agent-check")
    reduced = parse_scenario(dict(base, kind="tangle-reduced"), name="reduced-check")
    rep = validate(agent, reduced, workers=4)
    ok = rep.passed and rep.max_rel_L < 0.05 and rep.max_rel_X < 0.05
    _report(
        capsys,
        "03",
        ok,
        f"agent vs reduced (100 seeds each, t > {rep.compared_from:g}): "
        f"max rel diff tips {rep.max_rel_L:.3%}, free {rep.max_rel_X:.3%} "
        f"(need < 5% both)",
    )


@pytest.mark.xfail(
    strict=True,
    reason="every established type keeps at least one tip by construction "
    "(an attach always leaves the new site as a tip of its own type), so the "
    "starved branch decays toward the one-tip floor but never reaches zero; "
    "the companion floor test pins the decay itself",
)
def test_a04_branch_extinction_headline(attack_runs, capsys):
    end2, _, _ = attack_runs
    frac = float((end2 == 0).mean())
    _report(
        capsys,
        "04",
        frac > 0.90,
        f"fraction of seeds with zero burst-branch tips by t=200: {frac:.2f} "
        f"(need > 0.90; unreachable: tip count has a floor of one)",
    )


def test_a04_branch_decay_floor(attack_runs, capsys):
    end2, peak2, low2 = attack_runs
    floor_held = bool(low2.min() >= 1.0)
    burst_seen = bool(peak2.min() >= 150.0)
    decayed = bool(end2.max() < 60.0)
    ok = floor_held and burst_seen and decayed
    _report(
        capsys,
        "04b",
        ok,
        f"burst branch peaks >= {peak2.min():.0f} tips, decays to "
        f"[{end2.min():.0f}, {end2.max():.0f}] by t=200, never below "
        f"{low2.min():.0f} (floor of one holds in all 100 seeds)",
    )


# -- fluid model --------------------------------------------------------------

def test_a05_fluid_equilibria(capsys):
    combos = [(1, None), (2, None), (2, (0,)), (3, (0, 2)), (5, None)]
    residual = 0.0
    for d, sup in combos:
        st = static_solution(d, 3.0, support=sup)
        dx, dl = fluid_rhs(st.x, st.l, st.x, st.l)
        residual = max(residual, float(np.abs(dx).max()), float(np.abs(dl).max()))
    dev = 0.0
    for d, sup in ((1, None), (2, (0,))):
        st = static_solution(d, 3.0, support=sup)
        xh, lh = constant_history(st.x, st.l)
        traj = integrate(xh, lh, delay=3.0, horizon=21.0 * 3.0)
        dev = max(
            dev,
            float(np.abs(traj.x - st.x).max()),
            float(np.abs(traj.l - st.l).max()),
        )
    ok = residual == 0.0 and dev <= 1e-9
    _report(
        capsys,
        "05",
        ok,
        f"static residual = {residual:.1e} (need exactly 0); max drift over "
        f"20 delays from the single-type equilibrium = {dev:.1e} (need <= 1e-9)",
    )


def test_a06_fluid_instability_growth(capsys):
    h = 3.0
    x0 = find_x0()
    z = x0 / h
    r0 = mode_ratio(x0)
    eps = 1e-3

    def xs(t):
        m = r0 * eps * math.exp(z * t)
        return np.array([h / 2 + m, h / 2 - m])

    def ls(t):
        m = eps * math.exp(z * t)
        return np.array([h + m, h - m])

    traj = integrate(xs, ls, delay=h, horizon=6.0 * h)
    mask = traj.times >= h
    t = traj.times[mask]
    gap = traj.l[mask, 0] - traj.l[mask, 1]
    grew = bool(gap[-1] > 2.0 * gap[0]) and bool(np.all(gap > 0))
    slope = float(np.polyfit(t, np.log(gap), 1)[0])
    rel = abs(slope - z) / z
    ok = grew and rel < 0.20
    _report(
        capsys,
        "06",
        ok,
        f"imbalance grew x{gap[-1] / gap[0]:.2f} over five delays; fitted "
        f"growth rate {slope:.6f} vs predicted {z:.6f} (rel err {rel:.2e}, "
        f"need < 20%)",
    )


# -- characteristic roots -----------------------------------------------------

def test_a07_characteristic_roots(capsys):
    x0 = find_x0()
    in_band = abs(x0 - 0.18) < 0.01
    residuals = [verify_unstable_mode(d, hh).residual for d, hh in ((2, 1.0), (5, 1.0), (2, 3.0))]
    res_ok = all(r < 1e-8 for r in residuals)
    counts = {}
    for h in (0.5, 1.0, 3.0, 7.0):
        region = SpectralRegion(0.0, 5.0, -60.0, 60.0, samples_per_side=400)
        counts[h] = count_roots(balanced_characteristic(h), region)
    roots_ok = all(c == 0 for c in counts.values())
    ok = in_band and res_ok and roots_ok
    _report(
        capsys,
        "07",
        ok,
        f"growth-gap root = {x0:.6f} (need 0.18 +/- 0.01); mode residuals "
        f"max {max(residuals):.1e} (need < 1e-8); right-half-plane root "
        f"counts {counts} (need all 0)",
    )


# -- compliance network -------------------------------------------------------

def test_a08_ring_network_stability(capsys):
    net = ComplianceNetwork.ring(
        8, coupling=0.1, lag=1.0, window=5.0, target=0.9, baseline=0.5
    )
    rep = check_sufficient_condition(net)
    analytic_ok = rep.ring_condition is True and rep.passed
    sampled_ok = rep.witness_modulus < rep.threshold

    st = compliance_static(net)
    q0 = 0.9 + 0.05 * np.array([1.0 if i % 2 == 0 else -1.0 for i in range(8)])
    traj = simulate(net, 200.0, initial_Q=q0, initial_C=st.costs)
    final_dev = float(np.abs(traj.Q[-1] - 0.9).max())
    sim_ok = final_dev < 0.005

    strong = ComplianceNetwork.ring(
        8, coupling=2.0, lag=1.0, window=5.0, target=0.9, baseline=0.5
    )
    rep2 = check_sufficient_condition(strong)
    control_ok = rep2.ring_condition is False and not rep2.passed

    ok = analytic_ok and sampled_ok and sim_ok and control_ok
    _report(
        capsys,
        "08",
        ok,
        f"weak ring: analytic PASS, sampled max eigenvalue modulus "
        f"{rep.witness_modulus:.3f} < {rep.threshold:.2f}, final compliance "
        f"deviation {final_dev:.1e} (need < 5e-3); strong ring analytic "
        f"condition fails as required",
    )


# -- traffic junction ---------------------------------------------------------

def test_a09_junction_degradation(capsys):
    cfg = JunctionConfig()
    qs = (1.0, 0.9, 0.8, 0.7)
    slope = {}
    end = {}
    se = {}
    for q in qs:
        ens = run_ensemble(cfg, compliance_path(1000, fixed_Q=q), runs=100, master_seed=77)
        slope[q] = second_half_slope(ens.times, ens.vbar_mean)
        end[q] = float(ens.vbar_mean[-1])
        se[q] = float(ens.vbar_std[-1]) / math.sqrt(ens.runs)
    flat_ok = abs(slope[1.0]) < 0.001
    grow_ok = slope[0.7] > 0.0
    mono_ok = all(
        end[lo] >= end[hi] - math.hypot(se[lo], se[hi])
        for lo, hi in zip(qs[1:], qs)  # lower compliance vs next higher
    )
    ok = flat_ok and grow_ok and mono_ok
    ends = ", ".join(f"Q={q:g}: {end[q]:.2f}" for q in qs)
    _report(
        capsys,
        "09",
        ok,
        f"slope(Q=1) = {slope[1.0]:+.5f} (need |.| < 0.001), slope(Q=0.7) = "
        f"{slope[0.7]:+.5f} (need > 0); horizon-end queues {ends} "
        f"monotone={mono_ok}",
    )


def test_a10_controller_convergence(capsys):
    ctrl = ControllerParams(slope=0.6, memory=1.0, gain=0.1, target=0.95)
    qs, cs = compliance_path(600, controller=ctrl)
    tail = np.arange(601) >= 500
    q_dev = float(np.abs(qs[tail] - 0.95).max())
    c_star = 0.95 / 0.6
    c_rel = float(np.abs(cs[tail] - c_star).max()) / c_star
    ok = q_dev <= 0.02 and c_rel <= 0.02
    _report(
        capsys,
        "10",
        ok,
        f"from zero state, compliance holds 0.95 +/- {q_dev:.1e} and cost "
        f"holds {c_star:.4f} +/- {c_rel:.2%} for all t >= 500 "
        f"(need 0.02 / 2%)",
    )


# -- property bundle ----------------------------------------------------------

def test_a11_property_bundle(capsys):
    # conservation free + pending == tips checked inside the sim after every
    # event; the horizon is sized so the run covers more than 10^4 events
    sim = ReducedTangleSim(
        arrivals=ArrivalProcess(rate=60.0),
        delay=3.0,
        types=2,
        injections=(Injection(50.0, 2, 40),),
    )
    frame = sim.run(170.0, seed_stream(21, 5), check=True)
    created = float(frame.created[-1].sum())
    cons_ok = bool(np.array_equal(frame.free + frame.pending, frame.tips))
    events_ok = created >= 5_000.0  # creates alone; attach events double it

    # agent model: full structural recheck (acyclicity via attach-order,
    # parent type purity, tip bookkeeping) after every single event
    asim = AgentTangleSim(
        arrivals=ArrivalProcess(rate=30.0),
        delay=3.0,
        types=2,
        injections=(Injection(20.0, 2, 30),),
    )
    aframe = asim.run(40.0, seed_stream(22, 0), check=True)
    agent_ok = bool(aframe.tips[-1].sum() > 0)

    # selection probabilities sum to one over fuzzed tip vectors
    rng = np.random.default_rng(314)
    prob_dev = 0.0
    for _ in range(300):
        d = int(rng.integers(2, 7))
        tips = rng.integers(0, 100, size=d)
        if tips.sum() == 0:
            tips[0] = 1
        prob_dev = max(prob_dev, abs(float(type_probabilities(tips).sum()) - 1.0))
    prob_ok = prob_dev < 1e-12

    # coverage distribution sums to exactly one in rational arithmetic for
    # every split with at most 50 tips
    exact_ok = True
    for tips in range(1, 51):
        for pending in range(0, tips + 1):
            p0, p1, p2 = free_consumed_distribution(
                Fraction(tips - pending), Fraction(pending), Fraction(tips)
            )
            if p0 + p1 + p2 != Fraction(1):
                exact_ok = False

    # bit-identical reruns per seed across all three stochastic models
    r1 = sim.run(60.0, seed_stream(123, 7))
    r2 = sim.run(60.0, seed_stream(123, 7))
    rerun_ok = all(
        np.array_equal(getattr(r1, f), getattr(r2, f))
        for f in ("times", "tips", "free", "pending", "created")
    )
    a1 = asim.run(30.0, seed_stream(124, 1))
    a2 = asim.run(30.0, seed_stream(124, 1))
    rerun_ok = rerun_ok and all(
        np.array_equal(getattr(a1, f), getattr(a2, f))
        for f in ("times", "tips", "free", "pending", "created")
    )
    q = compliance_path(300, fixed_Q=0.8)[0]
    j1 = run(JunctionConfig(), q, [seed_stream(125, 0)])
    j2 = run(JunctionConfig(), q, [seed_stream(125, 0)])
    rerun_ok = rerun_ok and np.array_equal(j1, j2)  # one member's row vbar

    ok = cons_ok and events_ok and agent_ok and prob_ok and exact_ok and rerun_ok
    _report(
        capsys,
        "11",
        ok,
        f"conservation held over {created:.0f} creations (+ attaches); "
        f"agent recheck per event clean; selection probabilities sum to 1 "
        f"within {prob_dev:.1e}; coverage distribution exact in rationals "
        f"for all tip counts <= 50; reruns bit-identical across all models",
    )
