"""Single signalized junction with compliance-dependent throughput.

Three queues share one intersection; the signal gives one queue a green
phase of fixed length, cycling round-robin.  Each time unit brings Poisson
arrivals spread uniformly over the queues.  A car at a red queue jumps the
light with probability 1 - Q; the incursion blocks the junction rather than
clearing the car (the violator stays in its queue) and every incursion since
the last signal switch stretches the effective crossing time, throttling the
green queue's service.  The deposit controller adjusts Q through the cost of
entry.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .seeding import seeded_runs


@dataclass(frozen=True)
class JunctionConfig:
    switch_period: int = 10  # time units between signal switches
    cross_time: float = 1.0  # unobstructed per-vehicle crossing time
    slowdown: float = 1.0  # extra crossing time per registered violation
    service_rate: int = 3  # vehicles served per unit at full speed
    arrival_rate: float = 1.0  # Poisson mean of total arrivals per unit

    def __post_init__(self) -> None:
        if self.switch_period < 1:
            raise ValueError(f"switch_period must be at least 1, got {self.switch_period}")
        if not self.cross_time > 0:
            raise ValueError(f"cross_time must be positive, got {self.cross_time}")
        if not self.slowdown >= 0:
            raise ValueError(f"slowdown must be non-negative, got {self.slowdown}")
        if self.service_rate < 1:
            raise ValueError(f"service_rate must be at least 1, got {self.service_rate}")
        if not self.arrival_rate >= 0:
            raise ValueError(f"arrival_rate must be non-negative, got {self.arrival_rate}")


@dataclass(frozen=True)
class ControllerParams:
    slope: float = 0.6  # compliance produced per unit cost
    memory: float = 1.0  # cost carried over per step
    gain: float = 0.1  # controller gain on the compliance error
    target: float = 0.95

    def __post_init__(self) -> None:
        if not self.slope > 0:
            raise ValueError(f"slope must be positive, got {self.slope}")
        if not (0.0 <= self.target <= 1.0):
            raise ValueError(f"target must lie in [0, 1], got {self.target}")


def service_capacity(config: JunctionConfig, violations: int) -> int:
    """Vehicles the green queue can clear this unit given the incursions
    registered since the last signal switch."""
    eff = config.cross_time + violations * config.slowdown
    return max(0, int(config.service_rate * config.cross_time / eff))


def controller_step(
    cost: float, q: float, params: ControllerParams
) -> tuple[float, float]:
    """One discrete controller update: new (cost, compliance)."""
    new_cost = max(params.memory * cost + params.gain * (params.target - q), 0.0)
    new_q = min(max(params.slope * new_cost, 0.0), 1.0)
    return new_cost, new_q


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


@dataclass(frozen=True)
class StepRecord:
    arrivals: int
    violations: int
    served: int


def step(state: JunctionState, config: JunctionConfig, rng: np.random.Generator) -> StepRecord:
    """Advance one time unit in place.

    Order within the unit: arrivals, red-queue incursion attempts (at most
    one per nonempty red queue, each with probability 1 - Q), green service
    throttled by the incursions accumulated this phase, then the signal
    switch check.  Vehicle conservation: arrivals - served = change in the
    total queue length (incursions move no vehicles).
    """
    arrivals = int(rng.poisson(config.arrival_rate))
    state.queues += rng.multinomial(arrivals, (1 / 3, 1 / 3, 1 / 3))
    violations = 0
    for r in range(3):
        if r != state.phase and state.queues[r] > 0 and rng.random() < 1.0 - state.Q:
            violations += 1
    state.phase_violations += violations
    cap = service_capacity(config, state.phase_violations)
    served = min(int(state.queues[state.phase]), cap)
    state.queues[state.phase] -= served
    state.unit += 1
    if state.unit % config.switch_period == 0:
        state.phase = (state.phase + 1) % 3
        state.phase_violations = 0
    return StepRecord(arrivals, violations, served)


@dataclass
class JunctionRun:
    times: np.ndarray  # (horizon+1,) integer units
    vbar: np.ndarray
    Q: np.ndarray
    C: np.ndarray


def run(
    config: JunctionConfig,
    horizon: int,
    rng: np.random.Generator,
    fixed_Q: float | None = None,
    controller: ControllerParams | None = None,
) -> JunctionRun:
    """Simulate one seeded junction run.

    Exactly one of fixed_Q / controller must be given.  Closed-loop runs
    start from zero cost and compliance and apply the controller once per
    time unit after the traffic update (the controller observes Q exactly).
    """
    if (fixed_Q is None) == (controller is None):
        raise ValueError("give exactly one of fixed_Q or controller")
    if fixed_Q is not None and not (0.0 <= fixed_Q <= 1.0):
        raise ValueError("fixed_Q must lie in [0, 1]")
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    q0 = fixed_Q if fixed_Q is not None else 0.0
    state = JunctionState(queues=np.zeros(3, dtype=np.int64), Q=q0, C=0.0)
    T = horizon + 1
    vbar = np.zeros(T)
    qs = np.zeros(T)
    cs = np.zeros(T)
    qs[0] = state.Q
    for t in range(1, T):
        step(state, config, rng)
        if controller is not None:
            state.C, state.Q = controller_step(state.C, state.Q, controller)
        vbar[t] = state.vbar
        qs[t] = state.Q
        cs[t] = state.C
    return JunctionRun(np.arange(T), vbar, qs, cs)


@dataclass
class JunctionEnsemble:
    times: np.ndarray
    vbar_mean: np.ndarray
    vbar_std: np.ndarray
    q_mean: np.ndarray
    c_mean: np.ndarray
    runs: int


def run_ensemble(
    config: JunctionConfig,
    runs: int,
    horizon: int,
    master_seed: int,
    fixed_Q: float | None = None,
    controller: ControllerParams | None = None,
    workers: int = 1,
) -> JunctionEnsemble:
    """Ensemble statistics over independent seeded runs on ``workers``
    processes (see ``seeding.seeded_runs``)."""
    member = functools.partial(run, config, horizon, fixed_Q=fixed_Q, controller=controller)
    stack = np.empty((runs, 3, horizon + 1))  # vbar, Q, C per run
    for r, out in enumerate(seeded_runs(member, master_seed, runs, workers)):
        stack[r] = out.vbar, out.Q, out.C
    mean = stack.mean(axis=0)
    return JunctionEnsemble(
        times=np.arange(horizon + 1),
        vbar_mean=mean[0],
        vbar_std=stack[:, 0].std(axis=0),
        q_mean=mean[1],
        c_mean=mean[2],
        runs=runs,
    )
