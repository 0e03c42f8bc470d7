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
import math
import operator
from dataclasses import dataclass

import numpy as np

from .seeding import double_stream, seeded_runs


# numpy's largest Poisson mean (its POISSON_LAM_MAX, in this form), above
# which ``Generator.poisson`` raises
_POISSON_MAX = float(np.iinfo("l").max - np.sqrt(np.iinfo("l").max) * 10)


@dataclass(frozen=True)
class JunctionConfig:
    switch_period: int = 10  # time units between signal switches
    cross_time: float = 1.0  # unobstructed per-vehicle crossing time
    slowdown: float = 1.0  # extra crossing time per registered violation
    service_rate: int = 3  # vehicles served per unit at full speed
    arrival_rate: float = 1.0  # Poisson mean of total arrivals per unit

    def __post_init__(self) -> None:
        try:  # an int or a numpy int; 2.5 would switch only every 5 units
            operator.index(self.switch_period)
        except TypeError:
            raise ValueError(
                f"switch_period must be a whole number, got {self.switch_period!r}"
            ) from None
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
        if not self.arrival_rate <= _POISSON_MAX:
            raise ValueError(
                f"arrival_rate must be at most {_POISSON_MAX:.10g}, the largest Poisson "
                f"mean numpy draws, got {self.arrival_rate}"
            )


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


def compliance_path(
    horizon: int,
    fixed_Q: float | None = None,
    controller: ControllerParams | None = None,
) -> np.ndarray:
    """The (2, horizon+1) rows Q, C at the integer units 0..horizon.

    The controller observes Q exactly, never the queues, so the path is the
    same for every run of an ensemble: constant Q and zero cost with
    ``fixed_Q``, or ``controller_step`` iterated once per unit from zero
    cost and compliance with ``controller``.  Exactly one of the two must
    be given.
    """
    if (fixed_Q is None) == (controller is None):
        raise ValueError("give exactly one of fixed_Q or controller")
    if fixed_Q is not None and not (0.0 <= fixed_Q <= 1.0):
        raise ValueError("fixed_Q must lie in [0, 1]")
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if controller is None:
        return np.stack((np.full(horizon + 1, fixed_Q, dtype=float), np.zeros(horizon + 1)))
    c = q = 0.0
    rows = [(q, c)]
    for _ in range(horizon):
        c, q = controller_step(c, q, controller)
        rows.append((q, c))
    return np.array(rows).T


def run(config: JunctionConfig, Q: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Simulate one seeded junction run along the compliance row ``Q`` (row
    0 of ``compliance_path``); returns the (len(Q),) row vbar, the mean
    queue length at the integer units 0..len(Q)-1.

    The loop goes one switch period at a time (the last one may be cut
    short by the horizon): the green queue, its two reds and the strike
    count are set once per period.  Order within unit u: Poisson arrivals
    spread by one multinomial draw (none without arrivals), red-queue
    incursion attempts (one uniform per nonempty red queue, lower index
    first, each an incursion with probability 1 - Q[u-1]), and green service
    throttled by the incursions since the last switch, read from a table of
    ``service_capacity`` built once per run.  The loop keeps integer queue
    totals and divides them by 3 once at the end.

    The draws are those of numpy's scalar calls ``rng.poisson(rate)``,
    ``rng.multinomial(n, [1/3] * 3)`` and ``rng.random()``, bit for bit,
    and ``rng`` (PCG64) ends where those calls leave it.  The kernel mirrors
    numpy 2.x's algorithms on the doubles of ``seeding.double_stream``:
    Poisson by multiplication for 0 < rate < 10 (no draw at rate 0), and the
    multinomial as numpy's two binomials, each by inversion, with ``exp``,
    ``log`` and ``sqrt`` from ``math`` (the C library's, as numpy's C code
    uses).  Where numpy takes another method, PTRS for rate >= 10 (Hormann
    1993) or BTPE for a binomial with n p > 30 (Kachitvichyanukul and
    Schmeiser 1988), the stream hands ``rng`` back and the rest of the unit
    runs on numpy's own ``poisson``, ``binomial`` and ``random`` calls; the
    next unit's first draw starts a new chunk.  A numpy release that changes
    these algorithms breaks the bit-for-bit property in the tests.
    """
    draw, hand_back = double_stream(rng)
    poisson, binomial, random = rng.poisson, rng.binomial, rng.random
    rate, period = config.arrival_rate, config.switch_period
    enlam = math.exp(-rate)
    # numpy's multinomial over three equal cells: a binomial of p = 1/3 over
    # all arrivals, then one of (1/3) / (1 - 1/3) = 0.49999999999999994 over
    # the rest, which the last cell takes
    third = 1.0 / 3.0
    # per binomial: p, 1 - p, and numpy's inversion set-up by n: (1 - p)**n, bound
    cells = [(p, 1.0 - p, {}) for p in (third, third / (1.0 - third))]
    qs = np.asarray(Q, dtype=float)[:-1].tolist()
    # green service by incursions since the last switch, at most two a unit
    caps = [service_capacity(config, s) for s in range(2 * min(period, len(qs)) + 1)]
    queues = [0, 0, 0]
    totals = [0]  # vehicles queued after each unit
    for start in range(0, len(qs), period):
        green = start // period % 3
        red1, red2 = ((1, 2), (0, 2), (0, 1))[green]
        strikes = 0  # incursions since the last switch
        for q in qs[start:start + period]:
            uniform = draw  # the unit's doubles: the stream, or rng once handed back
            left = 0  # arrivals not yet given a queue
            if rate >= 10.0:  # numpy's PTRS
                hand_back()
                uniform = random
                left = poisson(rate)
            elif rate > 0.0:
                prod = uniform()
                while prod > enlam:
                    left += 1
                    prod *= uniform()
            if left:
                for cell, (p, p_not, inversion) in enumerate(cells):
                    if uniform is random or p * left > 30.0:  # numpy's BTPE, or a handed-back unit
                        hand_back()
                        uniform = random
                        k = binomial(left, p)
                    else:
                        params = inversion.get(left)
                        if params is None:
                            mean = left * p
                            params = inversion[left] = (
                                math.exp(left * math.log(p_not)),
                                int(min(left, mean + 10.0 * math.sqrt(mean * p_not + 1))),
                            )
                        qn, bound = params
                        k, px, u = 0, qn, uniform()
                        while u > px:
                            k += 1
                            if k > bound:
                                k, px, u = 0, qn, uniform()
                            else:
                                u -= px
                                px = (left - k + 1) * p * px / (k * p_not)
                    queues[cell] += k
                    left -= k
                    if left == 0:
                        break
                queues[2] += left
            jump = 1.0 - q
            if queues[red1] > 0 and uniform() < jump:
                strikes += 1
            if queues[red2] > 0 and uniform() < jump:
                strikes += 1
            g, c = queues[green], caps[strikes]
            queues[green] = g - c if g > c else 0
            totals.append(queues[0] + queues[1] + queues[2])
    hand_back()
    # each total converts to a double and divides as in sum(queues) / 3.0
    return np.array(totals, dtype=float) / 3.0


def _run_block(config: JunctionConfig, Q: np.ndarray, rngs: list) -> np.ndarray:
    """The (len(rngs), len(Q)) rows of ``run`` on each generator."""
    out = np.empty((len(rngs), len(Q)))
    for j, rng in enumerate(rngs):
        out[j] = run(config, Q, rng)
    return out


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
    processes (see ``seeding.seeded_runs``).

    The compliance path is built once (``compliance_path``) and every run
    steps its queues along its Q row, so the stack holds only the
    ``(runs, horizon+1)`` vbar rows.  ``q_mean`` and ``c_mean`` are the
    means over ``runs`` copies of the path, which round to the bytes of an
    ensemble that recorded Q and C in every run (0.7999999999999985, not
    0.8, for Q = 0.8 over 100 runs).
    """
    path = compliance_path(horizon, fixed_Q, controller)
    stack = seeded_runs(functools.partial(_run_block, config, path[0]), master_seed, runs, workers)
    q_mean, c_mean = np.broadcast_to(path, (runs,) + path.shape).mean(axis=0)
    return JunctionEnsemble(
        times=np.arange(horizon + 1),
        vbar_mean=stack.mean(axis=0),
        vbar_std=stack.std(axis=0),
        q_mean=q_mean,
        c_mean=c_mean,
        runs=runs,
    )
