"""Single signalized junction with compliance-dependent throughput.

Three queues share one intersection; the signal gives one queue a green
phase of fixed length, cycling round-robin.  Each time unit brings Poisson
arrivals spread uniformly over the queues; by Poisson splitting that is an
independent Poisson(arrival_rate / 3) count per queue, which is how ``run``
draws them.  A car at a red queue jumps the light with probability 1 - Q;
the incursion blocks the junction rather than clearing the car (the
violator stays in its queue) and every incursion since the last signal
switch stretches the effective crossing time, throttling the green queue's
service.  The deposit controller adjusts Q through the cost of entry.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .seeding import seeded_runs


# numpy's largest Poisson mean (its POISSON_LAM_MAX, in this form), above
# which ``Generator.poisson`` raises; the total arrival mean is held to it,
# and so are a run's expected arrivals, which ``run`` counts in int64
_POISSON_MAX = float(np.iinfo("l").max - np.sqrt(np.iinfo("l").max) * 10)
# member-units per lane group of ``run``, and per ``run_ensemble`` block,
# below which a block runs faster in this process than a pool can start
_LANE_ENTRIES, _MIN_BLOCK_UNITS = 1 << 17, 200_000


@dataclass(frozen=True)
class JunctionConfig:
    switch_period: int = 10  # time units between signal switches
    cross_time: float = 1.0  # unobstructed per-vehicle crossing time
    slowdown: float = 1.0  # extra crossing time per registered violation
    service_rate: int = 3  # vehicles served per unit at full speed
    arrival_rate: float = 1.0  # Poisson mean of total arrivals per unit

    def __post_init__(self) -> None:
        # an int or a numpy int: a switch_period of 2.5 would switch only
        # every 5 units, and a service_rate of 2.5 would serve int(2.5) = 2
        for name in ("switch_period", "service_rate"):
            value = getattr(self, name)
            try:
                operator.index(value)
            except TypeError:
                raise ValueError(f"{name} must be a whole number, got {value!r}") from None
            if value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")
        if not self.cross_time > 0:
            raise ValueError(f"cross_time must be positive, got {self.cross_time}")
        # service_capacity converts service_rate * cross_time to a double
        # and the lanes count the cars served in int64
        if not self.service_rate <= _POISSON_MAX:
            raise ValueError(f"service_rate must be at most {_POISSON_MAX:.10g}, "
                             f"got {self.service_rate}")
        if not math.isfinite(self.service_rate * self.cross_time):
            raise ValueError(f"service_rate * cross_time must be finite, got "
                             f"{self.service_rate} * {self.cross_time}")
        if not self.slowdown >= 0:
            raise ValueError(f"slowdown must be non-negative, got {self.slowdown}")
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
    path = np.zeros((2, horizon + 1))
    if controller is None:
        path[0] = fixed_Q
        return path
    qs, cs = path
    c = q = 0.0
    for u in range(1, horizon + 1):
        c, q = controller_step(c, q, controller)
        qs[u], cs[u] = q, c
    return path


def check_horizon(config: JunctionConfig, horizon: int) -> None:
    """Refuse a run whose int64 counts could overflow: its expected arrivals
    plus one period's service must stay within ``_POISSON_MAX``."""
    offered = service_capacity(config, 0) * min(config.switch_period, horizon)
    if not config.arrival_rate * horizon + offered <= _POISSON_MAX:
        raise ValueError(f"arrival_rate * horizon, plus the {offered} cars service_rate serves in "
                         f"a switch period, must be at most {_POISSON_MAX:.10g}, got "
                         f"{config.arrival_rate} * {horizon}")


def run(config: JunctionConfig, Q: np.ndarray, rngs: list) -> np.ndarray:
    """The (len(rngs), len(Q)) rows vbar, the mean queue length at each
    unit, of one run per generator along the compliance row ``Q``.

    Each member draws ``rng.poisson(arrival_rate / 3, (units, 3))``, each
    queue's arrivals per unit, then ``rng.random((units, 2))``, the uniforms
    of each unit's two red queues, lower index first.  Order within unit u:
    arrivals, red-queue incursions (a nonempty red queue's uniform below
    1 - Q[u-1] is one), then green service throttled by the incursions since
    the last switch, read from a ``service_capacity`` table.  The members
    step together in int64 lanes, at most ``_LANE_ENTRIES`` member-units (or
    one member) a group, one switch period at a time.  In a period the reds only
    grow, so they and the strike count are cumsums, and the green queue
    ``g_k = max(g_{k-1} + a_k - c_k, 0)`` is ``S_k - min(0, min S_{j<=k})``,
    ``S`` being its start plus the cumsum of ``a - c``."""
    jump = 1.0 - np.asarray(Q, dtype=float)[:-1, None]
    units, period = len(jump), config.switch_period
    check_horizon(config, units)
    caps = np.array([service_capacity(config, s) for s in range(2 * min(period, units) + 1)])
    out = np.zeros((len(rngs), units + 1))
    size = max(_LANE_ENTRIES // max(units, 1), 1)
    for first in range(0, len(rngs), size):
        group = rngs[first:first + size]
        held = np.empty((3, units, len(group)), dtype=np.int64)
        jumps = np.empty((2, units, len(group)), dtype=bool)
        for j, rng in enumerate(group):
            held[:, :, j] = rng.poisson(config.arrival_rate / 3.0, (units, 3)).T
            jumps[:, :, j] = (rng.random((units, 2)) < jump).T
        held.cumsum(axis=1, out=held)
        served = np.zeros((3, 1, len(group)), dtype=np.int64)
        for start in range(0, units, period):
            stop = start + period
            green = start // period % 3
            red1, red2 = ((1, 2), (0, 2), (0, 1))[green]
            h = held[:, start:stop]
            h -= served  # each queue as if unserved this period
            strikes = np.add((h[red1] > 0) & jumps[0, start:stop],
                             (h[red2] > 0) & jumps[1, start:stop], dtype=np.int64).cumsum(axis=0)
            S = h[green] - caps[strikes].cumsum(axis=0)
            g = S - np.minimum(np.minimum.accumulate(S, axis=0), 0)
            out[first:first + len(group), start + 1:stop + 1] = (h[red1] + h[red2] + g).T
            served[green] += h[green, -1] - g[-1]
    # each total converts to a double and divides as in sum(queues) / 3.0
    return out / 3.0


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
    path: np.ndarray,
    runs: int,
    master_seed: int,
    workers: int = 1,
) -> JunctionEnsemble:
    """Ensemble statistics over independent seeded runs (see
    ``seeding.seeded_runs``) along the ``(2, horizon+1)`` compliance path
    ``path``, the rows Q, C that ``compliance_path`` builds, on at most
    ``workers`` processes, and on fewer if that leaves a block below
    ``_MIN_BLOCK_UNITS`` member-units: so small a block runs faster in this
    process than a pool starts.

    Every run steps its queues along the path's Q row, so the stack holds
    only the ``(runs, horizon+1)`` vbar rows.  ``q_mean`` and ``c_mean``
    are the means over ``runs`` copies of the path, which round to the
    bytes of an ensemble that recorded Q and C in every run
    (0.7999999999999985, not 0.8, for Q = 0.8 over 100 runs).
    """
    horizon = path.shape[1] - 1
    workers = min(workers, max(runs * horizon // _MIN_BLOCK_UNITS, 1))
    stack = seeded_runs(functools.partial(run, config, path[0]), master_seed, runs, workers)
    q_mean, c_mean = np.broadcast_to(path, (runs,) + path.shape).mean(axis=0)
    return JunctionEnsemble(np.arange(horizon + 1), stack.mean(axis=0), stack.std(axis=0),
                            q_mean, c_mean, runs)
