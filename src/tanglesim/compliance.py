"""Deposit-priced compliance network with windowed, delayed coupling.

Each activity i has a compliance level Q_i(t) in [0, 1] produced by a
linear-saturated response: baseline, plus coupling to the windowed averages
of other activities' compliance (each delayed by a travel lag), plus a cost
term E_i * C_i.  The deposit cost C_i integrates a proportional controller
toward the target compliance and never goes negative.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np



def _as_vector(value, n: int, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        arr = np.full(n, float(arr))
    if arr.shape != (n,):
        raise ValueError(f"{name} must be a scalar or length-{n} vector")
    return arr


@dataclass(frozen=True)
class ComplianceNetwork:
    """Immutable network description.

    lags_to[i, j] is the travel lag from activity j to activity i (zero
    diagonal), so Q_i(t) reads the window average of Q_j at t - lags_to[i, j].
    """

    targets: np.ndarray
    baselines: np.ndarray
    cost_sens: np.ndarray  # dQ/dC in the interior, > 0
    ctrl_gain: np.ndarray  # cost controller gain, > 0
    coupling: np.ndarray  # (n, n), entry [i, j] weights Q_j's influence on i
    lags_to: np.ndarray  # (n, n), zero diagonal
    window: float
    ring_params: tuple[float, float] | None = None  # (D, tau) when a ring

    def __post_init__(self) -> None:
        n = self.n
        for name in ("targets", "baselines", "cost_sens", "ctrl_gain"):
            if getattr(self, name).shape != (n,):
                raise ValueError(f"{name} must have shape ({n},)")
        for name in ("coupling", "lags_to"):
            if getattr(self, name).shape != (n, n):
                raise ValueError(f"{name} must have shape ({n}, {n})")
        if np.any(self.cost_sens <= 0):
            raise ValueError("cost sensitivity must be positive everywhere")
        if np.any(self.ctrl_gain <= 0):
            raise ValueError("controller gain must be positive everywhere")
        if np.any((self.targets < 0) | (self.targets > 1)):
            raise ValueError("targets must lie in [0, 1]")
        if np.any(self.lags_to < 0) or np.any(np.diag(self.lags_to) != 0):
            raise ValueError("lags must be non-negative with zero diagonal")
        if not self.window > 0:
            raise ValueError("window must be positive")

    @property
    def n(self) -> int:
        return len(self.targets)

    @classmethod
    def build(
        cls,
        targets,
        baselines,
        cost_sens,
        ctrl_gain,
        coupling,
        lags,
        window: float,
    ) -> "ComplianceNetwork":
        coupling = np.asarray(coupling, dtype=float)
        n = coupling.shape[0]
        return cls(
            targets=_as_vector(targets, n, "targets"),
            baselines=_as_vector(baselines, n, "baselines"),
            cost_sens=_as_vector(cost_sens, n, "cost_sens"),
            ctrl_gain=_as_vector(ctrl_gain, n, "ctrl_gain"),
            coupling=coupling,
            lags_to=np.asarray(lags, dtype=float),
            window=float(window),
        )

    @classmethod
    def ring(
        cls,
        n: int,
        coupling: float,
        lag: float,
        window: float,
        target: float,
        baseline: float,
        cost_sens: float = 1.0,
        ctrl_gain: float = 1.0,
    ) -> "ComplianceNetwork":
        """Nearest-neighbor ring: uniform coupling D and lag tau."""
        if n < 3:
            raise ValueError("a ring needs at least 3 activities")
        D = np.zeros((n, n))
        T = np.zeros((n, n))
        for i in range(n):
            for j in ((i - 1) % n, (i + 1) % n):
                D[i, j] = coupling
                T[i, j] = lag
        return cls(
            targets=np.full(n, float(target)),
            baselines=np.full(n, float(baseline)),
            cost_sens=np.full(n, float(cost_sens)),
            ctrl_gain=np.full(n, float(ctrl_gain)),
            coupling=D,
            lags_to=T,
            window=float(window),
            ring_params=(float(coupling), float(lag)),
        )


@dataclass(frozen=True)
class StaticCosts:
    costs: np.ndarray
    feasible: bool
    violations: tuple[str, ...]


def static_solution(net: ComplianceNetwork) -> StaticCosts:
    """Unique cost vector holding every activity at its target.

    C_i = (target_i - baseline_i - sum_j coupling_ij * target_j) / E_i.
    Feasible iff all costs are non-negative and every target is interior
    (the clamp must be inactive at the solution).
    """
    costs = (
        net.targets - net.baselines - net.coupling @ net.targets
    ) / net.cost_sens
    violations = []
    for i, c in enumerate(costs):
        if c < 0:
            violations.append(f"activity {i}: required cost {c:.6g} is negative")
        if not (0.0 < net.targets[i] < 1.0):
            violations.append(
                f"activity {i}: target {net.targets[i]:.6g} is not interior"
            )
    return StaticCosts(costs, not violations, tuple(violations))


@dataclass
class ComplianceTrajectory:
    times: np.ndarray  # (K+1,)
    Q: np.ndarray  # (K+1, n)
    C: np.ndarray  # (K+1, n)
    Qbar: np.ndarray  # (K+1, n) own windowed average, undelayed


def default_step(net: ComplianceNetwork) -> float:
    pos = net.lags_to[net.lags_to > 0]
    base = min(net.window, float(pos.min())) if pos.size else net.window
    return base / 50.0


def simulate(
    net: ComplianceNetwork,
    horizon: float,
    initial_Q=None,
    initial_C=None,
    step: float | None = None,
) -> ComplianceTrajectory:
    """Closed-loop integration of the delayed network.

    initial_Q is the constant compliance history for t <= 0 (default: the
    targets); initial_C the starting costs (default: zero).  The cost uses
    explicit Euler with the non-negativity clamp applied every step.

    The loop works on Python floats: Q, C, the prefix integral P and the
    times are read and written through flat memoryviews of the output
    arrays, and each row sums its couplings over a precomputed edge list in
    column order, so every value is bit-identical to the elementwise numpy
    formulation.
    """
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
    K = int(np.ceil(horizon / step - 1e-9))
    dt = horizon / K
    times = np.arange(K + 1) * dt
    Q = np.empty((K + 1, n))
    C = np.empty((K + 1, n))
    P = np.empty((K + 1, n))  # prefix integral of Q
    qbar = np.empty((K + 1, n))
    C[0] = c0
    P[0] = 0.0
    w = net.window
    tv, qv, cv, pv, bv = (memoryview(a.reshape(-1)) for a in (times, Q, C, P, qbar))
    q0 = q0.tolist()
    base = net.baselines.tolist()
    sens = net.cost_sens.tolist()
    targets = net.targets.tolist()
    gain_dt = (dt * net.ctrl_gain).tolist()
    half_dt = dt * 0.5
    # per row: (j, coupling, lag) for every nonzero coupling, in column order
    edges = [
        [(j, float(net.coupling[i, j]), float(net.lags_to[i, j]))
         for j in range(n) if net.coupling[i, j] != 0.0]
        for i in range(n)
    ]

    def prefix_at(s: float, last: int, j: int) -> float:
        # integral of Q_j over [0, s]; constant history q0 before 0; `last`
        # is the newest finalized prefix row, and times beyond it extend
        # with the newest known compliance value (rectangle, O(dt) like Euler)
        if s <= 0.0:
            return q0[j] * s
        r = int(s / dt)
        if r >= last:
            return pv[last * n + j] + (s - tv[last]) * qv[last * n + j]
        lo = pv[r * n + j]
        return lo + (s - tv[r]) / dt * (pv[r * n + n + j] - lo)

    for k in range(K + 1):
        t = tv[k]
        last = max(k - 1, 0)
        row = k * n
        for i in range(n):
            acc = base[i] + sens[i] * cv[row + i]
            for j, c, lag in edges[i]:
                s = t - lag
                hi = prefix_at(s, last, j) if k else q0[j] * min(s, 0.0)
                lo = prefix_at(s - w, last, j)
                acc += c * (hi - lo) / w
            qv[row + i] = min(max(acc, 0.0), 1.0)
        if k:
            for i in range(row, row + n):
                pv[i] = pv[i - n] + half_dt * (qv[i - n] + qv[i])
        if k < K:
            for i in range(n):
                c = cv[row + i] + gain_dt[i] * (targets[i] - qv[row + i])
                # clamp at zero as np.maximum does: -0.0 becomes 0.0, NaN stays
                cv[row + n + i] = 0.0 if c <= 0.0 else c
    for k in range(K + 1):
        t = tv[k]
        for j in range(n):
            bv[k * n + j] = (prefix_at(t, K, j) - prefix_at(t - w, K, j)) / w
    return ComplianceTrajectory(times, Q, C, qbar)
