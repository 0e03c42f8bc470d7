"""Deposit-priced compliance network with windowed, delayed coupling.

Each activity i has a compliance level Q_i(t) in [0, 1] produced by a
linear-saturated response: baseline, plus coupling to the windowed averages
of other activities' compliance (each delayed by a travel lag), plus a cost
term E_i * C_i.  The deposit cost C_i integrates a proportional controller
toward the target compliance and never goes negative.
"""
from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
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
        for name in ("targets", "baselines", "cost_sens", "ctrl_gain", "coupling"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
        if np.any(self.cost_sens <= 0):
            raise ValueError("cost sensitivity must be positive everywhere")
        if np.any(self.ctrl_gain <= 0):
            raise ValueError("controller gain must be positive everywhere")
        if np.any((self.targets < 0) | (self.targets > 1)):
            raise ValueError("targets must lie in [0, 1]")
        if not np.all(np.isfinite(self.lags_to) & (self.lags_to >= 0)) or np.any(
            np.diag(self.lags_to) != 0
        ):
            raise ValueError("lags must be finite, non-negative and zero on the diagonal")
        if not 0 < self.window < np.inf:
            raise ValueError("window must be positive and finite")

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
        ring_params: tuple[float, float] | None = None,
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
            ring_params=ring_params,
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
        i = np.arange(n)
        gap = (i[:, None] - i) % n
        near = (gap == 1) | (gap == n - 1)
        return cls.build(
            target, baseline, cost_sens, ctrl_gain,
            np.where(near, coupling, 0.0), np.where(near, lag, 0.0), window,
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


# most (row, edge) entries of a block's temporaries, and of a read plan per window end
_BLOCK_ENTRIES = 1 << 12


def _block_rows(width: int) -> int:
    """Rows of a block whose temporaries hold `width` entries per row."""
    return max(_BLOCK_ENTRIES // max(width, 1), 1)


def default_step(net: ComplianceNetwork) -> float:
    """The largest integrator step: a fiftieth of the window or of the
    shortest positive lag of a coupled pair, whichever is shorter."""
    pos = net.lags_to[(net.lags_to > 0) & (net.coupling != 0)]
    base = min(net.window, float(pos.min())) if pos.size else net.window
    return base / 50.0


def step_grid(
    net: ComplianceNetwork, horizon: float, step: float | None = None
) -> tuple[float, int]:
    """``(dt, K)`` of an integration: the K >= 1 steps of dt = horizon / K
    that reach the horizon, dt at most the step, which must be positive and
    at most ``default_step`` (its default).  A count past the largest
    double is refused."""
    if not horizon > 0:
        raise ValueError("horizon must be positive")
    max_step = default_step(net)
    if step is None:
        step = max_step
    if not 0 < step <= max_step * (1 + 1e-9):
        raise ValueError(f"step must be positive and at most {max_step:.6g}, got {step}")
    if not np.isfinite(horizon / step):
        raise ValueError(f"horizon over step {step:.6g} gives inf rows, past the largest double")
    K = max(int(np.ceil(horizon / step - 1e-9)), 1)
    return horizon / K, K


def _block_starts(net: ComplianceNetwork, dt: float, K: int) -> list[int]:
    """Rows 0 = k_0 < k_1 < ... < K + 1 that cut rows 0 .. K into lag-safe
    blocks.  Row k > k0 needs an unfinished row if an array read lands at
    s > 0 with r = int(s / dt) >= k0 - 1 (an interpolation reads r + 1, the
    extension row k - 1).  An edge's latest array read is t - lag, or
    t - window for a zero lag, and r is monotone in s, so the shortest such
    reach decides, by one bisection per block.  A block is also at most
    about that reach over dt rows, and both window ends of every edge fit
    in `_BLOCK_ENTRIES`."""
    lags = net.lags_to[net.coupling != 0]
    span, shortest = _block_rows(2 * len(lags)), np.inf
    if len(lags):
        shortest = np.where(lags > 0.0, lags, net.window).min()
        span = min(span, int(shortest / dt) + 2)
    s = np.arange(K + 1) * dt - shortest
    r = np.where(s > 0.0, (np.where(s > 0.0, s, 0.0) / dt).astype(np.intp), -2).tolist()
    starts = [0]
    while starts[-1] <= K:
        k0 = starts[-1]
        starts.append(bisect_left(r, k0 - 1, k0 + 1, min(k0 + span, K + 1)))
    return starts


def simulate(
    net: ComplianceNetwork,
    horizon: float,
    initial_Q=None,
    initial_C=None,
    step: float | None = None,
) -> ComplianceTrajectory:
    """Closed-loop integration of the delayed network.

    initial_Q is the constant compliance history for t <= 0 (default: the
    targets); initial_C the starting costs (default: zero); both must be
    finite.  The cost uses explicit Euler with the non-negativity clamp
    applied every step.

    Rows are stepped in lag-safe blocks (the method of steps), all cut
    before the first step.  Where a delayed read lands depends only on the
    row and the lag, so one read plan per chunk of blocks holds each (row,
    edge, window end) entry's prefix row, weight and history value; a block
    gathers its coupling terms from the finished rows of the prefix
    integral P and picks each entry's branch with one ``np.where``.
    Activity i then reads only its own cost and terms, so its rows form a
    scalar recurrence (response, clamp, cost step) on Python floats down
    its column, adding its terms in column order, seeded by the previous
    block's last floats.  The exception is a zero-lag edge from j: past row
    0 it reads j's prefix row k - 1 extended by a rectangle, which the
    recurrence takes (every other read lies about 50 steps or more back).
    A self-coupling reads the activity's own running prefix integral; an
    edge from another activity reads that activity's finished column, so
    columns run in a topological order of the zero-lag edges between
    distinct activities (Kahn's algorithm, ties by index), and those on or
    downstream of a zero-lag cycle step together, one row at a time.  P is
    extended with one ``np.add.accumulate``.  Every value is bit-identical
    to the elementwise numpy formulation.
    """
    dt, K = step_grid(net, horizon, step)
    n = net.n
    q0 = _as_vector(initial_Q if initial_Q is not None else net.targets, n, "initial_Q")
    c0 = _as_vector(initial_C if initial_C is not None else 0.0, n, "initial_C")
    for name, v in (("initial_Q", q0), ("initial_C", c0)):
        if not np.all(np.isfinite(v)):
            raise ValueError(f"{name} must be finite")
    if np.any(c0 < 0):
        raise ValueError("initial costs must be non-negative")
    times = np.arange(K + 1) * dt
    Q = np.empty((K + 1, n))
    C = np.empty((K + 2, n))  # the row past the horizon is dropped
    P = np.zeros((K + 2, n))  # prefix integral of Q, a zero row past the horizon
    P1 = P[1:]  # flat index r * n + j of P1 is P[r + 1, j]
    qbar = np.empty((K + 1, n))
    C[0] = c0
    w = net.window
    base, sens, targets = (v.tolist() for v in (net.baselines, net.cost_sens, net.targets))
    gain_dt = (dt * net.ctrl_gain).tolist()
    gaps = np.diff(times, prepend=0.0)  # times[k] - times[k - 1]
    # every nonzero coupling as an edge from activity src[e] into dest[e],
    # row by row and in column order: the terms of activity i are the edges
    # at[i] .. at[i + 1] - 1
    dest, src = np.nonzero(net.coupling)
    coup = net.coupling[dest, src]
    lags = net.lags_to[dest, src]
    at = np.searchsorted(dest, np.arange(n + 1)).tolist()
    near = [[] for _ in range(n)]  # per activity: (term, source, coupling, edge)
    feeds = [[] for _ in range(n)]  # zero-lag edges between distinct activities
    needs = [0] * n
    for e in np.flatnonzero(lags == 0.0).tolist():
        i, j = int(dest[e]), int(src[e])
        near[i].append((e - at[i], j, float(coup[e]), e))
        if j != i:
            feeds[j].append(i)
            needs[i] += 1
    tracked = {j for edges in near for _, j, _, _ in edges}  # P kept on floats
    order, ready = [], [i for i in range(n) if not needs[i]]
    while ready:
        j = heapq.heappop(ready)
        order.append(j)
        for i in feeds[j]:
            needs[i] -= 1
            if not needs[i]:
                heapq.heappush(ready, i)
    tangled = [i for i in range(n) if needs[i]]  # on or downstream of a cycle
    half = dt * 0.5

    def plan(t, lag, cols):
        # the reads of Q[:, cols] at both window ends of t - lag, as (2, rows,
        # edges) arrays: the flat index of prefix row r = int(s / dt), the
        # weight, the history value (q0 before 0) and whether s > 0
        s = t[:, None] - lag
        s = np.stack((s, s - w))
        pos = s > 0.0
        r = (np.where(pos, s, 0.0) / dt).astype(np.intp)
        return r * n + cols, (s - times[r]) / dt, q0[cols] * s, pos

    def read(idx, wt, hist, pos):
        # integral of Q over [0, s] per entry, in the scalar order.  Unfinished
        # rows are read only where the recurrence replaces the read, row K + 1
        # only with weight 0: that gives P[K], as a rectangle of width 0 does
        lo = P.take(idx)
        return np.where(pos, lo + wt * (P1.take(idx) - lo), hist)

    def run(i, a, b):
        # activity i's recurrence over rows a .. b - 1 of the current block.
        # Its Q and P lists start with row k0 - 1 (None at k0 = 0), so entry
        # m is row m - 1 of the block; its C list starts with row k0.
        rows, qs, ps, cs, edges = terms[i], qcols[i], pcols[i], ccols[i], nears[i]
        b_i, se, g, target = base[i], sens[i], gain_dt[i], targets[i]
        c = cs[-1]
        for m in range(a, b):
            tr = rows[m]
            if edges and (m or k0):  # int(times[k] / dt) >= k - 1: extend row k - 1
                tr = list(tr)
                for pos, j, cj, los in edges:
                    tr[pos] = cj * (pcols[j][m] + gap[m] * qcols[j][m] - los[m]) / w
            acc = b_i + se * c
            for x in tr:
                acc += x
            # min(max(acc, 0.0), 1.0), NaN kept
            q = 0.0 if acc < 0.0 else 1.0 if acc > 1.0 else acc
            if ps is not None:
                # this row of P, as the accumulate below gives it
                p = ps[-1]
                ps.append(0.0 if p is None else p + (qs[-1] + q) * half)
            qs.append(q)
            c = c + g * (target - q)
            # clamp at zero as np.maximum does: -0.0 becomes 0.0, NaN stays
            c = 0.0 if c <= 0.0 else c
            cs.append(c)

    starts = _block_starts(net, dt, K)
    chunk, z = _block_rows(len(lags)), 0  # a plan's rows: _BLOCK_ENTRIES per window end
    qcols = [[None] for _ in range(n)]
    pcols = [[None] if i in tracked else None for i in range(n)]
    ccols = [[c] for c in c0.tolist()]
    nears = near
    for k0, k1 in zip(starts, starts[1:]):
        if k1 > z:  # plan rows a .. z - 1: the blocks that fit in `chunk` rows
            a, z = k0, starts[bisect_right(starts, k0 + chunk) - 1]
            idx, wt, hist, pos = plan(times[a:z], lags, src)
        hi, lo = read(*(x[:, k0 - a:k1 - a] for x in (idx, wt, hist, pos)))
        cols = (coup * (hi - lo) / w).T.tolist()
        terms = [list(zip(*cols[x:y])) or [()] * (k1 - k0) for x, y in zip(at, at[1:])]
        if tracked:
            lo_cols = lo.T.tolist()
            nears = [[(x, j, c, lo_cols[e]) for x, j, c, e in edges] for edges in near]
            gap = gaps[k0:k1].tolist()
        for i in order:
            run(i, 0, k1 - k0)
        for m in range(k1 - k0):
            for i in tangled:
                run(i, m, m + 1)
        Q[k0:k1].T[...] = [col[1:] for col in qcols]
        C[k0 + 1:k1 + 1].T[...] = [col[1:] for col in ccols]
        f = max(k0, 1)
        P[f:k1] = Q[f - 1:k1 - 1] + Q[f:k1]
        P[f:k1] *= half
        np.add.accumulate(P[f - 1:k1], axis=0, out=P[f - 1:k1])
        # the next block's seeds: the last row of each column
        qcols = [col[-1:] for col in qcols]
        pcols = [col and col[-1:] for col in pcols]
        ccols = [col[-1:] for col in ccols]

    every, zero = np.arange(n), np.zeros(n)
    chunk = _block_rows(2 * n)
    for a in range(0, K + 1, chunk):
        hi, lo = read(*plan(times[a:a + chunk], zero, every))
        qbar[a:a + chunk] = (hi - lo) / w
    return ComplianceTrajectory(times, Q, C[:-1], qbar)
