"""Deposit-priced compliance network with windowed, delayed coupling.

Each activity i has a compliance level Q_i(t) in [0, 1] produced by a
linear-saturated response: baseline, plus coupling to the windowed averages
of other activities' compliance (each delayed by a travel lag), plus a cost
term E_i * C_i.  The deposit cost C_i integrates a proportional controller
toward the target compliance and never goes negative.
"""
from __future__ import annotations

import heapq
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


# most (row, edge) entries that one block's temporaries hold
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
    if not 0 < step <= max_step + 1e-12:
        raise ValueError(f"step must be positive and at most {max_step:.6g}, got {step}")
    if not np.isfinite(horizon / step):
        raise ValueError(f"horizon over step {step:.6g} gives inf rows, past the largest double")
    K = max(int(np.ceil(horizon / step - 1e-9)), 1)
    return horizon / K, K


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

    Rows are stepped in lag-safe blocks (the method of steps): a block ends
    before the first row whose delayed reads need a row of the block itself.
    One numpy pass reads both window ends of a block's coupling terms from
    the finished rows.  Activity i then reads only its own cost and its own
    terms, so its rows form a scalar recurrence (response, clamp, cost
    step) that runs down its column on Python floats, adding its terms in
    column order.  The exception is a zero-lag edge from j: past the
    block's first row it reads j's prefix row k - 1 extended by a
    rectangle.  A self-coupling reads the activity's own running prefix
    integral; an edge from another activity reads that activity's finished
    column, so columns run in a topological order of the zero-lag edges
    between distinct activities (Kahn's algorithm, ties by index), and the
    activities on or downstream of a zero-lag cycle step together, one row
    at a time, through the same recurrence.  As the recurrence takes these
    reads, a zero lag does not shorten the blocks.  The prefix integral P is
    extended with one sequential ``np.add.accumulate``.  Every value is
    bit-identical to the elementwise numpy formulation.
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
    P = np.empty((K + 1, n))  # prefix integral of Q
    qbar = np.empty((K + 1, n))
    C[0] = c0
    P[0] = 0.0
    w = net.window
    base = net.baselines.tolist()
    sens = net.cost_sens.tolist()
    targets = net.targets.tolist()
    gain_dt = (dt * net.ctrl_gain).tolist()
    # every nonzero coupling as an edge from activity src[e] into dest[e],
    # row by row and in column order: the terms of activity i are the edges
    # at[i] .. at[i + 1] - 1
    dest, src = np.nonzero(net.coupling)
    coup = net.coupling[dest, src]
    lags = net.lags_to[dest, src]
    at = np.searchsorted(dest, np.arange(n + 1)).tolist()
    # A zero-lag edge's near read at row k > 0 always takes the extension
    # branch from row k - 1 (int(times[k] / dt) >= k - 1), so the
    # recurrence computes it on floats.  The earliest array read of an edge
    # is then t - lag, or t - w for a zero lag.
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
    reach = np.where(lags > 0.0, lags, w)
    half = dt * 0.5

    def reads(s, last, cols):
        # integral of Q[:, cols] over [0, s] for a (..., len(cols)) array s,
        # with the constant history q0 before 0.  Row `last` is the newest
        # finished prefix row: a read at or past it extends with its
        # compliance (a rectangle, O(dt) like Euler), an earlier one
        # interpolates P.  Each entry takes the scalar operations in the
        # scalar order, and only finished rows are read.
        out = q0[cols] * s
        pos = s > 0.0
        r = (np.where(pos, s, 0.0) / dt).astype(np.intp)
        ext = pos & (r >= last)
        mid = pos & (r < last)
        cols = np.broadcast_to(cols, s.shape)
        rm, cm = r[mid], cols[mid]
        lo = P[rm, cm]
        out[mid] = lo + (s[mid] - times[rm]) / dt * (P[rm + 1, cm] - lo)
        ce = cols[ext]
        out[ext] = P[last, ce] + (s[ext] - times[last]) * Q[last, ce]
        return out

    def run(i, a, b):
        # activity i's recurrence over rows a .. b - 1 of the current block.
        # Its Q and P lists start with row k0 - 1 (None at k0 = 0), so entry
        # m is row m - 1 of the block; its C list starts with row k0.
        rows, qs, ps, cs, edges = terms[i], qcols[i], pcols[i], ccols[i], nears[i]
        b_i, se, g, target = base[i], sens[i], gain_dt[i], targets[i]
        c = cs[-1]
        for m in range(a, b):
            tr = rows[m]
            if m and edges:
                gap = gaps[m - 1]
                for pos, j, cj, los in edges:
                    tr[pos] = cj * (pcols[j][m] + gap * qcols[j][m] - los[m]) / w
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

    # candidate rows per block: a lag-safe block is at most about the
    # shortest reach over dt rows long, and its temporaries (both window
    # ends of every edge) stay small
    span = _block_rows(2 * len(lags))
    if len(lags):
        span = min(span, int(reach.min() / dt) + 2)

    k0 = 0
    while k0 <= K:
        # Row k > k0 needs an unfinished row if an array read lands at s > 0
        # with r = int(s / dt) and r + 1 >= k0: an interpolation reads r + 1,
        # and the extension reads last = k - 1 >= k0 (it holds r >= k - 1).
        # An edge's other read is no later than its earliest one, so its r
        # is no larger.
        later = times[k0 + 1:min(k0 + span, K + 1), None] - reach
        pos = later > 0.0
        late = (pos & ((np.where(pos, later, 0.0) / dt).astype(np.intp) >= k0 - 1)).any(axis=1)
        k1 = k0 + 1 + (int(late.argmax()) if late.any() else len(later))
        s = times[k0:k1, None] - lags  # near reads, t - lag
        # within the block only row k0 can take the extension branch, whose
        # newest finished row is k0 - 1 (row 0 reads history only); the near
        # reads of zero-lag edges past row k0 are replaced in `run`
        hi, lo = reads(np.stack((s, s - w)), max(k0 - 1, 0), src)
        block = coup * (hi - lo) / w
        terms = [block[:, a:b].tolist() for a, b in zip(at, at[1:])]
        if tracked:
            lo_cols = lo.T.tolist()
            nears = [[(pos, j, c, lo_cols[e]) for pos, j, c, e in edges] for edges in near]
            gaps = np.diff(times[k0:k1]).tolist()  # times[k] - times[k - 1]
        else:
            nears = near
        first = Q[k0 - 1].tolist() if k0 else [None] * n
        qcols = [[q] for q in first]
        first = P[k0 - 1].tolist() if k0 else [None] * n
        pcols = [[p] if i in tracked else None for i, p in enumerate(first)]
        ccols = [[c] for c in C[k0].tolist()]
        for i in order:
            run(i, 0, k1 - k0)
        for m in range(k1 - k0):
            for i in tangled:
                run(i, m, m + 1)
        Q[k0:k1].T[...] = [col[1:] for col in qcols]
        C[k0 + 1:k1 + 1].T[...] = [col[1:] for col in ccols]
        a = max(k0, 1)
        if a < k1:
            P[a:k1] = Q[a - 1:k1 - 1] + Q[a:k1]
            P[a:k1] *= half
            np.add.accumulate(P[a - 1:k1], axis=0, out=P[a - 1:k1])
        k0 = k1

    every = np.arange(n)
    chunk = _block_rows(2 * n)
    for a in range(0, K + 1, chunk):
        t = np.broadcast_to(times[a:a + chunk, None], (min(chunk, K + 1 - a), n))
        hi, lo = reads(np.stack((t, t - w)), K, every)
        qbar[a:a + chunk] = (hi - lo) / w
    return ComplianceTrajectory(times, Q, C[:-1], qbar)
