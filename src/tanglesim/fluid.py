"""Deterministic fluid limit of the tip dynamics.

State per conflict type: free-tip density x_i(t) and tip density l_i(t),
coupled through the selection shares p_i = l_i^2 / sum(l_j^2) and
u_i = 2 x_i l_i / sum(l_j^2) with a fixed attach delay.  Integration uses a
fixed-step classical Runge-Kutta scheme whose step divides the delay, with
4-point cubic interpolation into the stored grid for the delayed terms.
Steps run in lag-safe blocks (the method of steps): the delayed terms, l
and the stage tip densities of a block come from one numpy pass, and only
each type's free-tip recurrence is stepped on floats.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

HistoryFn = Callable[[float], Sequence[float]]

L_FLOOR = 1e-12


class FluidSingularError(ValueError):
    """Every tip density is zero: selection shares are undefined."""


class FluidIntegrationError(RuntimeError):
    """A tip density went negative far beyond the step tolerance."""


@dataclass(frozen=True)
class StaticSolution:
    """Time-independent state: l = 2x = 2w on the support, zero elsewhere."""

    support: tuple[int, ...]  # 0-based type indices
    x: np.ndarray
    l: np.ndarray
    w: np.ndarray


def static_solution(
    d: int, delay: float, support: Sequence[int] | None = None
) -> StaticSolution:
    """Static state for the given support set (0-based indices, default all)."""
    sup = tuple(range(d)) if support is None else tuple(sorted(set(int(i) for i in support)))
    if not sup:
        raise ValueError("support must be non-empty")
    if sup[0] < 0 or sup[-1] >= d:
        raise ValueError("support indices out of range")
    if not delay > 0:
        raise ValueError("delay must be positive")
    k = len(sup)
    x = np.zeros(d)
    # l = 2*x exactly in floats, so the rhs shares p and u cancel bitwise
    x[list(sup)] = delay / k
    l = 2.0 * x
    return StaticSolution(sup, x, l, l - x)


@dataclass
class FluidTrajectory:
    times: np.ndarray  # (K+1,)
    x: np.ndarray  # (K+1, d)
    l: np.ndarray  # (K+1, d)
    delay: float
    step: float

    @property
    def w(self) -> np.ndarray:
        return self.l - self.x


# most (row, type) entries that one block's temporaries hold
_BLOCK_ENTRIES = 1 << 12


def step_grid(
    delay: float, horizon: float, step: float | None = None
) -> tuple[int, float, int]:
    """``(n_sub, dt, n_steps)`` of an integration: the step, positive and at
    most delay/100 (its default), rounded down to dt = delay / n_sub with
    n_sub >= 100, and the n_steps steps of dt that reach the horizon (the
    trajectory has n_steps + 1 rows).  A count past the largest double is
    refused."""
    h = float(delay)
    if not h > 0:
        raise ValueError("delay must be positive")
    if not horizon > h:
        raise ValueError(f"horizon must exceed the delay {h}, got {horizon}")
    if step is None:
        step = h / 100.0
    if not 0 < step <= h / 100.0 + 1e-15:
        raise ValueError(f"step must be positive and at most {h / 100:.6g} (delay/100), got {step}")
    try:  # math.ceil(inf): a count past the largest double
        n_sub = max(int(math.ceil(h / step - 1e-9)), 100)
        dt = h / n_sub
        n_steps = int(math.ceil(horizon / dt - 1e-9))
    except OverflowError:
        raise ValueError(f"horizon over step {step:.6g} gives inf rows, past the largest double") from None
    return n_sub, dt, n_steps


def integrate(
    x_history: HistoryFn,
    l_history: HistoryFn,
    delay: float,
    horizon: float,
    step: float | None = None,
) -> FluidTrajectory:
    """Integrate the delayed system from a history given on [0, delay].

    x_history/l_history map a time in [0, delay] to the per-type state; the
    trajectory is advanced from t = delay to the horizon.  The step is
    rounded down so it divides the delay; it must not exceed delay/100.

    Steps run in lag-safe blocks (the method of steps).  Step k reads the
    delayed rows m = k - n_sub and m + 1 and the cubic midpoint through rows
    max(m - 1, 0) .. max(m - 1, 0) + 3, so steps k0 .. k0 + n_sub - 2 read
    no row past k0.  One numpy pass gives a block's three delayed states,
    their shares and dl_i/dt (for the types alive at its start), l over the
    block by one sequential ``np.cumsum``, and the four stage tip densities
    with their sums of squares.  dx_i/dt then reads only x_i, so each
    type's x runs as one recurrence on floats over the block's rows.  A
    block ends at the first row whose l needs a clamp (a set sign bit, or a
    live type at or below L_FLOOR), where the error check, warning, clamp
    and deaths apply; a zero sum of squares raises FluidSingularError at its
    step.  Every operation keeps the order of the elementwise numpy
    formulation (dx_i/dt = p_i(t-h) - u_i(t), dl_i/dt = p_i(t-h) -
    u_i(t-h), with p_i = l_i^2 / S and u_i = 2 x_i l_i / S for S =
    sum_j l_j^2), so the output is bit-identical to it, warnings and
    errors included.
    """
    n_sub, dt, n_steps = step_grid(delay, horizon, step)
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
    half_dt = 0.5 * dt
    sixth_dt = dt / 6.0
    span = min(n_sub - 1, max(_BLOCK_ENTRIES // max(d, 1), 1))
    k0 = n_sub
    while k0 < n_steps:
        n = min(span, n_steps - k0)
        with np.errstate(all="ignore"):
            # delayed rows m and m + 1; the midpoint between them is the
            # cubic through the four stored rows j0 .. j0 + 3
            m = k0 - n_sub
            j0 = np.maximum(np.arange(m - 1, m - 1 + n), 0)
            s = (np.arange(m, m + n) + 0.5 - j0)[:, None]
            w0 = -(s - 1) * (s - 2) * (s - 3) / 6.0
            w1 = s * (s - 2) * (s - 3) / 2.0
            w2 = -s * (s - 1) * (s - 3) / 2.0
            w3 = s * (s - 1) * (s - 2) / 6.0
            dens, p, dl = [], [], []
            for xd, ld in (
                (X[m : m + n], L[m : m + n]),
                (w0 * X[j0] + w1 * X[j0 + 1] + w2 * X[j0 + 2] + w3 * X[j0 + 3],
                 w0 * L[j0] + w1 * L[j0 + 1] + w2 * L[j0 + 2] + w3 * L[j0 + 3]),
                (X[m + 1 : m + n + 1], L[m + 1 : m + n + 1]),
            ):
                den = (ld * ld).sum(axis=1)[:, None]
                share = ld * ld / den
                dens.append(den[:, 0])
                p.append(share)
                dl.append(np.where(alive, share - 2.0 * xd * ld / den, 0.0))
            dl0, dlh, dl1 = dl
            inc = sixth_dt * (dl0 + 2.0 * dlh + 2.0 * dlh + dl1)
            lrows = np.cumsum(np.concatenate((L[k0 : k0 + 1], inc)), axis=0)
            # the block ends at the first row whose l needs the clamp
            clamp = (np.signbit(lrows[1:]) | (alive & (lrows[1:] <= L_FLOOR))).any(axis=1)
            c = int(clamp.argmax()) + 1 if clamp.any() else n
            l1 = lrows[:c]
            stages = (l1, l1 + half_dt * dl0[:c], l1 + half_dt * dlh[:c], l1 + dt * dlh[:c])
            sums = [den[:c] for den in dens] + [(v * v).sum(axis=1) for v in stages]
            zero = (np.array(sums) == 0.0).any(axis=0)
        # the steps that run: to the block's end, or up to the singular one
        r = int(zero.argmax()) if zero.any() else c
        lnew = lrows[1 : r + 1].copy()
        raw = lnew[-1].tolist() if r == c and clamp[c - 1] else None
        dying = np.zeros(d, dtype=bool)
        if raw is not None:
            # clamp at zero as np.clip does: -0.0 becomes 0.0, NaN stays
            lnew[-1] = np.where(lnew[-1] <= 0.0, 0.0, lnew[-1])
            dying = alive & (lnew[-1] <= L_FLOOR)
            lnew[-1, dying] = 0.0
        shared = [v[:r].tolist() for v in sums[3:]]
        cols = zip(*(v[:r].T.tolist() for v in (*p, *stages, lnew)))
        first_neg = r  # the first step with a negative new x or l on a live type
        for i, (x, live, (p0, ph, p1, la, lb, lc, ld, lnext)) in enumerate(
            zip(X[k0].tolist(), alive.tolist(), cols)
        ):
            xs = []
            for q0, qh, q1, l_1, l_2, l_3, l_4, s1, s2, s3, s4, ln in zip(
                p0, ph, p1, la, lb, lc, ld, *shared, lnext
            ):
                if live:
                    k1 = q0 - 2.0 * x * l_1 / s1
                    k2 = qh - 2.0 * (x + half_dt * k1) * l_2 / s2
                    k3 = qh - 2.0 * (x + half_dt * k2) * l_3 / s3
                    k4 = q1 - 2.0 * (x + dt * k3) * l_4 / s4
                    x = x + sixth_dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                    if x < 0.0 and len(xs) < first_neg:
                        first_neg = len(xs)
                else:
                    x = x + 0.0  # a dead type's rates are 0.0
                # clamp at zero as np.clip does: -0.0 becomes 0.0, NaN stays
                if x <= 0.0:
                    x = 0.0
                # x <= l as np.minimum: NaN wins, a tie takes l
                if not (x < ln or x != x):
                    x = ln
                xs.append(x)
            if live and raw is not None and raw[i] < 0.0:
                first_neg = min(first_neg, r - 1)
            if dying[i]:
                xs[-1] = 0.0  # a death zeroes x, NaN included
            X[k0 + 1 : k0 + r + 1, i] = xs
        # a step's clamp warning fires only if it passes the density check
        err, passed = None, r
        if raw is not None and any(v < neg_limit for v in raw):
            t = times[k0 + r - 1] + dt
            err = FluidIntegrationError(f"tip density fell below {neg_limit:.3g} at t = {t:.6g}")
            passed = r - 1
        elif r < c:
            err = FluidSingularError("all tip densities are zero")
        if not warned and first_neg < passed:
            warnings.warn("small negative fluid densities clamped to zero", RuntimeWarning)
            warned = True
        if err is not None:
            raise err
        L[k0 + 1 : k0 + r + 1] = lnew
        alive = alive & ~dying
        k0 += r
    return FluidTrajectory(times, X, L, float(delay), dt)


def constant_history(x0, l0) -> tuple[HistoryFn, HistoryFn]:
    """History functions holding the given state constant on [0, delay]."""
    xa = np.asarray(x0, dtype=float)
    la = np.asarray(l0, dtype=float)
    return (lambda t: xa), (lambda t: la)
