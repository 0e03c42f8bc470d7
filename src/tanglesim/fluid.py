"""Deterministic fluid limit of the tip dynamics.

State per conflict type: free-tip density x_i(t) and tip density l_i(t),
coupled through the selection shares p_i = l_i^2 / sum(l_j^2) and
u_i = 2 x_i l_i / sum(l_j^2) with a fixed attach delay.  Integration uses a
fixed-step classical Runge-Kutta scheme whose step divides the delay, with
4-point cubic interpolation into the stored grid for the delayed terms.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

RateFn = Callable[[float], float]
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


def _sum_squares(v: list) -> float:
    """sum of v_i^2, added in the order numpy's ``(v * v).sum()`` uses:
    left to right below eight terms, numpy itself from eight on."""
    if len(v) >= 8:
        a = np.array(v)
        return float((a * a).sum())
    total = 0.0
    for a in v:
        total += a * a
    return total


def _lagged(xd: list, ld: list, a_del: float, alive: list) -> tuple[list, list]:
    """Inflow a(t-h) p_i(t-h) and dl_i/dt from one delayed state (dead: 0)."""
    den = _sum_squares(ld)
    if den == 0.0:
        raise FluidSingularError("all tip densities are zero")
    inflow, dl = [], []
    for xi, li, live in zip(xd, ld, alive):
        p = a_del * (li * li / den)
        inflow.append(p)
        dl.append(p - a_del * (2.0 * xi * li / den) if live else 0.0)
    return inflow, dl


def _dx(inflow: list, x: list, l: list, a_now: float, alive: list) -> list:
    """dx_i/dt = inflow_i - a(t) u_i(t) (dead: 0)."""
    den = _sum_squares(l)
    if den == 0.0:
        raise FluidSingularError("all tip densities are zero")
    return [
        p - a_now * (2.0 * xi * li / den) if live else 0.0
        for p, xi, li, live in zip(inflow, x, l, alive)
    ]


def integrate(
    x_history: HistoryFn,
    l_history: HistoryFn,
    delay: float,
    horizon: float,
    step: float | None = None,
    rate: RateFn | None = None,
) -> FluidTrajectory:
    """Integrate the delayed system from a history given on [0, delay].

    x_history/l_history map a time in [0, delay] to the per-type state; the
    trajectory is advanced from t = delay to the horizon.  The step is
    rounded down so it divides the delay; it must not exceed delay/100.

    Each RK4 step works on Python floats: the state is carried as lists,
    the four stored rows around the delayed time are read with one
    ``tolist()`` per array, and the new row is written back into the
    output arrays.  Every operation keeps the order of the elementwise
    numpy formulation (dx_i/dt = a(t-h) p_i(t-h) - a(t) u_i(t),
    dl_i/dt = a(t-h) p_i(t-h) - a(t-h) u_i(t-h), with p_i = l_i^2 / S and
    u_i = 2 x_i l_i / S for S = sum_j l_j^2), so the output is bit-identical
    to it.
    """
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

    alive = (L[n_sub] > L_FLOOR).tolist()
    warned = False
    neg_limit = -10.0 * dt
    half_dt = 0.5 * dt
    sixth_dt = dt / 6.0
    tv = memoryview(times)
    x = X[n_sub].tolist()
    l = L[n_sub].tolist()
    a0 = ah = a1 = a0d = ahd = a1d = 1.0
    for k in range(n_sub, n_steps):
        t = tv[k]
        # delayed rows m = k - n_sub and m + 1; the midpoint between them
        # is the cubic through the four stored rows j0 .. j0 + 3
        m = k - n_sub
        j0 = min(max(m - 1, 0), k - 3)
        s = m + 0.5 - j0
        w0 = -(s - 1) * (s - 2) * (s - 3) / 6.0
        w1 = s * (s - 2) * (s - 3) / 2.0
        w2 = -s * (s - 1) * (s - 3) / 2.0
        w3 = s * (s - 1) * (s - 2) / 6.0
        xr = X[j0 : j0 + 4].tolist()
        lr = L[j0 : j0 + 4].tolist()
        xh = [w0 * r0 + w1 * r1 + w2 * r2 + w3 * r3 for r0, r1, r2, r3 in zip(*xr)]
        lh = [w0 * r0 + w1 * r1 + w2 * r2 + w3 * r3 for r0, r1, r2, r3 in zip(*lr)]
        if rate is not None:
            a0, ah, a1 = rate(t), rate(t + dt / 2.0), rate(t + dt)
            a0d, ahd, a1d = rate(t - h), rate(t + dt / 2.0 - h), rate(t + dt - h)

        in0, dl0 = _lagged(xr[m - j0], lr[m - j0], a0d, alive)
        inh, dlh = _lagged(xh, lh, ahd, alive)  # stages 2 and 3 share it
        in1, dl1 = _lagged(xr[m - j0 + 1], lr[m - j0 + 1], a1d, alive)
        k1x = _dx(in0, x, l, a0, alive)
        k2x = _dx(
            inh,
            [a + half_dt * b for a, b in zip(x, k1x)],
            [a + half_dt * b for a, b in zip(l, dl0)],
            ah,
            alive,
        )
        l_mid = [a + half_dt * b for a, b in zip(l, dlh)]
        k3x = _dx(inh, [a + half_dt * b for a, b in zip(x, k2x)], l_mid, ah, alive)
        k4x = _dx(
            in1,
            [a + dt * b for a, b in zip(x, k3x)],
            [a + dt * b for a, b in zip(l, dlh)],
            a1,
            alive,
        )
        xn = [
            xi + sixth_dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            for xi, k1, k2, k3, k4 in zip(x, k1x, k2x, k3x, k4x)
        ]
        ln = [
            li + sixth_dt * (k1 + 2.0 * k23 + 2.0 * k23 + k4)
            for li, k1, k23, k4 in zip(l, dl0, dlh, dl1)
        ]

        if any(v < neg_limit for v in ln):
            raise FluidIntegrationError(
                f"tip density fell below {neg_limit:.3g} at t = {t + dt:.6g}"
            )
        if not warned and any(
            live and (li < 0.0 or xi < 0.0) for xi, li, live in zip(xn, ln, alive)
        ):
            warnings.warn(
                "small negative fluid densities clamped to zero", RuntimeWarning
            )
            warned = True
        for i in range(d):
            xi, li = xn[i], ln[i]
            # clamp at zero as np.clip does: -0.0 becomes 0.0, NaN stays
            if xi <= 0.0:
                xi = 0.0
            if li <= 0.0:
                li = 0.0
            if alive[i] and li <= L_FLOOR:
                xi = li = 0.0
                alive[i] = False
            # x <= l as np.minimum: NaN wins, a tie takes l
            if not (xi < li or xi != xi):
                xi = li
            xn[i], ln[i] = xi, li
        X[k + 1] = xn
        L[k + 1] = ln
        x, l = xn, ln
    return FluidTrajectory(times, X, L, h, dt)


def constant_history(x0, l0) -> tuple[HistoryFn, HistoryFn]:
    """History functions holding the given state constant on [0, delay]."""
    xa = np.asarray(x0, dtype=float)
    la = np.asarray(l0, dtype=float)
    return (lambda t: xa), (lambda t: la)
