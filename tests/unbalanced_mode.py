"""The unbalanced growth mode of the linearized fluid tip dynamics.

Zero-sum perturbations of the per-type tip counts grow like e^(x0 t / h),
where x0 is the positive root of ``growth_gap``.  These helpers find x0,
the free-tip amplitude ratio of the mode, and the defect left when the mode
is substituted into the linearized relations.  Only the tests use them; the
toolkit's own stability checks need just the balanced characteristic.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


def growth_gap(x: float) -> float:
    """1 + x/2 - e^(-x) - x e^x - x^2 e^x; its positive root sets the
    instability growth rate of unbalanced-type perturbations."""
    ex = math.exp(x)
    return 1.0 + 0.5 * x - math.exp(-x) - x * ex - x * x * ex


def find_x0(tol: float = 1e-12) -> float:
    """Positive root of growth_gap in (0, 1) by bisection to abs tol."""
    lo, hi = 1e-6, 1.0
    f_lo, f_hi = growth_gap(lo), growth_gap(hi)
    if not (f_lo > 0 > f_hi):
        raise RuntimeError("bisection bracket lost its sign change")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if growth_gap(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def mode_ratio(x0: float) -> float:
    """Free-tip perturbation per unit tip perturbation: 1/2 - x0 e^x0."""
    return 0.5 - x0 * math.exp(x0)


@dataclass(frozen=True)
class ModeCheck:
    theta: np.ndarray
    xi: np.ndarray
    z: complex
    residual: float


def verify_unstable_mode(
    d: int, delay: float, theta: Sequence[float] | None = None, r_offset: float = 0.0
) -> ModeCheck:
    """Substitute the zero-sum exponential mode into the linearized system.

    The mode has growth rate z = x0/delay and free-tip amplitudes
    xi_i = r0 theta_i for any zero-sum tip-perturbation vector theta.
    Returns the max modulus of the defect of both linearized relations:

        (1 + h z) xi_i = -theta_i/2 + mean(theta) + (theta_i - mean(theta)) e^(-zh)
        h z theta_i    = (theta_i/2 - xi_i) e^(-zh)

    r_offset shifts the amplitude ratio away from r0 (sanity probes).
    """
    if d < 2:
        raise ValueError("the unbalanced mode needs at least two types")
    if not delay > 0:
        raise ValueError("delay must be positive")
    if theta is None:
        th = np.zeros(d)
        th[0], th[1] = 1.0, -1.0
    else:
        th = np.asarray(theta, dtype=float)
        if th.shape != (d,):
            raise ValueError("theta must have length d")
        if abs(th.sum()) > 1e-9 * max(np.abs(th).max(), 1.0):
            raise ValueError("theta must sum to zero")
        if np.abs(th).max() == 0.0:
            raise ValueError("theta must be nonzero")
    th = th / np.abs(th).max()  # unit max-norm
    x0 = find_x0()
    r0 = mode_ratio(x0) + r_offset
    h = delay
    z = x0 / h
    xi = r0 * th
    mean = th.mean()
    ezh = cmath.exp(-z * h)
    line1 = (1.0 + h * z) * xi - (-0.5 * th + mean + (th - mean) * ezh)
    line2 = h * z * th - (0.5 * th - xi) * ezh
    residual = float(max(np.abs(line1).max(), np.abs(line2).max()))
    return ModeCheck(th, xi, z, residual)
