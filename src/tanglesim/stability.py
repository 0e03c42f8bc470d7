"""Linear stability numerics.

Covers both halves of the toolkit: the characteristic function of aggregate
tip perturbations in the fluid model, a winding-number root counter for
transcendental characteristic functions on rectangles, and the spectral
sufficient condition for the delayed compliance network.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

RE_POINTS, IM_POINTS = 41, 161  # spectral-scan grid: real-part rows x points per row
MIN_MODULUS = 1e-9  # |f| at or below this on a contour is a root on the contour
MAX_DEPTH = 48  # bisection depth limit of one contour segment
POLE_GAP = 1e-12  # |z + E_i k_i| below this is a pole of the transfer matrix


# -- fluid linearization ----------------------------------------------------

def balanced_characteristic(delay: float) -> Callable[[complex], complex]:
    """Characteristic function 1 + h z - e^(-zh)/2 of aggregate (nonzero-sum)
    tip perturbations; all its roots sit in the open left half plane."""
    h = float(delay)

    def f(z: complex) -> complex:
        return 1.0 + h * z - 0.5 * cmath.exp(-z * h)

    return f


# -- winding-number root counting -------------------------------------------

class ContourError(RuntimeError):
    """The contour runs too close to a root (or refinement gave up)."""


@dataclass(frozen=True)
class SpectralRegion:
    """Axis-aligned rectangle in the complex plane."""

    re_min: float
    re_max: float
    im_min: float
    im_max: float
    samples_per_side: int = 64

    def __post_init__(self) -> None:
        if not (self.re_min < self.re_max and self.im_min < self.im_max):
            raise ValueError("degenerate rectangle")
        if self.samples_per_side < 2:
            raise ValueError("need at least 2 samples per side")

    def corners(self) -> list[complex]:
        return [
            complex(self.re_min, self.im_min),
            complex(self.re_max, self.im_min),
            complex(self.re_max, self.im_max),
            complex(self.re_min, self.im_max),
        ]


def count_roots(f: Callable[[complex], complex], region: SpectralRegion) -> int:
    """Roots of f (with multiplicity) inside the rectangle, by winding number.

    The phase of f is accumulated along the boundary with adaptive bisection
    keeping every phase step below pi/2; a pole of f on the contour, a
    contour value with modulus at or below MIN_MODULUS, or a segment that
    cannot be refined to a small phase step within MAX_DEPTH halvings raises
    ContourError (shrink or shift the region instead of trusting a wrong
    count).
    """
    corners = region.corners()
    total = 0.0

    def fval(z: complex) -> complex:
        try:
            v = f(z)
        except ZeroDivisionError as e:
            raise ContourError(f"f has a pole on the contour: {e}") from e
        if abs(v) <= MIN_MODULUS:
            raise ContourError(
                f"|f| = {abs(v):.3g} <= {MIN_MODULUS:.3g} on the contour at {z:.6g}"
            )
        return v

    def walk(za: complex, va: complex, zb: complex, vb: complex, depth: int) -> float:
        dphi = cmath.phase(vb / va)
        if abs(dphi) < 0.5 * math.pi:
            return dphi
        if depth >= MAX_DEPTH:
            raise ContourError(
                f"phase step {dphi:.3f} not resolvable near {za:.6g} .. {zb:.6g}"
            )
        zm = 0.5 * (za + zb)
        vm = fval(zm)
        return walk(za, va, zm, vm, depth + 1) + walk(zm, vm, zb, vb, depth + 1)

    for side in range(4):
        za, zb = corners[side], corners[(side + 1) % 4]
        pts = [
            za + (zb - za) * k / region.samples_per_side
            for k in range(region.samples_per_side + 1)
        ]
        vals = [fval(z) for z in pts]
        for k in range(region.samples_per_side):
            total += walk(pts[k], vals[k], pts[k + 1], vals[k + 1], 0)
    count = total / (2.0 * math.pi)
    nearest = round(count)
    if abs(count - nearest) > 1e-6:
        raise ContourError(f"winding number {count:.8f} is not close to an integer")
    return int(nearest)


# -- compliance-network spectrum ---------------------------------------------

def compliance_matrix(z, network) -> np.ndarray:
    """Delay-transfer matrix M(z): M_ij = D_ij e^(-z tau_ji) / (z + E_i k_i).

    z is one point or an array of points; the result stacks one (n, n)
    matrix per point.  tau_ji is the lag from activity j to activity i; the
    network object must expose coupling (n, n), lags_to (n, n) with
    lags_to[i, j] = tau_ji, cost_sens E and ctrl_gain k.
    """
    z = np.asarray(z, dtype=complex)[..., None]
    denom = z + (network.cost_sens * network.ctrl_gain).astype(complex)
    near = np.abs(denom) < POLE_GAP
    if near.any():
        hit = z[near.any(axis=-1)][0, 0]
        raise ZeroDivisionError(f"z = {hit:.6g} hits a pole of the transfer matrix")
    phase = np.exp(-z[..., None] * network.lags_to.astype(complex))
    return (network.coupling * phase) / denom[..., None]


@dataclass
class SufficientConditionReport:
    passed: bool
    margin: float  # w/2 - max |lambda| over the sampled grid
    witness: complex  # grid point achieving the max eigenvalue modulus
    witness_modulus: float
    threshold: float  # w/2
    grid_shape: tuple[int, int]
    skipped_poles: int
    ring_condition: bool | None = None  # D < w*delta/4 when the net is a ring
    notes: list[str] = field(default_factory=list)


def check_sufficient_condition(network) -> SufficientConditionReport:
    """Sample max |eig M(z)| over a right-half-plane rectangle.

    PASS means every sampled point stays below w/2, which keeps all windowed
    feedback roots in the open left half plane.  The RE_POINTS x IM_POINTS
    grid spans Re in [0, 10 max(E_i k_i)], |Im| <= 100/window (the
    eigenvalues decay like 1/|z|, so far-field points cannot violate the
    bound).  Each real-part row goes through one stacked eigensolve; grid
    points on a pole of M are skipped and counted, and the witness is the
    first maximum in row order.
    """
    delta = network.cost_sens * network.ctrl_gain
    w = network.window
    threshold = w / 2.0
    ys = np.linspace(-100.0 / w, 100.0 / w, IM_POINTS)
    zs = np.empty(IM_POINTS, dtype=complex)
    worst = -1.0
    witness = complex(0.0, 0.0)
    skipped = 0
    for x in np.linspace(0.0, 10.0 * float(delta.max()), RE_POINTS):
        zs.real, zs.imag = x, ys
        # poles -E_i k_i are real, so at most the row's point on the real
        # axis can be one and the row is never empty
        row = zs[~(np.abs(zs[:, None] + delta) < POLE_GAP).any(axis=1)]
        skipped += IM_POINTS - len(row)
        lam = np.abs(np.linalg.eigvals(compliance_matrix(row, network))).max(axis=1)
        k = int(lam.argmax())
        if lam[k] > worst:
            worst = float(lam[k])
            witness = complex(row[k])
    report = SufficientConditionReport(
        passed=worst < threshold,
        margin=threshold - worst,
        witness=witness,
        witness_modulus=worst,
        threshold=threshold,
        grid_shape=(RE_POINTS, IM_POINTS),
        skipped_poles=skipped,
    )
    ring = getattr(network, "ring_params", None)
    if ring is not None:
        coupling, _ = ring
        d0 = float(delta[0])
        report.ring_condition = bool(coupling < w * d0 / 4.0)
        report.notes.append(
            f"ring analytic condition: D = {coupling:.6g} "
            f"{'<' if report.ring_condition else '>='} w*delta/4 = {w * d0 / 4.0:.6g}"
        )
    return report


def window_characteristic(network) -> Callable[[complex], complex]:
    """det((1 - e^(-wz)) M(z) - w I): its right-half-plane roots are exactly
    the unstable modes of the linearized windowed feedback loop."""
    w = network.window
    n = network.n

    def g(z: complex) -> complex:
        m = compliance_matrix(z, network)
        return complex(np.linalg.det((1.0 - cmath.exp(-w * z)) * m - w * np.eye(n)))

    return g
