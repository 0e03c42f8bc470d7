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
MAX_DEPTH = 48  # bisection levels of the contour walk
CHUNK_POINTS = 128  # contour points per call of the characteristic function
POLE_GAP = 1e-12  # |z + E_i k_i| below this is a pole of the transfer matrix
GUARD = 1e-6  # relative slack of the scan's norm bound


# -- fluid linearization ----------------------------------------------------

def balanced_characteristic(delay: float) -> Callable[[np.ndarray], np.ndarray]:
    """Characteristic function 1 + h z - e^(-zh)/2 of aggregate (nonzero-sum)
    tip perturbations, elementwise over an array of points; all its roots
    sit in the open left half plane."""
    h = float(delay)

    def f(z: np.ndarray) -> np.ndarray:
        return 1.0 + h * z - 0.5 * np.exp(-z * h)

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


def _values(f: Callable[[np.ndarray], np.ndarray], zs: np.ndarray) -> np.ndarray:
    """f at every point of zs, fed to f in chunks of CHUNK_POINTS points.

    The first point in contour order where f is not finite (a pole or an
    overflow), or where |f| is at or below MIN_MODULUS, raises ContourError.
    """
    vals = np.empty(len(zs), dtype=complex)
    for a in range(0, len(zs), CHUNK_POINTS):
        b = a + CHUNK_POINTS
        vals[a:b] = f(zs[a:b])
        bad = ~np.isfinite(vals[a:b]) | (np.abs(vals[a:b]) <= MIN_MODULUS)
        if bad.any():
            i = a + int(bad.argmax())
            raise _refusal(f, complex(zs[i]), complex(vals[i]))
    return vals


def _refusal(f, z: complex, v: complex) -> ContourError:
    """The error for the contour value v = f(z).  A value that is not finite
    is evaluated once more to tell a pole (division by zero) from an
    overflow; so is an exact 0, which numpy's det also returns for some
    matrices that overflowed, to tell that overflow from a root."""
    flags: set[str] = set()
    if v == 0 or not cmath.isfinite(v):
        with np.errstate(all="call", call=lambda kind, _: flags.add(kind)):
            f(np.array([z]))
    if not cmath.isfinite(v):
        cause = "a pole (division by zero)" if "divide by zero" in flags else "an overflow"
        return ContourError(f"f = {v} is not finite at {z:.6g} on the contour: {cause}")
    if "overflow" in flags:
        return ContourError(f"f = 0 at {z:.6g} on the contour is an overflow, not a root")
    return ContourError(f"|f| = {abs(v):.3g} <= {MIN_MODULUS:.3g} on the contour at {z:.6g}")


def count_roots(f: Callable[[np.ndarray], np.ndarray], region: SpectralRegion) -> int:
    """Roots of f (with multiplicity) inside the rectangle, by winding number.

    f maps an array of points to the array of its values.  The
    4 * samples_per_side + 1 boundary points go to f first; then, level by
    level, every segment whose phase step is still at least pi/2 is halved
    and all of the level's midpoints go to f together.  A contour value
    that is not finite or has modulus at or below MIN_MODULUS, or a segment
    still unresolved after MAX_DEPTH levels, raises ContourError (shrink or
    shift the region instead of trusting a wrong count).  The pi/2 rule
    cannot see a full turn of the phase between two samples, so the
    samples must resolve the phase.
    """
    n = region.samples_per_side
    corners = region.corners()
    k = np.arange(n, dtype=float)
    zs = np.empty(4 * n + 1, dtype=complex)
    for side in range(4):
        za, zb = corners[side], corners[(side + 1) % 4]
        zs.real[side * n:(side + 1) * n] = za.real + (zb.real - za.real) * k / n
        zs.imag[side * n:(side + 1) * n] = za.imag + (zb.imag - za.imag) * k / n
    zs[-1] = corners[0]
    steps = []
    with np.errstate(all="ignore"):
        vs = _values(f, zs)
        za, va, zb, vb = zs[:-1], vs[:-1], zs[1:], vs[1:]
        for depth in range(MAX_DEPTH + 1):
            dphi = np.angle(vb / va)
            wide = ~(np.abs(dphi) < 0.5 * math.pi)  # a nan step is wide too
            steps.append(dphi[~wide])
            if not wide.any():
                break
            if depth == MAX_DEPTH:
                i = int(wide.argmax())
                raise ContourError(
                    f"phase step {dphi[i]:.3f} not resolvable near "
                    f"{complex(za[i]):.6g} .. {complex(zb[i]):.6g}"
                )
            za, va, zb, vb = za[wide], va[wide], zb[wide], vb[wide]
            zm = 0.5 * (za + zb)
            vm = _values(f, zm)
            # the halves (za, zm) and (zm, zb) of every segment, in contour order
            za, va, zb, vb = (
                np.column_stack(pair).ravel() for pair in ((za, zm), (va, vm), (zm, zb), (vm, vb))
            )
    count = math.fsum(np.concatenate(steps).tolist()) / (2.0 * math.pi)
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
    lags_to[i, j] = tau_ji, cost_sens E and ctrl_gain k.  Its poles
    z = -E_i k_i give entries that are not finite; the scan masks them.
    """
    z = np.asarray(z, dtype=complex)[..., None, None]
    phase = network.coupling * np.exp(-z * network.lags_to.astype(complex))
    return phase / (z + (network.cost_sens * network.ctrl_gain)[:, None])


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
    grid spans Re in [0, 10 max(E_i k_i)], |Im| <= 100/window (eigenvalues
    decay like 1/|z|); grid points on a pole of M are skipped and counted.
    rho(M) is at most the row-sum norm max_i sum_j |D_ij| e^(-tau_ji Re z) /
    |z + E_i k_i|.  Only points whose bound * (1 + GUARD) is not below the
    floor, max |eig| at the point of largest bound, are eigensolved, in row
    order; the witness is their first maximum.  GUARD covers the eigensolver's
    backward error and the bound's rounding.  Feed-forward M prunes nothing.
    """
    delta = network.cost_sens * network.ctrl_gain
    w = network.window
    threshold = w / 2.0
    xs = np.linspace(0.0, 10.0 * float(delta.max()), RE_POINTS)
    zs = np.empty((RE_POINTS, IM_POINTS), dtype=complex)
    zs.real, zs.imag = xs[:, None], np.linspace(-100.0 / w, 100.0 / w, IM_POINTS)
    dist = np.hypot((xs + delta[:, None])[..., None], zs.imag)  # [i, ...]: |z + E_i k_i|
    keep = ~(dist < POLE_GAP).any(axis=0)
    row_sums = (np.abs(network.coupling) * np.exp(-xs[:, None, None] * network.lags_to)).sum(axis=2)
    bound = np.divide(row_sums.T[..., None], dist, out=dist, where=keep).max(axis=0)[keep]
    zs = zs[keep]
    floor = np.abs(np.linalg.eigvals(compliance_matrix(zs[bound.argmax()], network))).max()
    zs = zs[~(bound * (1.0 + GUARD) < floor)]
    lam = np.concatenate([np.abs(np.linalg.eigvals(compliance_matrix(zs[a:a + IM_POINTS], network)))
                          .max(axis=1) for a in range(0, len(zs), IM_POINTS)])
    k = int(lam.argmax())
    report = SufficientConditionReport(
        passed=bool(lam[k] < threshold),
        margin=threshold - float(lam[k]),
        witness=complex(zs[k]),
        witness_modulus=float(lam[k]),
        threshold=threshold,
        grid_shape=(RE_POINTS, IM_POINTS),
        skipped_poles=int(keep.size - keep.sum()),
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


def window_characteristic(network) -> Callable[[np.ndarray], np.ndarray]:
    """F(z) = det((1 - e^(-wz)) (D o e^(-z tau)) - w diag(z + delta)),
    delta_i = E_i k_i, at every point of an array through one stacked
    determinant.  F is det((1 - e^(-wz)) M(z) - w I) times prod(z + delta_i),
    so it has no poles: its zeros, which a winding number counts, are
    exactly the modes of the linearized windowed feedback loop, its
    right-half-plane zeros the unstable ones.  A pole -delta_i of M can be
    a zero of F, as on a ring whose D is singular.

    Only the edges D_ij != 0 are formed: a point costs one exponential per
    distinct coupled lag, one for the window and one n x n determinant, and
    F keeps the dense form's bits wherever that form is finite (where a
    zero-coupled e^(-z tau) overflows, it gives 0 * inf = nan).
    """
    w, n = network.window, network.n
    delta = network.cost_sens * network.ctrl_gain
    dest, src = np.nonzero(network.coupling)
    lags, lag_of = np.unique(network.lags_to[dest, src], return_inverse=True)
    lags = lags.astype(complex)  # a float operand sends np.multiply down its slower casting loop
    d = network.coupling[dest, src]
    diag = np.arange(n)

    def f(z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=complex)[..., None]
        a = np.zeros(z.shape[:-1] + (n, n), dtype=complex)
        a[..., dest, src] = (1.0 - np.exp(-w * z)) * (d * np.exp(-z * lags)[..., lag_of])
        a[..., diag, diag] -= w * (z + delta)
        return np.linalg.det(a)

    return f
