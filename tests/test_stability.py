"""Stability-analysis tests.

The growth-rate root is cross-checked with an independently coded Newton
iteration, the winding-number counter against polynomials with known root
sets, and the ring spectrum's closed form against dense eigensolves of the
full transfer matrix.  The norm-pruned spectral scan must equal the
point-by-point scan kept here as its oracle, bit for bit, and the batched
contour walk must give the count of the point-by-point recursive walk kept
here as its oracle.  The entire window characteristic must count the zeros
of the pole-carrying form det((1 - e^(-wz)) M(z) - w I), kept here as its
oracle, plus the poles that form subtracts, and its edge-only evaluation
must keep the bits of the dense n x n form, kept here as its oracle,
wherever that form is finite.
"""
import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tanglesim import ComplianceNetwork, stability
from tanglesim.stability import (
    CHUNK_POINTS,
    GUARD,
    IM_POINTS,
    MAX_DEPTH,
    MIN_MODULUS,
    POLE_GAP,
    RE_POINTS,
    ContourError,
    SpectralRegion,
    balanced_characteristic,
    check_sufficient_condition,
    compliance_matrix,
    count_roots,
    window_characteristic,
)
from unbalanced_mode import find_x0, growth_gap, mode_ratio, verify_unstable_mode


def _newton_x0():
    """Independent Newton solve of 1 + x/2 - e^(-x) - (x + x^2) e^x = 0."""
    x = 0.2
    for _ in range(60):
        ex = math.exp(x)
        g = 1.0 + 0.5 * x - math.exp(-x) - (x + x * x) * ex
        dg = 0.5 + math.exp(-x) - (1.0 + 3.0 * x + x * x) * ex
        x -= g / dg
    return x


# -- growth-rate root -------------------------------------------------------------

def test_growth_root_matches_newton_oracle():
    assert abs(find_x0() - _newton_x0()) < 1e-11


def test_growth_root_bracket_and_residual():
    x0 = find_x0()
    assert 0.17 < x0 < 0.19
    assert abs(growth_gap(x0)) < 1e-11
    assert growth_gap(x0 - 1e-3) > 0 > growth_gap(x0 + 1e-3)


def test_mode_ratio_value():
    x0 = _newton_x0()
    assert abs(mode_ratio(x0) - (0.5 - x0 * math.exp(x0))) == 0.0
    assert 0.28 < mode_ratio(x0) < 0.29


# -- unstable mode ----------------------------------------------------------------

@pytest.mark.parametrize("d", [2, 3, 5])
def test_unbalanced_mode_satisfies_linearized_relations(d):
    chk = verify_unstable_mode(d, delay=3.0)
    assert chk.residual < 1e-8
    assert abs(chk.z - find_x0() / 3.0) < 1e-15
    assert abs(chk.theta.sum()) < 1e-12


def test_mode_scales_with_delay():
    a = verify_unstable_mode(2, delay=1.0)
    b = verify_unstable_mode(2, delay=7.0)
    assert a.residual < 1e-8 and b.residual < 1e-8
    assert abs(a.z / b.z - 7.0) < 1e-9


def test_wrong_amplitude_ratio_breaks_the_mode():
    chk = verify_unstable_mode(2, delay=3.0, r_offset=1e-3)
    assert chk.residual > 1e-5


def test_mode_accepts_any_zero_sum_theta():
    chk = verify_unstable_mode(4, delay=2.0, theta=[3.0, -1.0, -1.0, -1.0])
    assert chk.residual < 1e-8
    assert np.abs(chk.theta).max() == 1.0  # normalized


def test_mode_theta_validation():
    with pytest.raises(ValueError):
        verify_unstable_mode(1, delay=1.0)
    with pytest.raises(ValueError):
        verify_unstable_mode(2, delay=1.0, theta=[1.0, 1.0])
    with pytest.raises(ValueError):
        verify_unstable_mode(2, delay=1.0, theta=[0.0, 0.0])
    with pytest.raises(ValueError):
        verify_unstable_mode(2, delay=0.0)


# -- winding-number counter ---------------------------------------------------------

def test_count_roots_simple_zero():
    region = SpectralRegion(0.0, 2.0, -1.0, 1.0)
    assert count_roots(lambda z: z - 1.0, region) == 1
    assert count_roots(lambda z: z - 5.0, region) == 0


def test_count_roots_with_multiplicity():
    region = SpectralRegion(0.0, 2.0, -1.0, 1.0)
    assert count_roots(lambda z: (z - 1.0) ** 2, region) == 2


def test_count_roots_complex_pair():
    region = SpectralRegion(-1.0, 1.0, -2.0, 2.0)
    assert count_roots(lambda z: z * z + 1.0, region) == 2


def test_count_is_additive_over_a_partition():
    f = lambda z: (z - (0.5 + 0.5j)) * (z - (2.0 + 1.0j))
    whole = SpectralRegion(0.0, 3.0, -2.0, 2.0)
    left = SpectralRegion(0.0, 1.0, -2.0, 2.0)
    right = SpectralRegion(1.0, 3.0, -2.0, 2.0)
    assert count_roots(f, whole) == 2
    assert count_roots(f, left) == 1
    assert count_roots(f, right) == 1


def test_count_stable_under_sampling_density():
    f = lambda z: (z - 0.3) * (z - 0.7 - 0.4j) * (z + 0.2 - 0.9j)
    for spp in (16, 64, 200):
        region = SpectralRegion(-1.0, 1.5, -1.5, 1.5, samples_per_side=spp)
        assert count_roots(f, region) == 3


def test_root_on_the_contour_is_refused():
    region = SpectralRegion(0.0, 1.0, -1.0, 1.0)
    with pytest.raises(ContourError):
        count_roots(lambda z: z - 0.5j, region)  # root on the left edge


def test_pole_on_the_contour_is_refused():
    region = SpectralRegion(0.0, 1.0, -1.0, 1.0, samples_per_side=2)
    with pytest.raises(ContourError, match="pole"):
        count_roots(lambda z: 1.0 / (z - 1.0), region)  # pole at a corner


def test_exponential_characteristic_with_known_root():
    # e^z - 2 has the single root log(2) in [0,1]x[-1,1] and spurious-free
    # repetitions at log(2) + 2 pi i k outside it
    region = SpectralRegion(0.0, 1.0, -1.0, 1.0)
    assert count_roots(lambda z: np.exp(z) - 2.0, region) == 1


def test_f_gets_every_boundary_point_once_in_bounded_chunks():
    seen = []

    def f(z):
        seen.append(np.array(z))
        return z - 0.25

    n = 3 * CHUNK_POINTS // 4 + 1  # 4n + 1 points: not a multiple of the chunk
    region = SpectralRegion(0.0, 1.0, -1.0, 1.0, samples_per_side=n)
    assert count_roots(f, region) == 1
    assert all(0 < len(z) <= CHUNK_POINTS for z in seen)
    points = np.concatenate(seen)
    assert len(points) == 4 * n + 1
    assert points[0] == points[-1] == region.corners()[0]
    for side, corner in enumerate(region.corners()):
        assert points[side * n] == corner


def test_pole_in_a_later_chunk_is_named():
    # the pole sits on the right edge, past the first chunk of points
    region = SpectralRegion(0.0, 1.0, -1.0, 1.0, samples_per_side=200)
    with pytest.raises(ContourError, match=r"at 1\+0j .*pole"):
        count_roots(lambda z: 1.0 / (z - 1.0), region)


def test_phase_aliasing_goes_unseen():
    # z^20 - 1 winds 20 times around [-1.5, 1.5]^2, but 2 samples per side
    # cannot resolve it: the pi/2 rule refines where it sees a large step
    # and still counts 4, as the recursive oracle does; dense samples give 20
    f = lambda z: z**20 - 1.0
    coarse = SpectralRegion(-1.5, 1.5, -1.5, 1.5, samples_per_side=2)
    assert count_roots(f, coarse) == oracle_count_roots(f, coarse) == 4
    dense = SpectralRegion(-1.5, 1.5, -1.5, 1.5, samples_per_side=64)
    assert count_roots(f, dense) == oracle_count_roots(f, dense) == 20


def test_unresolvable_phase_jump_reaches_max_depth():
    # a phase jump of pi at Re z = 0.3 with |f| = 1: no halving resolves it
    f = lambda z: np.where(np.real(z) < 0.3, 1.0, -1.0) + 0j
    region = SpectralRegion(0.0, 1.0, -1.0, 1.0, samples_per_side=4)
    with pytest.raises(ContourError, match="not resolvable"):
        count_roots(f, region)
    with pytest.raises(ContourError, match="not resolvable"):
        oracle_count_roots(f, region)


def test_region_validation():
    with pytest.raises(ValueError):
        SpectralRegion(1.0, 1.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        SpectralRegion(0.0, 1.0, -1.0, 1.0, samples_per_side=1)


def test_aggregate_tip_characteristic_has_no_unstable_roots():
    # |1 + hz| >= 1 > |e^(-zh)|/2 on the closed right half plane, so the
    # balanced direction is always stable; spot-check one delay here (the
    # acceptance sweep covers more)
    f = balanced_characteristic(3.0)
    region = SpectralRegion(1e-6, 5.0, -60.0, 60.0, samples_per_side=400)
    assert count_roots(f, region) == 0


# -- compliance-network spectrum -------------------------------------------------------

def _two_node_net():
    return ComplianceNetwork.build(
        targets=[0.9, 0.8],
        baselines=[0.4, 0.3],
        cost_sens=[1.0, 2.0],
        ctrl_gain=[0.5, 1.0],
        coupling=[[0.0, 0.2], [0.3, 0.0]],
        lags=[[0.0, 1.5], [0.7, 0.0]],
        window=4.0,
    )


def test_compliance_matrix_entries_by_hand():
    net = _two_node_net()
    z = 0.3 + 0.2j
    m = compliance_matrix(z, net)
    assert m[0, 0] == 0.0
    want01 = 0.2 * cmath.exp(-z * 1.5) / (z + 1.0 * 0.5)
    want10 = 0.3 * cmath.exp(-z * 0.7) / (z + 2.0 * 1.0)
    assert abs(m[0, 1] - want01) < 1e-15
    assert abs(m[1, 0] - want10) < 1e-15


def test_compliance_matrix_stacks_one_matrix_per_point():
    net = _two_node_net()
    zs = np.array([[0.3 + 0.2j, 0.0], [1.5 - 2.0j, 4.0 + 1.0j]])
    stack = compliance_matrix(zs, net)
    assert stack.shape == (2, 2, 2, 2)
    for idx in np.ndindex(zs.shape):
        assert np.array_equal(stack[idx], compliance_matrix(complex(zs[idx]), net))


def ring_eigenvalues(z: complex, n: int, coupling: float, lag: float, delta: float) -> np.ndarray:
    """Closed-form eigenvalues of M(z) for the nearest-neighbor ring:
    (D e^(-z tau) / (z + delta)) * 2 cos(2 pi a / n), a = 1..n."""
    z = complex(z)
    base = coupling * cmath.exp(-z * lag) / (z + delta)
    a = np.arange(1, n + 1)
    return base * 2.0 * np.cos(2.0 * np.pi * a / n)


def test_ring_closed_form_matches_dense_eigensolve():
    net = ComplianceNetwork.ring(8, coupling=0.1, lag=1.0, window=5.0,
                                 target=0.9, baseline=0.5)
    for z in (0.0 + 0.0j, 0.4 + 2.0j, 1.3 - 0.8j):
        closed = np.sort_complex(ring_eigenvalues(z, 8, 0.1, 1.0, 1.0))
        dense = np.sort_complex(np.linalg.eigvals(compliance_matrix(z, net)))
        assert np.abs(np.sort(np.abs(closed)) - np.sort(np.abs(dense))).max() < 1e-10


def test_weakly_coupled_ring_passes_sufficient_condition():
    net = ComplianceNetwork.ring(8, coupling=0.1, lag=1.0, window=5.0,
                                 target=0.9, baseline=0.5)
    rep = check_sufficient_condition(net)
    assert rep.passed
    assert rep.ring_condition is True
    assert rep.threshold == 2.5
    # max |lambda| is attained at z = 0: 2 D / delta
    assert abs(rep.witness_modulus - 0.2) < 1e-9
    assert rep.witness == 0j
    assert abs(rep.witness_modulus - np.abs(ring_eigenvalues(0j, 8, 0.1, 1.0, 1.0)).max()) < 1e-15
    assert rep.margin == pytest.approx(2.3, abs=1e-9)
    assert rep.grid_shape == (41, 161)


def test_strongly_coupled_ring_fails_both_conditions():
    net = ComplianceNetwork.ring(8, coupling=2.0, lag=1.0, window=5.0,
                                 target=0.9, baseline=0.5)
    rep = check_sufficient_condition(net)
    assert not rep.passed
    assert rep.ring_condition is False
    assert rep.witness_modulus > rep.threshold


def oracle_scan(network):
    """The sufficient-condition scan one grid point at a time: (witness
    modulus, witness, skipped poles) over the same x-major grid; a point
    within POLE_GAP of a pole -E_i k_i is skipped."""
    delta = network.cost_sens * network.ctrl_gain
    worst, witness, skipped = -1.0, complex(0.0, 0.0), 0
    for x in np.linspace(0.0, 10.0 * float(delta.max()), RE_POINTS):
        for y in np.linspace(-100.0 / network.window, 100.0 / network.window, IM_POINTS):
            z = complex(x, y)
            if any(abs(z + d) < POLE_GAP for d in delta):
                skipped += 1
                continue
            lam = float(np.abs(np.linalg.eigvals(compliance_matrix(z, network))).max())
            if lam > worst:
                worst, witness = lam, z
    return worst, witness, skipped


def _tiny_delta_net():
    # E_1 k_1 = 1e-14: the pole -1e-14 lies within 1e-12 of the grid point 0
    return ComplianceNetwork.build(
        targets=[0.9, 0.8], baselines=[0.4, 0.3], cost_sens=[1e-14, 2.0],
        ctrl_gain=[1.0, 1.0], coupling=[[0.0, 0.2], [0.3, 0.0]],
        lags=[[0.0, 1.5], [0.7, 0.0]], window=4.0,
    )


@st.composite
def _networks(draw):
    n = draw(st.sampled_from([1, 2, 3, 5, 8]))
    vec = lambda lo, hi: [draw(st.floats(lo, hi)) for _ in range(n)]
    off = lambda hi: [[0.0 if i == j else draw(st.floats(0.0, hi)) for j in range(n)]
                      for i in range(n)]
    return ComplianceNetwork.build(
        targets=vec(0.0, 1.0), baselines=vec(0.0, 0.5), cost_sens=vec(1e-3, 3.0),
        ctrl_gain=vec(1e-3, 2.0), coupling=off(2.0), lags=off(3.0),
        window=draw(st.floats(0.5, 8.0)),
    )


_RING = ComplianceNetwork.ring(8, coupling=0.1, lag=1.0, window=5.0, target=0.9, baseline=0.5)


def _chain(n):
    # feed-forward: activity i reads only j > i, so M(z) is nilpotent and
    # every grid point has radius 0 below a positive norm bound
    return ComplianceNetwork.build(
        targets=np.linspace(0.9, 0.7, n), baselines=np.linspace(0.5, 0.3, n),
        cost_sens=np.ones(n), ctrl_gain=np.ones(n), coupling=np.triu(np.full((n, n), 0.2), 1),
        lags=np.triu(np.ones((n, n)), 1), window=5.0,
    )


_ZERO = ComplianceNetwork.build(targets=[0.9], baselines=[0.5], cost_sens=[1.0],
                                ctrl_gain=[1.0], coupling=[[0.0]], lags=[[0.0]], window=5.0)
_STRONG_RING = ComplianceNetwork.ring(8, coupling=2.0, lag=1.0, window=5.0,
                                      target=0.9, baseline=0.5)
_PRUNED = ComplianceNetwork.build(  # the norm bound leaves 31 candidates
    targets=[0.0, 0.87, 0.24], baselines=[0.33, 0.24, 0.39], cost_sens=[2.65, 2.7, 1.59],
    ctrl_gain=[1.93, 1.83, 1.37],
    coupling=[[0.0, 0.36, 1.74], [2.0, 0.0, 0.23], [0.78, 1.85, 0.0]],
    lags=[[0.0, 2.01, 1.88], [0.86, 0.0, 0.02], [2.57, 1.75, 0.0]], window=5.4,
)


def _scan_examples(test):
    for net in (_tiny_delta_net(), _RING, _STRONG_RING, _chain(3), _chain(8), _ZERO, _PRUNED):
        test = example(net=net)(test)
    return test


@settings(max_examples=12, deadline=None)
@given(net=_networks())
@_scan_examples
def test_scan_matches_the_point_by_point_oracle(net):
    rep = check_sufficient_condition(net)
    worst, witness, skipped = oracle_scan(net)
    assert rep.witness_modulus == worst
    assert repr(rep.witness) == repr(witness)  # signed zeros included
    assert rep.skipped_poles == skipped
    assert rep.grid_shape == (RE_POINTS, IM_POINTS)
    assert rep.margin == rep.threshold - worst


def norm_bound(zs: np.ndarray, network) -> np.ndarray:
    """max_i sum_j |D_ij| e^(-tau_ji Re z) / |z + E_i k_i|, the row-sum
    norm of M(z), which bounds its spectral radius, at each point of zs."""
    delta = network.cost_sens * network.ctrl_gain
    rows = (np.abs(network.coupling) * np.exp(-zs.real[:, None, None] * network.lags_to)).sum(axis=2)
    return (rows / np.abs(zs[:, None] + delta)).max(axis=1)


def _eigensolved(monkeypatch, net):
    """The scan of net: how many matrices it hands to np.linalg.eigvals,
    and the points it builds M at, in call order."""
    solve, build = np.linalg.eigvals, stability.compliance_matrix
    counts, points = [], []

    def counting(a):
        counts.append(math.prod(np.shape(a)[:-2]))
        return solve(a)

    def recording(z, network):
        points.append(np.atleast_1d(z))
        return build(z, network)

    monkeypatch.setattr(np.linalg, "eigvals", counting)
    monkeypatch.setattr(stability, "compliance_matrix", recording)
    check_sufficient_condition(net)
    monkeypatch.undo()
    return sum(counts), points


def test_scan_eigensolves_only_the_points_the_bound_keeps(monkeypatch):
    assert _eigensolved(monkeypatch, _RING)[0] <= 2
    assert 2 < _eigensolved(monkeypatch, _PRUNED)[0] < RE_POINTS * IM_POINTS
    # nilpotent: nothing is pruned, and the floor point is solved twice
    assert _eigensolved(monkeypatch, _chain(8))[0] == RE_POINTS * IM_POINTS + 1


@settings(max_examples=12, deadline=None)
@given(net=_networks())
@_scan_examples
def test_norm_bound_holds_and_prunes_only_points_below_the_floor(net):
    # at every non-pole grid point the guarded bound covers the one-point
    # eigensolve, and a point the scan leaves out has a bound below the
    # floor, the max |eig| at the first point it solves
    with pytest.MonkeyPatch.context() as mp:
        _, points = _eigensolved(mp, net)
    floor = float(np.abs(np.linalg.eigvals(compliance_matrix(complex(points[0][0]), net))).max())
    solved = set(np.concatenate(points[1:]).tolist())
    delta = net.cost_sens * net.ctrl_gain
    ys = np.linspace(-100.0 / net.window, 100.0 / net.window, IM_POINTS)
    for x in np.linspace(0.0, 10.0 * float(delta.max()), RE_POINTS):
        for z, bound in zip(x + 1j * ys, norm_bound(x + 1j * ys, net)):
            if any(abs(z + d) < POLE_GAP for d in delta):
                continue
            assert bound * (1.0 + GUARD) >= np.abs(np.linalg.eigvals(compliance_matrix(z, net))).max(), z
            assert z in solved or bound < floor, z


def test_scan_skips_and_counts_a_pole_on_the_grid():
    rep = check_sufficient_condition(_tiny_delta_net())
    assert rep.skipped_poles == 1
    assert rep.witness != 0j


def test_window_characteristic_far_field_limit():
    # M(z) -> 0 as Re z grows, so F(z) / prod(z + delta_i), which is
    # det((1 - e^(-wz)) M(z) - w I), tends to det(-w I) = (-w)^n
    net = _two_node_net()
    g = window_characteristic(net)
    z = 50.0
    assert abs(g(z) / ((z + 0.5) * (z + 2.0)) - (-net.window) ** 2) < 1e-6


def test_window_characteristic_no_unstable_roots_for_weak_ring():
    net = ComplianceNetwork.ring(6, coupling=0.1, lag=1.0, window=5.0,
                                 target=0.9, baseline=0.5)
    g = window_characteristic(net)
    region = SpectralRegion(1e-4, 3.0, -6.0, 6.0, samples_per_side=200)
    assert count_roots(g, region) == 0


# -- the window characteristic on the edges against the dense form -----------------

def dense_window(network):
    """F(z) from all n^2 entries of (1 - e^(-wz)) (D o e^(-z tau)) -
    w diag(z + delta), zero-coupled ones included, through one stacked
    determinant.  A point whose matrix holds an entry that is not finite
    (0 * inf where a zero-coupled e^(-z tau) overflows) gives nan, since
    numpy's det can return 0 for such a matrix."""
    w, w_eye = network.window, network.window * np.eye(network.n)
    delta = network.cost_sens * network.ctrl_gain

    def f(z):
        z = np.asarray(z, dtype=complex)[..., None, None]
        phase = network.coupling * np.exp(-z * network.lags_to.astype(complex))
        m = (1.0 - np.exp(-w * z)) * phase - w_eye * (z + delta)
        return np.where(np.isfinite(m).all(axis=(-2, -1)), np.linalg.det(m), np.nan)

    return f


@st.composite
def _signed_networks(draw):
    # signed coupling with zero entries, zero lags, and lags on zero-coupled
    # entries long enough that e^(-z tau) overflows left of Re z = -9
    n = draw(st.integers(1, 8))
    coupling = st.just(0.0) | st.floats(-2.0, 2.0)
    lag = st.sampled_from([0.0, 1.0, 80.0]) | st.floats(0.0, 3.0)
    vec = lambda lo, hi: [draw(st.floats(lo, hi)) for _ in range(n)]
    return ComplianceNetwork.build(
        targets=vec(0.0, 1.0), baselines=vec(0.0, 0.5), cost_sens=vec(0.1, 3.0),
        ctrl_gain=vec(0.1, 2.0), coupling=[[draw(coupling) for _ in range(n)] for _ in range(n)],
        lags=[[0.0 if i == j else draw(lag) for j in range(n)] for i in range(n)],
        window=draw(st.floats(0.5, 8.0)),
    )


# a 3-ring whose zero-coupled entries have lag 80: e^(-z 80) overflows at Re z = -10
_LONG_ZERO_LAGS = ComplianceNetwork.build(
    targets=[0.9] * 3, baselines=[0.5] * 3, cost_sens=[1.0] * 3, ctrl_gain=[1.0] * 3,
    coupling=[[0.0, 0.2, 0.0], [0.0, 0.0, 0.2], [0.2, 0.0, 0.0]],
    lags=[[0.0, 1.0, 80.0], [80.0, 0.0, 1.0], [1.0, 80.0, 0.0]], window=5.0,
)

_points = st.lists(st.complex_numbers(max_magnitude=40.0, allow_nan=False, allow_infinity=False)
                   | st.builds(complex, st.floats(-12.0, 12.0), st.floats(-30.0, 30.0)),
                   min_size=1, max_size=CHUNK_POINTS)


@settings(max_examples=60, deadline=None)
@given(net=_signed_networks(), zs=_points)
@example(net=_LONG_ZERO_LAGS, zs=[complex(-10.0, 1.0), 0.5 + 2.0j])
@example(net=_ZERO, zs=[0j, -1.0 + 0j, 2.0 - 3.0j])
@example(net=_RING, zs=[-1.0 + 0j, 0.3 + 0.7j])
def test_window_characteristic_keeps_the_bits_of_the_dense_form(net, zs):
    zs = np.array(zs, dtype=complex)
    with np.errstate(all="ignore"):
        want, got = dense_window(net)(zs), window_characteristic(net)(zs)
    finite = np.isfinite(want)
    assert np.array_equal(got[finite].view(np.uint64), want[finite].view(np.uint64))


def test_window_characteristic_is_finite_where_a_zero_coupling_overflows():
    # the dense form multiplies D_ij = 0 by e^(80 * 10) = inf and gives nan,
    # so `roots` refused a contour through -10 + 1j as "an overflow"
    z = np.array([complex(-10.0, 1.0)])
    with np.errstate(all="ignore"):
        assert np.isnan(dense_window(_LONG_ZERO_LAGS)(z)).all()
    assert np.isfinite(window_characteristic(_LONG_ZERO_LAGS)(z)).all()


# coupled lags of 80: e^(-z 80) overflows at Re z = -12, and numpy's det of
# the stack that holds it returns exactly 0
_COUPLED_LONG_LAGS = ComplianceNetwork.build(
    targets=0.9, baselines=0.5, cost_sens=1.0, ctrl_gain=1.0,
    coupling=[[0, 0, 0, 0, -1], [-1, 0, 1, 1, 1], [-1, -1, 0, 1, 1], [1, 0, 1, 0, 0], [0, 0, 0, 1, 0]],
    lags=[[0, 0, 0, 0, 80], [80, 0, 1, 80, 80], [80, 1, 0, 1, 1], [80, 0, 1, 0, 0], [0, 0, 0, 1, 0]],
    window=5.0,
)


def test_a_zero_from_an_overflow_is_not_named_a_root():
    f = window_characteristic(_COUPLED_LONG_LAGS)
    with np.errstate(all="ignore"):
        assert f(np.array([-12.0 + 0j]))[0] == 0
    # it read "|f| = 0 <= 1e-09 on the contour at -12+0j"
    with pytest.raises(ContourError, match=r"f = 0 at -12\+0j on the contour is an overflow"):
        count_roots(f, SpectralRegion(-12.0, -11.0, 0.0, 1.0, 8))
    # a true zero keeps its message: the 8-ring's mode at -1
    with pytest.raises(ContourError, match=r"^\|f\| = 0 <= 1e-09 on the contour at -1\+0j$"):
        count_roots(window_characteristic(_RING), SpectralRegion(-1.0, 0.0, 0.0, 1.0, 8))


# -- batched contour walk against the point-by-point oracle ------------------------

def oracle_count_roots(f, region: SpectralRegion) -> int:
    """The winding-number walk one point at a time: each side's samples,
    then a depth-first bisection of every segment whose phase step is at
    least pi/2, at most MAX_DEPTH halvings deep."""
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


def _outcome(count, f, region):
    """The count, or "refused" when the walk raises ContourError."""
    try:
        with np.errstate(all="ignore"):
            return count(f, region)
    except ContourError:
        return "refused"


def _product(roots):
    def f(z):
        acc = 1.0 + 0.0j
        for r in roots:
            acc = acc * (z - r)
        return acc

    return f


_samples = st.integers(2, 2 * CHUNK_POINTS + 37)


@st.composite
def _regions(draw, samples=_samples):
    re_min = draw(st.floats(-3.0, 2.0))
    im_min = draw(st.floats(-3.0, 2.0))
    return SpectralRegion(
        re_min, re_min + draw(st.floats(0.1, 4.0)), im_min, im_min + draw(st.floats(0.1, 4.0)),
        samples_per_side=draw(samples),
    )


@st.composite
def _polynomial_cases(draw):
    region = draw(_regions())
    point = lambda: complex(draw(st.floats(-4.0, 4.0)), draw(st.floats(-4.0, 4.0)))
    roots = [point() for _ in range(draw(st.integers(1, 8)))]
    for _ in range(draw(st.integers(0, 3))):
        # a root just off a random edge of the contour
        t, gap = draw(st.floats(0.0, 1.0)), draw(st.sampled_from([1e-2, 1e-4, 1e-7, -1e-4]))
        side = draw(st.integers(0, 3))
        za, zb = region.corners()[side], region.corners()[(side + 1) % 4]
        inward = (zb - za) / abs(zb - za) * 1j
        roots.append(za + (zb - za) * t + gap * inward)
    return _product(roots), region


@settings(max_examples=60, deadline=None)
@given(case=_polynomial_cases())
@example(case=(_product([0.5 + 0.5j, 0.3 - 0.2j]),
               SpectralRegion(0.0, 1.0, -1.0, 1.0, samples_per_side=CHUNK_POINTS + 5)))
@example(case=(_product([0.5 + 1e-7j, 1.5 + 1.5j]), SpectralRegion(0.0, 2.0, 0.0, 1.0, 7)))
def test_polynomial_count_matches_the_oracle(case):
    f, region = case
    assert _outcome(count_roots, f, region) == _outcome(oracle_count_roots, f, region)


@settings(max_examples=25, deadline=None)
@given(delay=st.floats(0.05, 10.0), region=_regions())
def test_tip_characteristic_count_matches_the_oracle(delay, region):
    f = balanced_characteristic(delay)
    assert _outcome(count_roots, f, region) == _outcome(oracle_count_roots, f, region)


@st.composite
def _small_networks(draw):
    n = draw(st.integers(1, 6))
    vec = lambda lo, hi: [draw(st.floats(lo, hi)) for _ in range(n)]
    off = lambda hi: [[0.0 if i == j else draw(st.floats(0.0, hi)) for j in range(n)]
                      for i in range(n)]
    return ComplianceNetwork.build(
        targets=vec(0.0, 1.0), baselines=vec(0.0, 0.5), cost_sens=vec(0.1, 3.0),
        ctrl_gain=vec(0.1, 2.0), coupling=off(3.0), lags=off(3.0),
        window=draw(st.floats(0.5, 8.0)),
    )


@settings(max_examples=15, deadline=None)
@given(net=_small_networks(), region=_regions(st.integers(2, CHUNK_POINTS + 40)))
def test_window_characteristic_count_matches_the_oracle(net, region):
    g = window_characteristic(net)
    assert _outcome(count_roots, g, region) == _outcome(oracle_count_roots, g, region)


# -- the entire window characteristic against the pole-carrying form -----------------

def shipped_window(network):
    """det((1 - e^(-wz)) M(z) - w I): the window characteristic divided by
    prod(z + E_i k_i), so it has a pole at each -E_i k_i and a winding
    number around it counts zeros minus poles."""
    w, eye = network.window, np.eye(network.n)

    def f(z):
        m = compliance_matrix(z, network)
        return np.linalg.det((1.0 - np.exp(-w * np.asarray(z)))[..., None, None] * m - w * eye)

    return f


def _pole_gap(p: float, region: SpectralRegion) -> float:
    """Distance from the real point p to the rectangle's boundary."""
    dx = max(region.re_min - p, 0.0, p - region.re_max)
    dy = max(region.im_min, 0.0, -region.im_max)
    if dx == dy == 0.0:
        return min(p - region.re_min, region.re_max - p, -region.im_min, region.im_max)
    return math.hypot(dx, dy)


def _inside(p: float, region: SpectralRegion) -> bool:
    return region.re_min < p < region.re_max and region.im_min < 0.0 < region.im_max


@st.composite
def _nets_and_regions(draw):
    net = draw(_small_networks())
    samples = st.integers(16, CHUNK_POINTS + 40)
    if draw(st.booleans()):
        return net, draw(_regions(samples))
    # a region around one of the poles, which may hold others too
    p = -float(draw(st.sampled_from((net.cost_sens * net.ctrl_gain).tolist())))
    side = lambda: draw(st.floats(0.1, 2.0))
    return net, SpectralRegion(p - side(), p + side(), -side(), side(), draw(samples))


@settings(max_examples=40, deadline=None)
@given(case=_nets_and_regions())
def test_window_characteristic_counts_the_zeros_the_pole_form_hides(case):
    net, region = case
    poles = -(net.cost_sens * net.ctrl_gain)
    assume(all(_pole_gap(float(p), region) > 0.05 for p in poles))
    denser = SpectralRegion(region.re_min, region.re_max, region.im_min, region.im_max,
                            4 * region.samples_per_side)

    def resolved(f):
        # a count the samples alias (the pole form does so near its poles)
        # changes on a denser contour: trust only one that does not.  Twice
        # the samples is not enough: around a fourfold pole both alias alike
        count = _outcome(count_roots, f, region)
        assume(count != "refused" and count == _outcome(count_roots, f, denser))
        return count

    inside = sum(_inside(float(p), region) for p in poles)
    assert resolved(window_characteristic(net)) == resolved(shipped_window(net)) + inside


@pytest.mark.parametrize("samples", [64, 256])
@pytest.mark.parametrize(
    "net, region, count",
    [
        # around the pole -0.5, which the pole form counts as -1
        (_two_node_net(), (-0.51, -0.49, -0.1, 0.1), 0),
        # both poles inside: the pole form counts 15
        (_two_node_net(), (-3.0, 1.0, -5.0, 5.0), 17),
        # the ring's pole -1 just outside: the pole form counts 13 at 64
        # samples and 15 at 256
        (_RING, (-0.99, 1.0, -1.0, 1.0), 15),
        # just inside, around the eightfold pole -1, also a zero of F (D is
        # singular): the pole form counts 11 at 64 samples and 9 = 17 - 8 at 256
        (_RING, (-1.01, 1.0, -1.0, 1.0), 17),
    ],
    ids=["two-node-around-pole", "two-node-wide", "ring-pole-outside", "ring-pole-inside"],
)
def test_window_characteristic_pinned_counts(net, region, count, samples):
    assert count_roots(window_characteristic(net), SpectralRegion(*region, samples)) == count


def test_window_characteristic_is_zero_at_the_pole_of_a_singular_ring():
    # the 8-ring's D has eigenvalues 2 D cos(2 pi a / 8), two of them 0, so
    # z = -delta = -1 is a mode of the loop, not a pole
    assert _RING.coupling.shape == (8, 8) and abs(np.linalg.det(_RING.coupling)) < 1e-15
    assert window_characteristic(_RING)(np.array([-1.0 + 0j]))[0] == 0


@pytest.mark.parametrize(
    "coupling, unstable",
    [(0.1, 0), (0.5, 0), (1.0, 0), (1.25, 0), (1.5, 0), (2.0, 2), (3.0, 8), (6.0, 16)],
)
def test_ring_sufficient_condition_is_not_necessary(coupling, unstable):
    # every right-half-plane mode of the ring (delta = 1, w = 5) has
    # |z| <= 4 D / w: there |1 - e^(-wz)| <= 2 and |eig M(z)| <= 2 D / |z|,
    # so the square [0, R'] x [-R', R'] with R' = 1.05 * 4 D / w holds all
    # of them.  The bound D < w delta / 4 = 1.25 is sufficient, not
    # necessary: the scan fails from D = 1.25 on, the loop is stable to 1.5.
    net = ComplianceNetwork.ring(8, coupling=coupling, lag=1.0, window=5.0,
                                 target=0.9, baseline=0.5)
    r = 1.05 * 4.0 * coupling / 5.0
    f = window_characteristic(net)
    for samples in (256, 512):
        assert count_roots(f, SpectralRegion(0.0, r, -r, r, samples)) == unstable
    assert check_sufficient_condition(net).passed is (coupling < 1.25)
