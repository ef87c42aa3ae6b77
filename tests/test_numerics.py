"""Kernels: quadrature, winding counts, Newton, embedded RK advance."""

import math

import mpmath
import numpy as np
import pytest

from mbamp.errors import BoundaryZero, Diverged, NonConvergence, StepUnderflow
from mbamp.numerics import (_AHEAD, _DOP_A, _DOP_C, _DOP_E, Tolerances,
                            adaptive_quad, complex_newton, count_zeros_rect,
                            ode_advance)

# integral of log(1+s^2)/(s+2) over [-1,1]; dense-oracle value, frozen from a
# 1e6-panel trapezoid cross-checked against mpmath.quad at 40 digits.
LOG_INTEGRAL = 0.31014910540009094


def test_tolerances_defaults_and_validation():
    tol = Tolerances()
    assert tol.ode_rel == 1e-11 and tol.quad_tol == 1e-10
    with pytest.raises(ValueError):
        Tolerances(ode_rel=0.0)
    with pytest.raises(ValueError):
        Tolerances(quad_tol=1e-17)


def test_quad_zero_integrand():
    assert adaptive_quad(lambda s: np.zeros_like(s), 0.0, 1.0, 1e-10) == 0.0


def test_quad_linear():
    assert adaptive_quad(lambda s: s, 0.0, 1.0, 1e-10) == pytest.approx(0.5, abs=1e-12)


def test_quad_polynomial_exactness_degree5():
    rng = np.random.default_rng(7)
    for _ in range(10):
        coeffs = rng.normal(size=6)
        a, b = sorted(rng.uniform(-3, 3, size=2))
        if b - a < 1e-3:
            continue
        exact = sum(c / (p + 1) * (b ** (p + 1) - a ** (p + 1))
                    for p, c in enumerate(coeffs))
        got = adaptive_quad(lambda s: np.polyval(coeffs[::-1], s), a, b, 1e-12)
        assert got == pytest.approx(exact, rel=1e-12, abs=1e-12)


def test_quad_log_kernel_vs_dense_oracle():
    got = adaptive_quad(lambda s: np.log1p(s * s) / (s + 2.0), -1.0, 1.0, 1e-12)
    assert got == pytest.approx(LOG_INTEGRAL, abs=1e-11)


def test_quad_dense_trapezoid_agreement():
    # independent oracle for a lumpier integrand
    f = lambda s: np.exp(-s) * np.sin(7 * s)
    s = np.linspace(0.0, 2.0, 1_000_001)
    oracle = np.trapezoid(f(s), s)
    got = adaptive_quad(f, 0.0, 2.0, 1e-11)
    assert got == pytest.approx(oracle, abs=5e-11)


def test_quad_reversed_interval_sign():
    v1 = adaptive_quad(lambda s: s * s, 0.0, 2.0, 1e-12)
    v2 = adaptive_quad(lambda s: s * s, 2.0, 0.0, 1e-12)
    assert v1 == pytest.approx(-v2, rel=1e-12)


def test_quad_log_endpoint_singularity():
    # the rule never samples s = 0, where log s is -inf
    got = adaptive_quad(np.log, 0.0, 1.0, 1e-10)
    assert got == pytest.approx(-1.0, abs=1e-13)


@pytest.mark.parametrize("a", [-1.3, 0.7])
def test_quad_removable_endpoint_singularity(a):
    # omega_pair's form (g(s) - g(a)) / (s - a), with a log spike of g at an
    # interior split point; exact value from mpmath at 30 digits
    z = 0.25
    g = lambda s: np.log(np.abs(s - z)) + np.cos(3 * s)
    gm = lambda s: mpmath.log(abs(s - z)) + mpmath.cos(3 * s)
    with mpmath.workdps(30):
        exact = mpmath.quad(lambda s: (gm(s) - gm(a)) / (s - a),
                            [-1.3, z, 0.7])
    got = adaptive_quad(lambda s: (g(s) - g(a)) / (s - a), -1.3, 0.7, 1e-10,
                        split_points=[z])
    assert got == pytest.approx(float(exact), abs=1e-12)


def test_quad_stacked_integrands_match_separate_calls():
    # one call per level for all three; each must agree with its own call
    fs = (lambda s: np.log(np.abs(s - 0.25)) + np.cos(3 * s),
          lambda s: np.exp(-s) * np.sin(7 * s),
          lambda s: np.log1p(s * s) / (s + 2.0))
    tol = 1e-10
    got = adaptive_quad(lambda s: np.stack([f(s) for f in fs]), -1.0, 1.0,
                        tol, split_points=[0.25])
    assert got.shape == (3,)
    for value, f in zip(got, fs):
        alone = adaptive_quad(f, -1.0, 1.0, tol, split_points=[0.25])
        assert abs(value - alone) <= tol * (1.0 + abs(alone))


def test_quad_scalar_return_broadcasts():
    got = adaptive_quad(lambda s: 2.0, 0.5, 3.0, 1e-12)
    assert type(got) is float
    assert got == pytest.approx(5.0, abs=1e-12)


def test_quad_non_convergence_names_the_worst_component():
    wild = lambda s: np.sin(1000.0 / (np.abs(s) + 1e-8))
    with pytest.raises(NonConvergence, match="in component 1"):
        adaptive_quad(lambda s: np.stack([s * s, wild(s)]), -1.0, 1.0,
                      1e-14, max_level=2)


def test_quad_budget_exhaustion_raises():
    with pytest.raises(NonConvergence):
        adaptive_quad(lambda s: np.sin(1000.0 / (np.abs(s) + 1e-8)), -1.0, 1.0,
                      1e-14, max_level=2)


def test_count_single_linear_zero():
    assert count_zeros_rect(lambda k: k - (1 + 1j), (0, 2, 0, 2)) == 1


def test_count_nonvanishing():
    assert count_zeros_rect(lambda k: 1.0 + 0j, (-3, 1, 0.5, 4)) == 0


def test_count_additive_under_split():
    f = lambda k: (k - (0.5 + 0.5j)) * (k - (1.5 + 1.2j)) * (k + 1 - 0.8j)
    whole = count_zeros_rect(f, (-2, 2, 0.1, 2))
    left = count_zeros_rect(f, (-2, 1.0, 0.1, 2))
    right = count_zeros_rect(f, (1.0, 2, 0.1, 2))
    assert whole == left + right == 3


def test_count_first_spacing_resolves_a_fast_winding():
    # sin(8k) has the 15 zeros j pi/8, |j| <= 7, in the box; 4 samples per
    # edge, 1.5 apart, miss the bottom edge's pi/8 wraps and read -1
    f = lambda k: np.sin(8.0 * k)
    rect = (-3.0, 3.0, -0.1, 1.0)
    assert count_zeros_rect(f, rect) == -1
    assert count_zeros_rect(f, rect, spacing=0.5) == 15


@pytest.mark.parametrize("z, x", [
    (0.1 + 1e-4j, 0.103 - 1e-3j), (0.1 + 1e-4j, 0.097 - 1e-5j),
    (0.1 + 1e-4j, 0.1 - 0.2j), (1.9999 + 0.4j, 2.001 + 0.4003j),
    (-1.9999 + 0.6j, -2.1 + 0.58j)])
def test_count_anchor_resolves_a_phase_factor_next_to_a_zero(z, x):
    # a zero just inside the contour and a phase factor for an x just
    # outside it turn f by 2pi within about |z - x|, between first samples
    # 0.5 and 0.25 apart; a sample at the contour point nearest x makes
    # bisection resolve the turn
    f = lambda k: (k - z) * np.conj(k - x) / np.abs(k - x)
    rect = (-2.0, 2.0, 0.0, 1.0)
    assert count_zeros_rect(f, rect, spacing=0.5, anchors=[x]) == 1
    if abs(z - x) < 1e-2:
        assert count_zeros_rect(f, rect, spacing=0.5) == 0


def test_count_anchor_on_the_first_samples_changes_nothing():
    # 0.5 - 1i is nearest the bottom edge's first sample 0.5
    samples = []

    def f(k):
        samples.append(k)
        return k - (0.3 + 0.5j)

    rect = (-2.0, 2.0, 0.0, 1.0)
    assert count_zeros_rect(f, rect, spacing=0.5, anchors=[0.5 - 1.0j]) == 1
    assert count_zeros_rect(f, rect, spacing=0.5) == 1
    assert len(samples) == 2 and len(samples[0]) == 24
    assert np.array_equal(samples[0], samples[1])


def test_count_boundary_zero_raises():
    with pytest.raises(BoundaryZero):
        count_zeros_rect(lambda k: k - 1j, (-1, 1, 1, 2))


def test_count_boundary_zero_off_the_samples_raises():
    # 0.3 + 1j is no first sample nor a dyadic midpoint of the bottom edge,
    # so no kept sample dips; bisection still halves the step holding it
    # until the step is shorter than root_tol
    calls = []

    def f(k):
        calls.append(len(k))
        return k - (0.3 + 1j)

    with pytest.raises(BoundaryZero, match="turns by pi/2"):
        count_zeros_rect(f, (-1, 1, 1, 2))
    assert sum(calls) < 1000


def _boundary_point(rect, s):
    """The boundary point of parameter s in [0, 4], as count_zeros_rect
    maps it: counterclockwise from (re_lo, im_lo), one unit per edge."""
    re_lo, re_hi, im_lo, im_hi = rect
    corners = np.array([complex(re_lo, im_lo), complex(re_hi, im_lo),
                        complex(re_hi, im_hi), complex(re_lo, im_hi),
                        complex(re_lo, im_lo)])
    edge = np.minimum(s.astype(int), 3)
    return corners[edge] + (s - edge) * (corners[edge + 1] - corners[edge])


def _count_by_plain_bisection(f, rect):
    """Reference winding count: each pass samples the midpoints of its
    steps with a phase change of pi/2 or more, and only those, in one call
    of f.  Returns the count, the number of passes and the kept samples."""
    params = np.linspace(0.0, 4.0, 17)
    values = np.asarray(f(_boundary_point(rect, params[:-1])), dtype=complex)
    values = np.append(values, values[0])
    passes = 0
    while True:
        dphi = np.angle(values[1:] / values[:-1])
        bad = np.flatnonzero(np.abs(dphi) >= 0.5 * math.pi)
        if bad.size == 0:
            break
        passes += 1
        mids = 0.5 * (params[bad] + params[bad + 1])
        params = np.insert(params, bad + 1, mids)
        values = np.insert(values, bad + 1, f(_boundary_point(rect, mids)))
    count = round(float(np.sum(dphi)) / (2.0 * math.pi))
    return count, passes, set(_boundary_point(rect, params[:-1]).tolist())


def _recorded(f):
    """f, and the list of the argument arrays of its calls."""
    calls = []

    def g(z):
        calls.append(z.tolist())
        return f(z)
    return g, calls


@pytest.mark.parametrize("d", [1e-2, 1e-3, 1e-4])
def test_count_with_prefetch_matches_plain_bisection(d):
    # zeros at distance d from the contour, two inside and two outside, and
    # a factor that winds the phase along the real direction
    zeros = (0.3 + d * 1j, 0.2 + (1 - d) * 1j, 0.6 - d * 1j, 1 + d + 0.45j)
    f = lambda k: np.exp(4j * k) * np.prod([k - z for z in zeros], axis=0)
    rect = (0.0, 1.0, 0.0, 1.0)
    want, passes, kept = _count_by_plain_bisection(f, rect)
    g, calls = _recorded(f)
    assert count_zeros_rect(g, rect) == want == 2
    assert passes >= _AHEAD
    assert len(calls) <= 1 + math.ceil(passes / _AHEAD)
    # every sample plain bisection keeps is taken at the same point
    assert kept <= {z for call in calls for z in call}


def test_boundary_zero_only_on_kept_samples():
    # f vanishes at one prefetched point that bisection never keeps: the
    # count ignores it, as plain bisection, which never samples it, does
    rect = (0.0, 1.0, 0.0, 1.0)
    f = lambda k: k - (0.3 + 1e-3j)
    want, _, kept = _count_by_plain_bisection(f, rect)
    g, calls = _recorded(f)
    count_zeros_rect(g, rect)
    unkept = sorted({z for call in calls for z in call} - kept, key=abs)
    assert unkept
    trap = unkept[0]
    f_trap = lambda k: np.where(k == trap, 0.0, k - (0.3 + 1e-3j))
    assert count_zeros_rect(f_trap, rect) == _count_by_plain_bisection(
        f_trap, rect)[0] == want == 1


def test_newton_double_root_from_nearby_seed():
    root = complex_newton(lambda z: z * z, lambda z: 2 * z, 0.1 + 0j, 1e-10)
    assert abs(root * root) <= 1e-10


def test_newton_simple_root():
    root = complex_newton(lambda z: z - 1j, lambda z: 1.0 + 0j, 2j, 1e-12)
    assert abs(root - 1j) < 1e-12


def test_newton_diverges_without_reachable_root():
    # real seed on z^2+1: the iteration never leaves the real axis, where
    # |f| >= 1, so no convergence is possible
    with pytest.raises(Diverged):
        complex_newton(lambda z: z * z + 1.0, lambda z: 2.0 * z,
                       0.5 + 0j, 1e-12, max_iter=40)


def test_dop853_tableau_is_consistent():
    # rows sum to the nodes; the quadrature conditions of order 1..8 hold
    # (and the 9th does not); each error estimate is a difference of two
    # weight vectors that both sum to 1
    A, c = _DOP_A, _DOP_C
    assert np.max(np.abs(A.sum(axis=1) - c)) < 1e-14
    b = A[12]   # the solution weights, the argument of the FSAL stage
    for q in range(1, 9):
        assert abs(b @ c ** (q - 1) - 1.0 / q) < 1e-14
    assert abs(b @ c ** 8 - 1.0 / 9) > 1e-6
    assert np.max(np.abs(_DOP_E.sum(axis=1))) < 1e-14


def _time(t):
    """Identity coefficient: each stage of the right-hand side gets its time."""
    return t


def _grow(t, y, out):
    np.copyto(out, y)


def test_ode_constant():
    y = ode_advance(lambda t, y, out: out.fill(0.0), _time, 0.0, 1.0,
                    np.array([1.0 + 0j]), 1e-10)
    assert y[0] == pytest.approx(1.0, abs=1e-14)


def test_ode_exponential():
    y = ode_advance(_grow, _time, 0.0, 1.0, np.array([1.0 + 0j]), 1e-10)
    assert abs(y[0] - math.e) < 1e-9


def test_ode_constant_matrix_vs_eigen_oracle():
    # frozen AKNS-type generator with constant coefficients, one column per k
    ks = np.array([0.7 + 0.3j, -1.2 + 0j, 0.4j])
    y0 = np.array([[0.2, 1.0, -0.5j], [1.0, 0.3, 1.0]], dtype=complex)

    def rhs(t, y, out):
        out[0] = -2j * ks * y[0] - 0.5 * y[1]
        out[1] = 0.5 * y[0]

    got = ode_advance(rhs, _time, 0.0, 2.0, y0, 1e-11, atol=1e-13)
    assert got.shape == (2, 3)
    for col, k in enumerate(ks):
        M = np.array([[-2j * k, -0.5], [0.5, 0.0]], dtype=complex)
        w, V = np.linalg.eig(M)
        expM = V @ np.diag(np.exp(w * 2.0)) @ np.linalg.inv(V)
        oracle = expM @ y0[:, col]
        assert np.max(np.abs(got[:, col] - oracle)) < 1e-9


def test_ode_backward_direction():
    y = ode_advance(_grow, _time, 1.0, 0.0, np.array([math.e + 0j]), 1e-10)
    assert abs(y[0] - 1.0) < 1e-9


def test_ode_time_dependent_coefficient():
    # y' = cos(t) y, y(0) = 1: y(3) = exp(sin 3); the coefficient is
    # evaluated on the stage times and handed to each stage
    def rhs(c, y, out):
        np.multiply(c, y, out=out)

    y = ode_advance(rhs, np.cos, 0.0, 3.0, np.array([1.0 + 0j]), 1e-11,
                    atol=1e-13)
    assert abs(y[0] - math.exp(math.sin(3.0))) < 1e-9


def test_ode_tol_halving_invariance():
    def rhs(t, y, out):
        out[0] = np.sin(t) * y[0] + 0.1 * y[1]
        out[1] = -y[0]

    y0 = np.array([1.0 + 0j, 0.5 + 0j])
    tol = 1e-9
    a = ode_advance(rhs, _time, 0.0, 3.0, y0, tol)
    b = ode_advance(rhs, _time, 0.0, 3.0, y0, tol / 2)
    assert np.max(np.abs(a - b)) < 10 * tol


def test_ode_step_budget_exhaustion_raises():
    with pytest.raises(StepUnderflow, match="budget"):
        ode_advance(_grow, _time, 0.0, 1.0, np.array([1.0 + 0j]), 1e-10,
                    max_steps=5)
