"""Kernels: quadrature, winding counts, Newton, embedded RK advance."""

import math
import threading
import time

import mpmath
import numpy as np
import pytest

from mbamp import numerics, scattering
from mbamp.errors import BoundaryZero, NonConvergence, StepUnderflow
from mbamp.numerics import (_DOP_A, _DOP_C, _DOP_E, Tolerances,
                            adaptive_quad, complex_newton, count_zeros_rect,
                            ode_advance)
from mbamp.pulse import BoxPulse, SmoothBumpPulse
from mbamp.scattering import ScatteringData

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


def test_quad_non_convergence_names_the_worst_component(monkeypatch):
    monkeypatch.setattr(numerics, "_TS_MAX_LEVEL", 2)
    wild = lambda s: np.sin(1000.0 / (np.abs(s) + 1e-8))
    with pytest.raises(NonConvergence, match="in component 1"):
        adaptive_quad(lambda s: np.stack([s * s, wild(s)]), -1.0, 1.0,
                      1e-14)


def test_quad_budget_exhaustion_raises(monkeypatch):
    monkeypatch.setattr(numerics, "_TS_MAX_LEVEL", 2)
    with pytest.raises(NonConvergence):
        adaptive_quad(lambda s: np.sin(1000.0 / (np.abs(s) + 1e-8)), -1.0, 1.0,
                      1e-14)


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
def test_count_is_plain_bisection(d):
    # zeros at distance d from the contour, two inside and two outside, and
    # a factor that winds the phase along the real direction
    zeros = (0.3 + d * 1j, 0.2 + (1 - d) * 1j, 0.6 - d * 1j, 1 + d + 0.45j)
    f = lambda k: np.exp(4j * k) * np.prod([k - z for z in zeros], axis=0)
    rect = (0.0, 1.0, 0.0, 1.0)
    want, passes, kept = _count_by_plain_bisection(f, rect)
    g, calls = _recorded(f)
    assert count_zeros_rect(g, rect) == want == 2
    # the first samples, then one call per pass on exactly its midpoints
    assert {z for call in calls for z in call} == kept
    assert len(calls) == 1 + passes


def test_newton_double_root_from_nearby_seed():
    root, = complex_newton(lambda z: z * z, lambda z: 2 * z, [0.1 + 0j], 1e-10)
    assert abs(root * root) <= 1e-10


def test_newton_simple_root():
    root, = complex_newton(lambda z: z - 1j, lambda z: np.ones_like(z), [2j],
                           1e-12)
    assert abs(root - 1j) < 1e-12


def test_newton_diverges_without_reachable_root(monkeypatch):
    # real seed on z^2+1: the iteration never leaves the real axis, where
    # |f| >= 1, so no convergence is possible
    monkeypatch.setattr(numerics, "_NEWTON_PASSES", 40)
    root, = complex_newton(lambda z: z * z + 1.0, lambda z: 2.0 * z,
                           [0.5 + 0j], 1e-12)
    assert np.isnan(root)


def test_newton_runs_a_mixed_batch_in_one_call_per_pass(monkeypatch):
    # a seed that converges to i, one that stays on the real axis of
    # z^2 + 1, and one where f is NaN: each pass calls f and then df once,
    # on the same array of the iterates still running
    calls = []

    def f(z):
        calls.append(("f", z.copy()))
        return np.where(z.real > 100.0, np.nan, z * z + 1.0)

    def df(z):
        calls.append(("df", z.copy()))
        return 2.0 * z

    monkeypatch.setattr(numerics, "_NEWTON_PASSES", 40)
    got = complex_newton(f, df, [0.3 + 0.8j, 0.5 + 0j, 200.0 + 1j], 1e-12)
    assert abs(got[0] - 1j) < 1e-12
    assert np.isnan(got[1]) and np.isnan(got[2])
    assert [name for name, _ in calls] == ["f", "df"] * 40
    assert all(np.array_equal(calls[i][1], calls[i + 1][1])
               for i in range(0, len(calls), 2))
    # the NaN seed leaves after the first pass, the converging one after
    # the sixth, and the real one runs all 40
    assert [z.size for _, z in calls[::2]] == [3] + [2] * 5 + [1] * 34
    assert all(z.imag[-1] == 0.0 for _, z in calls[2:])


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


def test_ode_step_budget_exhaustion_raises(monkeypatch):
    monkeypatch.setattr(numerics, "_MAX_STEPS", 5)
    with pytest.raises(StepUnderflow, match="budget"):
        ode_advance(_grow, _time, 0.0, 1.0, np.array([1.0 + 0j]), 1e-10)


def test_stalled_step_sequence_raises_within_seconds():
    # y' = i 1e12 y holds the step near 1e-12 of the span, above the
    # underflow scale 1e-14, so only the budget stops the solve
    calls = []

    def spin(t, y, out):
        calls.append(None)
        np.multiply(1e12j, y, out=out)

    start = time.perf_counter()
    with pytest.raises(StepUnderflow, match="budget"):
        ode_advance(spin, _time, 0.0, 1.0, np.array([1.0 + 0j]), 1e-10)
    assert time.perf_counter() - start < 30.0
    assert len(calls) == 1 + 12 * numerics._MAX_STEPS


def _reference_dop853(rhs, coef, t0, t1, y0, tol, atol=None, control=None):
    """``ode_advance`` as it was before its stages were formed in place:
    each stage's argument a new array y + (h A_i) k, and the coefficient's
    values handed to ``rhs`` as NumPy scalars.  The in-place stepper must
    take the same steps and give the same bits."""
    y = np.array(y0, dtype=complex, ndmin=1)
    if t1 == t0 or y.size == 0:
        return y
    if atol is None:
        atol = tol * 1e-2
    span = t1 - t0
    direction = 1.0 if span > 0 else -1.0
    t = t0

    # the thirteen stages, and a real view of them for the tableau
    # contractions; k[0] stays valid for the current (t, y): FSAL on accept,
    # reuse on reject
    k = np.empty((13,) + y.shape, dtype=complex)
    k_flat = k.reshape(13, -1).view(float)
    # the flat positions of the entries the error norms read
    pick = None if control is None else np.flatnonzero(
        np.arange(y.size) % y.shape[-1] < control)
    rhs(coef(t), y, k[0])
    abs_y = np.abs(y)
    y_n, k_n = ((y, k[0]) if pick is None
                else (y.reshape(-1)[pick], k[0].reshape(-1)[pick]))
    scale0 = atol + tol * np.abs(y_n)
    d0 = float(np.sqrt(np.mean(np.abs(y_n / scale0) ** 2)))
    d1 = float(np.sqrt(np.mean(np.abs(k_n / scale0) ** 2)))
    h = 0.01 * d0 / d1 if (d0 > 1e-5 and d1 > 1e-5) else abs(span) * 1e-4
    h = direction * min(h, abs(span))

    for _ in range(numerics._MAX_STEPS):
        if (t - t1) * direction >= 0.0:
            return y
        if abs(h) < 1e-14 * abs(span):
            raise StepUnderflow(f"step {h:.3e} below resolvable scale at t={t}")
        if (t + h - t1) * direction > 0.0:
            h = t1 - t

        c = coef(t + h * _DOP_C[1:])
        h_a = h * _DOP_A
        for i in range(1, 13):
            yi = y + (h_a[i, :i] @ k_flat[:i]).view(complex).reshape(y.shape)
            rhs(c[i - 1], yi, k[i])
        ynew = yi  # stage 13 argument is the 8th-order solution (FSAL)

        # |h| e5^2 / sqrt((e5^2 + 0.01 e3^2) n), with e5 and e3 the sums of
        # |error| / scale squared over the entries the norms read, on the
        # (re, im) pairs
        abs_ynew = np.abs(ynew)
        scale = (atol + tol * np.maximum(abs_y, abs_ynew)).reshape(-1, 1)
        e = (_DOP_E @ k_flat).reshape(2, -1, 2)
        if pick is not None:
            e, scale = e[:, pick], scale[pick]
        ratio = e / scale
        e5, e3 = np.einsum("eij,eij->e", ratio, ratio)
        denom = (e5 + 0.01 * e3) * scale.size
        err = abs(h) * e5 / math.sqrt(denom) if denom > 0.0 else 0.0

        if err <= 1.0:
            t += h
            y, abs_y = ynew, abs_ynew
            k[0] = k[12]  # FSAL
        # Hairer's DOP853 controller: exponent 1/8, safety 0.9, the step
        # shrinks at most 3x (reject) and grows at most 6x (accept)
        h *= min(6.0, max(1 / 3, 0.9 * max(err, 1e-16) ** -0.125))
    raise StepUnderflow(f"step budget exhausted near t={t}")


def _counting(rhs):
    """``rhs`` and a list that grows by one entry per call of it."""
    calls = []

    def counted(c, y, out):
        calls.append(None)
        rhs(c, y, out)
    return counted, calls


def _jost_solves(monkeypatch, run):
    """The arguments of each ``ode_advance`` call that ``run()`` makes
    through the scattering module, the Jost right-hand side first."""
    solves = []

    def recording(*args, **kwargs):
        solves.append((args, kwargs))
        return ode_advance(*args, **kwargs)
    monkeypatch.setattr(scattering, "ode_advance", recording)
    run()
    return solves


# the CLI's scatter batch: 401 real and 120 imaginary points
_SCATTER_KS = np.append(np.linspace(-20.0, 20.0, 401),
                        1j * np.linspace(0.05, 6.0, 120))


@pytest.mark.parametrize("case", ["box52-scatter", "bump-riders-derivs", "cos"])
def test_ode_advance_matches_the_reference_bit_for_bit(case, monkeypatch):
    if case == "cos":   # y' = cos(t) y forward from 0 to 3
        def rhs(c, y, out):
            np.multiply(c, y, out=out)
        solves = [((rhs, np.cos, 0.0, 3.0, np.array([1.0 + 0j]), 1e-11),
                   {"atol": 1e-13})]
    elif case == "box52-scatter":
        sd = ScatteringData(BoxPulse(5.0, 2.0))
        solves = _jost_solves(monkeypatch, lambda: sd.ab_many(_SCATTER_KS))
    else:
        sd = ScatteringData(SmoothBumpPulse(1.0, 2.0, 1.0))
        solves = _jost_solves(monkeypatch, lambda: sd.prefetch(
            np.linspace(0.0, 3.0, 31), dks=1j * np.array([0.3, 0.9, 2.5]),
            riders=np.array([0.5 + 0.2j, 5.0j])))
        assert solves[0][1]["control"] == 31   # the riders take the steps
    assert len(solves) == 1
    (rhs, *rest), kwargs = solves[0]
    rhs_new, calls_new = _counting(rhs)
    rhs_ref, calls_ref = _counting(rhs)
    got = ode_advance(rhs_new, *rest, **kwargs)
    want = _reference_dop853(rhs_ref, *rest, **kwargs)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    assert len(calls_new) == len(calls_ref) > 12


def _mixing_batch(n, seed=3):
    """An AKNS-type system with coefficient t, one column per random k,
    whose rows mix, and a random start state."""
    rng = np.random.default_rng(seed)
    ks = rng.normal(size=n) + 0.2j * rng.random(n)
    y0 = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))

    def rhs(t, y, out):
        np.multiply(-2j * ks, y[0], out=out[0])
        out[0] -= 0.5 * t * y[1]
        np.multiply(0.5 * t, y[0], out=out[1])
    return rhs, y0


def test_ode_advance_leaves_y0_as_given():
    rhs, y0 = _mixing_batch(7)
    before = y0.copy()
    ode_advance(rhs, _time, 0.0, 2.0, y0, 1e-10)
    assert y0.tobytes() == before.tobytes()


def test_ode_advance_result_is_not_reused_by_a_later_call():
    rhs, y0 = _mixing_batch(7)
    first = ode_advance(rhs, _time, 0.0, 2.0, y0, 1e-10)
    kept = first.copy()
    second = ode_advance(rhs, _time, 0.0, 2.0, y0, 1e-10)
    assert not np.shares_memory(first, second)
    assert first.tobytes() == kept.tobytes() == second.tobytes()


@pytest.mark.parametrize("layout", ["fortran", "strided"])
@pytest.mark.parametrize("control", [None, 4])
def test_ode_advance_state_layout_does_not_change_the_bits(layout, control):
    rhs, y0 = _mixing_batch(9)
    if layout == "fortran":
        given = np.asfortranarray(y0)
    else:
        wide = np.zeros((2, 18), dtype=complex)
        wide[:, ::2] = y0
        given = wide[:, ::2]
    assert not given.flags.c_contiguous
    got = ode_advance(rhs, _time, 0.0, 2.0, given, 1e-10, control=control)
    want = ode_advance(rhs, _time, 0.0, 2.0, np.ascontiguousarray(y0), 1e-10,
                       control=control)
    assert got.tobytes() == want.tobytes()


def test_ode_advance_in_two_threads_gives_the_sequential_bits():
    # the stepper keeps its buffers per call, so concurrent solves of
    # different batches need no lock
    problems = [_mixing_batch(300, seed) for seed in (5, 6)]

    def solve(problem):
        rhs, y0 = problem
        return ode_advance(rhs, _time, 0.0, 4.0, y0, 1e-11)

    want = [solve(p).tobytes() for p in problems]
    got = [[], []]
    start = threading.Barrier(2)

    def work(i):
        start.wait()
        for _ in range(3):
            got[i].append(solve(problems[i]).tobytes())
    threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=60)
        assert not th.is_alive()
    assert got == [[w] * 3 for w in want]
