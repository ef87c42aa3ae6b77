"""Tail-region phases, soliton states, and field assembly."""

import cmath
import math

import mpmath
import numpy as np
import pytest

from mbamp.errors import DomainError, ReflectionZero
from mbamp.lightcone_asym import BandParams, classify
from mbamp.numerics import Tolerances
from mbamp.pulse import BoxPulse, SmoothBumpPulse
from mbamp.scattering import ScatteringData
from mbamp.soliton_spectrum import (SolitonSpectrum, find_zeros,
                                    tail_cone_radius)
from mbamp.tail_asym import (eval_tail, nu_pair, omega_pair, soliton_state)

LN2_OVER_2PI = 0.11031780007607186


class _StubTail:
    """Real-line scattering stub with a prescribed constant |r|; its
    returns broadcast over an array of s."""

    def __init__(self, r_abs):
        self.r_abs = r_abs
        self.tol = Tolerances()

    def ab_real(self, s):
        return (np.full(np.shape(s), 1.0 + 0j),
                np.full(np.shape(s), complex(self.r_abs)))

    def r_real(self, s):
        a, b = self.ab_real(s)
        return b / a

    def real_zero_splits(self, k0):
        return []


@pytest.fixture(scope="module")
def box11():
    sd = ScatteringData(BoxPulse(1.0, 1.0))
    spec = find_zeros(sd, (-3.0, 3.0, 1e-4, 3.0))
    return sd, spec


@pytest.fixture(scope="module")
def box52():
    sd = ScatteringData(BoxPulse(5.0, 2.0))
    spec = find_zeros(sd, (-3.0, 3.0, 1e-4, 3.0))
    return sd, spec


def test_nu_at_unit_reflection():
    stub = _StubTail(1.0)
    nul, nur = nu_pair(stub, 0.7)
    assert nul == pytest.approx(LN2_OVER_2PI, rel=1e-12)
    assert nur == pytest.approx(LN2_OVER_2PI, rel=1e-12)


def test_nu_large_reflection_limit():
    stub = _StubTail(1e6)
    nul, _ = nu_pair(stub, 0.7)
    assert 0.0 < nul < 1e-10


def test_nu_reflection_zero_guard():
    stub = _StubTail(1e-13)
    with pytest.raises(ReflectionZero):
        nu_pair(stub, 0.7)


def test_real_pulse_nu_symmetry(box11):
    sd, _ = box11
    nul, nur = nu_pair(sd, 0.5)
    assert nul == pytest.approx(nur, rel=1e-9)


def test_constant_reflection_kills_integral_terms(box11):
    _, spec = box11
    stub = _StubTail(0.8)
    ph = omega_pair(stub, spec, 30.0, 10.0)
    assert abs(ph.integral_l) < 1e-9
    assert abs(ph.integral_r) < 1e-9


def test_empty_spectrum_kills_phase_sums(box11):
    sd, spec = box11
    assert len(spec) == 0
    ph = omega_pair(sd, spec, 30.0, 10.0)
    assert ph.phase_sum_l == 0.0 and ph.phase_sum_r == 0.0


def test_phase_tau_derivative_analytic(box11):
    # at fixed k0:  d omega_r / d tau = -4 k0 + nu_r / tau
    sd, spec = box11
    k0 = 0.5
    nul, nur = nu_pair(sd, k0)

    def om(tau):
        x = 4.0 * k0 * k0 * tau
        return omega_pair(sd, spec, x + tau, x)

    tau, h = 60.0, 1e-3
    p, m_ = om(tau + h), om(tau - h)
    dr = (p.omega_r - m_.omega_r) / (2 * h)
    dl = (p.omega_l - m_.omega_l) / (2 * h)
    assert dr == pytest.approx(-4 * k0 + nur / tau, rel=1e-6)
    assert dl == pytest.approx(4 * k0 - nul / tau, rel=1e-6)


def test_soliton_state_identities(box52):
    sd, spec = box52
    rng = np.random.default_rng(5)
    kap = spec.zeros[0].imag
    v1 = spec.velocities[0]
    for _ in range(25):
        tau = rng.uniform(5.0, 120.0)
        jitter = rng.uniform(-0.01, 0.01)
        t = tau / (1 - v1)
        x = (v1 + jitter) * t
        st = soliton_state(sd, spec, 0, t, x)
        assert abs(st.A ** 2 + abs(st.B) ** 2 - 2 * kap * st.A) < 1e-10
        assert abs(st.P ** 2 + abs(st.Q) ** 2 - 1.0) < 1e-10
        assert 0.0 <= st.A <= 2 * kap


def test_soliton_exponent_constant_on_velocity_line(box52):
    # on x/t = v_j both k0 and the exponent argument are frozen, so |w| is
    # exactly constant along the line
    sd, spec = box52
    v1 = spec.velocities[0]
    vals = []
    for tau in (10.0, 40.0, 90.0):
        t = tau / (1 - v1)
        vals.append(math.log(soliton_state(sd, spec, 0, t, v1 * t).w_abs))
    assert abs(vals[0] - vals[1]) < 1e-8
    assert abs(vals[1] - vals[2]) < 1e-8


def test_soliton_center_values(box52):
    # where |w| = 1: A = Im k, |B| = Im k, and the background is restored
    # far away (|w| -> 0: A -> 0, B -> 0, P -> 1, Q -> 0)
    sd, spec = box52
    kap = spec.zeros[0].imag
    v1 = spec.velocities[0]
    t = 97.0
    lo, hi = 85.0, 94.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if math.log(soliton_state(sd, spec, 0, t, mid).w_abs) > 0:
            hi = mid
        else:
            lo = mid
    xc = 0.5 * (lo + hi)
    st = soliton_state(sd, spec, 0, t, xc)
    assert st.A == pytest.approx(kap, rel=1e-6)
    assert abs(st.B) == pytest.approx(kap, rel=1e-6)
    far = soliton_state(sd, spec, 0, t, xc - 8.0)
    assert far.A < 1e-8
    assert abs(far.B) < 1e-8
    assert far.P == pytest.approx(1.0, abs=1e-10)
    assert abs(far.Q) < 1e-10


def test_away_branch_envelope_and_inversion(box11):
    sd, spec = box11
    k0 = 0.5
    nul, nur = nu_pair(sd, k0)
    hi = math.sqrt(nul) + math.sqrt(nur)
    lo = abs(math.sqrt(nul) - math.sqrt(nur))
    for tau in (40.0, 80.0):
        x = 4 * k0 * k0 * tau
        tf = eval_tail(sd, spec, x + tau, x)
        assert tf.fields.N == -1.0
        scaled = abs(tf.fields.E) * math.sqrt(tau) / (2 * math.sqrt(k0))
        assert lo - 1e-12 <= scaled <= hi + 1e-12
        assert tf.error_scale == pytest.approx(1.0 / tau)
        assert tf.soliton is None


def test_near_branch_fields_at_center(box52):
    sd, spec = box52
    kap = spec.zeros[0].imag
    t = 97.0
    lo, hi = 85.0, 94.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if math.log(soliton_state(sd, spec, 0, t, mid).w_abs) > 0:
            hi = mid
        else:
            lo = mid
    xc = 0.5 * (lo + hi)
    tf = eval_tail(sd, spec, t, xc)
    assert tf.soliton is not None and tf.soliton.index == 0
    # |E| = 4|B| + O(tau^{-1/2}) = 4 Im k at the center
    assert abs(tf.fields.E) == pytest.approx(4 * kap, rel=0.15)
    # the medium is locally re-excited on the inverted background
    assert tf.fields.N > 0.8
    far = eval_tail(sd, spec, t, xc)


def test_away_rho_formula(box11):
    sd, spec = box11
    tau = 50.0
    k0 = 0.5
    x = 4 * k0 * k0 * tau
    ph = omega_pair(sd, spec, x + tau, x)
    tf = eval_tail(sd, spec, x + tau, x)
    exp_rho = (math.sqrt(ph.nu_l) * cmath.exp(1j * (ph.omega_l + math.pi / 2))
               - math.sqrt(ph.nu_r) * cmath.exp(1j * (ph.omega_r + math.pi / 2))) \
        / math.sqrt(tau * k0)
    assert tf.fields.rho == pytest.approx(exp_rho, rel=1e-9)


def test_omega_quad_tol_convergence(box11):
    # halving the quadrature tolerance moves the phases by < 10 * quad_tol
    sd, spec = box11
    qt = 1e-9
    p1, p2 = (omega_pair(ScatteringData(sd.pulse, Tolerances(quad_tol=q)),
                         spec, 90.0, 30.0) for q in (qt, qt / 2))
    assert abs(p1.omega_l - p2.omega_l) < 10 * qt
    assert abs(p1.omega_r - p2.omega_r) < 10 * qt


def test_away_branch_bloch_defect_decays(box11):
    # leading-order away fields: N^2 + |rho|^2 - 1 = |rho|^2, which beats
    # between 0 and its envelope (sqrt(nu_l)+sqrt(nu_r))^2/(tau k0)
    sd, spec = box11
    k0 = 0.5
    nul, nur = nu_pair(sd, k0)
    envelope_c = (math.sqrt(nul) + math.sqrt(nur)) ** 2 / k0
    for tau in (40.0, 80.0, 160.0):
        x = 4 * k0 * k0 * tau
        tf = eval_tail(sd, spec, x + tau, x)
        defect = tf.fields.N ** 2 + abs(tf.fields.rho) ** 2 - 1.0
        assert 0.0 <= defect <= envelope_c / tau * 1.01
        assert defect <= 1.0 / math.sqrt(tau)


class _DirectReal(ScatteringData):
    """Real-line queries answered by Jost solves instead of the cache: one
    batched solve per quadrature level."""

    def ab_real(self, s):
        a, b = self.ab_many(np.ravel(s))
        return a.reshape(np.shape(s)), b.reshape(np.shape(s))


def test_tail_phases_match_direct_solves():
    # the log integrals amplify errors in |r| where |r| is small, as on the
    # bump; reading r off the real-line interpolant must not show there
    pulse = SmoothBumpPulse(1.0, 2.0, 1.0)
    spec = SolitonSpectrum((), (), ())
    t, x = 9.97, 3.06
    got = omega_pair(ScatteringData(pulse), spec, t, x)
    ref = omega_pair(_DirectReal(pulse, Tolerances().scaled(0.01)), spec, t, x)
    for name in ("integral_l", "integral_r", "omega_l", "omega_r"):
        assert getattr(got, name) == pytest.approx(getattr(ref, name),
                                                   abs=1e-9)


@pytest.fixture(scope="module")
def box56():
    return ScatteringData(BoxPulse(5.0, 6.0)), SolitonSpectrum((), (), ())


@pytest.mark.parametrize("case, k0, n_splits", [
    pytest.param("box52", 1.0, 0, id="1.0"),
    pytest.param("box52", 1.9449, 2, id="1.9449"),
    pytest.param("box52", 5.0, 4, id="5.0"),
    pytest.param("box56", 12.0, 38, id="box56-12.0", marks=pytest.mark.slow),
])
def test_tail_integrals_match_mpmath(request, case, k0, n_splits):
    # independent rule over the same panel edges and the same interpolant;
    # k0 = 5 straddles four real zeros of b on box 5/2, and k0 = 12 straddles
    # 38 on box 5/6
    sd, spec = request.getfixturevalue(case)
    tau = 40.0
    x = 4.0 * k0 * k0 * tau
    ph = omega_pair(sd, spec, x + tau, x)
    edges = [-k0, *sd.real_zero_splits(k0), k0]
    assert len(edges) == n_splits + 2

    def log_term(s):
        return math.log1p(abs(sd.r_real(float(s))) ** -2)

    for name, end in (("integral_l", -k0), ("integral_r", k0)):
        log_end = log_term(end)
        # s - end in mpmath, so a node that rounds onto the end adds 0
        ref = mpmath.quad(lambda s: (log_term(s) - log_end) / float(s - end),
                          edges)
        assert getattr(ph, name) == pytest.approx(float(ref), abs=1e-12)


@pytest.mark.parametrize("k0", [19.79, 19.89])
def test_omega_pair_converges_past_every_real_zero(k0):
    # a real zero of b left out of the splits is a log spike inside a panel,
    # and the quadrature then raises NonConvergence; box 3.3/2 has one at
    # +-2.6734069 where |r| is small but not tiny
    sd = ScatteringData(BoxPulse(3.3, 2.0))
    tau = 40.0
    x = 4.0 * k0 * k0 * tau
    ph = omega_pair(sd, SolitonSpectrum((), (), ()), x + tau, x)
    # the pulse is real, so |r| is even on the real line
    assert ph.integral_l == pytest.approx(-ph.integral_r, abs=1e-9)


@pytest.mark.parametrize("pulse, box, sigma, grid", [
    pytest.param(BoxPulse(5.0, 2.0), (-3.0, 3.0, 1e-4, 3.0), 0.05,
                 (30.0, 36.0, 4, 26.0, 35.0, 7), id="box52"),
    pytest.param(SmoothBumpPulse(1.0, 2.0, 1.0), None, 0.25,
                 (10.0, 14.0, 3, 3.0, 7.0, 3), id="bump")])
def test_tail_fields_on_the_cone_window_match_the_default_cache(
        pulse, box, sigma, grid):
    # the tail points of the benchmark's nominal asym grids, read off a
    # cache on the tail cone's window and off the default [-20, 20] one
    t0, t1, nt, x0, x1, nx = grid
    params = BandParams(tail_order=pulse.start_exponent, sigma=sigma)
    points = [(t, x) for t in np.linspace(t0, t1, nt)
              for x in np.linspace(x0, x1, nx)
              if classify(t, x, params).variant == "tail"]
    assert len(points) >= 8
    full = ScatteringData(pulse)
    windowed = ScatteringData(pulse, halfwidth=tail_cone_radius(sigma))
    spec = find_zeros(full, box, sigma)
    for t, x in points:
        want = eval_tail(full, spec, t, x).fields
        got = eval_tail(windowed, spec, t, x).fields
        assert abs(got.E - want.E) <= 1e-10 * abs(want.E)
        assert abs(got.rho - want.rho) <= 1e-10 * abs(want.rho)
        assert got.N == pytest.approx(want.N, rel=1e-10)


def test_tail_point_past_the_cache_window_raises():
    # k0 = sqrt(x/tau)/2 = 1.5 reads r past a window of halfwidth 1
    sd = ScatteringData(BoxPulse(1.0, 1.0), halfwidth=1.0)
    with pytest.raises(DomainError, match="window"):
        omega_pair(sd, SolitonSpectrum((), (), ()), 10.0 + 1.0 / 9.0,
                   10.0)
