"""Tail-region asymptotics: the self-similar two-phase oscillatory background
behind the front and the modulated solitons riding on it."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ReflectionZero
from .mb_oracle import FieldTriple
from .numerics import adaptive_quad
from .scattering import ScatteringData
from .soliton_spectrum import SolitonSpectrum, velocity_match
from .specfun import gamma_imag

EULER_GAMMA = 0.5772156649015329


@dataclass(frozen=True)
class TailPhases:
    """Slow amplitudes and fast phases of the left/right wave trains."""

    nu_l: float
    nu_r: float
    omega_l: float
    omega_r: float
    integral_l: float      # principal-value-free log integrals
    integral_r: float
    phase_sum_l: float     # soliton Blaschke phase sums
    phase_sum_r: float


@dataclass(frozen=True)
class SolitonState:
    """Local soliton parameters at one (t, x) near its velocity line."""

    index: int
    w_abs: float
    w_arg: float
    A: float               # in (0, 2 Im k_j)
    B: complex
    P: float
    Q: complex
    X: complex
    Y: complex


@dataclass(frozen=True)
class TailFields:
    fields: FieldTriple
    error_scale: float               # the expansion carries O(1/tau)
    soliton: SolitonState | None     # None on the away branch


def _arg_gamma(nu: float) -> float:
    # below the evaluation floor the pole term dominates: arg ~ -pi/2 - g*nu
    if nu < 1e-8:
        return -0.5 * math.pi - EULER_GAMMA * nu
    return gamma_imag(min(nu, 50.0)).argument


def _nu(s: float, r: complex) -> float:
    """Slow amplitude nu = ln(1 + |r|^-2)/(2 pi), given r = r(s)."""
    if abs(r) < 1e-12:
        raise ReflectionZero(
            f"|r({s})| = {abs(r):.2e}: the point sits on a real zero of b")
    return math.log1p(1.0 / abs(r) ** 2) / (2.0 * math.pi)


def nu_pair(sd: ScatteringData, k0: float) -> tuple[float, float]:
    """Slow amplitudes nu at -k0 (left) and k0."""
    r_l, r_r = sd.r_real(np.array([-k0, k0]))
    return _nu(-k0, r_l), _nu(k0, r_r)


def _log_term(sd: ScatteringData, s):
    """log(1 + |r(s)|^-2) at real s (a float or an array)."""
    return np.log1p(np.abs(sd.r_real(s)) ** -2.0)


def omega_pair(sd: ScatteringData, spec: SolitonSpectrum,
               t: float, x: float) -> TailPhases:
    """Fast phases of the two wave trains at (t, x) in the tail cone, with
    the log integrals to ``sd.tol.quad_tol``.  They read r on [-k0, k0],
    k0 = sqrt(x/tau)/2, so a k0 past the real-line cache's window raises
    the cache's DomainError.

    The integrands' singularity at the endpoint is removable (the numerator
    vanishes there), and the quadrature never samples an endpoint.  Interior
    log spikes at real zeros of b are integrable and get panel edges.
    """
    tau = t - x
    if tau <= 0.0:
        raise ValueError("tail phases need t > x")
    k0 = 0.5 * math.sqrt(x / tau)
    # a, b and r at -k0 and k0, from one read of the real-line cache
    a, b = sd.ab_real(np.array([-k0, k0]))
    r = b / a
    nu_l, nu_r = _nu(-k0, r[0]), _nu(k0, r[1])
    log_ends = np.log1p(np.abs(r) ** -2.0)
    # both log integrands, (L(s) - L(e)) / (s - e) for the ends e = -k0 and
    # k0 with L(s) = log(1 + |r(s)|^-2), in one quadrature
    integral_l, integral_r = adaptive_quad(
        lambda s: (_log_term(sd, s) - log_ends[:, None]) / (s + [[k0], [-k0]]),
        -k0, k0, sd.tol.quad_tol, split_points=sd.real_zero_splits(k0)
    ).tolist()

    phase_sum_l = 0.0
    phase_sum_r = 0.0
    for kj in spec.zeros:
        if abs(kj) < k0:
            phase_sum_l += cmath.phase((k0 + kj.conjugate()) / (k0 + kj))
            phase_sum_r += cmath.phase((k0 - kj.conjugate()) / (k0 - kj))

    fast = 4.0 * tau * k0
    slow = math.log(16.0 * tau * k0)
    omega_l = (fast - nu_l * slow - integral_l / math.pi
               + cmath.phase(a[0] * b[0]) + _arg_gamma(nu_l)
               + 2.0 * phase_sum_l - 0.25 * math.pi)
    omega_r = (-fast + nu_r * slow - integral_r / math.pi
               + cmath.phase(a[1] * b[1]) - _arg_gamma(nu_r)
               + 2.0 * phase_sum_r + 0.25 * math.pi)
    return TailPhases(nu_l, nu_r, omega_l, omega_r,
                      integral_l, integral_r, phase_sum_l, phase_sum_r)


def soliton_state(sd: ScatteringData, spec: SolitonSpectrum, j: int,
                  t: float, x: float,
                  phases: TailPhases | None = None) -> SolitonState:
    """Modulated soliton parameters near the j-th velocity line."""
    tau = t - x
    k0 = 0.5 * math.sqrt(x / tau)
    if phases is None:
        phases = omega_pair(sd, spec, t, x)
    kj = spec.zeros[j]
    kap = kj.imag
    re = kj.real
    mod2 = abs(kj) ** 2
    gamma_j = spec.residues[j]          # 1/(a(k_j) bdot(k_j))
    abdot_abs = 1.0 / abs(gamma_j)
    abdot_arg = -cmath.phase(gamma_j)
    # the Poisson integrals of L(s) = log(1 + |r(s)|^-2), in one quadrature
    pois, pois_arg = adaptive_quad(
        lambda s: np.stack([np.ones_like(s), s - re]) * _log_term(sd, s)
        / ((s - re) ** 2 + kap * kap),
        -k0, k0, sd.tol.quad_tol, split_points=sd.real_zero_splits(k0)
    ).tolist()

    blaschke_log = 0.0
    blaschke_arg = 0.0
    for p, kp in enumerate(spec.zeros):
        if abs(kp) < abs(kj) and p != j:
            ratio = (kj - kp) / (kj - kp.conjugate())
            blaschke_log += 2.0 * math.log(abs(ratio))
            blaschke_arg += 2.0 * cmath.phase(ratio)

    log_w = (-math.log(2.0 * kap * abdot_abs)
             - 2.0 * kap * (tau - x / (4.0 * mod2))
             - (kap / math.pi) * pois
             + blaschke_log)
    w_arg = (-abdot_arg
             + 2.0 * re * (tau + x / (4.0 * mod2))
             + pois_arg / math.pi
             + blaschke_arg)

    # A = 2 kap |w|^2/(1+|w|^2), B = -2 kap conj(w)/(1+|w|^2), kept stable
    # for |log w| large through the logistic/cosh forms.
    u = 1.0 / (1.0 + math.exp(-2.0 * log_w)) if log_w > -350.0 else 0.0
    A = 2.0 * kap * u
    sech_half = 1.0 / math.cosh(log_w) if abs(log_w) < 700.0 else 0.0
    B = -kap * cmath.exp(-1j * w_arg) * sech_half

    P = 1.0 - 2.0 * abs(B) ** 2 / mod2
    Q = (-2j * B / kj.conjugate()) * (1.0 - 1j * A / kj)

    sl = math.sqrt(phases.nu_l) / (2.0 * math.sqrt(k0 * tau))
    sr = math.sqrt(phases.nu_r) / (2.0 * math.sqrt(k0 * tau))
    el = cmath.exp(1j * phases.omega_l)
    er = cmath.exp(1j * phases.omega_r)
    kpl = k0 + kj
    kplc = k0 + kj.conjugate()
    kmi = k0 - kj
    kmic = k0 - kj.conjugate()

    X = (sl * ((1.0 + 1j * A / kplc) * B / el / kplc
               - (1.0 - 1j * A / kpl) * B.conjugate() * el / kpl)
         + sr * ((1.0 - 1j * A / kmic) * B / er / kmic
                 - (1.0 + 1j * A / kmi) * B.conjugate() * er / kmi))
    Y = (1j * sl * (el * (1.0 - 1j * A / kpl) ** 2
                    + B * B / el / kplc ** 2)
         - 1j * sr * (er * (1.0 + 1j * A / kmi) ** 2
                      + B * B / er / kmic ** 2))

    return SolitonState(index=j, w_abs=math.exp(min(log_w, 700.0)),
                        w_arg=w_arg, A=A, B=B, P=P, Q=Q, X=X, Y=Y)


def eval_tail(sd: ScatteringData, spec: SolitonSpectrum,
              t: float, x: float, eps: float | None = None) -> TailFields:
    """Leading-order tail fields at (t, x): two-phase background away from
    soliton lines, soliton plus dressed background near one."""
    tau = t - x
    k0 = 0.5 * math.sqrt(x / tau)
    phases = omega_pair(sd, spec, t, x)
    j = velocity_match(spec, t, x, eps)

    el = cmath.exp(1j * phases.omega_l)
    er = cmath.exp(1j * phases.omega_r)
    rnl = math.sqrt(phases.nu_l)
    rnr = math.sqrt(phases.nu_r)

    if j is None:
        E = 2.0 * math.sqrt(k0 / tau) * (rnl * el + rnr * er)
        N = -1.0
        rho = 1j * (rnl * el - rnr * er) / math.sqrt(tau * k0)
        return TailFields(FieldTriple(E, N, rho), 1.0 / tau, None)

    st = soliton_state(sd, spec, j, t, x, phases)
    kj = spec.zeros[j]
    A, B = st.A, st.B
    E = (4.0 * B
         + (2.0 * math.sqrt(k0) * rnl / math.sqrt(tau))
         * ((1.0 - 1j * A / (k0 + kj)) ** 2 * el
            + B * B / el / (k0 + kj.conjugate()) ** 2)
         + (2.0 * math.sqrt(k0) * rnr / math.sqrt(tau))
         * ((1.0 + 1j * A / (k0 - kj)) ** 2 * er
            + B * B / er / (k0 - kj.conjugate()) ** 2))
    N = float((-st.P + st.Q * st.Y.conjugate()
               + st.Q.conjugate() * st.Y).real)
    rho = st.Q + 2.0 * st.Y * st.P + 2.0 * st.X * st.Q
    return TailFields(FieldTriple(E, N, rho), 1.0 / tau, st)
