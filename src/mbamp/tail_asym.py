"""Tail-region asymptotics: the self-similar two-phase oscillatory background
behind the front and the modulated solitons riding on it."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ReflectionZero
from .lightcone_asym import AsymptoticFields, k0_of
from .mb_oracle import FieldTriple
from .numerics import adaptive_quad
from .scattering import ScatteringData
from .soliton_spectrum import SolitonSpectrum, velocity_match
from .specfun import gamma_imag, sech


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
    L: complex             # the left and right wave trains it dresses
    R: complex


def _nu(s: float, r: complex) -> float:
    """Slow amplitude nu = ln(1 + |r|^-2)/(2 pi), given r = r(s); the guard
    on |r| holds nu <= ln(1 + 1e24)/(2 pi) = 8.8."""
    if abs(r) < 1e-12:
        raise ReflectionZero(
            f"|r({s})| = {abs(r):.2e}: the point sits on a real zero of b")
    return math.log1p(1.0 / abs(r) ** 2) / (2.0 * math.pi)


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
    k0 = k0_of(tau, x)
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
               + cmath.phase(a[0] * b[0]) + cmath.phase(gamma_imag(nu_l))
               + 2.0 * phase_sum_l - 0.25 * math.pi)
    omega_r = (-fast + nu_r * slow - integral_r / math.pi
               + cmath.phase(a[1] * b[1]) - cmath.phase(gamma_imag(nu_r))
               + 2.0 * phase_sum_r + 0.25 * math.pi)
    return TailPhases(nu_l, nu_r, omega_l, omega_r,
                      integral_l, integral_r, phase_sum_l, phase_sum_r)


def _bare_trains(phases: TailPhases, k0: float, tau: float):
    """(sl, e^{i omega_l}, sr, e^{i omega_r}): the amplitudes
    sqrt(nu)/(2 sqrt(k0 tau)) and phase factors of the bare wave trains."""
    s = 2.0 * math.sqrt(k0 * tau)
    return (math.sqrt(phases.nu_l) / s, cmath.exp(1j * phases.omega_l),
            math.sqrt(phases.nu_r) / s, cmath.exp(1j * phases.omega_r))


def soliton_state(sd: ScatteringData, spec: SolitonSpectrum, j: int,
                  t: float, x: float,
                  phases: TailPhases | None = None) -> SolitonState:
    """Modulated soliton parameters near the j-th velocity line."""
    tau = t - x
    k0 = k0_of(tau, x)
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
    # for |log w| large through the logistic/sech forms.
    u = 1.0 / (1.0 + math.exp(-2.0 * log_w)) if log_w > -350.0 else 0.0
    A = 2.0 * kap * u
    B = -kap * cmath.exp(-1j * w_arg) * sech(log_w)

    P = 1.0 - 2.0 * abs(B) ** 2 / mod2
    Q = (-2j * B / kj.conjugate()) * (1.0 - 1j * A / kj)

    sl, el, sr, er = _bare_trains(phases, k0, tau)
    kpl = k0 + kj
    kplc = k0 + kj.conjugate()
    kmi = k0 - kj
    kmic = k0 - kj.conjugate()

    X = (sl * ((1.0 + 1j * A / kplc) * B / el / kplc
               - (1.0 - 1j * A / kpl) * B.conjugate() * el / kpl)
         + sr * ((1.0 - 1j * A / kmic) * B / er / kmic
                 - (1.0 + 1j * A / kmi) * B.conjugate() * er / kmi))
    L = sl * (el * (1.0 - 1j * A / kpl) ** 2 + B * B / el / kplc ** 2)
    R = sr * (er * (1.0 + 1j * A / kmi) ** 2 + B * B / er / kmic ** 2)

    return SolitonState(index=j, w_abs=math.exp(min(log_w, 700.0)),
                        w_arg=w_arg, A=A, B=B, P=P, Q=Q, X=X, L=L, R=R)


def eval_tail(sd: ScatteringData, spec: SolitonSpectrum,
              t: float, x: float) -> AsymptoticFields:
    """Leading-order tail fields at (t, x), from one formula: E = 4B +
    4 k0 (L + R), N = -P + 2 Re(Q conj Y) and rho = Q + 2YP + 2XQ with
    Y = i(L - R).  Near a soliton line the state is the soliton's; away
    from every line it is the bare one (B = X = Q = 0, P = 1, L and R the
    bare trains), the two-phase background with N = -1.  The expansion
    carries O(1/tau)."""
    tau = t - x
    k0 = k0_of(tau, x)
    phases = omega_pair(sd, spec, t, x)
    j = velocity_match(spec, t, x)
    if j is None:
        st = None
        sl, el, sr, er = _bare_trains(phases, k0, tau)
        B, P, Q, X, L, R = 0.0, 1.0, 0.0, 0.0, sl * el, sr * er
    else:
        st = soliton_state(sd, spec, j, t, x, phases)
        B, P, Q, X, L, R = st.B, st.P, st.Q, st.X, st.L, st.R
    Y = 1j * (L - R)
    E = 4.0 * B + 4.0 * k0 * (L + R)
    N = -P + 2.0 * (Q * Y.conjugate()).real
    rho = Q + 2.0 * Y * P + 2.0 * X * Q
    return AsymptoticFields(FieldTriple(E, N, rho), 1.0 / tau, st)
