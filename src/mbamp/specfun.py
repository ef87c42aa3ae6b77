"""Modified Bessel function of the first kind and the gamma function on the
imaginary axis, which is all the closed-form asymptotics require."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import DomainError, Overflow

_SERIES_SWITCH = 30.0  # power series below, large-argument expansion above


@dataclass(frozen=True)
class GammaValue:
    """Polar form of Gamma(i*y): modulus and principal argument."""

    modulus: float
    argument: float  # radians in (-pi, pi]


def _bessel_i_series(nu: float, x: float) -> float:
    """Ascending series; all terms positive, converges for every finite x."""
    half = 0.5 * x
    # t_0 = (x/2)^nu / Gamma(nu+1), computed in log space to dodge overflow
    log_t = nu * math.log(half) - math.lgamma(nu + 1.0) if x > 0.0 else 0.0
    if x == 0.0:
        return 1.0 if nu == 0.0 else 0.0
    if log_t > 700.0:
        raise Overflow(f"I_{nu}({x}) exceeds the floating range")
    term = math.exp(log_t)
    total = term
    j = 0
    while True:
        j += 1
        term *= (half * half) / (j * (j + nu))
        total += term
        if term < total * 1e-17 or j > 20000:
            return total


def _bessel_i_asymptotic(nu: float, x: float) -> float | None:
    """Large-argument expansion e^x/sqrt(2 pi x) * sum; None if it cannot
    reach ~1e-10 relative accuracy at this (nu, x)."""
    mu = 4.0 * nu * nu
    total = 1.0
    term = 1.0
    smallest = 1.0
    for k in range(1, 40):
        term *= -(mu - (2 * k - 1) ** 2) / (8.0 * k * x)
        if abs(term) > smallest:
            break  # divergent tail reached
        smallest = abs(term)
        total += term
        if smallest < 1e-12:
            break
    if smallest > 1e-10:
        return None
    if x > 705.0:
        raise Overflow(f"I_{nu}({x}) exceeds the floating range")
    return math.exp(x) / math.sqrt(2.0 * math.pi * x) * total


def bessel_i(nu: float, x: float) -> float:
    """Modified Bessel function I_nu(x) for nu in [0, 50], x in [0, 700].

    Power series (cancellation-free) for x <= 30; above that the standard
    large-argument expansion, falling back to the series when the expansion
    cannot deliver ~1e-10 relative accuracy (large nu at moderate x).
    """
    if nu < 0.0 or nu > 50.0:
        raise DomainError(f"order {nu} outside [0, 50]")
    if x < 0.0 or x > 700.0:
        raise DomainError(f"argument {x} outside [0, 700]")
    if x <= _SERIES_SWITCH:
        return _bessel_i_series(nu, x)
    val = _bessel_i_asymptotic(nu, x)
    if val is None:
        val = _bessel_i_series(nu, x)
    return val


# Lanczos approximation, g = 607/128, 15 coefficients (double accuracy).
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)


def _gamma_complex(z: complex) -> complex:
    """Gamma(z) for Re z > 0 via Lanczos."""
    zm1 = z - 1.0
    acc = _LANCZOS_C[0]
    for i, c in enumerate(_LANCZOS_C[1:], start=1):
        acc += c / (zm1 + i)
    t = zm1 + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * (t ** (zm1 + 0.5)) * cmath.exp(-t) * acc


def gamma_imag(y: float) -> GammaValue:
    """Gamma evaluated at i*y for y in [1e-8, 50].

    Computed as Gamma(1+iy)/(iy) with a Lanczos core.  The returned modulus
    obeys |Gamma(iy)|^2 * y * sinh(pi y) / pi = 1 (reflection identity); the
    argument is the principal value, continuous in y between its +-pi wraps.
    """
    if not (1e-8 <= y <= 50.0):
        raise DomainError(f"y = {y} outside [1e-8, 50]")
    g = _gamma_complex(1.0 + 1j * y) / (1j * y)
    return GammaValue(modulus=abs(g), argument=cmath.phase(g))
