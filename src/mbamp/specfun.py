"""Modified Bessel function of the first kind, sech and the gamma function on
the imaginary axis, which is all the closed-form asymptotics require."""

from __future__ import annotations

import cmath
import math
import sys

from .errors import DomainError


def bessel_i(nu: float, x: float) -> float:
    """Modified Bessel function I_nu(x) for nu in [0, 50], x in [0, 700].

    The ascending series (DLMF 10.25.2) on the whole domain: its terms are
    all positive, so it sums without cancellation, and I_nu(x) <= I_0(700)
    keeps every term in the floating range.
    """
    if nu < 0.0 or nu > 50.0:
        raise DomainError(f"order {nu} outside [0, 50]")
    if x < 0.0 or x > 700.0:
        raise DomainError(f"argument {x} outside [0, 700]")
    if x == 0.0:
        return 1.0 if nu == 0.0 else 0.0
    half = 0.5 * x
    # t_0 = (x/2)^nu / Gamma(nu+1), in log space
    term = math.exp(nu * math.log(half) - math.lgamma(nu + 1.0))
    total = term
    j = 0
    while term > total * 1e-17:
        j += 1
        term *= (half * half) / (j * (j + nu))
        total += term
    return total


def sech(theta: float) -> float:
    """1/cosh(theta), in a form that cannot overflow."""
    e = math.exp(-abs(theta))
    return 2.0 * e / (1.0 + e * e)


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


_Y_MIN = sys.float_info.min   # the smallest normal float; |Gamma(iy)| ~ 1/y


def _gamma_complex(z: complex) -> complex:
    """Gamma(z) for Re z > 0 via Lanczos."""
    zm1 = z - 1.0
    acc = _LANCZOS_C[0]
    for i, c in enumerate(_LANCZOS_C[1:], start=1):
        acc += c / (zm1 + i)
    t = zm1 + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * (t ** (zm1 + 0.5)) * cmath.exp(-t) * acc


def gamma_imag(y: float) -> complex:
    """Gamma evaluated at i*y for y in [m, 50], m the smallest normal float.

    Computed as Gamma(1+iy)/(iy) with a Lanczos core.  Its modulus obeys
    |Gamma(iy)|^2 * y * sinh(pi y) / pi = 1 (reflection identity); its
    principal argument is continuous in y between its +-pi wraps.
    The modulus ~ 1/y is about 2^1022 at m = 2^-1022 (about 2.2e-308), and
    it overflows below 1/M, M the largest float, about 5.6e-309; the
    subnormal y are refused.
    """
    if not (_Y_MIN <= y <= 50.0):
        raise DomainError(f"y = {y} outside [{_Y_MIN}, 50]")
    return _gamma_complex(1.0 + 1j * y) / (1j * y)
