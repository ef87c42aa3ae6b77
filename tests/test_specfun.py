"""Modified Bessel I and Gamma on the imaginary axis."""

import math
import sys

import mpmath as mp
import pytest

from mbamp.errors import DomainError
from mbamp.specfun import bessel_i, gamma_imag, sech

# power-series oracle value, summed to machine precision
I0_AT_1 = 1.2660658777520084


def test_bessel_at_origin():
    assert bessel_i(0.0, 0.0) == 1.0
    assert bessel_i(1.0, 0.0) == 0.0
    assert bessel_i(2.5, 0.0) == 0.0


def test_bessel_half_order_closed_form():
    # I_{1/2}(x) = sqrt(2/(pi x)) sinh x
    for x in (0.3, 1.0, 5.0, 40.0):
        exact = math.sqrt(2.0 / (math.pi * x)) * math.sinh(x)
        assert bessel_i(0.5, x) == pytest.approx(exact, rel=1e-12)


def test_bessel_i0_series_oracle():
    assert bessel_i(0.0, 1.0) == pytest.approx(I0_AT_1, rel=1e-14)


def test_bessel_recurrence():
    # I_{nu-1}(x) - I_{nu+1}(x) = (2 nu / x) I_nu(x)
    for nu in range(1, 11):
        for x in (0.5, 2.0, 7.5, 20.0):
            lhs = bessel_i(nu - 1.0, x) - bessel_i(nu + 1.0, x)
            rhs = 2.0 * nu / x * bessel_i(float(nu), x)
            assert abs(lhs - rhs) <= 1e-10 * max(abs(rhs), 1.0)


def test_bessel_large_argument_form():
    for x in (50.0, 120.0, 400.0, 700.0):
        for nu in (0.0, 1.0, 3.0):
            scaled = bessel_i(nu, x) * math.sqrt(2 * math.pi * x) * math.exp(-x)
            assert abs(scaled - 1.0) <= 5.0 / x


def test_bessel_branches_agree_at_switch():
    # the series and mpmath on either side of x = 30, where a large-argument
    # branch once took over
    for nu in (0.0, 1.0, 2.0, 5.5):
        for x in (29.5, 30.0, 30.5):
            ref = float(mp.besseli(nu, x))
            assert abs(bessel_i(nu, x) - ref) / ref < 1e-10


@pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 2.0, 5.5, 10.0, 25.0, 50.0])
def test_bessel_series_matches_mpmath_on_the_whole_domain(nu):
    for x in (0.1, 5.0, 30.0, 120.0, 400.0, 700.0):
        ref = float(mp.besseli(nu, x))
        assert bessel_i(nu, x) == pytest.approx(ref, rel=1e-12)


def test_sech_is_overflow_free():
    for theta in (0.0, 0.3, -2.0, 20.0):
        assert sech(theta) == pytest.approx(1.0 / math.cosh(theta), rel=1e-15)
    assert sech(800.0) == sech(-800.0) == 0.0


def test_bessel_asymptotic_fallback_large_order():
    # large order at moderate argument: expansion cannot converge, series must
    got = bessel_i(50.0, 35.0)
    ref = float(mp.besseli(50, 35))
    assert got == pytest.approx(ref, rel=1e-9)


def test_bessel_domain_errors():
    with pytest.raises(DomainError):
        bessel_i(-1.0, 1.0)
    with pytest.raises(DomainError):
        bessel_i(0.0, 701.0)
    with pytest.raises(DomainError):
        bessel_i(51.0, 1.0)


def test_gamma_small_y_argument_approaches_minus_half_pi():
    g = gamma_imag(1e-8)
    assert g.argument == pytest.approx(-math.pi / 2, abs=1e-6)


@pytest.mark.parametrize("y", [1e-300, 1e-12, 1e-9])
def test_gamma_near_the_pole_vs_mpmath(y):
    # Gamma(1+iy)/(iy) keeps its precision as y -> 0, where the pole term
    # -i/y dominates: the argument matches mpmath to the last bit
    with mp.workdps(40):
        want = mp.gamma(mp.mpc(0, y))
        g = gamma_imag(y)
        assert g.argument == float(mp.arg(want))
        assert g.modulus == pytest.approx(float(abs(want)), rel=1e-15)


def test_gamma_modulus_reflection_closed_form():
    g = gamma_imag(1.0)
    assert g.modulus == pytest.approx(math.sqrt(math.pi / math.sinh(math.pi)),
                                      rel=1e-12)


def test_gamma_reflection_identity():
    for y in (0.1, 0.5, 1.0, 2.0, 5.0):
        g = gamma_imag(y)
        assert abs(g.modulus ** 2 * y * math.sinh(math.pi * y) / math.pi - 1.0) <= 1e-10


def test_gamma_argument_vs_integral_representation_oracle():
    # Binet's second formula: ln Gamma(z) = (z-1/2) ln z - z + ln(2 pi)/2
    #   + 2 * int_0^inf atan(t/z)/(e^{2 pi t}-1) dt, evaluated at z = 1+iy,
    # then Gamma(iy) = Gamma(1+iy)/(iy).
    mp.mp.dps = 30
    for y in (0.5, 1.0, 2.0):
        z = 1 + 1j * mp.mpf(y)
        integral = mp.quad(lambda t: mp.atan(t / z) / (mp.e ** (2 * mp.pi * t) - 1),
                           [0, mp.inf])
        lg = (z - mp.mpf(1) / 2) * mp.log(z) - z + mp.log(2 * mp.pi) / 2 + 2 * integral
        oracle = mp.e ** lg / (1j * mp.mpf(y))
        g = gamma_imag(y)
        assert g.argument == pytest.approx(float(mp.arg(oracle)), abs=1e-12)
        assert g.modulus == pytest.approx(float(abs(oracle)), rel=1e-12)


def test_gamma_argument_continuity():
    # principal value; continuous along the axis away from +-pi wraps
    ys = [0.1 + 0.01 * i for i in range(120)]
    args = [gamma_imag(y).argument for y in ys]
    steps = [abs(b - a) for a, b in zip(args[:-1], args[1:])]
    assert max(steps) < 0.02


def test_gamma_domain_errors():
    with pytest.raises(DomainError):
        gamma_imag(0.0)
    with pytest.raises(DomainError):
        gamma_imag(51.0)


@pytest.mark.parametrize("y", [5e-324, 1e-310, 1.0 / sys.float_info.max,
                               math.nextafter(sys.float_info.min, 0.0)])
def test_gamma_modulus_overflow_is_a_domain_error(y):
    # |Gamma(iy)| ~ 1/y passes the largest float below y = 1/max; every
    # subnormal y is refused
    with pytest.raises(DomainError, match="outside"):
        gamma_imag(y)


def test_gamma_at_the_smallest_y_is_finite():
    y = sys.float_info.min
    g = gamma_imag(y)
    assert math.isfinite(g.modulus)
    assert g.modulus * y == pytest.approx(1.0, rel=1e-15)
