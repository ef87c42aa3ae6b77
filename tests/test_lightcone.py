"""Near-cone region classification and closed-form field evaluation."""

import math

import numpy as np
import pytest

from mbamp.errors import NoRoot, WrongRegion
from mbamp.lightcone_asym import (BandParams, classify, eval_lightcone,
                                  peak_seed, predict_peaks, pulse_phase,
                                  solve_peak_y)
from mbamp.pulse import PowerStartPulse
from mbamp.scattering import ScatteringData, TailFit
from mbamp.specfun import bessel_i


@pytest.fixture(scope="module")
def params_m2():
    return BandParams(tail_order=2.0)


class _StubScattering:
    """Minimal stand-in exposing a prescribed reflection coefficient and a
    prescribed tail fit."""

    def __init__(self, r_value, fit=None):
        self.r_value = complex(r_value)
        self.fit = fit

    def reflection_uhp(self, k):
        return self.r_value

    def tail_fit(self):
        return self.fit


def test_causal_classification(params_m2):
    assert classify(3.0, 4.0, params_m2).variant == "causal"
    assert classify(4.0, 4.0, params_m2).variant == "causal"


def test_part1_band(params_m2):
    tag = classify(100.005, 100.0, params_m2)
    assert tag.variant == "part1"
    assert tag.k0 == pytest.approx(0.5 * math.sqrt(100.0 / 0.005))


def test_part4_band_example(params_m2):
    # substitute the band edge with n = 1 directly
    m = 2.0
    x = math.exp(10.0)
    lnx, llx = 10.0, math.log(10.0)
    t = x + (m * lnx + (1.0 - m) * llx) ** 2 / (4 * x) * (1 + 1e-6)
    tag = classify(t, x, params_m2)
    assert tag.variant == "part4"
    assert tag.n == 1


def test_partition_is_total_and_unique(params_m2):
    rng = np.random.default_rng(11)
    valid = {"causal", "part1", "part2", "part3", "part4", "tail",
             "unsupported"}
    for _ in range(400):
        x = float(10 ** rng.uniform(-1, 6))
        t = float(x * 10 ** rng.uniform(-1, 1.5))
        if t <= 0 or x <= 0:
            continue
        tag = classify(t, x, params_m2)
        assert tag.variant in valid
        if t <= x:
            assert tag.variant == "causal"


def test_band_ordering_contiguous(params_m2):
    # sweep tau upward at fixed large x: causal -> part1 -> part2 -> part3
    # -> part4 -> (cap) without ever stepping backward
    x = math.exp(12.0)
    order = {"causal": 0, "part1": 1, "part2": 2, "part3": 3, "part4": 4,
             "unsupported": 5, "tail": 6}
    seen = []
    for tau in np.geomspace(1e-14, x * 2.0, 4000):
        seen.append(order[classify(x + tau, x, params_m2).variant])
    assert all(b >= a for a, b in zip(seen[:-1], seen[1:]))


def test_eval_zero_reflection_limit():
    tag = classify(100.005, 100.0, BandParams(tail_order=2.0))
    out = eval_lightcone(tag.variant, tag.n, 100.005 - 100.0, 100.0, 0j, 2.0)
    assert out.fields.E == 0j
    assert out.fields.N == 1.0
    assert out.fields.rho == 0j


def test_eval_part1_formula_values():
    r = 0.01 + 0.02j
    t, x = 100.005, 100.0
    tag = classify(t, x, BandParams(tail_order=2.0))
    out = eval_lightcone(tag.variant, tag.n, t - x, x, r, 2.0)
    k0 = 0.5 * math.sqrt(x / (t - x))
    xi = 2.0 * math.sqrt(x * (t - x))
    assert out.fields.E == pytest.approx(4 * k0 * r * bessel_i(1.0, xi))
    assert out.fields.N == pytest.approx(1 - 2 * abs(r) ** 2 * bessel_i(2.0, xi) ** 2)
    assert out.fields.rho == pytest.approx(2 * r * bessel_i(2.0, xi))
    assert out.error_scale == pytest.approx(k0 ** -2.0)


def test_eval_pulse_center_values():
    # at the pulse center the phase vanishes: N = -1, |E| = 2 sqrt(x/tau),
    # rho = 0
    x = math.exp(12.0)
    m = 2.0
    # choose tau so that the n = 0 pulse phase vanishes, given |r| = 0.05
    lo, hi = 1.0, 60.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if pulse_phase(0, 2 * mid, 0.05) < 0:
            lo = mid
        else:
            hi = mid
    y0 = 0.5 * (lo + hi)
    tau = y0 * y0 / x
    out = eval_lightcone("part4", 0, tau, x, 0.05, m)
    assert out.fields.N == pytest.approx(-1.0, abs=1e-10)
    assert abs(out.fields.E) == pytest.approx(2 * math.sqrt(x / tau), rel=1e-10)
    assert abs(out.fields.rho) < 1e-9


def test_eval_wrong_region():
    with pytest.raises(WrongRegion):
        eval_lightcone("causal", None, 3.0 - 4.0, 4.0, 0.1, 2.0)
    with pytest.raises(WrongRegion):
        eval_lightcone("part1", None, 0.0, 4.0, 0.1, 2.0)
    with pytest.raises(WrongRegion):
        eval_lightcone("tail", None, 1.0, 4.0, 0.1, 2.0)


def test_part4_leading_order_bloch_identity():
    # (1 - 2 sech^2)^2 + (2 tanh sech)^2 = 1
    x = math.exp(11.0)
    params = BandParams(tail_order=2.0)
    for tau_scale in (0.9, 1.0, 1.1):
        xi = 2.0 * math.log(x) * tau_scale
        tau = xi * xi / (4 * x)
        tag = classify(x + tau, x, params)
        if tag.variant != "part4":
            continue
        out = eval_lightcone(tag.variant, tag.n, tau, x, 0.03, 2.0)
        assert out.fields.N ** 2 + abs(out.fields.rho) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_part2_part3_consistent_via_bessel_asymptotics():
    # on their shared edge the formulas differ by the Bessel correction,
    # within the stated error scales
    r = 1e-7   # magnitude irrelevant, scales relative
    m = 2.0
    params = BandParams(tail_order=m)
    for lx in (14.0, 20.0, 26.0):
        x = math.exp(lx)
        llx = math.log(lx)
        xi = m * lx - params.K * llx
        tau = xi * xi / (4 * x)
        out2 = eval_lightcone("part2", None, tau, x, r, m)
        out3 = eval_lightcone("part3", None, tau, x, r, m)
        p1 = m * lx - m * math.log(xi / 2) - xi
        scale2 = math.exp(-p1)
        scale3 = abs(out3.fields.E) * (1.0 / lx + out3.error_scale)
        assert abs(out2.fields.E - out3.fields.E) <= 3 * max(scale2, scale3)


def _force(tag, variant):
    from mbamp.lightcone_asym import RegionTag
    return RegionTag(variant, n=tag.n, k0=tag.k0, xi=tag.xi, band=tag.band)


def test_part3_equals_part4_n0_in_overlap():
    r = 2e-6
    m = 2.0
    x = math.exp(20.0)
    lnx, llx = 20.0, math.log(20.0)
    # midpoint of the overlap band [m lnx - m llx, m lnx - (m - 1/4) llx]
    xi = m * lnx - (m - 0.125) * llx
    tau = xi * xi / (4 * x)
    out3 = eval_lightcone("part3", None, tau, x, r, m)
    out4 = eval_lightcone("part4", 0, tau, x, r, m)
    rel = abs(out3.fields.E - out4.fields.E) / abs(out3.fields.E)
    assert rel <= 5.0 / math.sqrt(lnx)


@pytest.fixture(scope="module")
def sd_power():
    return ScatteringData(PowerStartPulse(1.0, 2.0, 1.0))


def test_predict_peaks_zero_phase(sd_power):
    # x small enough that t-representation noise stays under the 1e-10 bar
    x = math.exp(7.0)
    t_star = predict_peaks(x, 0, sd_power)
    k0 = 0.5 * math.sqrt(x / (t_star - x))
    xi = 2.0 * math.sqrt(x * (t_star - x))
    r_abs = abs(sd_power.reflection_uhp(1j * k0))
    assert abs(pulse_phase(0, xi, r_abs)) < 1e-10


def test_predict_peaks_ordered(sd_power):
    x = math.exp(10.0)
    stars = [predict_peaks(x, n, sd_power) for n in range(4)]
    assert all(b > a for a, b in zip(stars[:-1], stars[1:]))


def test_peak_seed_accuracy_trend(sd_power):
    # |seed - root| = O(ln^3 z / z^3) in the y variable
    fit = sd_power.tail_fit()
    errs = []
    scaled = []
    for lx in (10.0, 16.0, 24.0):
        x = math.exp(lx)
        y_root = solve_peak_y(x, 1, sd_power)
        y_seed = peak_seed(x, 1, fit.order, abs(fit.constant))
        z = 0.5 * fit.order * lx
        errs.append(abs(y_seed - y_root))
        scaled.append(abs(y_seed - y_root) / (math.log(z) ** 3 / z ** 3))
    assert errs[0] > errs[-1]          # decreasing with distance
    assert scaled[-1] < 50 * max(scaled[0], 1.0)   # no blow-up of the scaled error


def test_pulse_phase_increasing_in_t(sd_power):
    # Theta_n strictly increases with t at fixed x
    x = math.exp(9.0)
    fit = sd_power.tail_fit()
    for n in (0, 2):
        prev = None
        for tau in np.geomspace(1e-4, 1e-1, 40):
            y = math.sqrt(x * tau)
            k0 = x / (2 * y)
            th = pulse_phase(n, 2 * y, abs(sd_power.reflection_uhp(1j * k0)))
            if prev is not None:
                assert th > prev
            prev = th


def test_peak_seed_on_an_empty_band_raises_no_root():
    # at x = 1 the log-inversion variable is z = 0.29 < 1: no n = 0 pulse yet
    with pytest.raises(NoRoot, match="band 0 is empty"):
        peak_seed(1.0, 0, 2.0, 1.0)


def test_solve_peak_y_leaving_its_band_raises_no_root():
    # |r| = 1e-300 puts the pulse phase near -690 at the seed, so the first
    # Newton step is far longer than half of y
    sd = _StubScattering(1e-300, TailFit(order=2.0, constant=1.0, residual=0.0))
    with pytest.raises(NoRoot, match="left the band"):
        solve_peak_y(math.exp(10.0), 0, sd)
