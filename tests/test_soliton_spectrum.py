"""Zeros of b in the upper half-plane, residues and velocities."""

import math

import numpy as np
import pytest

from mbamp.errors import AmbiguousMatch, AssumptionViolated
from mbamp.numerics import Tolerances, count_zeros_rect
from mbamp.pulse import BoxPulse, SmoothBumpPulse
from mbamp.scattering import GROWTH_GUARD, ScatteringData
from mbamp.soliton_spectrum import (SolitonSpectrum, default_search_box,
                                    find_zeros, velocity_match, velocity_of)

K1_BOX52 = 1.9448904595703225  # sqrt(A^2/4 - pi^2/T^2) for A=5, T=2


@pytest.fixture(scope="module")
def spec52():
    sd = ScatteringData(BoxPulse(5.0, 2.0))
    return sd, find_zeros(sd, (-3.0, 3.0, 1e-4, 3.0))


def test_box52_single_zero(spec52):
    _, spec = spec52
    assert len(spec) == 1
    assert abs(spec.zeros[0] - 1j * K1_BOX52) < 1e-6


def test_box52_zero_matches_the_closed_form(spec52):
    # Newton's last step from |b| <= root_tol lands on the zero, not
    # root_tol / |b'| (about 2e-10) away from it
    _, spec = spec52
    assert abs(spec.zeros[0] - 1j * K1_BOX52) < 1e-12


def test_newton_makes_one_solve_per_step(monkeypatch):
    sd = ScatteringData(BoxPulse(5.0, 2.0))
    solves = {"ab_single": 0, "variational": 0}
    ab_many, derivs = sd.ab_many, sd.ab_and_derivs_many

    def counted_ab(ks):
        solves["ab_single"] += int(np.size(ks) == 1)
        return ab_many(ks)

    def counted_derivs(ks):
        solves["variational"] += 1
        return derivs(ks)

    monkeypatch.setattr(sd, "ab_many", counted_ab)
    monkeypatch.setattr(sd, "ab_and_derivs_many", counted_derivs)
    spec = find_zeros(sd, (-3.0, 3.0, 1e-4, 3.0))
    assert abs(spec.zeros[0] - 1j * K1_BOX52) < 1e-6
    # b and b' of each of the 5 Newton iterates from one solve; the last
    # one's a and b' also serve the validation; no single-k solve of b alone
    assert solves == {"ab_single": 0, "variational": 5}


@pytest.fixture
def counted_solves(monkeypatch):
    """Counts the calls of ScatteringData.ab_many, one Jost solve each."""
    calls = []
    ab_many = ScatteringData.ab_many

    def counted(self, ks):
        calls.append(np.size(ks))
        return ab_many(self, ks)

    monkeypatch.setattr(ScatteringData, "ab_many", counted)
    return calls


def test_bump_default_box_search_makes_two_solves(counted_solves):
    sd = ScatteringData(SmoothBumpPulse(1.0, 2.0, 1.0))
    spec = find_zeros(sd)
    assert len(spec) == 0
    # the winding count's initial samples and one prefetch; the box needs
    # no solve and the real-line cache is never built
    assert len(counted_solves) == 2
    assert sd._cache is None


CAP = 4.0 * 1.6 * 1.6


@pytest.mark.parametrize("pulse", [BoxPulse(5.0, 2.0),
                                   SmoothBumpPulse(1.0, 2.0, 1.0)])
def test_default_search_box_is_the_cap_without_a_solve(counted_solves, pulse):
    sd = ScatteringData(pulse)
    assert default_search_box(sd) == (-CAP, CAP, 1e-4, CAP)
    assert counted_solves == []
    assert sd._cache is None


@pytest.mark.parametrize("T", [60.0, 64.972898])
def test_long_support_box_is_clipped_to_the_growth_guard(counted_solves, T):
    # (600 / T) * T rounds above 600 for T = 64.972898
    assert (GROWTH_GUARD / 64.972898) * 64.972898 > GROWTH_GUARD
    sd = ScatteringData(SmoothBumpPulse(0.01, 2.0, T))
    re_lo, re_hi, im_lo, im_hi = default_search_box(sd)
    assert re_hi == im_hi == -re_lo and im_lo == 1e-4
    assert im_hi * T <= GROWTH_GUARD
    assert im_hi == pytest.approx(GROWTH_GUARD / T, rel=1e-15)
    assert counted_solves == []


def test_nudged_cell_stays_within_the_growth_guard():
    # a boundary zero on this half of the default box nudges the cell
    # outward; its top edge, at the guard already, must not move up
    from mbamp.soliton_spectrum import _cell_count
    sd = ScatteringData(SmoothBumpPulse(0.01, 2.0, 60.0))
    count, cell = _cell_count(sd, (-10.0, 0.0, 1e-4, 10.0))
    assert count >= 0
    assert cell[0] < -10.0 and cell[3] * 60.0 <= GROWTH_GUARD


def test_negative_winding_count_is_reported_as_undersampling():
    # b is entire, so a count of -1 on the long pulse means the contour's
    # first samples are too coarse for b's 1/T scale
    sd = ScatteringData(SmoothBumpPulse(0.01, 2.0, 60.0))
    with pytest.raises(AssumptionViolated,
                       match=r"winding count -1 .* undersampled"):
        find_zeros(sd, (-4.0, 4.0, 1e-4, 4.0))


@pytest.mark.xfail(strict=True, reason=(
    "the 4 initial samples per edge sit 5.12 apart on the bottom edge and "
    "miss its 2 pi wraps, so the count reads 0"))
def test_count_finds_the_four_zeros_of_the_bump_default_box():
    # The bump's default box holds 4 zeros of b, at +-5.2357850+0.4292924i
    # and +-8.9113497+0.2466207i; a dense edge winding gives 4 (next test).
    sd = ScatteringData(SmoothBumpPulse(1.0, 2.0, 1.0))
    box = default_search_box(sd)
    assert count_zeros_rect(lambda k: sd.ab_many(k)[1], box) == 4


def test_dense_edge_winding_of_the_bump_default_box_is_four():
    sd = ScatteringData(SmoothBumpPulse(1.0, 2.0, 1.0))
    re_lo, re_hi, im_lo, im_hi = default_search_box(sd)
    corners = [complex(re_lo, im_lo), complex(re_hi, im_lo),
               complex(re_hi, im_hi), complex(re_lo, im_hi),
               complex(re_lo, im_lo)]
    s = np.linspace(0.0, 1.0, 500, endpoint=False)
    z = np.concatenate([c0 + s * (c1 - c0)
                        for c0, c1 in zip(corners[:-1], corners[1:])]
                       + [corners[:1]])
    _, b = sd.ab_many(z)
    dphi = np.angle(b[1:] / b[:-1])
    assert np.max(np.abs(dphi)) < 0.25 * math.pi   # the phase is resolved
    per_edge = dphi.reshape(4, -1).sum(axis=1) / (2.0 * math.pi)
    # bottom, right, top, left
    assert per_edge == pytest.approx([4.855, -0.179, -0.498, -0.179], abs=1e-3)
    assert np.sum(per_edge) == pytest.approx(4.0, abs=1e-6)


def test_box52_velocity(spec52):
    _, spec = spec52
    v = 4 * K1_BOX52 ** 2 / (1 + 4 * K1_BOX52 ** 2)
    assert spec.velocities[0] == pytest.approx(v, abs=1e-8)
    assert 0.0 < spec.velocities[0] < 1.0


def test_box52_residue_closed_form(spec52):
    # a(k1) = -e^{-k1 T};  bdot(k1) = -(A T^3 k1 / (2 pi^2)) i e^{-k1 T}
    _, spec = spec52
    a_cf = -math.exp(-K1_BOX52 * 2.0)
    bdot_cf = -(5.0 * 8.0 * K1_BOX52 / (2.0 * math.pi ** 2)) * 1j \
        * math.exp(-K1_BOX52 * 2.0)
    gamma_cf = 1.0 / (a_cf * bdot_cf)
    assert abs(spec.residues[0] - gamma_cf) < 1e-6 * abs(gamma_cf)
    assert abs(spec.residues[0]) > 0


def test_box72_two_imaginary_zeros():
    sd = ScatteringData(BoxPulse(7.0, 2.0))
    spec = find_zeros(sd, (-4.0, 4.0, 1e-4, 4.0))
    assert len(spec) == 2
    expect = sorted(math.sqrt(12.25 - (n * math.pi / 2.0) ** 2) for n in (1, 2))
    got = sorted(k.imag for k in spec.zeros)
    for g, e in zip(got, expect):
        assert abs(g - e) < 1e-6
    assert all(abs(k.real) < 1e-6 for k in spec.zeros)
    # sorted by modulus, moduli pairwise distinct
    assert abs(spec.zeros[0]) < abs(spec.zeros[1])


def test_box11_empty_spectrum():
    # A T = 1 < 2 pi: no zeros off the real line
    sd = ScatteringData(BoxPulse(1.0, 1.0))
    spec = find_zeros(sd, (-3.0, 3.0, 1e-4, 3.0))
    assert len(spec) == 0


def test_count_matches_refined_on_subrectangles(spec52):
    sd, spec = spec52
    rng = np.random.default_rng(3)
    b_of = lambda k: sd.ab_many(k)[1]
    for _ in range(8):
        re_lo = rng.uniform(-3, 2.0)
        re_hi = re_lo + rng.uniform(0.5, 1.5)
        im_lo = rng.uniform(1e-3, 1.2)
        im_hi = im_lo + rng.uniform(0.5, 1.8)
        count = count_zeros_rect(b_of, (re_lo, re_hi, im_lo, im_hi), 1e-10)
        inside = sum(1 for k in spec.zeros
                     if re_lo < k.real < re_hi and im_lo < k.imag < im_hi)
        assert count == inside


def test_spectrum_stable_under_tolerance_halving():
    p = BoxPulse(5.0, 2.0)
    z1 = find_zeros(ScatteringData(p), (-3, 3, 1e-4, 3)).zeros[0]
    z2 = find_zeros(ScatteringData(p, Tolerances().scaled(0.5)),
                    (-3, 3, 1e-4, 3)).zeros[0]
    assert abs(z1 - z2) < 1e-8


def test_default_box_contains_zero(spec52):
    sd, spec = spec52
    box = default_search_box(sd)
    k = spec.zeros[0]
    assert box[0] < k.real < box[1] and box[2] < k.imag < box[3]


def test_velocity_match_hit_and_miss(spec52):
    _, spec = spec52
    v1 = spec.velocities[0]
    assert velocity_match(spec, 100.0, v1 * 100.0 + 0.5, 0.01) == 0
    assert velocity_match(spec, 100.0, 50.0, 0.01) is None


def test_velocity_match_empty():
    empty = SolitonSpectrum((), (), ())
    assert velocity_match(empty, 10.0, 5.0) is None
    assert empty.default_match_eps() == 0.02


def test_velocity_match_ambiguous():
    ks = (1.0j, 1.05j)
    spec = SolitonSpectrum(ks, (1.0, 1.0), tuple(velocity_of(k) for k in ks))
    mid = 0.5 * (spec.velocities[0] + spec.velocities[1])
    with pytest.raises(AmbiguousMatch):
        velocity_match(spec, 100.0, mid * 100.0, 0.5)


def test_default_eps_half_min_gap():
    ks = (1.0j, 2.0j)
    spec = SolitonSpectrum(ks, (1.0, 1.0), tuple(velocity_of(k) for k in ks))
    gap = abs(spec.velocities[1] - spec.velocities[0])
    assert spec.default_match_eps() == pytest.approx(gap / 2)


def test_assumption_checks_reject_bad_configurations():
    from mbamp.soliton_spectrum import _validate
    with pytest.raises(AssumptionViolated):
        _validate([0.5 + 1e-9j], [1.0])               # touches the real line
    with pytest.raises(AssumptionViolated):
        _validate([1.0j], [1e-12])                    # not simple
    with pytest.raises(AssumptionViolated):
        _validate([1.0j, (1.0 + 1e-8) * 1.0j], [1.0, 1.0])  # coinciding moduli
