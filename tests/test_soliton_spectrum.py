"""Zeros of b in the upper half-plane, residues and velocities."""

import math

import numpy as np
import pytest

from mbamp.errors import AssumptionViolated, BoundaryZero, DomainError
from mbamp.numerics import Tolerances, complex_newton, count_zeros_rect
from mbamp.pulse import BoxPulse, PowerStartPulse, SmoothBumpPulse
from mbamp.scattering import GROWTH_GUARD, ScatteringData
from mbamp.soliton_spectrum import (SolitonSpectrum, default_search_box,
                                    find_zeros, velocity_match, velocity_of)
from test_scattering import _ChirpedPulse

K1_BOX52 = 1.9448904595703225  # sqrt(A^2/4 - pi^2/T^2) for A=5, T=2


@pytest.fixture(scope="module")
def spec52():
    sd = ScatteringData(BoxPulse(5.0, 2.0))
    return sd, find_zeros(sd, (-3.0, 3.0, 1e-4, 3.0))


def _record_solves(monkeypatch, keep):
    """Patch ScatteringData._jost to append ``keep(points, derivative
    rows)`` for each Jost solve it makes, where that is not None."""
    solves, jost = [], ScatteringData._jost

    def recorded(self, ks, nd=0, steer=None):
        entry = keep(np.size(ks), nd)
        if entry is not None:
            solves.append(entry)
        return jost(self, ks, nd, steer)

    monkeypatch.setattr(ScatteringData, "_jost", recorded)
    return solves



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
    solves = _record_solves(monkeypatch, lambda points, nd: (points, nd))
    spec = find_zeros(sd, (-3.0, 3.0, 1e-4, 3.0))
    assert abs(spec.zeros[0] - 1j * K1_BOX52) < 1e-6
    # Newton starts at the pencil's eigenvalue, where |b| <= root_tol
    # already: one solve, whose derivative rows are the seed's, gives b and
    # b' for the last step and a and b' for the validation, and its other
    # points are the count's first samples; no single-k solve of b alone
    assert len(solves) == 1
    points, nd = solves[0]
    assert nd == 1 and points > 1


def test_newton_decides_which_eigenvalues_are_zeros(spec52, monkeypatch):
    # Three eigenvalues in the box that are not new zeros: Newton from
    # 2.9+0.01i strays more than 1/(2T) from the box, from 2+0.001i it
    # converges to the real zero 1.90 below the box, and the near-duplicate
    # of the zero converges to it.  One pencil solve, and the spectrum is
    # unchanged.
    _, spec = spec52
    pencil, solves = ScatteringData.pencil_zeros, []

    def padded(self, n, shift):
        solves.append(n)
        return np.append(pencil(self, n, shift),
                         [2.9 + 0.01j, 2.0 + 0.001j, 1e-8 + 1.9449j])

    monkeypatch.setattr(ScatteringData, "pencil_zeros", padded)
    got = find_zeros(ScatteringData(BoxPulse(5.0, 2.0)), (-3.0, 3.0, 1e-4, 3.0))
    assert len(solves) == 1
    assert len(got) == 1
    assert abs(got.zeros[0] - 1j * K1_BOX52) < 1e-12
    assert got.residues == spec.residues


def _variational_solves(monkeypatch, extra):
    """The spectrum of box 5/2 and its count of variational solves, the
    Jost solves with derivative rows, with ``extra`` eigenvalues appended
    to the pencil's."""
    pencil = ScatteringData.pencil_zeros
    solves = _record_solves(monkeypatch, lambda points, nd: nd or None)
    monkeypatch.setattr(ScatteringData, "pencil_zeros",
                        lambda self, n, shift: np.append(pencil(self, n, shift),
                                                         extra))
    spec = find_zeros(ScatteringData(BoxPulse(5.0, 2.0)), (-3.0, 3.0, 1e-4, 3.0))
    return spec, len(solves)


def test_newton_gives_up_once_it_leaves_the_enlarged_box(spec52, monkeypatch):
    # Newton from 2.5+2.5i wanders to the real zero -12.3152 in 59
    # variational solves when nothing stops it; an iterate more than
    # 1/(2T) from the box ends it at once
    _, spec = spec52
    _, plain = _variational_solves(monkeypatch, [])
    got, padded = _variational_solves(monkeypatch, [2.5 + 2.5j])
    assert padded - plain <= 2
    assert got.zeros == spec.zeros and got.residues == spec.residues


@pytest.fixture
def variational_solves(monkeypatch):
    """The number of derivative rows of each Jost solve that has any."""
    return _record_solves(monkeypatch, lambda points, nd: nd or None)


def test_chirped_bump_zeros_share_each_newton_solve(variational_solves):
    # The chirp moves the bump's zeros off the imaginary axis: five in the
    # box, whose seeds share each variational solve (one seed at a time
    # takes ten).  Batch-mates' steps do not spoil a zero or its residue:
    # each agrees with a lone seed's Newton at tight ODE tolerances.
    pulse = _ChirpedPulse(SmoothBumpPulse(1.0, 2.0, 1.0), 0.7)
    spec = find_zeros(ScatteringData(pulse), (-12.0, 12.0, 1e-4, 12.0))
    assert len(spec) == 5 and len(variational_solves) <= 2
    tight = ScatteringData(pulse, Tolerances(ode_rel=1e-14, ode_abs=1e-16))
    for k, gamma in zip(spec.zeros, spec.residues):
        z, = complex_newton(lambda z: tight.ab_and_derivs_many(z)[1],
                            lambda z: tight.ab_and_derivs_many(z)[3], [k],
                            tight.tol.root_tol)
        a, b, _, bdot = tight.ab_and_derivs_many([z])
        assert abs(k - (z - b[0] / bdot[0])) <= 1e-9 * max(1.0, abs(k))
        assert abs(gamma * a[0] * bdot[0] - 1.0) <= 1e-9


def test_power_start_seeds_take_one_variational_solve(variational_solves):
    # the 20 seeds of the m = 6 family on R = 40 are each within root_tol
    # of a zero, so one solve of all 20 ends Newton; the pairs (k, -conj k)
    # are then rejected
    sd = ScatteringData(PowerStartPulse(1.0, 6.0, 1.0))
    with pytest.raises(AssumptionViolated, match="moduli"):
        find_zeros(sd, (-40.0, 40.0, 1e-4, 40.0))
    assert variational_solves == [20]


def _count_runs(monkeypatch):
    """Record each count's function, its calls of f and its result."""
    from mbamp import soliton_spectrum
    runs = []

    def counted(f, *args, **kwargs):
        run = {"f": f, "calls": 0}

        def g(k):
            run["calls"] += 1
            return f(k)

        run["count"] = count_zeros_rect(g, *args, **kwargs)
        runs.append(run)
        return run["count"]

    monkeypatch.setattr(soliton_spectrum, "count_zeros_rect", counted)
    return runs


def test_certificate_deflates_eigenvalues_just_outside_the_box(spec52,
                                                               monkeypatch):
    # 0.5-1e-3i lies under the bottom edge and 3.1+1i right of the right
    # edge, both within 1/(2T) = 0.25 of the box: the count divides out
    # their phase and still reads 1.  0.5+1e-4i lies on the bottom edge, at
    # one of its first samples: deflating it would make f NaN there, and
    # Newton does not start from it.
    _, spec = spec52
    runs = _count_runs(monkeypatch)
    _, plain = _variational_solves(monkeypatch, [])
    outside = np.array([0.5 - 1e-3j, 3.1 + 1.0j])
    got, padded = _variational_solves(monkeypatch,
                                      np.append(outside, 0.5 + 1e-4j))
    assert [run["count"] for run in runs] == [1, 1]
    assert padded == plain
    assert got.zeros == spec.zeros and got.residues == spec.residues
    k = np.array([-3.0 + 1e-4j, 0.5 + 2.0j, 3.0 + 1.0j, 0.5 + 1e-4j])
    u = np.subtract.outer(k, outside)
    phase = np.prod(np.conj(u) / np.abs(u), axis=1)
    assert runs[1]["f"](k) == pytest.approx(runs[0]["f"](k) * phase,
                                            rel=1e-14)


def test_zero_whose_eigenvalue_lies_just_outside_the_box_is_not_lost(
        monkeypatch):
    # The top edge runs 1.1e-4 above box 5/2's zero, and the pencil's
    # eigenvalue for it is moved 3e-4 past that edge and 0.003 off the
    # axis, 0.05 from the nearest of the first samples 0.25 apart.  Newton
    # does not start from it, and deflated it turns f by 2pi together with
    # the zero, within about 3e-4: the first samples alone read no turn
    # and an empty spectrum.  Its nearest contour point is a sample too,
    # so the count reads 1 and the mismatch raises.
    pencil = ScatteringData.pencil_zeros

    def moved(self, n, shift):
        eigs = pencil(self, n, shift)
        eigs[np.argmin(np.abs(eigs - 1j * K1_BOX52))] = 0.003 + 1.9452j
        return eigs

    monkeypatch.setattr(ScatteringData, "pencil_zeros", moved)
    sd = ScatteringData(BoxPulse(5.0, 2.0))
    with pytest.raises(AssumptionViolated,
                       match="winding count 1 .* finds 0 zeros"):
        find_zeros(sd, (-2.9, 3.0, 1e-4, 1.945))


@pytest.mark.parametrize("pulse, box", [
    (BoxPulse(5.0, 2.0), (-3.0, 3.0, 1e-4, 3.0)),
    (BoxPulse(7.0, 2.0), (-4.0, 4.0, 1e-4, 4.0)),
    (BoxPulse(3.3, 2.0), (-3.0, 3.0, 1e-4, 3.0)),
    (BoxPulse(5.0, 6.0), (-3.0, 3.0, 1e-4, 3.0)),
    (BoxPulse(1.0, 1.0), (-3.0, 3.0, 1e-4, 3.0)),
    (SmoothBumpPulse(1.0, 2.0, 1.0), None)],
    ids=["box52", "box72", "box3.3_2", "box56", "box11", "bump-default"])
def test_deflated_count_needs_one_call_of_f(monkeypatch, pulse, box):
    # the real zeros of a box pulse's b lie 1e-4 under the bottom edge;
    # with their pencil eigenvalues divided out the first samples resolve
    # the phase, where b alone needs 4 calls of f
    sd = ScatteringData(pulse)
    runs = _count_runs(monkeypatch)
    spec = find_zeros(sd, box)
    assert [run["calls"] for run in runs] == [1]
    assert runs[0]["count"] == len(spec) == count_zeros_rect(
        lambda k: sd.ab_many(k)[1], spec.box, sd.tol.root_tol,
        spacing=0.5 / pulse.support)


def test_pencil_past_its_size_limit_raises_before_any_solve(monkeypatch):
    # T = 60 and the corner 11+11i need n = ceil(1.6 T R) = 1494 > 1024
    # nodes: the dense pencil would take seconds and gigabytes
    def unsolved(*args):
        raise AssertionError("solved")

    monkeypatch.setattr(ScatteringData, "pencil_zeros", unsolved)
    monkeypatch.setattr(ScatteringData, "ab_many", unsolved)
    sd = ScatteringData(SmoothBumpPulse(0.01, 2.0, 60.0))
    with pytest.raises(DomainError, match=r"T = 60.* R = 15\.556.* n = 1494"):
        find_zeros(sd, (-11.0, 11.0, 1e-4, 11.0))


def test_zero_of_a_pulse_with_a_power_law_start(monkeypatch):
    # E = 100 sqrt(t) (1 - t)^3 is not smooth at t = 0, so the pencil's
    # eigenvalues converge slowly in n: a second solve at 1.5 n does not
    # reproduce the zero to 1e-6, while Newton from the one solve finds it
    from mbamp import soliton_spectrum
    counts = []

    def counted(*args, **kwargs):
        counts.append(count_zeros_rect(*args, **kwargs))
        return counts[-1]

    monkeypatch.setattr(soliton_spectrum, "count_zeros_rect", counted)
    spec = find_zeros(ScatteringData(PowerStartPulse(100.0, 1.5, 1.0)),
                      (-8.0, 8.0, 1e-4, 8.0))
    assert counts == [1]
    assert len(spec) == 1
    assert abs(spec.zeros[0] - 7.0780167127j) < 1e-8


@pytest.fixture
def counted_solves(monkeypatch):
    """The number of points of each Jost solve."""
    return _record_solves(monkeypatch, lambda points, nd: points)


K_TAIL = math.sqrt(7.0) / 2.0   # the default box at sigma = 0.25
BUMP_BOX = (-10.24, 10.24, 1e-4, 10.24)


@pytest.mark.parametrize("pulse", [BoxPulse(5.0, 2.0),
                                   SmoothBumpPulse(1.0, 2.0, 1.0)])
def test_default_search_box_is_the_cap_without_a_solve(counted_solves, pulse):
    # velocity_of(K) = 1 - sigma/2: the tail cone x/t <= 1 - sigma and a
    # match window past it
    sd = ScatteringData(pulse)
    box = default_search_box()
    assert box == pytest.approx((-K_TAIL, K_TAIL, 1e-4, K_TAIL), rel=1e-15)
    assert velocity_of(1j * box[3]) == pytest.approx(1.0 - 0.25 / 2)
    assert counted_solves == []
    assert sd._cache is None


@pytest.mark.parametrize("T", [60.0, 64.972898])
def test_long_support_box_is_clipped_to_the_growth_guard(counted_solves, T):
    # the box does not depend on T, so it stays far inside the guard
    sd = ScatteringData(SmoothBumpPulse(0.01, 2.0, T))
    re_lo, re_hi, im_lo, im_hi = default_search_box()
    assert re_hi == im_hi == -re_lo and im_lo == 1e-4
    assert im_hi * T <= GROWTH_GUARD
    assert im_hi == pytest.approx(K_TAIL, rel=1e-15)
    assert counted_solves == []


def test_negative_winding_count_is_reported_as_undersampling(monkeypatch):
    # b is entire, so a negative winding count means the contour is too
    # coarsely sampled; the certificate never passes it on as a count
    from mbamp import soliton_spectrum
    sd = ScatteringData(BoxPulse(5.0, 2.0))
    monkeypatch.setattr(soliton_spectrum, "count_zeros_rect",
                        lambda *args, **kwargs: -1)
    with pytest.raises(AssumptionViolated,
                       match=r"winding count -1 .* undersampled"):
        find_zeros(sd, (-3.0, 3.0, 1e-4, 3.0))


@pytest.mark.slow
def test_long_pulse_count_agrees_with_the_pencil():
    # The first samples 1/(2T) apart resolve b's 1/T scale: the count reads
    # 5, where 4 samples per edge read -1.  find_zeros gets past its
    # certificate, the count equal to the pencil's, and then rejects the
    # pairs (k, -conj k) of equal moduli among the 5 zeros.
    sd = ScatteringData(SmoothBumpPulse(0.01, 2.0, 60.0))
    box = (-4.0, 4.0, 1e-4, 4.0)
    count = count_zeros_rect(lambda k: sd.ab_many(k)[1], box,
                             spacing=1.0 / 120.0)
    assert count == 5
    with pytest.raises(AssumptionViolated, match="moduli"):
        find_zeros(sd, box)


def test_power_law_b_small_on_the_whole_contour_is_counted():
    # b of c1 t^5 (1 - t)^3 decays like |k|^-6, so |b| at this box's far
    # corner is below root_tol, yet no zero lies on the contour.  The
    # boundary-zero test is relative to the samples beside each one, so the
    # count reads the pencil's 20 zeros (ROADMAP item 5), and find_zeros
    # gets past its certificate to reject the pairs (k, -conj k).
    sd = ScatteringData(PowerStartPulse(1.0, 6.0, 1.0))
    box = (-40.0, 40.0, 1e-4, 40.0)
    assert abs(sd.ab_many([40.0 + 40.0j])[1][0]) < sd.tol.root_tol
    assert count_zeros_rect(lambda k: sd.ab_many(k)[1], box,
                            sd.tol.root_tol, spacing=0.5) == 20
    with pytest.raises(AssumptionViolated, match="moduli"):
        find_zeros(sd, box)


@pytest.mark.parametrize("m, R, count", [
    (6.0, 20.0, 8), (6.0, 20.0 + math.pi, 10), (6.0, 30.0, 14),
    (6.0, 40.0, 20), (5.0, 20.0, 8), (5.0, 40.0, 22),
    (2.0, 20.0, 0), (2.0, 40.0, 0), (3.0, 20.0, 0), (3.0, 40.0, 0)])
def test_power_start_soliton_count_is_finite_or_infinite(m, R, count):
    # The paper's soliton count "can be either finite or infinite" (ROADMAP
    # item 5): for c1 t^(m-1) (1 - t)^3 the far zeros of b lie along Im k ~
    # ((m - 4)/(2T)) log|k|, one per pi/T of Re k on each side.  For m > 4
    # the count grows by about 2 per pi of R; for m < 4 the family lies
    # below the axis.  Each count is one call of b and equals the number of
    # the pencil's eigenvalues in the box.
    sd = ScatteringData(PowerStartPulse(1.0, m, 1.0))
    box = (-R, R, 1e-4, R)
    calls = []

    def b_of(k):
        calls.append(k)
        return sd.ab_many(k)[1]

    assert count_zeros_rect(b_of, box, sd.tol.root_tol, spacing=0.5) == count
    assert len(calls) == 1
    eigs = sd.pencil_zeros(max(32, math.ceil(1.6 * R)), 0.5j * R)
    assert sum(1 for k in eigs if -R < k.real < R and 1e-4 < k.imag < R) \
        == count


@pytest.mark.parametrize("re_hi", [1.0, 1.2])
def test_zero_of_b_on_the_contour_still_raises(re_hi):
    # box 5/2's zero is on the top edge: at its midpoint for re_hi = 1,
    # where |b| is 1e-15 against O(0.1) at the samples beside it, and off
    # every sample for re_hi = 1.2, where the step holding it is bisected
    # below root_tol
    sd = ScatteringData(BoxPulse(5.0, 2.0))
    with pytest.raises(BoundaryZero):
        count_zeros_rect(lambda k: sd.ab_many(k)[1],
                         (-1.0, re_hi, 0.5, K1_BOX52), sd.tol.root_tol)


def test_count_finds_the_four_zeros_of_the_bump_default_box():
    # The 10.24 box, the default before the tail cone's, holds the bump's
    # zeros +-5.2357850+0.4292924i and +-8.9113497+0.2466207i.  With the
    # first samples 1/(2T) apart, not 5.12, the count sees every 2 pi wrap
    # of the bottom edge, as the dense winding of the next test does.
    sd = ScatteringData(SmoothBumpPulse(1.0, 2.0, 1.0))
    assert count_zeros_rect(lambda k: sd.ab_many(k)[1], BUMP_BOX,
                            spacing=0.5) == 4
    inside = [k for k in sd.pencil_zeros(64, 5j)
              if abs(k.real) < 10.24 and 1e-4 < k.imag < 10.24]
    assert len(inside) == 4


def test_dense_edge_winding_of_the_bump_default_box_is_four():
    sd = ScatteringData(SmoothBumpPulse(1.0, 2.0, 1.0))
    re_lo, re_hi, im_lo, im_hi = BUMP_BOX
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


def test_bump_default_box_holds_no_zero():
    # the bump's zeros all have |k| >= 5.24: none reaches the tail cone
    spec = find_zeros(ScatteringData(SmoothBumpPulse(1.0, 2.0, 1.0)))
    assert len(spec) == 0
    assert spec.box == pytest.approx((-K_TAIL, K_TAIL, 1e-4, K_TAIL))


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


@pytest.mark.parametrize("beta", [0.5, 2.0])
def test_zeros_and_residues_scale_with_the_pulse(spec52, beta):
    # b[beta E1(beta t)](k) = b[E1](k / beta) and likewise a, so
    # BoxPulse(beta A, T / beta) has the zeros beta k_j, and with
    # b'(k) scaled by 1 / beta the residues 1 / (a b') scale by beta
    _, spec = spec52
    box = tuple(beta * c for c in (-3.0, 3.0, 1e-4, 3.0))
    scaled = find_zeros(ScatteringData(BoxPulse(5.0 * beta, 2.0 / beta)), box)
    assert len(scaled) == len(spec) == 1
    k, gamma = beta * spec.zeros[0], beta * spec.residues[0]
    assert abs(scaled.zeros[0] - k) <= 1e-10 * abs(k)
    assert abs(scaled.residues[0] - gamma) <= 1e-10 * abs(gamma)


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
    half = Tolerances(ode_rel=5e-12, ode_abs=5e-14, quad_tol=5e-11,
                      root_tol=5e-11)
    z2 = find_zeros(ScatteringData(p, half),
                    (-3, 3, 1e-4, 3)).zeros[0]
    assert abs(z1 - z2) < 1e-8


def test_default_box_contains_zero(spec52):
    # the soliton of velocity 0.938 reaches the tail cone x/t <= 0.95 of
    # sigma = 0.05, not the x/t <= 0.75 of the default sigma
    sd, spec = spec52
    k = spec.zeros[0]
    for sigma, inside in ((0.05, True), (0.25, False)):
        box = default_search_box(sigma)
        assert (box[0] < k.real < box[1] and box[2] < k.imag < box[3]) \
            == inside
    wide = find_zeros(sd, None, 0.05)
    assert wide.box == default_search_box(0.05)
    assert wide.zeros == pytest.approx(spec.zeros, abs=1e-12)


def test_velocity_match_hit_and_miss(spec52):
    _, spec = spec52
    v1 = spec.velocities[0]
    assert velocity_match(spec, 100.0, v1 * 100.0 + 0.5) == 0
    assert velocity_match(spec, 100.0, 50.0) is None


def test_velocity_match_empty():
    empty = SolitonSpectrum((), (), ())
    assert velocity_match(empty, 10.0, 5.0) is None
    assert empty.match_window() == 0.02


def test_velocity_match_window_is_half_the_smallest_gap():
    # the window holds one line: each velocity matches its own soliton, and
    # the midpoint between them and a point past the outer one match none
    ks = (1.0j, 1.05j)
    spec = SolitonSpectrum(ks, (1.0, 1.0), tuple(velocity_of(k) for k in ks))
    v0, v1 = spec.velocities
    assert velocity_match(spec, 1.0, v0) == 0
    assert velocity_match(spec, 1.0, v1) == 1
    assert velocity_match(spec, 1.0, 0.5 * (v0 + v1)) is None
    assert velocity_match(spec, 1.0, v1 + 1.5 * spec.match_window()) is None


def test_default_eps_half_min_gap():
    ks = (1.0j, 2.0j)
    spec = SolitonSpectrum(ks, (1.0, 1.0), tuple(velocity_of(k) for k in ks))
    gap = abs(spec.velocities[1] - spec.velocities[0])
    assert spec.match_window() == pytest.approx(gap / 2)


def test_assumption_checks_reject_bad_configurations():
    from mbamp.soliton_spectrum import _validate
    with pytest.raises(AssumptionViolated):
        _validate([0.5 + 1e-9j], [1.0])               # touches the real line
    with pytest.raises(AssumptionViolated):
        _validate([1.0j], [1e-12])                    # not simple
    with pytest.raises(AssumptionViolated):
        _validate([1.0j, (1.0 + 1e-8) * 1.0j], [1.0, 1.0])  # coinciding moduli
