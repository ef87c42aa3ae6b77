"""Direct scattering: Jost matrix, transition coefficients, tail model.

The constant box pulse has closed-form coefficients
    a(k) = e^{ikT} (cos(wT) - i (k/w) sin(wT)),
    b(k) = (A/(2w)) sin(wT) e^{ikT},      w = sqrt(k^2 + A^2/4),
which serve as the matrix-exponential oracle throughout.
"""

import cmath
import logging
import math
import re
import threading
import time

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mbamp.errors import DivisionNearZero, DomainError, Overflow
from mbamp.numerics import Tolerances, complex_newton
from mbamp.pulse import BoxPulse, PowerStartPulse, SmoothBumpPulse
from mbamp import scattering
from mbamp.scattering import CACHE_HALFWIDTH, ScatteringData
from mbamp.soliton_spectrum import tail_cone_radius


def box_ab(A, T, k):
    k = complex(k)
    w = np.sqrt(k * k + A * A / 4.0 + 0j)
    sinc = np.sin(w * T) / w if w != 0 else T   # its limit at w = 0
    a = np.exp(1j * k * T) * (np.cos(w * T) - 1j * k * sinc)
    b = (A / 2.0) * sinc * np.exp(1j * k * T)
    return a, b


def box_bdot(A, T, k):
    k = complex(k)
    w = np.sqrt(k * k + A * A / 4.0 + 0j)
    return (A / 2.0) * np.exp(1j * k * T) * (
        k * T * np.cos(w * T) / w ** 2
        - k * np.sin(w * T) / w ** 3
        + 1j * T * np.sin(w * T) / w)


def ab(sd, k):
    """(a, b) at one spectral point, from a one-point batched solve."""
    a, b = sd.ab_many([k])
    return complex(a[0]), complex(b[0])


@pytest.fixture(scope="module")
def sd52():
    return ScatteringData(BoxPulse(5.0, 2.0))


def test_box_values_at_origin(sd52):
    a, b = ab(sd52, 0.0)
    assert a == pytest.approx(math.cos(5.0), abs=1e-9)
    assert b == pytest.approx(math.sin(5.0), abs=1e-9)


def test_box_closed_form_various_k(sd52):
    for k in (0.3, -7.5, 2j, 0.5 + 2j, 1.9448904595703225j, 100j):
        a, b = ab(sd52, k)
        ae, be = box_ab(5.0, 2.0, k)
        assert abs(a - ae) < 1e-9 * max(1.0, abs(ae))
        assert abs(b - be) < 1e-9 * max(1.0, abs(be))


def test_unitarity_on_real_grid(sd52):
    ks = np.linspace(-20.0, 20.0, 400)
    a, b = sd52.ab_many(ks)
    defect = np.abs(np.abs(a) ** 2 + np.abs(b) ** 2 - 1.0)
    assert float(defect.max()) < 1e-8


def test_a_tends_to_one(sd52):
    # a - 1 decays like A^2 T / (8k) for the box
    for k in (80.0, 200.0, 60j):
        a, _ = ab(sd52, k)
        assert abs(a - 1.0) < 8.0 / abs(complex(k))


def test_jost_overflow_guard(sd52):
    with pytest.raises(Overflow):
        sd52.ab_many([400j])


def test_real_pulse_symmetry(sd52):
    # ab_many takes -k from the symmetry itself; the variational solve
    # never folds, so it checks the symmetry
    ks = np.linspace(0.3, 15.0, 24)
    ap, bp = sd52.ab_and_derivs_many(ks)[:2]
    am, bm = sd52.ab_and_derivs_many(-ks)[:2]
    assert np.max(np.abs(am - np.conj(ap))) < 1e-8
    assert np.max(np.abs(bm - np.conj(bp))) < 1e-8


# Symmetries of the Jost solve on the smooth bump c1 t^(m-1) g(t/T), drawn
# at k in a box of the closed upper half-plane; each relates two solves
# that an error in the right-hand side or the start at T would break.
BUMP = SmoothBumpPulse(1.0, 2.0, 1.0)
_SPECTRAL_POINTS = st.builds(complex, st.floats(-4.0, 4.0),
                             st.floats(0.0, 4.0))
_SYMMETRY = settings(max_examples=20, deadline=None, database=None)


def _close(got, want):
    return all(abs(g - w) <= 1e-12 * max(1.0, abs(w))
               for g, w in zip(got, want))


@_SYMMETRY
@given(beta=st.floats(0.5, 2.0), k=_SPECTRAL_POINTS)
def test_scaling_maps_a_and_b_to_k_over_beta(beta, k):
    # beta E(beta t) is the bump with c1 beta^m on [0, T / beta]; t -> beta t
    # turns its Jost system at k into the original one at k / beta
    c1, m, T = BUMP.amplitude, BUMP.start_exponent, BUMP.support
    scaled = SmoothBumpPulse(c1 * beta ** m, m, T / beta)
    got = ScatteringData(scaled).ab_many([k])
    want = ScatteringData(BUMP).ab_many([k / beta])
    assert _close(np.ravel(got), np.ravel(want))


@_SYMMETRY
@given(c=st.sampled_from([1.0, 3.0 * cmath.exp(0.7j)]), k=_SPECTRAL_POINTS)
def test_real_pulse_conjugation_symmetry(c, k):
    # for E = c f with f real, conjugating the Jost system maps k to
    # -conj(k) and c to conj(c), which turns b by c / conj(c); checked on
    # the variational solve, which ab_many's fold does not use
    sd = ScatteringData(SmoothBumpPulse(c, 2.0, 1.0))
    a, b = sd.ab_and_derivs_many([k, -k.conjugate()])[:2]
    turn = c / np.conj(c)
    assert _close([a[1], b[1]], [np.conj(a[0]), turn * np.conj(b[0])])


@_SYMMETRY
@given(phi=st.floats(0.0, 2.0 * math.pi, exclude_max=True),
       k=_SPECTRAL_POINTS)
def test_phase_rotation_leaves_a_and_turns_b(phi, k):
    # E -> e^{i phi} E is undone by p1 -> e^{i phi} p1
    turn = cmath.exp(1j * phi)
    rotated = SmoothBumpPulse(BUMP.amplitude * turn, BUMP.start_exponent,
                              BUMP.support)
    a, b = ScatteringData(BUMP).ab_many([k])
    a_rot, b_rot = ScatteringData(rotated).ab_many([k])
    assert _close([a_rot[0], b_rot[0]], [a[0], turn * b[0]])


@pytest.mark.parametrize("c", [1.0, 3.0 * cmath.exp(0.7j)],
                         ids=["real", "complex"])
@pytest.mark.parametrize("kind", [BoxPulse, PowerStartPulse, SmoothBumpPulse])
def test_folded_ab_many_matches_the_unfolded_solve(kind, c):
    # ab_many solves Re k >= 0 and reflects the rest; the variational solve
    # takes every point as given.  The real grid's mirror pairs differ by an
    # ulp or agree, and the off-axis points lie in both half-planes.
    pulse = kind(c, 1.0) if kind is BoxPulse else kind(c, 2.0, 1.0)
    sd = ScatteringData(pulse)
    ks = np.concatenate([np.linspace(-20.0, 20.0, 401),
                         [1.5 + 0.7j, -1.5 + 0.7j, -0.4 + 2.0j, 3.0 - 0.3j,
                          -3.0 - 0.3j, -2.2 - 0.5j]])
    for got, want in zip(sd.ab_many(ks), sd.ab_and_derivs_many(ks)):
        assert np.all(np.abs(got - want) <= 1e-10 * np.maximum(1, abs(want)))


def test_fold_passes_an_unfoldable_batch_through_in_its_order(monkeypatch):
    # nothing to fold or merge: the light-cone batches on the imaginary
    # axis reach the solver as given, so their values do not move
    sd = ScatteringData(BoxPulse(5.0, 2.0))
    batches = []
    jost = ScatteringData._jost

    def recorded(self, ks, nd=0):
        batches.append(np.array(ks))
        return jost(self, ks, nd)

    monkeypatch.setattr(ScatteringData, "_jost", recorded)
    ks = 1j * np.array([3.0, 0.5, 1.2])
    sd.ab_many(ks)
    # every solve is kept, so the same points again cost no solve
    sd.ab_many(ks)
    sd.reflection_uhp(ks)
    assert len(batches) == 1
    # -0.5 and -3 fold, and 0.5 + 1e-17 merges with 0.5
    a, b = sd.ab_many([0.5, -0.5, 0.5 + 1e-17, 2.0, -3.0])
    assert np.array_equal(batches[0], ks)
    assert np.array_equal(batches[1], [0.5, 2.0, 3.0])
    flip = [False, True, False, False, True]
    for got, want in zip((a, b), sd.ab_many([0.5, 2.0, 3.0])):
        want = want[[0, 0, 0, 1, 2]]
        assert np.array_equal(got, np.where(flip, np.conj(want), want))
    # a plain solve keeps no derivatives: the first read of them solves,
    # and keeps them
    sd.ab_and_derivs_many(ks)
    sd.ab_and_derivs_many(ks)
    assert len(batches) == 4 and np.array_equal(batches[3], ks)


# a command's first pass: plain points, which set the steps (the real-line
# cache's first nodes, light-cone points on the imaginary axis up to the
# model switch, and contour samples on both sides of it), and derivative
# points, which take them (seeds, one of them box 5/2's zero, and the
# samples nearest two eigenvalues just outside the contour)
_MIXED_KS = np.concatenate([
    ScatteringData(BoxPulse(1.0, 1.0), halfwidth=3.12).first_cache_nodes(),
    1j * np.array([0.3, 0.975, 1.65, 2.325, 3.0, 39.0,
                   scattering._KAPPA_MODEL_SWITCH]),
    np.linspace(-3.0, 3.0, 13) + 3.0j, -3.0 + 1j * np.linspace(0.5, 3.0, 6)])
_MIXED_DKS = np.array([1.9448904595703225j, 0.7 + 0.4j, -1.2 + 0.9j,
                       0.5 + 1e-4j, 3.0 + 1.0j])


def _prefetched(pulse, monkeypatch, dks=_MIXED_DKS):
    """The values that ab_many reads at _MIXED_KS and ab_and_derivs_many
    at ``dks`` after one prefetch of them all, with no further solve."""
    sd = ScatteringData(pulse)
    sd.prefetch(_MIXED_KS, dks)
    monkeypatch.setattr(sd, "_jost", None)   # any further solve fails
    return sd.ab_many(_MIXED_KS), sd.ab_and_derivs_many(dks)


@pytest.mark.parametrize("pulse", [BoxPulse(5.0, 2.0),
                                   SmoothBumpPulse(1.0, 2.0, 1.0)],
                         ids=["box52", "bump"])
def test_mixed_batch_matches_separate_solves(pulse, monkeypatch):
    # the points of ks set the steps, so their values are those of a solve
    # of ks alone; derivative rows move at rounding level only, relative
    # to each quantity's largest value, as b vanishes at the zero
    ab, derivs = _prefetched(pulse, monkeypatch)
    want = (*ScatteringData(pulse).ab_many(_MIXED_KS),
            *ScatteringData(pulse).ab_and_derivs_many(_MIXED_DKS))
    for got, ref in zip((*ab, *derivs), want):
        assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))


@pytest.mark.parametrize("pulse", [BoxPulse(5.0, 2.0),
                                   SmoothBumpPulse(1.0, 2.0, 1.0)],
                         ids=["box52", "bump"])
def test_mixed_batch_gives_r_at_each_point(pulse, monkeypatch):
    # r = b/a at every point of the batch against a solve at tight
    # tolerances: within 1e-10 relative, plus the absolute tolerance that
    # holds b where it is small, as at the far light-cone points (|r| is
    # about 8e-5 at k = 40i on the bump)
    ab, derivs = _prefetched(pulse, monkeypatch)
    a, b = (np.concatenate(v) for v in zip(ab, derivs))
    tight = ScatteringData(pulse, Tolerances(ode_rel=1e-14, ode_abs=1e-16))
    a_ref, b_ref = tight.ab_many(np.concatenate([_MIXED_KS, _MIXED_DKS]))
    r_ref = b_ref / a_ref
    bound = (1e-10 * np.abs(r_ref)
             + 10 * Tolerances().ode_abs / np.abs(a_ref))
    assert np.all(np.abs(b / a - r_ref) <= bound)


def test_more_derivative_rows_leave_every_value_bit_identical(monkeypatch):
    # only the plain points set the steps: more derivative rows leave every
    # value bit-identical, so a zero search's result does not depend on the
    # pencil's spurious eigenvalues
    pulse = BoxPulse(5.0, 2.0)
    few = _prefetched(pulse, monkeypatch, _MIXED_DKS[:1])
    more = _prefetched(pulse, monkeypatch)
    for got, want in zip((*more[0], *(v[:1] for v in more[1])),
                         (*few[0], *few[1])):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("pulse", [BoxPulse(5.0, 2.0),
                                   SmoothBumpPulse(1.0, 2.0, 1.0)],
                         ids=["box52", "bump"])
def test_mixed_batch_derivative_rows_match_a_central_difference(pulse,
                                                                monkeypatch):
    _, (_, _, _, bdot) = _prefetched(pulse, monkeypatch)
    h = 1e-5
    _, b1 = ScatteringData(pulse).ab_many(_MIXED_DKS + h)
    _, b2 = ScatteringData(pulse).ab_many(_MIXED_DKS - h)
    fd = (b1 - b2) / (2 * h)
    assert np.all(np.abs(bdot - fd) < 1e-6 * np.abs(fd))


def test_prefetch_without_derivative_rows_is_the_plain_solve():
    # the same batch, the same state layout: bit-identical values
    ks = _MIXED_KS
    sd = ScatteringData(BoxPulse(5.0, 2.0))
    sd.prefetch(ks)
    for got, want in zip(sd.ab_many(ks),
                         ScatteringData(BoxPulse(5.0, 2.0)).ab_many(ks)):
        assert np.array_equal(got, want)


def test_empty_batches_solve_to_empty_arrays():
    sd = ScatteringData(BoxPulse(5.0, 2.0))
    for v in (*sd.ab_many([]), *sd.ab_and_derivs_many([])):
        assert v.shape == (0,) and v.dtype == complex


class _ChirpedPulse:
    """The pulse E1(t) e^{2i beta t}: support, values and jumps."""

    def __init__(self, pulse, beta):
        self.pulse, self.beta, self.support = pulse, beta, pulse.support

    def __call__(self, t):
        return self.pulse(t) * np.exp(2j * self.beta * np.asarray(t))

    def jumps(self):
        return tuple((t, j * cmath.exp(2j * self.beta * t))
                     for t, j in self.pulse.jumps())


@_SYMMETRY
@given(beta=st.sampled_from([0.7, -2.3, 5.236]), k=_SPECTRAL_POINTS)
def test_chirp_shifts_a_and_b_by_beta(beta, k):
    # p1 -> e^{2i beta t} p1 turns the Jost system of the chirped pulse at k
    # into the plain one at k + beta, with the same values at T and at 0
    got = ScatteringData(_ChirpedPulse(BUMP, beta)).ab_many([k])
    want = ScatteringData(BUMP).ab_many([k + beta])
    assert all(abs(g - w) <= 1e-10 * max(1.0, abs(w))
               for g, w in zip(np.ravel(got), np.ravel(want)))


def test_reflection_symmetry_and_zero(sd52):
    # r(-1.3) comes from ab_many's fold; the variational solve at 1.3 does
    # not fold
    a, b = sd52.ab_and_derivs_many([1.3])[:2]
    rm = sd52.reflection_uhp(-1.3)
    assert rm == pytest.approx(np.conj(b[0] / a[0]), abs=1e-8)
    _, b = ab(sd52, 1.9448904595703225j)
    assert abs(b) < 1e-6


def zero_of_a(sd):
    """A zero of a on the positive imaginary axis, by Newton from the
    smallest |a| on a scan, and the last Newton step."""
    kappas = np.linspace(0.05, 2.49, 200)
    a, _ = sd.ab_many(1j * kappas)
    seed = 1j * kappas[int(np.argmin(np.abs(a)))]
    k, = complex_newton(lambda k: sd.ab_and_derivs_many(k)[0],
                        lambda k: sd.ab_and_derivs_many(k)[2], [seed], 1e-13)
    a, _, adot, _ = sd.ab_and_derivs_many([k])
    return complex(k - a[0] / adot[0])


def test_reflection_near_zero_of_a(sd52):
    # locate a zero of a on the positive imaginary axis, then demand refusal
    k_zero = zero_of_a(sd52)
    assert k_zero.imag > 0
    with pytest.raises(DivisionNearZero):
        sd52.reflection_uhp(k_zero)


def test_reflection_uhp_batch_names_the_point_near_a_zero_of_a(sd52):
    k_zero = zero_of_a(sd52)
    with pytest.raises(DivisionNearZero) as info:
        sd52.reflection_uhp(np.array([0.5j, k_zero, 1.5j]))
    assert f"|a({complex(k_zero)})|" in str(info.value)


def test_b_deriv_against_closed_form(sd52):
    for k in (0.3 + 0.5j, 1.9448904595703225j, 2.0 + 0j):
        got = sd52.ab_and_derivs_many([k])[3][0]
        ref = box_bdot(5.0, 2.0, k)
        assert abs(got - ref) < 1e-8 * max(1.0, abs(ref))


def test_b_deriv_against_central_difference(sd52):
    k = 0.3 + 0.5j
    h = 1e-5
    _, b1 = ab(sd52, k + h)
    _, b2 = ab(sd52, k - h)
    fd = (b1 - b2) / (2 * h)
    assert abs(sd52.ab_and_derivs_many([k])[3][0] - fd) < 1e-6 * abs(fd)


class _CountingPulse:
    """Wraps a pulse and counts its calls."""

    def __init__(self, pulse):
        self.pulse, self.support, self.calls = pulse, pulse.support, 0

    def __call__(self, t):
        self.calls += 1
        return self.pulse(t)


def _count_rhs_evals(monkeypatch) -> list[int]:
    """A one-entry list that counts the right-hand side calls of every
    Jost solve from now on."""
    rhs_evals = [0]
    advance = scattering.ode_advance

    def counting_advance(rhs, *args, **kwargs):
        def counted(*rhs_args):
            rhs_evals[0] += 1
            return rhs(*rhs_args)
        return advance(counted, *args, **kwargs)

    monkeypatch.setattr(scattering, "ode_advance", counting_advance)
    return rhs_evals


@pytest.mark.parametrize("method", ["ab_many", "ab_and_derivs_many"])
def test_jost_solve_calls_the_pulse_once_per_step_attempt(method, monkeypatch):
    pulse = _CountingPulse(SmoothBumpPulse(1.0, 2.0, 1.0))
    rhs_evals = _count_rhs_evals(monkeypatch)
    getattr(ScatteringData(pulse), method)(np.array([0.5, 1.5 + 0.2j]))
    # one right-hand side at the start, then twelve stages per step attempt
    attempts, rest = divmod(rhs_evals[0] - 1, 12)
    assert rest == 0 and attempts > 10
    assert pulse.calls == 1 + attempts


@pytest.mark.parametrize("pulse, attempts", [
    (BoxPulse(5.0, 2.0), 263),
    (SmoothBumpPulse(1.0, 2.0, 1.0), 85),
], ids=["box52", "bump"])
def test_scatter_batch_takes_a_pinned_number_of_steps(pulse, attempts,
                                                      monkeypatch):
    # the CLI's scatter batch (401 real, 120 imaginary points) is one
    # solve; a stepper change that adds step attempts fails here
    rhs_evals = _count_rhs_evals(monkeypatch)
    ScatteringData(pulse).ab_many(np.append(np.linspace(-20.0, 20.0, 401),
                                            1j * np.linspace(0.05, 6.0, 120)))
    assert rhs_evals[0] == 1 + 12 * attempts


def test_box_solve_to_k20_in_few_steps_near_the_closed_form():
    # the step count at the largest |k| sets the cost of a batched solve;
    # a 5th-order pair takes about 1760 attempts on the real grid and lands
    # 3e-10 off the closed form
    pulse = _CountingPulse(BoxPulse(5.0, 2.0))
    sd = ScatteringData(pulse)
    attempts = []
    for ks in (np.linspace(-20.0, 20.0, 401),
               1j * np.linspace(0.05, 6.0, 120)):
        calls = pulse.calls
        a, b = sd.ab_many(ks)
        attempts.append(pulse.calls - calls - 1)   # one call per attempt
        exact = np.array([box_ab(5.0, 2.0, k) for k in ks])
        assert np.max(np.abs(a - exact[:, 0])) < 5e-11
        assert np.max(np.abs(b - exact[:, 1])) < 5e-11
    assert attempts[0] <= 400


def test_smallest_pulses_linearize():
    # weak pulse: a ~ 1, b scales linearly with the amplitude
    sd1 = ScatteringData(BoxPulse(1e-4, 1.0))
    sd2 = ScatteringData(BoxPulse(2e-4, 1.0))
    a1, b1 = ab(sd1, 0.7)
    _, b2 = ab(sd2, 0.7)
    assert abs(a1 - 1.0) < 1e-6
    assert abs(b2 / b1 - 2.0) < 1e-4


def test_trivial_pulse_rejected():
    with pytest.raises(ValueError):
        ScatteringData(BoxPulse(0.0, 1.0))


def test_real_line_cache_interpolation(sd52):
    ks = np.array([-7.31, -0.42, 3.17, 11.93])
    a_direct, b_direct = sd52.ab_many(ks)
    for k, ad, bd in zip(ks, a_direct, b_direct):
        a, b = sd52.ab_real(k)
        assert abs(a - ad) < 1e-8
        assert abs(b - bd) < 1e-8
        assert abs(sd52.r_real(k) - bd / ad) < 1e-7


def test_real_zero_splits_finds_box_zeros(sd52):
    # b has real zeros at +-sqrt(pi^2/T^2 n^2 - A^2/4) for n pi/T > A/2
    expect = math.sqrt(math.pi ** 2 - 6.25)
    splits = sd52.real_zero_splits(2.5)
    assert any(abs(s - expect) < 1e-6 for s in splits)
    assert any(abs(s + expect) < 1e-6 for s in splits)


@pytest.mark.parametrize("k0", [1.9025, 1.90253, 1.9026, 1.9043, 1.906927])
def test_real_zero_splits_find_a_zero_next_to_k0(sd52, k0):
    # the zero sqrt(pi^2 - 6.25) = 1.9025258 lies on either side of these
    # k0, the nearest 4.2e-6 away; it is a split iff < k0, with its mirror
    expect = math.sqrt(math.pi ** 2 - 6.25)
    splits = sd52.real_zero_splits(k0)
    assert len(splits) == (2 if expect < k0 else 0)
    if splits:
        assert splits[1] == pytest.approx(expect, abs=1e-6)
        assert splits[0] == -splits[1]


def box_real_zeros(A, T, K=CACHE_HALFWIDTH):
    """The real zeros +-sqrt((n pi/T)^2 - A^2/4) of the box's b in (-K, K),
    ascending."""
    n = np.arange(1, math.ceil(T * math.hypot(K, A / 2.0) / math.pi) + 1)
    q = (n * math.pi / T) ** 2 - A * A / 4.0
    k = np.sqrt(q[q > 0.0])
    k = k[k < K]
    return np.sort(np.concatenate([-k, k]))


def _real_zeros(sd):
    return np.array(sd.real_zero_splits(CACHE_HALFWIDTH))


@settings(max_examples=12, deadline=None, database=None)
@given(A=st.floats(0.5, 8.0), T=st.floats(0.5, 3.0))
def test_real_zeros_of_a_box_are_the_closed_form(A, T):
    # AT/(2 pi) near an integer puts a zero pair near k = 0 (and b(0) ~ 0);
    # a root of b's series at the cache end may fall either side of it
    assume(0.1 < (A * T / (2.0 * math.pi)) % 1.0 < 0.9)
    expect = box_real_zeros(A, T)
    assume(expect.size == 0 or np.max(np.abs(expect)) < CACHE_HALFWIDTH - 0.01)
    got = _real_zeros(ScatteringData(BoxPulse(A, T)))
    assert got.shape == expect.shape
    assert np.max(np.abs(got - expect), initial=0.0) < 1e-8


@pytest.mark.parametrize("A, T, K", [
    *(pytest.param(A, T, CACHE_HALFWIDTH, id=f"{A}-{T}") for A, T in
      [(5.0, 2.0), (3.3, 2.0), (5.0, 6.0), (1.0, 1.0), (7.0, 2.0)]),
    # the CLI's windows: box 5/2 has 2 zeros in the first and none in the
    # second
    pytest.param(5.0, 2.0, tail_cone_radius(0.05), id="5.0-2.0-sigma0.05"),
    pytest.param(5.0, 2.0, tail_cone_radius(0.25), id="5.0-2.0-sigma0.25")])
def test_every_real_zero_of_the_box_is_found(A, T, K):
    # box 3.3/2 has a zero at +-2.6734069 that a threshold on |r| near its
    # floor would miss; the roots of b's series need no threshold on |r|
    got = np.array(ScatteringData(BoxPulse(A, T), halfwidth=K)
                   .real_zero_splits(K))
    expect = box_real_zeros(A, T, K)
    assert got.shape == expect.shape
    assert np.max(np.abs(got - expect), initial=0.0) < 1e-9


@pytest.mark.parametrize("pulse", [SmoothBumpPulse(1.0, 2.0, 1.0),
                                   SmoothBumpPulse(0.4, 2.0, 2.0),
                                   PowerStartPulse(1.0, 2.0, 1.0)])
def test_smooth_pulses_have_no_real_zeros(pulse):
    # the roots of b's series nearest the real line lie 5.5e-3 or more off
    # it, in units of their piece's half-width; a real root's |Im| < 2e-12
    assert _real_zeros(ScatteringData(pulse)).size == 0


@pytest.mark.parametrize("K", [3.0, CACHE_HALFWIDTH])
@pytest.mark.parametrize("beta", [0.5, -1.3])
def test_real_zeros_of_a_chirped_box_shift_by_beta(beta, K):
    # the chirped pulse's b is b(k + beta), so its real zeros are the box's
    # minus beta; it declares no amplitude, so they are not mirrored
    sd = ScatteringData(_ChirpedPulse(BoxPulse(5.0, 2.0), beta), halfwidth=K)
    expect = box_real_zeros(5.0, 2.0, K + abs(beta)) - beta
    expect = expect[np.abs(expect) < K]
    got = np.array(sd.real_zero_splits(K))
    assert got.shape == expect.shape
    assert np.max(np.abs(got - expect)) < 1e-9


def _pencil_zeros_in_disk(sd, R):
    """The pencil's eigenvalues in |k| < R at the node count find_zeros
    takes for a box of corner R, kept where the pencil at 1.5 n reproduces
    them to 1e-6: these tests' own filter of spurious eigenvalues, which
    keeps the real zeros too (find_zeros lets Newton decide instead)."""
    n = max(32, math.ceil(1.6 * sd.pulse.support * R))
    k = sd.pencil_zeros(n, 0.5j * R)
    fine = sd.pencil_zeros(3 * n // 2, 0.5j * R)
    k = k[np.abs(k) < R]
    return np.array([z for z in k
                     if np.min(np.abs(fine - z)) <= 1e-6 * max(1.0, abs(z))])


@settings(max_examples=12, deadline=None, database=None)
@given(A=st.floats(0.5, 12.0), T=st.floats(0.3, 3.0))
def test_pencil_eigenvalues_of_a_box_are_the_closed_form(A, T):
    # b = 0 where w T = n pi: k = i sqrt(A^2/4 - (n pi/T)^2) above the real
    # line and +-sqrt((n pi/T)^2 - A^2/4) on it; AT/(2 pi) near an integer
    # puts a double zero near k = 0
    assume(0.05 < (A * T / (2.0 * math.pi)) % 1.0 < 0.95)
    R = 4.0
    sd = ScatteringData(BoxPulse(A, T))
    k = _pencil_zeros_in_disk(sd, R)
    w = np.arange(1, math.floor(A * T / (2.0 * math.pi)) + 1) * math.pi / T
    upper = 1j * np.sort(np.sqrt(A * A / 4.0 - w * w))
    upper = upper[np.abs(upper) < R]
    real = box_real_zeros(A, T, R)
    # a zero within the pencil's accuracy of |k| = R may fall either side
    assume(np.all(np.abs(np.abs(np.concatenate([upper, real])) - R) > 1e-6))
    got_upper = k[k.imag > 1e-6]
    got_upper = got_upper[np.argsort(got_upper.imag)]
    got_real = np.sort(k[np.abs(k.imag) <= 1e-6].real)
    assert got_upper.shape == upper.shape and got_real.shape == real.shape
    assert np.max(np.abs(got_upper - upper), initial=0.0) < 1e-8
    assert np.max(np.abs(got_real - real), initial=0.0) < 1e-8
    cached = np.array(sd.real_zero_splits(R))
    assert cached.shape == got_real.shape
    assert np.max(np.abs(cached - got_real), initial=0.0) < 1e-8


def test_pencil_eigenvalues_of_a_real_pulse_come_in_pairs():
    # for real E, b(-conj k) = conj b(k): the zeros of the bump, here
    # +-5.2357850+0.4292924i and +-8.9113497+0.2466207i, pair up across the
    # imaginary axis
    k = _pencil_zeros_in_disk(ScatteringData(SmoothBumpPulse(1.0, 2.0, 1.0)),
                              10.24)
    assert k.size >= 4
    assert max(np.min(np.abs(k + np.conj(z))) for z in k) < 1e-12


@pytest.mark.parametrize("beta", [0.5, 2.0])
def test_real_zeros_scale_with_the_pulse(sd52, beta):
    # a[beta E1(beta t)](k) = a[E1](k / beta), and likewise b, so
    # BoxPulse(beta A, T / beta) has beta times the zeros of BoxPulse(A, T)
    K = CACHE_HALFWIDTH * min(1.0, beta)
    scaled = np.array(ScatteringData(BoxPulse(5.0 * beta, 2.0 / beta))
                      .real_zero_splits(K))
    base = np.array(sd52.real_zero_splits(K / beta))
    assert scaled.size == base.size > 0
    assert np.max(np.abs(scaled - beta * base)) < 1e-8 * beta


def test_real_line_interpolant_against_closed_form(sd52):
    ks = np.random.default_rng(20).uniform(-20.0, 20.0, 200)
    a_exact, b_exact = zip(*(box_ab(5.0, 2.0, k) for k in ks))
    a, b = sd52.ab_real(ks)
    assert np.max(np.abs(a - np.array(a_exact))) < 1e-9
    assert np.max(np.abs(b - np.array(b_exact))) < 1e-9


def test_real_line_queries_keep_the_input_shape(sd52):
    assert isinstance(sd52.r_real(1.3), complex)
    assert all(type(v) is complex for v in sd52.ab_real(-2.0))
    nodes = sd52._cache_arrays()[0]
    assert sd52.ab_real(nodes[7])[1] == sd52._cache_arrays()[2][7, 1]  # node hit
    ks = np.array([[-1.0, 0.5], [2.0, nodes[3]]])
    r = sd52.r_real(ks)
    assert isinstance(r, np.ndarray) and r.shape == (2, 2)
    assert r[0, 1] == pytest.approx(sd52.r_real(0.5), abs=1e-13)


@pytest.mark.parametrize("pulse", [BoxPulse(5.0, 2.0),
                                   SmoothBumpPulse(1.0, 2.0, 1.0)])
def test_real_line_cache_is_small(pulse):
    sd = ScatteringData(pulse)
    assert len(sd._cache_arrays()[0]) <= 257
    assert sd.cache_tail < 1e-12


@pytest.mark.parametrize("pulse", [BoxPulse(5.0, 2.0),
                                   SmoothBumpPulse(1.0, 2.0, 1.0)])
def test_real_line_cache_is_one_129_point_solve(pulse, monkeypatch):
    solves = []
    ab_many = ScatteringData.ab_many

    def counted(self, ks):
        solves.append(np.size(ks))
        return ab_many(self, ks)

    monkeypatch.setattr(ScatteringData, "ab_many", counted)
    ScatteringData(pulse).r_real(0.0)
    assert solves == [129]


WINDOWED = [pytest.param((BoxPulse(5.0, 2.0), 0.05), id="box52"),
            pytest.param((SmoothBumpPulse(1.0, 2.0, 1.0), 0.25), id="bump")]


@pytest.fixture(scope="module", params=WINDOWED)
def windowed(request):
    """(pulse, K, the cache on [-K, K], the default cache on [-20, 20]), K
    the tail cone's radius at the sigma of the pulse's benchmark runs."""
    pulse, sigma = request.param
    K = tail_cone_radius(sigma)
    return (pulse, K, ScatteringData(pulse, halfwidth=K),
            ScatteringData(pulse))


def test_windowed_cache_agrees_with_the_default_cache(windowed):
    # the window's solve takes its steps for |k| <= K, not 20, so it is held
    # at the requested ode_rel = 1e-11: box 5/2 reads 1.8e-11 at s = -K,
    # where the default cache is within 1e-14 of the closed form
    pulse, K, sd, full = windowed
    assert sd.halfwidth == K and len(sd._cache_arrays()[0]) == 129
    s = np.linspace(-K, K, 200)
    assert np.max(np.abs(sd.r_real(s) - full.r_real(s))) < 2e-11
    got = np.array(sd.real_zero_splits(K))
    want = np.array(full.real_zero_splits(K))
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) < 1e-12


def test_windowed_cache_of_the_box_is_the_closed_form():
    K = tail_cone_radius(0.05)
    sd = ScatteringData(BoxPulse(5.0, 2.0), halfwidth=K)
    ks = np.random.default_rng(23).uniform(-K, K, 200)
    a_exact, b_exact = zip(*(box_ab(5.0, 2.0, k) for k in ks))
    a, b = sd.ab_real(ks)
    assert np.max(np.abs(a - np.array(a_exact))) < 1e-9
    assert np.max(np.abs(b - np.array(b_exact))) < 1e-9
    assert sd.real_zero_splits(K) == pytest.approx(
        list(box_real_zeros(5.0, 2.0, K)), abs=1e-9)


def test_real_line_queries_past_the_window_raise(windowed):
    _, K, sd, _ = windowed
    msg = (f"s = {K + 0.1!r} outside the real-line cache's window "
           f"[-{K!r}, {K!r}]")
    with pytest.raises(DomainError, match=re.escape(msg)):
        sd.r_real(K + 0.1)
    with pytest.raises(DomainError, match=r"s = -"):
        sd.ab_real(np.array([0.0, -K - 1e-9]))
    assert isinstance(sd.r_real(K), complex)        # the window's end
    with pytest.raises(DomainError):
        ScatteringData(BoxPulse(1.0, 1.0)).r_real(CACHE_HALFWIDTH + 0.1)


@pytest.mark.parametrize("halfwidth", [0.0, -1.0, math.inf, math.nan])
def test_cache_window_must_be_positive_and_finite(halfwidth):
    with pytest.raises(ValueError, match="halfwidth"):
        ScatteringData(BoxPulse(1.0, 1.0), halfwidth=halfwidth)


def test_real_line_cache_cap_is_reported(monkeypatch, caplog):
    # box 5/3 needs more than the 129 nodes the doubling starts from
    monkeypatch.setattr(scattering, "_CHEB_MAX_N", 128)
    sd = ScatteringData(BoxPulse(5.0, 3.0))
    with caplog.at_level(logging.WARNING, logger="mbamp.scattering"):
        sd.r_real(0.3)
    assert len(sd._cache_arrays()[0]) == 129
    assert sd.cache_tail > 1e-12
    assert any("capped at 129 nodes" in rec.getMessage()
               for rec in caplog.records if rec.levelno == logging.WARNING)


def test_real_line_cache_built_once_under_concurrent_first_use():
    sd = ScatteringData(SmoothBumpPulse(1.0, 2.0, 1.0))
    builds = []
    build = sd._build_cache

    def slow_build():
        builds.append(threading.get_ident())
        time.sleep(0.05)        # widen the window a second builder would hit
        build()

    sd._build_cache = slow_build
    start = threading.Barrier(2)
    results = [None, None]

    def first_use(i):
        start.wait(timeout=10)
        results[i] = sd.r_real(0.7)

    threads = [threading.Thread(target=first_use, args=(i,)) for i in range(2)]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=60)
    assert not any(th.is_alive() for th in threads)
    assert len(builds) == 1
    assert results[0] == results[1] and results[0] is not None


def test_tail_fit_power_start():
    fit = ScatteringData(PowerStartPulse(1.0, 2.0, 1.0)).tail_fit()
    assert fit.order == 2.0
    assert fit.constant == pytest.approx(-0.125, abs=1e-15)
    box = ScatteringData(BoxPulse(5.0, 2.0)).tail_fit()
    assert box.order == 1.0
    assert box.constant == pytest.approx(1.25j, abs=1e-15)


_TAIL_PULSES = [BoxPulse(5.0, 2.0), SmoothBumpPulse(1.0, 2.0, 1.0),
                SmoothBumpPulse(0.3 + 0.4j, 2.5, 1.0)]
_TAIL_IDS = ["box52", "bump", "complex_bump"]


@pytest.mark.parametrize("pulse", _TAIL_PULSES + [PowerStartPulse(1.0, 6.0, 1.0)],
                         ids=_TAIL_IDS + ["power6"])
def test_tail_constant_is_the_first_born_term(pulse):
    # b(i kappa) ~ (c1/2) Gamma(m) (2 kappa)^(-m) and a -> 1 on the i-axis
    fit = ScatteringData(pulse).tail_fit()
    c1, m = complex(pulse.amplitude), pulse.start_exponent
    assert fit.order == m
    for kappa in (1.0, 57.0):
        want = complex(c1 / 2 * mpmath.gamma(m) * mpmath.mpf(2 * kappa) ** -m)
        got = fit.constant * (1j * kappa) ** -m
        assert abs(got - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("pulse", _TAIL_PULSES, ids=_TAIL_IDS)
def test_tail_model_matches_direct_solves_at_the_switch(pulse):
    # the next-order term is O(1/kappa): about 1e-3 at kappa = 40
    sd = ScatteringData(pulse, Tolerances(ode_rel=1e-13, ode_abs=1e-15,
                                          quad_tol=1e-12, root_tol=1e-12))
    kappa = scattering._KAPPA_MODEL_SWITCH
    a, b = sd.ab_many([1j * kappa])
    fit = sd.tail_fit()
    model = fit.constant * (1j * kappa) ** -fit.order
    assert abs(b[0] / a[0] - model) <= 2e-3 * abs(b[0] / a[0])


def test_tail_model_only_on_the_imaginary_axis():
    # off the axis e^{2ikT} in b does not decay, so points there are solved
    # directly whatever their modulus; on the box the closed form checks it
    sd = ScatteringData(BoxPulse(5.0, 2.0))
    ks = np.array([45.0, 45.0 + 10j, 30.0 + 30j, -50.0 + 1e-3j])
    for k, r in zip(ks, sd.reflection_uhp(ks)):
        a, b = box_ab(5.0, 2.0, k)
        assert abs(r - b / a) <= 1e-8 * abs(b / a)
    fit = sd.tail_fit()
    assert sd.reflection_uhp(45j) == fit.constant * (45j) ** -fit.order


@pytest.mark.parametrize("pulse", [PowerStartPulse(1.0, 2.0, 1.0),
                                   PowerStartPulse(0.3 + 0.4j, 2.5, 1.5)],
                         ids=["power2", "complex_power"])
def test_power_start_tail_model_sums_the_whole_start(pulse):
    # the start c1 t^(m-1) (1 - t/T)^3 is a finite polynomial, so the first
    # Born terms of its four powers give r(i kappa) past the switch to the
    # next Born order; the leading term alone is 7.8e-2 off at kappa = 40
    sd = ScatteringData(pulse, Tolerances(ode_rel=1e-13, ode_abs=1e-15,
                                          quad_tol=1e-12, root_tol=1e-12))
    ks = 1j * np.array([np.nextafter(scattering._KAPPA_MODEL_SWITCH, np.inf),
                        80.0, 160.0])
    a, b = sd.ab_many(ks)
    assert np.max(np.abs(sd.reflection_uhp(ks) - b / a) / np.abs(b / a)) < 1e-6


def test_tail_fit_linear_in_amplitude():
    sd1 = ScatteringData(SmoothBumpPulse(0.05, 2.0, 1.0))
    sd2 = ScatteringData(SmoothBumpPulse(0.1, 2.0, 1.0))
    c1 = abs(sd1.tail_fit().constant)
    c2 = abs(sd2.tail_fit().constant)
    assert c2 / c1 == pytest.approx(2.0, rel=1e-3)


def test_tail_fit_stable_under_tolerance_refinement():
    p = PowerStartPulse(1.0, 2.0, 1.0)
    m1 = ScatteringData(p).tail_fit().order
    tight = Tolerances(ode_rel=1e-12, ode_abs=1e-14, quad_tol=1e-11,
                       root_tol=1e-11)
    m2 = ScatteringData(p, tight).tail_fit().order
    assert abs(m1 - m2) < 1e-6


def test_reflection_uhp_model_switch():
    sd = ScatteringData(PowerStartPulse(1.0, 2.0, 1.0))
    fit = sd.tail_fit()
    r_model = sd.reflection_uhp(200j)
    # the leading term, less the roll-off's 3m/(2 kappa T) = 0.015
    lead = fit.constant * (200j) ** (-fit.order)
    assert r_model / lead - 1.0 == pytest.approx(-0.015, rel=0.05)
    # direct and model agree up to the next-order tail correction ~3/kappa
    r_direct = sd.reflection_uhp(35j)
    r_mod = fit.constant * (35j) ** (-fit.order)
    assert abs(r_direct - r_mod) / abs(r_direct) < 0.12


@pytest.mark.parametrize("pulse", [BoxPulse(5.0, 2.0),
                                   SmoothBumpPulse(1.0, 2.0, 1.0)],
                         ids=["box52", "bump"])
def test_reflection_uhp_array_matches_scalar_calls(pulse):
    # one batched solve below the model switch at |k| = 40, the tail-fit
    # model past it.  Batched and single solves take different steps, so
    # they differ by the solver's error: at default tolerances up to 3.4e-11
    # relative on the box and 2.3e-11 on the bump, where |r| falls to 1e-4
    # and ode_abs on b dominates; at 0.01x the tolerances, 2.5e-12.
    sd = ScatteringData(pulse, Tolerances(ode_rel=1e-13, ode_abs=1e-15,
                                          quad_tol=1e-12, root_tol=1e-12))
    ks = 1j * np.geomspace(0.05, 60.0, 24)
    r = sd.reflection_uhp(ks)
    assert r.shape == ks.shape and r.dtype == complex
    single = np.array([sd.reflection_uhp(k) for k in ks])
    assert np.max(np.abs(r - single) / np.abs(single)) < 1e-9
    fit = sd.tail_fit()
    far = np.abs(ks) > scattering._KAPPA_MODEL_SWITCH
    assert 0 < far.sum() < ks.size
    assert list(r[far]) == [fit.constant * complex(k) ** (-fit.order)
                            for k in ks[far]]
    assert list(single[far]) == list(r[far])
    grid = sd.reflection_uhp(ks.reshape(4, 6))
    assert grid.shape == (4, 6)
    assert np.array_equal(grid.ravel(), r)


def test_reflection_uhp_scalar_returns_complex(sd52):
    for k in (1.3, 0.7j, 55j):
        assert type(sd52.reflection_uhp(k)) is complex
    assert type(sd52.reflection_uhp(np.complex128(0.7j))) is complex


def test_reflection_power_law_bounded_on_imag_axis():
    # r(i kappa) (i kappa)^m stays bounded above and below over [10, 100]
    sd = ScatteringData(PowerStartPulse(1.0, 2.0, 1.0))
    kappas = np.geomspace(10.0, 100.0, 12)
    a, b = sd.ab_many(1j * kappas)
    scaled = np.abs((b / a) * (1j * kappas) ** 2.0)
    assert float(scaled.max()) / float(scaled.min()) < 2.0
