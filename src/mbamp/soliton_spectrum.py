"""Zeros of b in the open upper half-plane and their residue data.

These spectral points generate the solitons riding on the oscillatory
background in the tail region; zeros of a are irrelevant there and are not
searched for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AssumptionViolated, DomainError
from .lightcone_asym import BandParams
from .numerics import complex_newton, count_zeros_rect, first_samples
from .scattering import GROWTH_GUARD, ScatteringData

IM_FLOOR = 1e-4       # zeros below this would violate the off-axis assumption
_PENCIL_MAX_N = 1024  # the dense pencil takes seconds and 350 MB past this


@dataclass(frozen=True)
class SolitonSpectrum:
    """Zeros k_j (Im k_j > 0, |k_j| ascending), residues and velocities."""

    zeros: tuple[complex, ...]
    residues: tuple[complex, ...]       # gamma_j = 1/(a(k_j) * bdot(k_j))
    velocities: tuple[float, ...]       # 4|k_j|^2 / (1 + 4|k_j|^2), in (0, 1)
    box: tuple[float, float, float, float] = field(default=(0.0, 0.0, 0.0, 0.0))

    def __len__(self):
        return len(self.zeros)

    def match_window(self) -> float:
        """Half the minimal velocity gap, so no two lines share a window;
        0.02 when fewer than two solitons."""
        if len(self.velocities) < 2:
            return 0.02
        gaps = np.diff(sorted(self.velocities))
        return 0.5 * float(np.min(gaps))


def velocity_of(k: complex) -> float:
    q = 4.0 * abs(k) ** 2
    return q / (1.0 + q)


def find_zeros(sd: ScatteringData,
               box: tuple[float, float, float, float] | None = None,
               sigma: float = BandParams.sigma,
               prefetch=()) -> SolitonSpectrum:
    """Locate all zeros of b inside ``box`` (re_lo, re_hi, im_lo, im_hi),
    by default ``default_search_box(sigma)``, with im_lo raised to
    IM_FLOOR; the spectrum's ``box`` is the box searched.

    The pencil's eigenvalues, Newton's seeds and the winding count's first
    samples are fixed before any solve, and one Jost solve
    (``ScatteringData.prefetch``) takes them all.  Its plain points, which
    set its steps, are the caller's ``prefetch`` points and the count's
    regular samples, which depend on the box alone.  Its derivative points,
    which take those steps, are the seeds (Newton's first pass) and the
    count's anchor samples, the ones nearest the eigenvalues just outside
    the box; so the spectrum does not depend on which spurious eigenvalues
    the pencil adds.  Every solve is kept, and a read of kept points costs
    no solve: the count's first samples, Newton's df after its f, and the
    caller's later reads of a and b at its points solve nothing.
    One batched Newton with the variational derivative starts from every
    eigenvalue in the box of the Jost system's pencil
    (``ScatteringData.pencil_zeros``) at n = max(32, ceil(1.6 T R)) nodes,
    R the box's farthest corner; each pass after the first is one
    variational solve of the iterates still running.  It decides: seeds
    that diverge, or whose iterates stray more than d = 1/(2T) from the box
    or past the growth guard (NaN there, with no solve), are spurious,
    limits outside the box are dropped, and limits within 1e-8 max(1, |k|)
    are one zero.  The kept limits' a, b and bdot are those of the passes
    that reached them, and each zero is its limit minus b/bdot.  A winding
    count over the box, its first samples d apart, certifies their number.
    It counts b times the phase factor conj(k - x)/|k - x| of each
    eigenvalue x strictly outside the closed box and within d of it: |f| =
    |b|, and the factors wind zero times, but they take the fast turn of
    b's phase at a zero just outside the box (the real zeros under the
    bottom edge) out of the samples.  The contour point nearest each such x
    is a first sample, so a zero just inside whose eigenvalue the pencil put
    just outside is still counted, and Newton's missing it raises.  Raises
    DomainError when n > 1024, before any solve, and AssumptionViolated
    when the count and Newton disagree, or when the zeros are not simple,
    touch the real line, or share a modulus.
    """
    if box is None:
        box = default_search_box(sigma)
    re_lo, re_hi, im_lo, im_hi = box
    im_lo = max(im_lo, IM_FLOOR)
    if im_hi <= im_lo:
        raise ValueError("search box must lie in Im k > 0")
    box = (re_lo, re_hi, im_lo, im_hi)
    T = sd.pulse.support
    R = math.hypot(max(-re_lo, re_hi), im_hi)
    n = max(32, math.ceil(1.6 * T * R))
    if n > _PENCIL_MAX_N:
        raise DomainError(
            f"the pencil for T = {T} and R = {R:.6g} needs n = {n} nodes, "
            f"past its limit {_PENCIL_MAX_N}; search a smaller box")
    d = 0.5 / T

    def inside(k):
        return re_lo < k.real < re_hi and im_lo < k.imag < im_hi

    def gap(k):   # distance from k to the closed box
        return math.hypot(max(re_lo - k.real, 0.0, k.real - re_hi),
                          max(im_lo - k.imag, 0.0, k.imag - im_hi))

    def solve(ks):   # a, b, a', b' at ks, NaN where k strays from the box
        ok = np.array([gap(k) <= d and T * abs(k.imag) <= GROWTH_GUARD
                       for k in ks], dtype=bool)
        v = np.full((4, len(ks)), complex(np.nan))
        if ok.any():
            v[:, ok] = sd.ab_and_derivs_many(ks[ok])
        return v

    eigs = sd.pencil_zeros(n, 0.5 * complex(re_lo + re_hi, im_lo + im_hi))
    seeds = np.array([k for k in eigs if inside(k)], dtype=complex)
    outside = np.array([x for x in eigs if 0.0 < gap(x) <= d])
    regular, near = first_samples(box, d, outside)
    sd.prefetch(np.concatenate([prefetch, regular]),
                np.concatenate([seeds, near]))
    limits = complex_newton(lambda k: solve(k)[1], lambda k: solve(k)[3],
                            seeds, sd.tol.root_tol) if seeds.size else []
    kept = []
    for k in limits:
        if inside(k) and all(abs(k - y) > 1e-8 * max(1.0, abs(k)) for y in kept):
            kept.append(k)

    def deflated_b(k):
        u = np.subtract.outer(k, outside)
        return sd.ab_many(k)[1] * np.prod(np.conj(u) / np.abs(u), axis=-1)

    count = count_zeros_rect(deflated_b, box, sd.tol.root_tol, spacing=d,
                             anchors=outside)
    if count != len(kept):
        raise AssumptionViolated(
            f"winding count {count} on {box} but Newton from the pencil finds "
            f"{len(kept)} zeros" + (": b has no poles; the contour is "
                                       "undersampled" if count < 0 else ""))

    a, b, _, bdot = solve(np.array(kept, dtype=complex))
    zeros = kept - b / bdot
    order = np.argsort(np.abs(zeros), kind="stable")
    zeros, a, bdot = [complex(k) for k in zeros[order]], a[order], bdot[order]
    _validate(zeros, bdot)
    residues = [complex(g) for g in 1.0 / (a * bdot)]
    velocities = [velocity_of(k) for k in zeros]
    return SolitonSpectrum(tuple(zeros), tuple(residues), tuple(velocities),
                           box=box)


def _validate(zeros, bdot):
    """Check the assumptions on the zeros, given bdot at each of them."""
    for k, d in zip(zeros, bdot):
        if k.imag <= 1e-8:
            raise AssumptionViolated(f"zero {k} touches the real line")
        if abs(d) <= 1e-10:
            raise AssumptionViolated(f"zero {k} is not simple: |bdot| = {abs(d):.2e}")
    mods = [abs(k) for k in zeros]
    for m1, m2 in zip(mods[:-1], mods[1:]):
        if (m2 - m1) / max(m2, 1e-300) <= 1e-6:
            raise AssumptionViolated(
                f"moduli {m1} and {m2} are not pairwise distinct")


def tail_cone_radius(sigma: float) -> float:
    """K = sqrt(v / (1 - v)) / 2 with v = 1 - sigma/2: the largest |k| whose
    velocity_of(k) <= v reaches the tail cone x/t <= 1 - sigma past any
    match window.  It bounds, with margin, the k0 = sqrt(x/tau)/2 <=
    sqrt((1 - sigma)/sigma)/2 of every tail point."""
    v = 1.0 - 0.5 * sigma
    return 0.5 * math.sqrt(v / (1.0 - v))


def default_search_box(sigma: float = BandParams.sigma
                       ) -> tuple[float, float, float, float]:
    """The box (-K, K, IM_FLOOR, K), K = tail_cone_radius(sigma), of every
    zero whose soliton reaches the tail cone.  It does not depend on the
    pulse.  Some pulses have infinitely many zeros, so no finite box holds
    them all."""
    K = tail_cone_radius(sigma)
    return (-K, K, IM_FLOOR, K)


def velocity_match(spec: SolitonSpectrum, t: float, x: float) -> int | None:
    """Index j of the soliton with v_j - w < x/t < v_j + w, w =
    spec.match_window(), or None: the windows are disjoint."""
    w = spec.match_window()
    ratio = x / t
    return next((j for j, v in enumerate(spec.velocities)
                 if v - w < ratio < v + w), None)
