"""Zeros of b in the open upper half-plane and their residue data.

These spectral points generate the solitons riding on the oscillatory
background in the tail region; zeros of a are irrelevant there and are not
searched for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (AmbiguousMatch, AssumptionViolated, Diverged,
                     DomainError, Overflow)
from .lightcone_asym import BandParams
from .numerics import complex_newton, count_zeros_rect
from .scattering import ScatteringData

_IM_FLOOR = 1e-4      # zeros below this would violate the off-axis assumption
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

    def default_match_eps(self) -> float:
        """Half the minimal velocity gap; 0.02 when fewer than two solitons."""
        if len(self.velocities) < 2:
            return 0.02
        gaps = np.diff(sorted(self.velocities))
        return 0.5 * float(np.min(gaps))


def velocity_of(k: complex) -> float:
    q = 4.0 * abs(k) ** 2
    return q / (1.0 + q)


def find_zeros(sd: ScatteringData,
               box: tuple[float, float, float, float] | None = None,
               sigma: float = BandParams.sigma) -> SolitonSpectrum:
    """Locate all zeros of b inside ``box`` (re_lo, re_hi, im_lo, im_hi),
    by default ``default_search_box(sd, sigma)``.

    Newton with the variational derivative starts from each eigenvalue in
    the box of the Jost system's pencil (``ScatteringData.pencil_zeros``)
    at n = max(32, ceil(1.6 T R)) nodes, R the box's farthest corner, and
    decides: seeds that diverge, or whose iterates stray more than d =
    1/(2T) from the box, are spurious, limits outside the box are dropped,
    and limits within 1e-8 max(1, |k|) are one zero.  A winding count over
    the box, its first samples d apart, certifies their number.  It counts
    b times the phase factor conj(k - x)/|k - x| of each eigenvalue x
    strictly outside the closed box and within d of it: |f| = |b|, and the
    factors wind zero times, but they take the fast turn of b's phase at a
    zero just outside the box (the real zeros under the bottom edge) out
    of the samples.  The contour point nearest each such x is a first
    sample, so a zero just inside whose eigenvalue the pencil put just
    outside is still counted, and Newton's missing it raises.  Raises
    DomainError when n > 1024, before any solve, and AssumptionViolated
    when the count and Newton disagree, or when the zeros are not simple,
    touch the real line, or share a modulus.
    """
    if box is None:
        box = default_search_box(sd, sigma)
    re_lo, re_hi, im_lo, im_hi = box
    im_lo = max(im_lo, _IM_FLOOR)
    if im_hi <= im_lo:
        raise ValueError("search box must lie in Im k > 0")
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

    def near(k):
        return gap(k) <= d

    eigs = sd.pencil_zeros(n, 0.5 * complex(re_lo + re_hi, im_lo + im_hi))
    refined = []
    for z in (_refine_zero(sd, k, near) for k in eigs if inside(k)):
        if z and inside(z[0]) and all(
                abs(z[0] - y[0]) > 1e-8 * max(1.0, abs(z[0])) for y in refined):
            refined.append(z)
    outside = np.array([x for x in eigs if 0.0 < gap(x) <= d])

    def deflated_b(k):
        u = np.subtract.outer(k, outside)
        return sd.ab_many(k)[1] * np.prod(np.conj(u) / np.abs(u), axis=-1)

    count = count_zeros_rect(deflated_b, (re_lo, re_hi, im_lo, im_hi),
                             sd.tol.root_tol, spacing=d, anchors=outside)
    if count != len(refined):
        raise AssumptionViolated(
            f"winding count {count} on {box} but Newton from the pencil finds "
            f"{len(refined)} zeros" + (": b has no poles; the contour is "
                                       "undersampled" if count < 0 else ""))

    refined.sort(key=lambda z: abs(z[0]))
    zeros = [z[0] for z in refined]
    a, bdot = np.array([z[1:] for z in refined]).reshape(-1, 2).T
    _validate(zeros, bdot)
    residues = [complex(g) for g in 1.0 / (a * bdot)]
    velocities = [velocity_of(k) for k in zeros]
    return SolitonSpectrum(tuple(zeros), tuple(residues), tuple(velocities),
                           box=box)


def _refine_zero(sd: ScatteringData, seed: complex, near):
    """Newton from ``seed``: the zero k, with a and bdot at Newton's last
    iterate, or None if Newton diverges, passes the growth guard or takes
    an iterate where ``near`` is false."""
    last = {}   # the iterate of the latest variational solve, its a, b, a', b'

    def solve(k):
        if last.get("k") != k:
            if not near(k):
                raise Diverged(f"Newton strayed from the search box to {k}")
            last["k"] = k
            last["ab"] = [complex(v[0]) for v in sd.ab_and_derivs_many([k])]
        return last["ab"]

    try:
        k = complex_newton(lambda k: solve(k)[1], lambda k: solve(k)[3], seed,
                           sd.tol.root_tol)
    except (Diverged, Overflow):
        return None
    return k, last["ab"][0], last["ab"][3]


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


def default_search_box(sd: ScatteringData, sigma: float = BandParams.sigma
                       ) -> tuple[float, float, float, float]:
    """The box (-K, K, _IM_FLOOR, K), K = tail_cone_radius(sigma), of every
    zero whose soliton reaches the tail cone.  It does not depend on the
    pulse.  Some pulses have infinitely many zeros, so no finite box holds
    them all."""
    K = tail_cone_radius(sigma)
    return (-K, K, _IM_FLOOR, K)


def velocity_match(spec: SolitonSpectrum, t: float, x: float,
                   eps: float | None = None) -> int | None:
    """Index j of the unique soliton with |x/t - v_j| < eps, or None."""
    if eps is None:
        eps = spec.default_match_eps()
    ratio = x / t
    hits = [j for j, v in enumerate(spec.velocities) if abs(ratio - v) < eps]
    if not hits:
        return None
    if len(hits) > 1:
        raise AmbiguousMatch(
            f"velocities {[spec.velocities[j] for j in hits]} all within "
            f"{eps} of x/t = {ratio}; shrink eps")
    return hits[0]
