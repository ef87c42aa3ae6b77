"""Zeros of b in the open upper half-plane and their residue data.

These spectral points generate the solitons riding on the oscillatory
background in the tail region; zeros of a are irrelevant there and are not
searched for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AmbiguousMatch, AssumptionViolated, BoundaryZero
from .numerics import complex_newton, count_zeros_rect
from .scattering import GROWTH_GUARD, ScatteringData

_IM_FLOOR = 1e-4      # zeros below this would violate the off-axis assumption
_MAX_SUBDIV = 14
_BOX_HALFWIDTH = 4.0 * 1.6 * 1.6   # of the default search box


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


def _cell_count(sd: ScatteringData, cell):
    """Winding count on a cell, nudging the cell when a zero grazes it."""
    re_lo, re_hi, im_lo, im_hi = cell
    f = lambda k: sd.ab_many(k)[1]
    for attempt in range(6):
        try:
            return count_zeros_rect(f, (re_lo, re_hi, im_lo, im_hi),
                                    sd.tol.root_tol), \
                (re_lo, re_hi, im_lo, im_hi)
        except BoundaryZero:
            pad = (re_hi - re_lo) * 1e-3 * (attempt + 1)
            re_lo -= pad
            re_hi += pad
            im_lo = max(_IM_FLOOR * 0.5, im_lo - pad)
            im_hi += pad
    raise BoundaryZero(f"could not clear the boundary of cell {cell}")


def find_zeros(sd: ScatteringData,
               box: tuple[float, float, float, float] | None = None
               ) -> SolitonSpectrum:
    """Locate all zeros of b inside ``box`` (re_lo, re_hi, im_lo, im_hi).

    Quadtree subdivision by the argument principle until each cell holds at
    most one zero, then Newton refinement with the variational derivative,
    both to ``sd.tol.root_tol``.
    Raises AssumptionViolated when the found zeros are not simple, touch the
    real line, or have coinciding moduli.
    """
    if box is None:
        box = default_search_box(sd)
    re_lo, re_hi, im_lo, im_hi = box
    im_lo = max(im_lo, _IM_FLOOR)
    if im_hi <= im_lo:
        raise ValueError("search box must lie in Im k > 0")

    total, cell0 = _cell_count(sd, (re_lo, re_hi, im_lo, im_hi))
    if total == 0:
        return SolitonSpectrum((), (), (), box=box)

    refined: list[tuple[complex, complex, complex]] = []   # (k, a, bdot)
    stack = [(cell0, total, 0)]
    while stack:
        cell, count, depth = stack.pop()
        if count == 0:
            continue
        if count == 1:
            refined.append(_refine_zero(sd, cell))
            continue
        if depth >= _MAX_SUBDIV:
            raise AssumptionViolated(
                f"cell {cell} still holds {count} zeros at max subdivision; "
                "zeros are clustered or multiple")
        lo_re, hi_re, lo_im, hi_im = cell
        if hi_re - lo_re >= hi_im - lo_im:
            mid = 0.5 * (lo_re + hi_re)
            halves = [(lo_re, mid, lo_im, hi_im), (mid, hi_re, lo_im, hi_im)]
        else:
            mid = 0.5 * (lo_im + hi_im)
            halves = [(lo_re, hi_re, lo_im, mid), (lo_re, hi_re, mid, hi_im)]
        for half in halves:
            c, half_adj = _cell_count(sd, half)
            stack.append((half_adj, c, depth + 1))

    # Cell perturbation can make siblings overlap; drop duplicate refinements.
    unique: list[tuple[complex, complex, complex]] = []
    for z in refined:
        if all(abs(z[0] - u[0]) > 1e-8 * max(1.0, abs(z[0])) for u in unique):
            unique.append(z)
    if len(unique) != total:
        raise AssumptionViolated(
            f"argument principle counts {total} zeros but {len(unique)} were "
            "refined; a zero is grazing a cell boundary")

    unique.sort(key=lambda z: abs(z[0]))
    zeros = [z[0] for z in unique]
    a, bdot = np.array([z[1:] for z in unique]).T
    _validate(zeros, bdot)
    residues = [complex(g) for g in 1.0 / (a * bdot)]
    velocities = [velocity_of(k) for k in zeros]
    return SolitonSpectrum(tuple(zeros), tuple(residues), tuple(velocities),
                           box=box)


def _refine_zero(sd: ScatteringData, cell):
    """Newton from the cell centre; returns the zero k with a and bdot from
    the last variational solve, at the iterate of Newton's final step."""
    seed = complex(0.5 * (cell[0] + cell[1]), 0.5 * (cell[2] + cell[3]))
    last = {}   # the iterate of the latest variational solve, its a, b, a', b'

    def solve(k):
        if last.get("k") != k:
            last["k"] = k
            last["ab"] = [complex(v[0]) for v in sd.ab_and_derivs_many([k])]
        return last["ab"]

    k = complex_newton(lambda k: solve(k)[1], lambda k: solve(k)[3], seed,
                       sd.tol.root_tol)
    a, _, _, bdot = last["ab"]
    return k, a, bdot


def _validate(zeros, bdot):
    """Check the assumptions on the zeros, given bdot at each of them."""
    for k in zeros:
        if k.imag <= 1e-8:
            raise AssumptionViolated(f"zero {k} touches the real line")
    for k, d in zip(zeros, bdot):
        if abs(d) <= 1e-10:
            raise AssumptionViolated(f"zero {k} is not simple: |bdot| = {abs(d):.2e}")
    mods = [abs(k) for k in zeros]
    for m1, m2 in zip(mods[:-1], mods[1:]):
        if (m2 - m1) / max(m2, 1e-300) <= 1e-6:
            raise AssumptionViolated(
                f"moduli {m1} and {m2} are not pairwise distinct")


def default_search_box(sd: ScatteringData) -> tuple[float, float, float, float]:
    """The box (-K, K, _IM_FLOOR, K) with K = _BOX_HALFWIDTH, clipped so
    that T K stays within the Jost solve's growth guard.

    Zeros of b for a compact pulse cluster at spectral scales set by the
    pulse itself; callers probing farther should pass an explicit box.
    """
    T = sd.pulse.support
    K = min(_BOX_HALFWIDTH, GROWTH_GUARD / T)
    while K * T > GROWTH_GUARD:     # the quotient can round up
        K = math.nextafter(K, 0.0)
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
