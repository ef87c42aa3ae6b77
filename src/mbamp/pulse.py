"""Input-pulse models: the boundary field entering the amplifier at x = 0.

All pulses are compactly supported on [0, T] with finite first moment, and
evaluate to exactly zero outside the support.

Each kind here is E = amplitude x a real shape, and declares its complex
``amplitude``.  The one Jost solve, ``ScatteringData.prefetch``, relies on
that contract: for a pulse with an ``amplitude`` it folds its plain points
onto Re k >= 0 and takes the rest from the mirror symmetry of a
constant-phase pulse (see ``ScatteringData.ab_many``).  A pulse whose phase
varies in t, such as a chirped one, must not declare an ``amplitude``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np


def _validate(amplitude: complex, support: float):
    if not cmath.isfinite(amplitude) or amplitude == 0:
        raise ValueError(f"amplitude {amplitude!r} must be finite and "
                         "nonzero")
    if not 0.0 < support < math.inf:
        raise ValueError(f"support T = {support!r} must be finite and "
                         "positive")


@dataclass(frozen=True)
class BoxPulse:
    """Constant field on [0, T].  Starts at t^0, i.e. start exponent 1."""

    amplitude: complex
    support: float

    start_exponent: ClassVar[float] = 1.0

    def __post_init__(self):
        _validate(self.amplitude, self.support)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        inside = (t >= 0.0) & (t <= self.support)
        out = np.where(inside, self.amplitude, 0.0 + 0.0j)
        return out if out.ndim else complex(out)

    def jumps(self) -> tuple[tuple[float, complex], ...]:
        """Discontinuities as (time, E(t+) - E(t-)) pairs."""
        return ((0.0, complex(self.amplitude)),
                (self.support, -complex(self.amplitude)))

    def start_terms(self) -> tuple[tuple[complex, float], ...]:
        """(c, p) pairs with E(t) = sum c t^(p-1) as t -> 0+."""
        return ((complex(self.amplitude), 1.0),)


@dataclass(frozen=True)
class PowerStartPulse:
    """c1 * t^(m-1) * (1 - t/T)^3 on [0, T]: clean power-law start at t = 0,
    polynomial roll-off at T."""

    amplitude: complex          # c1
    start_exponent: float       # m > 1
    support: float              # T

    def __post_init__(self):
        _validate(self.amplitude, self.support)
        if not 1.0 < self.start_exponent < math.inf:
            raise ValueError(f"start_exponent m = {self.start_exponent!r} "
                             "must be finite and exceed 1")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        T = self.support
        inside = (t > 0.0) & (t <= T)
        # a dummy t keeps t < 0 out of the fractional power, whose NaN
        # would warn
        ts = np.where(inside, t, 0.5 * T)
        val = self.amplitude * ts ** (self.start_exponent - 1.0) * (1.0 - ts / T) ** 3
        out = np.where(inside, val, 0.0 + 0.0j)
        return out if out.ndim else complex(out)

    def jumps(self) -> tuple[tuple[float, complex], ...]:
        return ()

    def start_terms(self) -> tuple[tuple[complex, float], ...]:
        """The whole polynomial, c1 t^(m-1) (1 - t/T)^3 expanded in t."""
        return tuple((complex(self.amplitude) * math.comb(3, n)
                      * (-1.0 / self.support) ** n, self.start_exponent + n)
                     for n in range(4))


@dataclass(frozen=True)
class SmoothBumpPulse:
    """c1 * t^(m-1) * exp(1 - 1/(1 - (t/T)^2)) on [0, T].

    The exponential factor equals 1 + O(t^2) at the origin, so the pulse
    keeps the genuine c1 * t^(m-1) start the power-law reflection tail needs,
    while every derivative vanishes at the far end T.
    """

    amplitude: complex          # c1
    start_exponent: float       # m > 1
    support: float              # T

    def __post_init__(self):
        _validate(self.amplitude, self.support)
        if not 1.0 < self.start_exponent < math.inf:
            raise ValueError(f"start_exponent m = {self.start_exponent!r} "
                             "must be finite and exceed 1")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        T = self.support
        inside = (t > 0.0) & (t < T)
        ts = np.where(inside, t, 0.5 * T)
        u2 = (ts / T) ** 2
        val = (self.amplitude * ts ** (self.start_exponent - 1.0)
               * np.exp(1.0 - 1.0 / (1.0 - u2)))
        out = np.where(inside, val, 0.0 + 0.0j)
        return out if out.ndim else complex(out)

    def jumps(self) -> tuple[tuple[float, complex], ...]:
        return ()

    def start_terms(self) -> tuple[tuple[complex, float], ...]:
        return ((complex(self.amplitude), float(self.start_exponent)),)


Pulse = BoxPulse | PowerStartPulse | SmoothBumpPulse
