"""Region classification near the light cone and the closed-form field
asymptotics there.  Parts 1-3 (Bessel growth up to the exponential layer)
share one Bessel formula, E = 4 k0 r I_{m-1}(xi), and differ only in the
error scale each carries; part 4 is the train of sech pulses of growing
amplitude.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .errors import NoRoot, WrongRegion
from .mb_oracle import FieldTriple
from .scattering import ScatteringData
from .specfun import bessel_i, sech

if TYPE_CHECKING:
    from .tail_asym import SolitonState


# Constants of the classification bands.  _EPS1 sits inside its allowed
# range; the strip cap constant bounds how many pulse bands are classified
# before the gap region begins.
_EPS1 = 0.25
_CAP_CONSTANT = 8.0
_PEAK_TOL = 1e-12     # |pulse phase| at which the peak iteration stops


@dataclass(frozen=True)
class BandParams:
    """Free parameters of the classification bands.

    tail_order is the start exponent m of the pulse; K is pinned to
    m + _EPS1 so the exponential-layer band starts exactly where the Bessel
    band ends.  sigma is the tail-cone aperture.
    """

    tail_order: float
    sigma: float = 0.25

    def __post_init__(self):
        if not (self.tail_order > 0):
            raise ValueError("tail order must be positive")
        if not (0 < self.sigma < 0.5):
            raise ValueError("sigma must lie in (0, 1/2)")

    @property
    def K(self) -> float:
        return self.tail_order + _EPS1


@dataclass(frozen=True)
class RegionTag:
    """Classification of one (t, x) point with its diagnostics."""

    variant: str                     # causal|part1|part2|part3|part4|tail|unsupported
    n: int | None = None             # band index for part4
    k0: float = math.nan
    xi: float = math.nan             # 2 sqrt(x (t-x))
    band: tuple[float, float] = field(default=(math.nan, math.nan))  # xi bounds


def classify(t: float, x: float, params: BandParams) -> RegionTag:
    """Partition of the quadrant t, x >= 0: every point gets exactly one tag.

    Boundary ties go to the higher-numbered part (sharper error control).
    The polylog bands exist only for x > e; the region between them and the
    tail cone is reported as unsupported, not extrapolated.  So is the input
    boundary x = 0 < t, where part 1's error scale k0^-m is infinite.
    """
    if t <= x:
        return RegionTag("causal")
    tau = t - x
    k0 = 0.5 * math.sqrt(x / tau)
    xi = 2.0 * math.sqrt(x * tau)
    if x == 0.0:
        return RegionTag("unsupported", k0=k0, xi=xi)
    m = params.tail_order

    if x > math.e:
        lnx = math.log(x)
        llx = math.log(lnx)          # > 0 for x > e
        xi_cap_sq = m * m * lnx * lnx + _CAP_CONSTANT * lnx * llx
        xi_iv0 = m * lnx - m * llx
        if xi >= xi_iv0 and xi * xi <= xi_cap_sq:
            # n >= 0 for xi >= xi_iv0; rounding at the edge gives -1
            n = max(0, math.floor((xi - m * lnx) / llx + m))
            return RegionTag("part4", n=n, k0=k0, xi=xi,
                             band=(m * lnx + (n - m) * llx,
                                   m * lnx + (n + 1 - m) * llx))
        # part 3 starts where part 2 ends: K = m + _EPS1
        xi23 = m * lnx - params.K * llx
        if xi23 > 0.0 and xi23 <= xi <= xi_iv0:
            return RegionTag("part3", k0=k0, xi=xi, band=(xi23, xi_iv0))
        if xi23 > 0.0 and tau >= 1.0 / x and xi <= xi23:
            return RegionTag("part2", k0=k0, xi=xi, band=(2.0, xi23))
    if tau <= 1.0 / x:
        return RegionTag("part1", k0=k0, xi=xi, band=(0.0, 2.0))
    ratio = x / t
    if params.sigma <= ratio <= 1.0 - params.sigma:
        return RegionTag("tail", k0=k0, xi=xi)
    return RegionTag("unsupported", k0=k0, xi=xi)


def k0_of(tau: float, x: float) -> float:
    """The stationary point k0 = sqrt(x/tau)/2 of the formulas past the
    light cone, at the cone offset tau = t - x; WrongRegion unless tau > 0
    and x > 0."""
    if not (tau > 0.0 and x > 0.0):
        raise WrongRegion(f"the asymptotic formulas need t > x > 0, not "
                          f"tau = t - x = {tau}, x = {x}")
    return 0.5 * math.sqrt(x / tau)


@dataclass(frozen=True)
class AsymptoticFields:
    """Leading-order field triple plus the error scale the formula carries,
    and the local soliton of a tail point near a soliton line."""

    fields: FieldTriple
    error_scale: float
    soliton: SolitonState | None = None


def eval_lightcone(variant: str, n: int | None, tau: float, x: float,
                   r: complex, m: float) -> AsymptoticFields:
    """Near-cone fields of region ``variant`` (band ``n`` for part4) at the
    cone offset tau = t - x, given r = r(i k0) at k0 = sqrt(x/tau)/2 and the
    tail order m.

    The offset enters directly: at very large x the difference t - x is not
    representable in doubles.
    """
    if variant not in ("part1", "part2", "part3", "part4"):
        raise WrongRegion(f"no near-cone formula for region '{variant}'")
    k0 = k0_of(tau, x)
    xi = 2.0 * math.sqrt(x * tau)

    if variant != "part4":
        i_hi = bessel_i(m, xi)
        fields = FieldTriple(4.0 * k0 * r * bessel_i(m - 1.0, xi),
                             1.0 - 2.0 * abs(r) ** 2 * i_hi ** 2,
                             2.0 * r * i_hi)
        if variant == "part1":
            return AsymptoticFields(fields, k0 ** (-m))
        q = m if variant == "part2" else m - 0.5
        p = m * math.log(x) - q * math.log(0.5 * xi) - xi
        return AsymptoticFields(fields, math.exp(-p))

    if not x > math.e:
        raise WrongRegion(f"region 'part4' needs x > e, not x = {x}")
    scale = 1.0 / math.sqrt(math.log(x))
    if r == 0:
        return AsymptoticFields(FieldTriple(0j, 1.0, 0j), scale)
    theta = pulse_phase(n, xi, abs(r))
    phase = cmath.exp(1j * cmath.phase(r))
    s = sech(theta)
    tanh = math.tanh(theta)
    amp = 2.0 * math.sqrt(x / tau)
    E = amp * (-1.0) ** n * phase * s
    N = 1.0 - 2.0 * s ** 2
    rho = 2.0 * (-1.0) ** (n - 1) * phase * tanh * s
    return AsymptoticFields(FieldTriple(E, N, rho), scale)


def pulse_phase(n: int, xi: float, r_abs: float) -> float:
    """Phase of the n-th sech pulse: xi - (n+1/2) ln(xi/2) + chi_n."""
    chi = (math.log(r_abs) + math.lgamma(n + 1.0)
           - 0.5 * math.log(math.pi) - (3 * n + 2) * math.log(2.0))
    return xi - (n + 0.5) * math.log(0.5 * xi) + chi


def peak_seed(x: float, n: int, m: float, c_abs: float) -> float:
    """Seed for the n-th pulse peak from the log-inversion expansion.

    Solving y - gamma ln y = z with y = sqrt(x(t-x)), gamma = (n+1/2-m)/2 and
    z = (m/2) ln x + const; the expansion is accurate to O(ln^3 z / z^3).
    """
    kappa = (math.lgamma(n + 1.0) - 0.5 * math.log(math.pi)
             - (3 * n + 2) * math.log(2.0))
    gamma = 0.5 * (n + 0.5 - m)
    z = 0.5 * m * math.log(x) - 0.5 * (math.log(c_abs) + m * math.log(2.0) + kappa)
    if z <= 1.0:
        raise NoRoot(f"band {n} is empty at x = {x} (z = {z:.3f})")
    lz = math.log(z)
    return (z + gamma * lz + gamma ** 2 * lz / z
            + gamma ** 3 * (-lz * lz + 2.0 * lz) / (2.0 * z * z))


def solve_peak_y(x: float, n: int, sd: ScatteringData) -> float:
    """Zero of the n-th pulse phase in the variable y = sqrt(x(t-x)).

    Newton from the log-inversion seed; the derivative uses the power-law
    slope m of the reflection tail.
    """
    fit = sd.tail_fit()
    m = fit.order

    def theta_of_y(y: float) -> float:
        k0 = x / (2.0 * y)
        r_abs = abs(sd.reflection_uhp(1j * k0))
        return pulse_phase(n, 2.0 * y, r_abs)

    y = peak_seed(x, n, m, abs(fit.constant))
    for _ in range(80):
        th = theta_of_y(y)
        if abs(th) < _PEAK_TOL:
            return y
        dth = 2.0 + (m - n - 0.5) / y
        step = th / dth
        if not math.isfinite(step) or abs(step) > 0.5 * y:
            raise NoRoot(f"peak iteration left the band at x = {x}, n = {n}")
        y -= step
    raise NoRoot(f"peak iteration did not converge at x = {x}, n = {n}")


def predict_peaks(x: float, n: int, sd: ScatteringData) -> float:
    """Time of the n-th pulse peak at distance x: the zero of its phase.

    The returned time carries the floating-point representation noise of
    x + y^2/x; for precision work at very large x use solve_peak_y.
    """
    y = solve_peak_y(x, n, sd)
    return x + y * y / x
