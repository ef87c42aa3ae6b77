"""Shared numerical kernels: adaptive quadrature, winding-number zero counts,
complex Newton refinement, and an adaptive embedded Runge-Kutta advance.

All routines are pure functions of their inputs and deterministic for fixed
arguments, so concurrent use needs no locking.
"""

from __future__ import annotations

import heapq
import logging
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import BoundaryZero, Diverged, NonConvergence, StepUnderflow

logger = logging.getLogger(__name__)

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class Tolerances:
    """Accuracy knobs shared by the scattering and asymptotic evaluators."""

    ode_rel: float = 1e-10
    ode_abs: float = 1e-12
    quad_tol: float = 1e-10
    root_tol: float = 1e-10

    def __post_init__(self):
        for name in ("ode_rel", "ode_abs", "quad_tol", "root_tol"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be strictly positive")
        if self.quad_tol < 10 * _EPS:
            raise ValueError("quad_tol below 10*machine epsilon is not resolvable")

    def scaled(self, factor: float) -> "Tolerances":
        return Tolerances(
            ode_rel=self.ode_rel * factor,
            ode_abs=self.ode_abs * factor,
            quad_tol=self.quad_tol * factor,
            root_tol=self.root_tol * factor,
        )


# 15-point Kronrod extension of the 7-point Gauss rule (positive half).
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])          # 15 ascending nodes
_WK = np.concatenate([_WGK[:-1], _WGK[::-1]])              # Kronrod weights
_WGFULL = np.zeros(15)
_WGFULL[1:-1:2] = np.concatenate([_WG[:-1], _WG[::-1]])    # Gauss weights on shared nodes


def _gk15(f, a: float, b: float):
    """One Gauss-Kronrod panel; returns (integral, error estimate)."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    x = mid + half * _NODES
    fx = np.array([f(t) for t in x], dtype=float)
    k = half * float(np.dot(_WK, fx))
    g = half * float(np.dot(_WGFULL, fx))
    return k, abs(k - g)


def adaptive_quad(f: Callable[[float], float], a: float, b: float,
                  tol: float, max_panels: int = 4000,
                  split_points: Sequence[float] | None = None) -> float:
    """Integrate ``f`` over ``[a, b]`` to |error| <= tol*(1+|result|).

    Globally adaptive Gauss-Kronrod panels; the worst panel is bisected until
    the accumulated error estimate meets the tolerance.  ``split_points``
    forces initial panel boundaries (useful when integrable log singularities
    sit at known interior points).
    """
    if a == b:
        return 0.0
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0

    edges = [a, b]
    if split_points:
        edges += [p for p in split_points if a < p < b]
        edges = sorted(set(edges))

    heap = []
    counter = 0
    total = 0.0
    total_err = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        val, err = _gk15(f, lo, hi)
        heapq.heappush(heap, (-err, counter, lo, hi, val))
        counter += 1
        total += val
        total_err += err

    while total_err > 0.5 * tol * (1.0 + abs(total)):
        if counter >= max_panels:
            raise NonConvergence(
                f"quadrature error {total_err:.3e} after {counter} panels "
                f"(target {tol:.1e}); integrand is likely pathological")
        neg_err, _, lo, hi, val = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            # Panel at floating resolution: its estimate cannot improve.
            total_err += neg_err  # remove the irreducible contribution
            continue
        v1, e1 = _gk15(f, lo, mid)
        v2, e2 = _gk15(f, mid, hi)
        total += (v1 + v2) - val
        total_err += (e1 + e2) + neg_err
        heapq.heappush(heap, (-e1, counter, lo, mid, v1))
        counter += 1
        heapq.heappush(heap, (-e2, counter, mid, hi, v2))
        counter += 1
    return sign * total


def count_zeros_rect(f: Callable[[np.ndarray], np.ndarray],
                     rect: tuple[float, float, float, float],
                     root_tol: float = 1e-10,
                     max_samples: int = 200000) -> int:
    """Count zeros of analytic ``f`` inside the rectangle by winding number.

    ``rect`` is (re_lo, re_hi, im_lo, im_hi).  The boundary phase is tracked
    on an adaptively refined sampling until adjacent phase steps stay below
    pi/2, which pins the continuous argument without needing f'.  ``f`` is
    called on 1-D arrays of boundary points; a scalar return is broadcast.
    """
    re_lo, re_hi, im_lo, im_hi = rect
    if not (re_hi > re_lo and im_hi > im_lo):
        raise ValueError("rectangle must have positive width and height")
    # closed boundary path, counterclockwise, parameterized on [0, 4]
    corners = np.array([complex(re_lo, im_lo), complex(re_hi, im_lo),
                        complex(re_hi, im_hi), complex(re_lo, im_hi),
                        complex(re_lo, im_lo)])

    def sample(s: np.ndarray) -> np.ndarray:
        edge = np.minimum(s.astype(int), 3)
        z = corners[edge] + (s - edge) * (corners[edge + 1] - corners[edge])
        v = np.broadcast_to(np.asarray(f(z), dtype=complex), z.shape)
        if np.min(np.abs(v)) < root_tol:
            raise BoundaryZero(f"|f| = {np.min(np.abs(v)):.3e} on the "
                               "contour; perturb the rectangle")
        return v

    # 4 samples per edge; the closure sample equals the start point.  Each
    # pass bisects, in one call of f, every step whose phase change reaches
    # pi/2; a step's bisection depends on its own end values only, so the
    # final samples do not depend on the order of the passes.
    params = np.linspace(0.0, 4.0, 17)
    values = sample(params[:-1])
    values = np.append(values, values[0])
    while True:
        dphi = np.angle(values[1:] / values[:-1])
        bad = np.flatnonzero(np.abs(dphi) >= 0.5 * math.pi)
        if bad.size == 0:
            break
        if len(params) > max_samples:
            raise NonConvergence("boundary phase tracking did not settle")
        mids = 0.5 * (params[bad] + params[bad + 1])
        params = np.insert(params, bad + 1, mids)
        values = np.insert(values, bad + 1, sample(mids))

    winding = float(np.sum(dphi)) / (2.0 * math.pi)
    n = int(round(winding))
    if abs(winding - n) > 0.25:
        raise NonConvergence(
            f"winding number {winding:.4f} is not close to an integer")
    return n


def complex_newton(f: Callable[[complex], complex],
                   df: Callable[[complex], complex],
                   seed: complex, tol: float,
                   max_iter: int = 60) -> complex:
    """Refine a zero of ``f`` from ``seed``; returns z with |f(z)| <= tol."""
    z = complex(seed)
    history = []
    for it in range(max_iter):
        fz = f(z)
        history.append(abs(fz))
        if abs(fz) <= tol:
            logger.debug("newton converged in %d steps, residuals %s",
                         it, ["%.2e" % h for h in history[-4:]])
            return z
        dfz = df(z)
        if dfz == 0 or not np.isfinite(abs(dfz)):
            raise Diverged(f"derivative vanished/blew up at {z}")
        step = fz / dfz
        if not np.isfinite(abs(step)):
            raise Diverged(f"non-finite Newton step at {z}")
        z = z - step
    raise Diverged(
        f"no convergence after {max_iter} iterations; last |f| = {history[-1]:.3e}")


# Dormand-Prince 5(4) coefficients.
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_E = np.array([35 / 384 - 5179 / 57600, 0.0, 500 / 1113 - 7571 / 16695,
                  125 / 192 - 393 / 640, -2187 / 6784 + 92097 / 339200,
                  11 / 84 - 187 / 2100, -1 / 40])


def ode_advance(rhs: Callable[[float, np.ndarray], np.ndarray],
                t0: float, t1: float, y0, tol: float,
                atol: float | None = None,
                max_steps: int = 2_000_000) -> np.ndarray:
    """Advance y' = rhs(t, y) from t0 to t1 with an embedded 5(4) pair.

    Per-step error is held at ``tol`` (relative) + ``atol`` (absolute,
    defaults to tol*1e-2) by a PI step controller.  Supports complex state
    vectors and backward integration (t1 < t0).
    """
    y = np.atleast_1d(np.asarray(y0, dtype=complex)).copy()
    if t1 == t0:
        return y
    if atol is None:
        atol = tol * 1e-2
    span = t1 - t0
    direction = 1.0 if span > 0 else -1.0
    t = t0

    f0 = np.asarray(rhs(t, y), dtype=complex)
    scale0 = atol + tol * np.abs(y)
    d0 = float(np.sqrt(np.mean(np.abs(y / scale0) ** 2)))
    d1 = float(np.sqrt(np.mean(np.abs(f0 / scale0) ** 2)))
    h = 0.01 * d0 / d1 if (d0 > 1e-5 and d1 > 1e-5) else abs(span) * 1e-4
    h = direction * min(h, abs(span))

    safety, beta, expo1 = 0.9, 0.04, 0.2 - 0.04 * 0.75
    facold = 1e-4
    k = [None] * 7
    k[0] = f0  # stays valid for the current (t, y): FSAL on accept, reuse on reject

    for _ in range(max_steps):
        if (t - t1) * direction >= 0.0:
            return y
        if abs(h) < 1e-14 * abs(span):
            raise StepUnderflow(f"step {h:.3e} below resolvable scale at t={t}")
        if (t + h - t1) * direction > 0.0:
            h = t1 - t

        for i in range(1, 7):
            yi = y.copy()
            for j, aij in enumerate(_DP_A[i]):
                if aij != 0.0:
                    yi += (h * aij) * k[j]
            k[i] = np.asarray(rhs(t + _DP_C[i] * h, yi), dtype=complex)
        ynew = yi  # stage 7 argument is the 5th-order solution (FSAL)

        err_vec = h * sum(e * ki for e, ki in zip(_DP_E, k) if e != 0.0)
        scale = atol + tol * np.maximum(np.abs(y), np.abs(ynew))
        err = float(np.sqrt(np.mean(np.abs(err_vec / scale) ** 2)))

        if err <= 1.0:
            t += h
            y = ynew
            k[0] = k[6]  # FSAL
            fac = (err ** expo1) / (facold ** beta) if err > 0 else 1e-10
            facold = max(err, 1e-4)
            h *= min(10.0, max(0.2, safety / max(fac, 1e-10)))
        else:
            h *= max(0.2, safety / (err ** expo1))
    raise StepUnderflow(f"step budget exhausted near t={t}")
