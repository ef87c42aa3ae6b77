"""Shared numerical kernels: tanh-sinh quadrature, winding-number zero
counts, complex Newton refinement, and an adaptive embedded Runge-Kutta
advance.

The quadrature (``adaptive_quad``) is a tanh-sinh rule with one panel
between consecutive split points, so integrable singularities at the split
points and at the ends need no special case: no node lands on a panel edge.
Its integrand takes an array.  Each level calls it once, on the new nodes of
all panels, and halves the step until two levels agree.

The winding count (``count_zeros_rect``) bisects the boundary steps whose
phase change reaches pi/2.  When a pass needs midpoints not sampled yet, it
samples the whole dyadic subtree ``_AHEAD`` levels deep under each such step
in one call of ``f``, so a batched ``f`` (one Jost solve) is called about
once per ``_AHEAD`` passes.  Only the samples plain bisection keeps enter the
count and the boundary-zero check, so the count is that of plain bisection.

The Runge-Kutta advance (``ode_advance``) integrates an ODE whose time
dependence sits in one coefficient ``c(t)``, such as the pulse in the Jost
equation.  Its state is a complex array of any shape, e.g. one column per
spectral point.  It evaluates the coefficient once per step attempt, on that
attempt's six stage times, and the right-hand side writes each stage into
one array of stages in place.  So a batched solve costs a fixed handful of
NumPy calls per step, whatever the batch size.

All routines are pure functions of their inputs and deterministic for fixed
arguments, so concurrent use needs no locking.
"""

from __future__ import annotations

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


_TS_H0 = 0.125    # coarsest step of the tanh-sinh rule in t
_TS_TMAX = 4.0    # |t| range of the rule: nodes within ~1e-37 of the ends


def _tanh_sinh_level(level: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes that ``level`` adds to the tanh-sinh rule on [-1, 1], as
    (side, c, w): the node is side * (1 - c), with c = 1 - tanh(u) written
    without cancellation, and w is its weight per unit step in t.  Level 0
    has step _TS_H0; each further level halves it and adds the odd
    multiples of the new step."""
    h = _TS_H0 / 2 ** level
    if level == 0:
        t = h * np.arange(-round(_TS_TMAX / h), round(_TS_TMAX / h) + 1)
    else:
        n = round(_TS_TMAX / (2 * h))
        t = h * (2 * np.arange(-n, n) + 1)
    u = 0.5 * math.pi * np.sinh(np.abs(t))
    c = np.exp(-u) / np.cosh(u)
    w = 0.5 * math.pi * np.cosh(t) / np.cosh(u) ** 2
    return np.sign(t), c, w


def adaptive_quad(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                  tol: float, max_level: int = 6,
                  split_points: Sequence[float] | None = None) -> float:
    """Integrate ``f`` over ``[a, b]`` to |error| <= tol*(1+|result|).

    Level-adaptive tanh-sinh rule (Takahasi & Mori, Publ. RIMS 9, 1974)
    with one panel between consecutive ``split_points`` inside (a, b), so
    integrable singularities there, as at the ends, are panel edges.  The
    rule never samples an edge: a node that rounds onto one is dropped.
    ``f`` is called once per level, on a 1-D array of the new nodes of all
    panels; a scalar return is broadcast.  The step in t halves, reusing
    the nodes of the coarser levels, until two levels agree; past
    ``max_level`` halvings it raises NonConvergence.
    """
    if a == b:
        return 0.0
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0
    edges = sorted({a, b, *(p for p in split_points or () if a < p < b)})
    lo = np.array(edges[:-1])[:, None]
    hi = np.array(edges[1:])[:, None]
    half = 0.5 * (hi - lo)

    total = 0.0
    for level in range(max_level + 1):
        side, c, w = _tanh_sinh_level(level)
        s = np.where(side > 0, hi - half * c, lo + half * c)
        keep = (s > lo) & (s < hi)
        s, w = s[keep], (half * w)[keep]
        fs = np.broadcast_to(np.asarray(f(s), dtype=float), s.shape)
        prev, total = total, 0.5 * total + _TS_H0 / 2 ** level * float(fs @ w)
        if level > 0 and abs(total - prev) <= tol * (1.0 + abs(total)):
            return sign * total
    raise NonConvergence(
        f"quadrature levels differ by {abs(total - prev):.3e} at step "
        f"{_TS_H0 / 2 ** max_level:.1e} (target {tol:.1e}); integrand is "
        "likely pathological")


_AHEAD = 4   # bisection levels of the winding count sampled per call of f


def _bisection_tree(lo: np.ndarray, hi: np.ndarray, depth: int) -> np.ndarray:
    """Every midpoint that ``depth`` levels of bisection of the steps
    [lo, hi] can form, each formed as bisection forms it: 0.5 * (lo + hi)."""
    mids = []
    for _ in range(depth):
        mid = 0.5 * (lo + hi)
        mids.append(mid)
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
    return np.concatenate(mids)


def count_zeros_rect(f: Callable[[np.ndarray], np.ndarray],
                     rect: tuple[float, float, float, float],
                     root_tol: float = 1e-10,
                     max_samples: int = 200000) -> int:
    """Count zeros of analytic ``f`` inside the rectangle by winding number.

    ``rect`` is (re_lo, re_hi, im_lo, im_hi).  The boundary phase is tracked
    on an adaptively refined sampling until adjacent phase steps stay below
    pi/2, which pins the continuous argument without needing f'.  ``f`` is
    called on 1-D arrays of boundary points; a scalar return is broadcast.

    A pass that needs unsampled midpoints samples, in one call of ``f``, the
    dyadic subtree ``_AHEAD`` levels deep under each step it bisects; later
    passes take their midpoints from it.  BoundaryZero (``|f| < root_tol``)
    is raised on the samples bisection keeps only, so neither the kept
    samples nor the count depend on ``_AHEAD``.
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
        return np.broadcast_to(np.asarray(f(z), dtype=complex), z.shape)

    def kept(v: np.ndarray) -> np.ndarray:
        if np.min(np.abs(v)) < root_tol:
            raise BoundaryZero(f"|f| = {np.min(np.abs(v)):.3e} on the "
                               "contour; perturb the rectangle")
        return v

    # 4 samples per edge; the closure sample equals the start point.  Each
    # pass bisects every step whose phase change reaches pi/2; a step's
    # bisection depends on its own end values only, so the final samples do
    # not depend on the order of the passes.
    params = np.linspace(0.0, 4.0, 17)
    values = kept(sample(params[:-1]))
    values = np.append(values, values[0])
    ahead: dict[float, complex] = {}   # sampled midpoints not yet kept
    while True:
        dphi = np.angle(values[1:] / values[:-1])
        bad = np.flatnonzero(np.abs(dphi) >= 0.5 * math.pi)
        if bad.size == 0:
            break
        if len(params) > max_samples:
            raise NonConvergence("boundary phase tracking did not settle")
        lo, hi = params[bad], params[bad + 1]
        mids = 0.5 * (lo + hi)
        keys = mids.tolist()
        missing = np.array([m not in ahead for m in keys])
        if missing.any():
            tree = _bisection_tree(lo[missing], hi[missing], _AHEAD)
            ahead.update(zip(tree.tolist(), sample(tree).tolist()))
        new = kept(np.array([ahead.pop(m) for m in keys]))
        params = np.insert(params, bad + 1, mids)
        values = np.insert(values, bad + 1, new)

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


# Dormand-Prince 5(4) tableau (Dormand & Prince, J. Comput. Appl. Math. 6,
# 1980): stage nodes, stage rows (the last row is the 5th-order solution, so
# its stage is the next step's first), and the weights of the error estimate.
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0, 0.0],
    [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0, 0.0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0, 0.0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0, 0.0],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0],
])
_DP_E = np.array([35 / 384 - 5179 / 57600, 0.0, 500 / 1113 - 7571 / 16695,
                  125 / 192 - 393 / 640, -2187 / 6784 + 92097 / 339200,
                  11 / 84 - 187 / 2100, -1 / 40])


def ode_advance(rhs: Callable[[object, np.ndarray, np.ndarray], None],
                coef: Callable, t0: float, t1: float, y0, tol: float,
                atol: float | None = None,
                max_steps: int = 2_000_000) -> np.ndarray:
    """Advance y' = f(t, y) from t0 to t1 with the Dormand-Prince 5(4) pair.

    The time dependence of f enters through one coefficient: ``coef(t)``
    maps a float to a value and an array of times to the array of values.
    It is called once at t0 and then once per step attempt, on the six
    stage times of the attempt.  ``rhs(c, y, out)`` writes f at one stage
    into ``out`` (shaped like y), given that stage's coefficient ``c`` and
    state ``y``; it must not keep references to either array.

    The state is a complex array of any shape (a scalar becomes shape
    (1,)); the error norm is the RMS over all its entries.  Per-step error
    is held at ``tol`` (relative) + ``atol`` (absolute, defaults to
    tol*1e-2) by a PI step controller.  Backward integration (t1 < t0) is
    supported.  Raises StepUnderflow when the step falls below 1e-14 of the
    span or after ``max_steps`` attempts.
    """
    y = np.array(y0, dtype=complex, ndmin=1)
    if t1 == t0:
        return y
    if atol is None:
        atol = tol * 1e-2
    span = t1 - t0
    direction = 1.0 if span > 0 else -1.0
    t = t0

    # the seven stages, and a real view of them for the tableau contractions;
    # k[0] stays valid for the current (t, y): FSAL on accept, reuse on reject
    k = np.empty((7,) + y.shape, dtype=complex)
    k_flat = k.reshape(7, -1).view(float)
    rhs(coef(t), y, k[0])
    abs_y = np.abs(y)
    scale0 = atol + tol * abs_y
    d0 = float(np.sqrt(np.mean(np.abs(y / scale0) ** 2)))
    d1 = float(np.sqrt(np.mean(np.abs(k[0] / scale0) ** 2)))
    h = 0.01 * d0 / d1 if (d0 > 1e-5 and d1 > 1e-5) else abs(span) * 1e-4
    h = direction * min(h, abs(span))

    safety, beta, expo1 = 0.9, 0.04, 0.2 - 0.04 * 0.75
    facold = 1e-4

    for _ in range(max_steps):
        if (t - t1) * direction >= 0.0:
            return y
        if abs(h) < 1e-14 * abs(span):
            raise StepUnderflow(f"step {h:.3e} below resolvable scale at t={t}")
        if (t + h - t1) * direction > 0.0:
            h = t1 - t

        c = coef(t + h * _DP_C[1:])
        h_a = h * _DP_A
        for i in range(1, 7):
            yi = y + (h_a[i, :i] @ k_flat[:i]).view(complex).reshape(y.shape)
            rhs(c[i - 1], yi, k[i])
        ynew = yi  # stage 7 argument is the 5th-order solution (FSAL)

        # RMS of |error| / scale over all entries, on the (re, im) pairs
        abs_ynew = np.abs(ynew)
        scale = atol + tol * np.maximum(abs_y, abs_ynew)
        ratio = ((h * _DP_E) @ k_flat).reshape(-1, 2) / scale.reshape(-1, 1)
        err = math.sqrt(np.vdot(ratio, ratio) / scale.size)

        if err <= 1.0:
            t += h
            y, abs_y = ynew, abs_ynew
            k[0] = k[6]  # FSAL
            fac = (err ** expo1) / (facold ** beta) if err > 0 else 1e-10
            facold = max(err, 1e-4)
            h *= min(10.0, max(0.2, safety / max(fac, 1e-10)))
        else:
            h *= max(0.2, safety / (err ** expo1))
    raise StepUnderflow(f"step budget exhausted near t={t}")
