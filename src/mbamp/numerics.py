"""Shared numerical kernels: tanh-sinh quadrature, winding-number zero
counts, batched complex Newton refinement, and an adaptive embedded 8th-order
Runge-Kutta advance.

The quadrature (``adaptive_quad``) is a tanh-sinh rule with one panel
between consecutive split points, so integrable singularities at the split
points and at the ends need no special case: no node lands on a panel edge.
Its integrand takes an array, and may stack several.  Each level calls it
once, on the new nodes of all panels, and halves the step until two levels
agree.

The winding count (``count_zeros_rect``) bisects the boundary steps whose
phase change reaches pi/2, one call of ``f`` per pass on the midpoints of
all such steps, so a batched ``f`` (one Jost solve) is called once per pass.
Its first samples are fixed by the rectangle (``first_samples``), so a
caller can solve them in advance together with other points.

The Newton iteration (``complex_newton``) runs all its seeds at once: each
pass calls ``f`` and then ``df`` once, on the iterates still running, so a
zero search makes one batched solve per pass, not one per seed and step.

The Runge-Kutta advance (``ode_advance``) integrates an ODE whose time
dependence sits in one coefficient ``c(t)``, such as the pulse in the Jost
equation.  Its state is a complex array of any shape, e.g. one column per
spectral point.  It uses Hairer's DOP853, an 8th-order pair: at the tight
tolerances of the Jost solves it takes several times fewer steps than a
5th-order pair, and the step count, not the cost of a stage, sets the cost
of a batched solve.  It evaluates the coefficient once per step attempt, on
that attempt's twelve stage times, and hands the values to the right-hand
side as Python scalars.  Each stage is then three calls, all in place: one
``np.dot`` of its tableau row with the earlier stages into a stage buffer,
one add of the state into it, and the right-hand side, which writes the
stage into one array of stages.  The stage buffer is reused across stages,
and an accepted step swaps it with the state.  So a batched solve costs a
fixed handful of NumPy calls per step and allocates nothing per stage,
whatever the batch size.

All routines are pure functions of their inputs and deterministic for fixed
arguments, so concurrent use needs no locking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import BoundaryZero, NonConvergence, StepUnderflow

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class Tolerances:
    """Accuracy knobs shared by the scattering and asymptotic evaluators."""

    ode_rel: float = 1e-11
    ode_abs: float = 1e-13
    quad_tol: float = 1e-10
    root_tol: float = 1e-10

    def __post_init__(self):
        for name in ("ode_rel", "ode_abs", "quad_tol", "root_tol"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be strictly positive")
        if self.quad_tol < 10 * _EPS:
            raise ValueError("quad_tol below 10*machine epsilon is not resolvable")


_TS_H0 = 0.125      # coarsest step of the tanh-sinh rule in t
_TS_TMAX = 4.0      # |t| range of the rule: nodes within ~1e-37 of the ends
_TS_MAX_LEVEL = 6   # halvings of the step before the quadrature gives up


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
                  tol: float, split_points: Sequence[float] | None = None):
    """Integrate ``f`` over ``[a, b]`` to |error| <= tol*(1+|result|).

    Level-adaptive tanh-sinh rule (Takahasi & Mori, Publ. RIMS 9, 1974)
    with one panel between consecutive ``split_points`` inside (a, b), so
    integrable singularities there, as at the ends, are panel edges.  The
    rule never samples an edge: a node that rounds onto one is dropped.
    ``f`` is called once per level, on a 1-D array of the new nodes of all
    panels; it returns a scalar (broadcast), N values, or an ``(m, N)``
    stack of m integrands, whose m integrals come back as an array.  The
    step in t halves, reusing the nodes of the coarser levels, until two
    levels agree in every component; past ``_TS_MAX_LEVEL`` halvings it raises
    NonConvergence.
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
    for level in range(_TS_MAX_LEVEL + 1):
        side, c, w = _tanh_sinh_level(level)
        s = np.where(side > 0, hi - half * c, lo + half * c)
        keep = (s > lo) & (s < hi)
        s, w = s[keep], (half * w)[keep]
        fs = np.asarray(f(s), dtype=float) + np.zeros_like(s)  # broadcast
        prev, total = total, 0.5 * total + _TS_H0 / 2 ** level * (fs @ w)
        diff = np.abs(total - prev)
        if level > 0 and np.all(diff <= tol * (1.0 + np.abs(total))):
            return sign * (total if np.ndim(total) else float(total))
    raise NonConvergence(
        f"quadrature levels differ by {np.max(diff):.3e} in component "
        f"{np.argmax(diff)} at step {_TS_H0 / 2 ** _TS_MAX_LEVEL:.1e} (target "
        f"{tol:.1e}); integrand is likely pathological")


_MAX_SAMPLES = 200000   # boundary samples before the winding count gives up


def _first_params(rect, spacing, anchors):
    """The closed boundary path of ``rect``, counterclockwise from its
    lower left corner and parameterized on [0, 4], the parameters of the
    first samples, sorted, with the closure 4, and which of them are
    regular samples, the rest being nearest an anchor only."""
    re_lo, re_hi, im_lo, im_hi = rect
    if not (re_hi > re_lo and im_hi > im_lo):
        raise ValueError("rectangle must have positive width and height")
    corners = np.array([complex(re_lo, im_lo), complex(re_hi, im_lo),
                        complex(re_hi, im_hi), complex(re_lo, im_hi),
                        complex(re_lo, im_lo)])
    steps = np.maximum(4, np.ceil(np.abs(np.diff(corners)) / spacing))
    grid = np.concatenate([edge + np.arange(m) / m
                           for edge, m in enumerate(steps)])
    # each anchor's nearest contour point: its projection onto each edge,
    # clipped to the edge, on the nearest of the four
    x = np.asarray(anchors, dtype=complex).reshape(-1, 1)
    a, ab = corners[:-1], np.diff(corners)
    t = np.clip(((x - a) * np.conj(ab)).real / np.abs(ab) ** 2, 0.0, 1.0)
    edge = np.argmin(np.abs(x - a - t * ab), axis=1)
    nearest = (edge + t[np.arange(len(x)), edge]) % 4.0
    # sorted without repeats, a regular sample first among equals;
    # np.unique would import numpy.ma, about 1 MB
    params = np.concatenate([grid, [4.0], nearest])
    order = np.argsort(params, kind="stable")
    params, regular = params[order], order <= grid.size
    keep = np.append(True, np.diff(params) > 0.0)
    return corners, params[keep], regular[keep]


def _on_contour(corners, s: np.ndarray) -> np.ndarray:
    edge = np.minimum(s.astype(int), 3)
    return corners[edge] + (s - edge) * (corners[edge + 1] - corners[edge])


def first_samples(rect: tuple[float, float, float, float],
                  spacing: float = math.inf,
                  anchors: Sequence[complex] = ()
                  ) -> tuple[np.ndarray, np.ndarray]:
    """The boundary points of ``count_zeros_rect``'s first call of ``f``
    for the same ``rect``, ``spacing`` and ``anchors``, in that call's
    order, as two arrays: the regular samples, which do not depend on
    ``anchors``, and the points nearest an anchor that are not among them.
    A caller can evaluate ``f`` there in advance."""
    corners, params, regular = _first_params(rect, spacing, anchors)
    z = _on_contour(corners, params[:-1])
    return z[regular[:-1]], z[~regular[:-1]]


def count_zeros_rect(f: Callable[[np.ndarray], np.ndarray],
                     rect: tuple[float, float, float, float],
                     root_tol: float = 1e-10,
                     spacing: float = math.inf,
                     anchors: Sequence[complex] = ()) -> int:
    """Count zeros of ``f`` inside the rectangle by winding number.

    ``f`` need only be continuous and nonzero on the contour: the count is
    its winding number, which for an analytic ``f`` is its number of zeros
    inside.  A caller may multiply an analytic function by phase factors
    that wind zero times, as ``find_zeros`` does to take the fast phase
    turn of a zero just outside the rectangle out of the samples.

    ``rect`` is (re_lo, re_hi, im_lo, im_hi).  The boundary phase is tracked
    on an adaptively refined sampling until adjacent phase steps stay below
    pi/2, which pins the continuous argument without needing f'.  ``f`` is
    called on 1-D arrays of boundary points; a scalar return is broadcast.
    The first samples (``first_samples``) depend on the rectangle,
    ``spacing`` and ``anchors`` only: the boundary from the lower left
    corner counterclockwise, each edge cut into max(4, ceil(length /
    spacing)) equal steps, and the contour point nearest each of
    ``anchors``.  Bisection refines only the phase changes these samples
    show.  Along its edge, a factor conj(k - x)/|k - x| turns by less than
    pi/2 on either side of the contour point nearest an outside x.  With
    that point a sample, a zero of f just inside and such an x just outside
    next to it turn f by less than 3pi/2 per step, and bisection resolves
    their 2pi turn, which samples far apart read as none.

    Each pass calls ``f`` once, on the midpoints of the steps it bisects.
    BoundaryZero is raised on a dip of a sample: ``|f|`` there at most
    ``root_tol`` times the larger ``|f|`` beside it, its contour neighbours
    for a first sample and the ends of the step it bisects for a midpoint.
    It is also raised when a step shorter than ``root_tol`` (in the edge
    parameter) still turns by pi/2: only a zero within about that step of
    the contour does so, and one off the samples need not dip at any
    midpoint.  Both tests are relative, so an ``f`` that is small all along
    the contour, such as a ``b`` decaying like ``|k|^-m``, counts.
    NonConvergence is raised past ``_MAX_SAMPLES`` samples.
    """
    corners, params, _ = _first_params(rect, spacing, anchors)

    def sample(s: np.ndarray) -> np.ndarray:
        z = _on_contour(corners, s)
        return np.broadcast_to(np.asarray(f(z), dtype=complex), z.shape)

    def kept(v: np.ndarray, left: np.ndarray, right: np.ndarray):
        """``v``, unless one of its samples dips to root_tol times the
        larger of ``left`` and ``right`` beside it."""
        mag = np.abs(v)
        dip = np.flatnonzero(mag <= root_tol * np.maximum(np.abs(left),
                                                          np.abs(right)))
        if dip.size:
            raise BoundaryZero(f"|f| = {mag[dip[0]]:.3e} on the contour; "
                               "perturb the rectangle")
        return v

    # The closure sample equals the start point.  Each pass bisects every
    # step whose phase change reaches pi/2; a step's bisection depends on
    # its own end values only, so the final samples do not depend on the
    # order of the passes.
    values = sample(params[:-1])
    values = kept(values, np.roll(values, 1), np.roll(values, -1))
    values = np.append(values, values[0])
    while True:
        dphi = np.angle(values[1:] / values[:-1])
        bad = np.flatnonzero(np.abs(dphi) >= 0.5 * math.pi)
        if bad.size == 0:
            break
        if len(params) > _MAX_SAMPLES:
            raise NonConvergence("boundary phase tracking did not settle")
        lo, hi = params[bad], params[bad + 1]
        if np.min(hi - lo) < root_tol:
            raise BoundaryZero(f"f turns by pi/2 within {np.min(hi - lo):.1e}"
                               " of the contour; perturb the rectangle")
        mids = 0.5 * (lo + hi)
        new = kept(sample(mids), values[bad], values[bad + 1])
        params = np.insert(params, bad + 1, mids)
        values = np.insert(values, bad + 1, new)

    winding = float(np.sum(dphi)) / (2.0 * math.pi)
    n = int(round(winding))
    if abs(winding - n) > 0.25:
        raise NonConvergence(
            f"winding number {winding:.4f} is not close to an integer")
    return n


_NEWTON_PASSES = 60     # Newton passes before a seed is given up as NaN


def complex_newton(f: Callable[[np.ndarray], np.ndarray],
                   df: Callable[[np.ndarray], np.ndarray],
                   seeds, tol: float) -> np.ndarray:
    """Refine a zero of ``f`` from each of ``seeds`` at once.  Each pass
    calls ``f`` and then ``df`` once, on the 1-D array of the iterates still
    running.  Returns, per seed, the first iterate with |f(z)| <= tol, or
    NaN where f or the step is not finite or _NEWTON_PASSES passes end first.
    The caller takes the last step: near a simple zero it lands about as
    close as ``f`` is accurate, where the iterate is only tol / |f'| close."""
    z = np.array(seeds, dtype=complex).ravel()
    out = np.full(z.shape, complex(np.nan))
    run = np.arange(z.size)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_NEWTON_PASSES):
            if run.size == 0:
                break
            fz, dfz = np.asarray(f(z[run])), np.asarray(df(z[run]))
            done = np.abs(fz) <= tol
            out[run[done]] = z[run[done]]
            step = fz / dfz
            go = ~done & np.isfinite(step)
            run = run[go]
            z[run] -= step[go]
    return out


# DOP853, the 8(5,3) pair of Dormand & Prince as coded by Hairer (dop853.f;
# Hairer, Norsett & Wanner, Solving ODEs I, sec. II.10): stage nodes, and the
# rows of stages 2-12 below the diagonal.  The solution weights are appended
# as a 13th row at node 1, so its stage is the next step's first (FSAL).
_DOP_ROWS = (
    (),
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
    (2.95875854768068491816892993775e-2, 0.0,
     8.87627564304205475450678981324e-2),
    (2.41365134159266685502369798665e-1, 0.0,
     -8.84549479328286085344864962717e-1, 9.24834003261792003115737966543e-1),
    (3.7037037037037037037037037037e-2, 0.0, 0.0,
     1.70828608729473871279604482173e-1, 1.25467687566822425016691814123e-1),
    (3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
     6.02165389804559606850219397283e-2, -1.7578125e-2),
    (3.70920001185047927108779319836e-2, 0.0, 0.0,
     1.70383925712239993810214054705e-1, 1.07262030446373284651809199168e-1,
     -1.53194377486244017527936158236e-2, 8.27378916381402288758473766002e-3),
    (6.24110958716075717114429577812e-1, 0.0, 0.0,
     -3.36089262944694129406857109825, -8.68219346841726006818189891453e-1,
     2.75920996994467083049415600797e1, 2.01540675504778934086186788979e1,
     -4.34898841810699588477366255144e1),
    (4.77662536438264365890433908527e-1, 0.0, 0.0,
     -2.48811461997166764192642586468, -5.90290826836842996371446475743e-1,
     2.12300514481811942347288949897e1, 1.52792336328824235832596922938e1,
     -3.32882109689848629194453265587e1, -2.03312017085086261358222928593e-2),
    (-9.3714243008598732571704021658e-1, 0.0, 0.0,
     5.18637242884406370830023853209, 1.09143734899672957818500254654,
     -8.14978701074692612513997267357, -1.85200656599969598641566180701e1,
     2.27394870993505042818970056734e1, 2.49360555267965238987089396762,
     -3.0467644718982195003823669022),
    (2.27331014751653820792359768449, 0.0, 0.0,
     -1.05344954667372501984066689879e1, -2.00087205822486249909675718444,
     -1.79589318631187989172765950534e1, 2.79488845294199600508499808837e1,
     -2.85899827713502369474065508674, -8.87285693353062954433549289258,
     1.23605671757943030647266201528e1, 6.43392746015763530355970484046e-1),
    (5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
     4.45031289275240888144113950566, 1.89151789931450038304281599044,
     -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
     -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
     4.47106157277725905176885569043e-2),
)
_DOP_A = np.array([row + (0.0,) * (13 - len(row)) for row in _DOP_ROWS])
_DOP_C = np.array([
    0.0, 0.526001519587677318785587544488e-1,
    0.789002279381515978178381316732e-1, 0.118350341907227396726757197510,
    0.281649658092772603273242802490, 1 / 3, 0.25, 4 / 13, 127 / 195, 0.6,
    6 / 7, 1.0, 1.0])
# error weights: the solution less the embedded 5th- and 3rd-order ones
_DOP_E = np.zeros((2, 13))
_DOP_E[0, :12] = (
    0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0,
    -0.1225156446376204440720569753e1, -0.4957589496572501915214079952,
    0.1664377182454986536961530415e1, -0.3503288487499736816886487290,
    0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
    -0.2235530786388629525884427845e-1)
_DOP_E[1, :12] = _DOP_A[12, :12]
_DOP_E[1, [0, 8, 11]] -= (0.244094488188976377952755905512,
                          0.733846688281611857341361741547,
                          0.220588235294117647058823529412e-1)


# step attempts before ode_advance gives up: 7x the most any test or CLI
# config takes (2835, box 5/2 at k = 200), so a stalled solve stops within
# seconds
_MAX_STEPS = 20_000


def ode_advance(rhs: Callable[[object, np.ndarray, np.ndarray], None],
                coef: Callable, t0: float, t1: float, y0, tol: float,
                atol: float | None = None,
                control: int | None = None) -> np.ndarray:
    """Advance y' = f(t, y) from t0 to t1 with the DOP853 8(5,3) pair.

    The time dependence of f enters through one coefficient: ``coef(t)``
    maps a float to a value and an array of times to the array of values.
    It is called once at t0 and then once per step attempt, on the twelve
    stage times of the attempt, whose values reach ``rhs`` as Python scalars
    (``tolist``).  ``rhs(c, y, out)`` writes f at one stage into ``out``
    (shaped like y), given that stage's coefficient ``c`` and state ``y``.
    Each stage costs one ``np.dot`` (its row of the tableau times the
    earlier stages) and one add of the state, both into a buffer that every
    stage reuses, and then the call of ``rhs`` with that buffer as ``y``;
    so ``rhs`` must not keep references to either array.

    The state is a complex array of any shape (a scalar becomes shape
    (1,); an empty one is returned as given), copied C-ordered on entry, so
    ``y0`` is never written; the error norms are RMS over
    its entries whose index on the last axis is below ``control`` (all of
    them by default), so the other entries take the steps those set.  The
    per-step error, DOP853's blend of its 5th- and 3rd-order estimates, is
    held at ``tol`` (relative) + ``atol`` (absolute, defaults to tol*1e-2)
    by the step controller of Hairer's code.  Backward integration (t1 <
    t0) is supported.  Raises StepUnderflow when the step falls below 1e-14 of the
    span or after ``_MAX_STEPS`` attempts.
    """
    y = np.array(y0, dtype=complex, ndmin=1, order="C")
    if t1 == t0 or y.size == 0:
        return y
    if atol is None:
        atol = tol * 1e-2
    span = t1 - t0
    direction = 1.0 if span > 0 else -1.0
    t = t0

    # the thirteen stages, and a real view of them for the tableau
    # contractions; k[0] stays valid for the current (t, y): FSAL on accept,
    # reuse on reject
    k = np.empty((13,) + y.shape, dtype=complex)
    k_flat = k.reshape(13, -1).view(float)
    # the flat positions of the entries the error norms read
    pick = None if control is None else np.flatnonzero(
        np.arange(y.size) % y.shape[-1] < control)
    rhs(coef(t), y, k[0])
    abs_y = np.abs(y)
    y_n, k_n = ((y, k[0]) if pick is None
                else (y.reshape(-1)[pick], k[0].reshape(-1)[pick]))
    scale0 = atol + tol * np.abs(y_n)
    d0 = float(np.sqrt(np.mean(np.abs(y_n / scale0) ** 2)))
    d1 = float(np.sqrt(np.mean(np.abs(k_n / scale0) ** 2)))
    h = 0.01 * d0 / d1 if (d0 > 1e-5 and d1 > 1e-5) else abs(span) * 1e-4
    h = direction * min(h, abs(span))

    # yi is each stage's argument, formed in place through its real view;
    # the last one is the step's solution, so an accepted step swaps yi and
    # y (and their moduli) rather than copying.  Both are C-ordered, so the
    # real views alias them.
    yi = np.empty_like(y)
    y_re, yi_re = y.reshape(-1).view(float), yi.reshape(-1).view(float)
    abs_yi = np.empty_like(abs_y)
    scale = np.empty(y.shape)
    scale_col = scale.reshape(-1, 1)
    e_flat = np.empty((2, k_flat.shape[1]))
    e_all = e_flat.reshape(2, -1, 2)
    # each stage's row of h * A, the stages before it, and its own slot
    h_a = np.empty_like(_DOP_A)
    stages = [(h_a[i, :i], k_flat[:i], k[i]) for i in range(1, 13)]

    for _ in range(_MAX_STEPS):
        if (t - t1) * direction >= 0.0:
            return y
        if abs(h) < 1e-14 * abs(span):
            raise StepUnderflow(f"step {h:.3e} below resolvable scale at t={t}")
        if (t + h - t1) * direction > 0.0:
            h = t1 - t

        c = coef(t + h * _DOP_C[1:]).tolist()
        np.multiply(h, _DOP_A, out=h_a)
        for (a_i, k_before, k_i), c_i in zip(stages, c):
            np.dot(a_i, k_before, out=yi_re)
            np.add(y, yi, out=yi)
            rhs(c_i, yi, k_i)
        # yi is now the stage 13 argument, the 8th-order solution (FSAL)

        # |h| e5^2 / sqrt((e5^2 + 0.01 e3^2) n), with e5 and e3 the sums of
        # |error| / scale squared over the entries the norms read, on the
        # (re, im) pairs
        np.abs(yi, out=abs_yi)
        np.maximum(abs_y, abs_yi, out=scale)
        scale *= tol
        scale += atol
        np.dot(_DOP_E, k_flat, out=e_flat)
        e, s = ((e_all, scale_col) if pick is None
                else (e_all[:, pick], scale_col[pick]))
        ratio = np.divide(e, s, out=e)
        e5, e3 = np.einsum("eij,eij->e", ratio, ratio)
        denom = (e5 + 0.01 * e3) * s.size
        err = abs(h) * e5 / math.sqrt(denom) if denom > 0.0 else 0.0

        if err <= 1.0:
            t += h
            y, yi, y_re, yi_re = yi, y, yi_re, y_re
            abs_y, abs_yi = abs_yi, abs_y
            k[0] = k[12]  # FSAL
        # Hairer's DOP853 controller: exponent 1/8, safety 0.9, the step
        # shrinks at most 3x (reject) and grows at most 6x (accept)
        h *= min(6.0, max(1 / 3, 0.9 * max(err, 1e-16) ** -0.125))
    raise StepUnderflow(f"step budget exhausted near t={t}")
