"""Direct scattering transform of the input pulse.

The time-equation Jost solution is fixed by its value at the support end T
and integrated backward to t = 0.  Working with the gauge-rescaled second
column (psi = column * e^{-ikt}) keeps every coefficient bounded by
max(2|k|, |E|/2), so the integration is well conditioned on the whole closed
upper half-plane, including far up the imaginary axis, where the power-law
reflection tail takes over.
"""

from __future__ import annotations

import logging
import math
import threading
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.chebyshev import chebroots

from .errors import DivisionNearZero, DomainError, Overflow
from .numerics import Tolerances, ode_advance
from .pulse import Pulse

logger = logging.getLogger(__name__)

_CHEB_TAIL = 1e-12      # chop level of the trailing Chebyshev coefficients
_CHEB_FIRST_N = 128     # the real-line interpolant's first level (n + 1 nodes)
_CHEB_MAX_N = 4096      # node cap of the real-line interpolant (n + 1 nodes)
_ROOT_CHOP = 1e-14      # chop level of b's series before its roots
_ROOT_IMAG = 1e-8       # |Im| below which a root of b's series is real
# default window [-K, K] of the real-line cache; the CLI asks for the tail
# cone's, which holds the k0 of every tail point
CACHE_HALFWIDTH = 20.0
_KAPPA_MODEL_SWITCH = 40.0  # |k| on the i-axis past which r is the tail model
GROWTH_GUARD = 600.0        # largest T*|Im k| a Jost solve accepts
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class TailFit:
    """Power-law model r(k) ~ constant * k^(-order) far up the imaginary
    axis."""

    order: float
    constant: complex


class ScatteringData:
    """Evaluators for a(k), b(k), r(k) = b/a and derived quantities.

    Every evaluator reaches the Jost system through one batched solve,
    ``prefetch``, of two kinds of point, whose columns share the adaptive
    steps.  Plain points carry a and b; they are folded onto Re k >= 0 when
    the pulse declares an ``amplitude`` (see ``ab_many``), and they set the
    steps whenever the batch has any.  Derivative points are solved as
    given, carry da/dk and db/dk too, and take those steps, so beside
    plain points their values do not depend on what else rides along.
    Every solve is kept, and a read of kept points costs no solve:
    ``ab_many`` and ``ab_and_derivs_many`` read a batch whose points are
    all kept (with derivatives, for the latter), and solve any other batch
    as plain or derivative points.  So a command's first pass (with the
    zero search's seeds and anchor samples as derivative points), Newton's
    ``f`` and ``df`` on the same iterates, and the zero search's read at
    its limits each cost one solve.  A kept value carries the rounding of
    the steps that solved it: batch-mates move a and b by a few 1e-12
    relative at most on the benchmark pulses.

    The real-line cache is built once, under a lock, on first use and is
    read-only afterwards.  It covers [-halfwidth, halfwidth]: a tail point
    reads r only on (-k0, k0), and a narrower window takes fewer steps and
    nodes.
    """

    def __init__(self, pulse: Pulse, tol: Tolerances | None = None,
                 halfwidth: float = CACHE_HALFWIDTH):
        if not 0.0 < halfwidth < math.inf:
            raise ValueError(f"cache halfwidth {halfwidth} is not a positive "
                             "finite number")
        self.pulse = pulse
        self.tol = tol or Tolerances()
        self.halfwidth = float(halfwidth)
        # (nodes, weights, [a b 1] at nodes, sorted real zeros of b in [-K, K])
        self._cache = None
        self.cache_tail = None   # achieved Chebyshev tail of the cache
        self._lock = threading.Lock()
        self._kept = {}   # k -> [a, b] or [a, b, da/dk, db/dk]

    # ------------------------------------------------------------------ ODE

    def _jost(self, ks, nd: int = 0):
        """Second column psi = (p1, p2) at t = 0 on a batch of spectral
        points, and dpsi/dk = (q1, q2) at the last ``nd`` of them, as two
        arrays of two rows.  The state has two rows: (p1, p2) in a column
        per point, then (q1, q2) in ``nd`` more columns, so a batch with
        nd = 0 is the plain system.  All columns share the adaptive steps.
        When the batch has both kinds of point, the columns of the first
        n - nd points alone set them; otherwise every column does.  The
        pulse is evaluated once per step attempt, and the right-hand side
        writes in place and allocates nothing.  Raises Overflow past the
        growth guard, T |Im k| > GROWTH_GUARD."""
        ks = np.atleast_1d(np.asarray(ks, dtype=complex))
        worst = self.pulse.support * float(np.max(np.abs(ks.imag),
                                                  initial=0.0))
        if worst > GROWTH_GUARD:
            raise Overflow(f"T*|Im k| = {worst:.1f} exceeds the growth guard "
                           f"{GROWTH_GUARD:.0f}")
        n = ks.size
        minus_two_ik = -2j * np.concatenate([ks, ks[n - nd:]])
        y0 = np.zeros((2, n + nd), dtype=complex)
        y0[1, :n] = 1.0
        tmp = np.empty(n + nd, dtype=complex)   # rhs's scratch row

        def rhs(e, y, out):
            # p1' = -2ik p1 - (e/2) p2 and p2' = (conj(e)/2) p1; the columns
            # q = dp/dk obey the same system plus the source -2i p1 in q1'
            he = 0.5 * e
            d = out[0]
            np.multiply(minus_two_ik, y[0], out=d)
            d -= np.multiply(he, y[1], out=tmp)
            np.multiply(he.conjugate(), y[0], out=out[1])
            if nd:
                d[n:] -= np.multiply(2j, y[0, n - nd:n], out=tmp[:nd])

        y = ode_advance(rhs, self.pulse, self.pulse.support, 0.0, y0,
                        self.tol.ode_rel, atol=self.tol.ode_abs,
                        control=n - nd if 0 < nd < n else None)
        return y[:, :n], y[:, n:]

    def prefetch(self, ks, dks=()):
        """The one Jost solve: [a, b] at ``ks`` and [a, b, da/dk, db/dk] at
        ``dks``, in one batch, kept and returned as arrays of 2 and 4 rows.
        The points of ``ks`` are folded and merged as ``ab_many`` says;
        those of ``dks`` follow them in the batch as given, and take their
        steps (see ``_jost``), so their values come out the same whatever
        else rides along; a caller puts in ``ks`` points no easier to solve
        than the others."""
        ks = np.atleast_1d(np.asarray(ks, dtype=complex))
        dks = np.atleast_1d(np.asarray(dks, dtype=complex))
        c = getattr(self.pulse, "amplitude", None)
        flip = (ks.real < 0.0) & (c is not None)
        folded = np.where(flip, -ks.conj(), ks)
        # groups of points within a few ulp, each solved at the member first
        # in (Re, Im) order; the representatives keep their batch order
        order = np.lexsort((folded.imag, folded.real))
        s = folded[order]
        first = np.ones(ks.size, dtype=bool)
        first[1:] = np.abs(np.diff(s)) > 4 * _EPS * np.abs(s[1:])
        rep = order[first]
        reps = np.sort(rep)
        rank = np.empty(ks.size, dtype=int)
        rank[order] = np.searchsorted(reps, rep)[np.cumsum(first) - 1]
        m = reps.size
        (p1, p2), (q1, q2) = self._jost(
            np.concatenate([folded[reps], dks]), dks.size)
        a, b = p2[:m][rank], p1[:m][rank]   # a = psi2(0), b = psi1(0)
        if flip.any():
            a[flip] = np.conj(a[flip])
            b[flip] = c / np.conj(c) * np.conj(b[flip])
        values, derivs = np.array([a, b]), np.array([p2[m:], p1[m:], q2, q1])
        for points, v in ((ks, values), (dks, derivs)):
            self._kept.update(zip(points.tolist(), v.T.tolist()))
        return values, derivs

    def _read_or_solve(self, ks, rows: int):
        """The first ``rows`` of [a, b, da/dk, db/dk] at each of ``ks`` as
        an array of that many rows: read when every point is kept with
        them, else solved by ``prefetch``, as plain points for 2 rows and
        as derivative points for 4."""
        ks = np.atleast_1d(np.asarray(ks, dtype=complex))
        got = []
        for k in ks.tolist():
            v = self._kept.get(k, ())
            if len(v) < rows:
                return (self.prefetch(ks)[0] if rows == 2
                        else self.prefetch((), ks)[1])
            got.append(v[:rows])
        return np.array(got, dtype=complex).reshape(-1, rows).T

    def ab_many(self, ks) -> tuple[np.ndarray, np.ndarray]:
        """a(k), b(k) on an array of spectral points (shared adaptive steps),
        read when every point is kept, else solved as plain points.

        A pulse that declares an ``amplitude`` c is c times a real shape, so
        a(-conj k) = conj a(k) and b(-conj k) = (c / conj c) conj b(k)
        (Ablowitz, Kaup, Newell & Segur, Stud. Appl. Math. 53, 1974).  Its
        batch is folded onto Re k >= 0: each k with Re k < 0 becomes
        -conj(k), and the values of the folded points are reflected back.
        Points within a few ulp of each other, after the fold, are solved
        once.  The points solved keep their order in the batch, so a batch
        with nothing to fold or merge is solved exactly as given.
        ``ab_and_derivs_many`` never folds.
        """
        return tuple(self._read_or_solve(ks, 2))

    def ab_and_derivs_many(self, ks):
        """(a, b, da/dk, db/dk) on an array of spectral points, read when
        every point is kept with its derivatives, else solved as
        derivative points."""
        return tuple(self._read_or_solve(ks, 4))

    def pencil_zeros(self, n: int, shift: complex) -> np.ndarray:
        """Every finite eigenvalue k of the Jost system's pencil: b(k) = 0
        when ``_jost``'s system has a solution with p1(0) = 0 = p1(T), a
        problem linear in k.  p1 and p2 live on n + 1 Lobatto points of
        [0, T]; each equation is resampled on the n first-kind Chebyshev
        points (rectangular collocation, Driscoll & Hale, IMA J. Numer.
        Anal. 36, 2016), and the two boundary rows close A v = k B v.  Then
        k = shift + 1/mu for the eigenvalues mu of (A - shift B)^{-1} B, all
        in its p1 block, since B acts on p1 only.  Some are spurious, and
        not zeros of b at all: ``find_zeros`` lets Newton on b decide."""
        T = self.pulse.support
        x, w = _lobatto(n)
        first = np.sin(np.pi * np.arange(n - 1, -n, -2) / (2 * n))
        resample = np.eye(n + 1, n + 2, dtype=complex)
        resample[:, -1] = 1.0
        P = _barycentric(x, w, resample, first).real
        d = np.subtract.outer(first, x)   # for d/dt of P's Lagrange basis
        PD = P * ((P / d).sum(axis=1, keepdims=True) - 1.0 / d) * (2.0 / T)
        he = 0.5 * self.pulse(0.5 * T * (1.0 + first))[:, None] * P
        # rows p1' + 2ik p1 + (E/2) p2, p2' - (conj(E)/2) p1, p1(T), p1(0)
        ends = np.zeros((2, 2 * n + 2))
        ends[0, 0] = ends[1, n] = 1.0
        A = np.block([[PD + 2j * shift * P, he], [-np.conj(he), PD], [ends]])
        B = np.vstack([-2j * P, np.zeros((n + 2, n + 1))])
        mu = np.linalg.eigvals(np.linalg.solve(A, B)[:n + 1])
        return shift + 1.0 / mu[np.abs(mu) > 1e-12]   # mu = 0: k infinite

    # ----------------------------------------------------- real-line cache

    def _build_cache(self):
        """Chebyshev-Lobatto interpolant of a and b on the window [-K, K],
        K = self.halfwidth; b's real zeros there.

        a and b of a compact pulse are entire of exponential type, so their
        Chebyshev coefficients decay geometrically, and the degree needed
        grows with K T.  The node count doubles until the last four
        coefficients of both are below _CHEB_TAIL of the largest (a chop
        test in the style of chebfun), starting from 129 nodes, where both
        benchmark pulses stop on [-20, 20], and the bump of T = 8 and 30 on
        the tail cone's window.  Each level is one batched solve, so its
        values share one step sequence and stay a smooth function of k; its
        step count grows with K.  The first level's nodes
        (``first_cache_nodes``) are read from the kept values when a caller
        prefetched them.  b's real zeros are the interpolant's; for
        a pulse that declares an ``amplitude`` |b| is even (see ``ab_many``),
        so those with Re >= 0 are mirrored, and the zeros are exact mirrors.
        """
        n = _CHEB_FIRST_N
        while True:
            x, weights = _lobatto(n)
            nodes = self.halfwidth * x
            ab = np.column_stack(self.ab_many(nodes))
            coef = np.abs(_cheb_coef(ab))
            tail = float(np.max(coef[-4:] / np.max(coef, axis=0)))
            if tail < _CHEB_TAIL or n >= _CHEB_MAX_N:
                break
            n *= 2
        if tail >= _CHEB_TAIL:
            logger.warning("real-line cache capped at %d nodes, Chebyshev "
                           "tail %.2e", n + 1, tail)
        self.cache_tail = tail
        values = np.column_stack([ab, np.ones(n + 1)])
        z = _real_roots(
            lambda s: _barycentric(nodes, weights, values, s)[:, 1],
            -self.halfwidth, self.halfwidth, coef[:, 1].max())
        if getattr(self.pulse, "amplitude", None) is not None:
            z = np.concatenate([-z[z >= 0.0], z[z >= 0.0]])
        self._cache = (nodes, weights, values, np.sort(z))

    def first_cache_nodes(self) -> np.ndarray:
        """The nodes of the real-line cache's first level."""
        return self.halfwidth * _lobatto(_CHEB_FIRST_N)[0]

    def _cache_arrays(self):
        with self._lock:
            if self._cache is None:
                self._build_cache()
        return self._cache

    def ab_real(self, s):
        """(a, b) at real s off the interpolant: Python complex for a
        scalar, arrays of the shape of s for an array.  DomainError for an
        |s| past the cache's window, where the interpolant would
        extrapolate."""
        s = np.asarray(s, dtype=float)
        if s.size and np.abs(s).max() > self.halfwidth:
            worst = float(s.flat[np.abs(s).argmax()])
            raise DomainError(f"s = {worst!r} outside the real-line cache's "
                              f"window [-{self.halfwidth!r}, "
                              f"{self.halfwidth!r}]")
        nodes, weights, values, _ = self._cache_arrays()
        ab = _barycentric(nodes, weights, values, s)
        if np.ndim(s) == 0:
            return complex(ab[0]), complex(ab[1])
        return ab[..., 0], ab[..., 1]

    def r_real(self, s):
        a, b = self.ab_real(s)
        return b / a

    def real_zero_splits(self, k0: float) -> list[float]:
        """Real zeros of b in (-k0, k0), the tail integrands' log spikes."""
        zeros = self._cache_arrays()[3]
        return zeros[(zeros > -k0) & (zeros < k0)].tolist()

    # ---------------------------------------------------------- tail model

    def tail_fit(self) -> TailFit:
        """r(k) ~ C k^(-m) for a pulse starting as c1 t^(m-1): the first Born
        term gives b ~ (c1/2) Gamma(m) (-2ik)^(-m), and a -> 1."""
        return self._tail_terms()[0]

    def _tail_terms(self) -> list[TailFit]:
        """The first Born term of each of the pulse's start terms c t^(p-1);
        their sum is r far up the imaginary axis."""
        return [TailFit(order=p, constant=0.5 * c * math.gamma(p) * (-2j) ** -p)
                for c, p in self.pulse.start_terms()]

    def reflection_uhp(self, k):
        """r(k) anywhere in the closed upper half-plane: Python complex for
        a scalar, an array of the same shape for an array.

        Points on the imaginary axis past |k| = _KAPPA_MODEL_SWITCH take
        the power-law tail (the direct values degrade only through the
        smallness of b, but the model is cheaper and smooth at huge k); all
        others go into one batched direct solve.  Off the axis the far-end
        term e^{2ikT} of b does not decay, and the model does not hold.
        """
        ks = np.asarray(k, dtype=complex)
        r = np.empty_like(ks)
        near = self.solved_directly(ks)
        if near.any():
            a, b = self.ab_many(ks[near])
            small = np.flatnonzero(np.abs(a) < 1e-12)
            if small.size:
                j = small[0]
                raise DivisionNearZero(f"|a({complex(ks[near][j])})| = "
                                       f"{abs(a[j]):.2e}; near a zero of a")
            r[near] = b / a
        if not near.all():
            terms = self._tail_terms()
            r[~near] = [sum(f.constant * kj ** -f.order for f in terms)
                        for kj in map(complex, ks[~near])]
        return complex(r) if r.ndim == 0 else r

    @staticmethod
    def solved_directly(k) -> np.ndarray:
        """Which of the points ``k`` ``reflection_uhp`` takes from a Jost
        solve: all but those on the imaginary axis past |k| =
        _KAPPA_MODEL_SWITCH."""
        ks = np.asarray(k, dtype=complex)
        return (ks.real != 0.0) | (np.abs(ks) <= _KAPPA_MODEL_SWITCH)


def _lobatto(n):
    """Chebyshev-Lobatto points cos(pi j / n) and barycentric weights."""
    # written as a sine so that it is exactly odd
    nodes = np.sin(np.pi * np.arange(n, -n - 1, -2) / (2 * n))
    weights = np.where(np.arange(n + 1) % 2, -1.0, 1.0)
    weights[[0, -1]] *= 0.5
    return nodes, weights


def _cheb_coef(values):
    """Chebyshev coefficients of the interpolant through ``values`` at the
    n + 1 Lobatto points of ``_lobatto(n)``, along the first axis: an FFT
    of the even extension."""
    n = len(values) - 1
    coef = np.fft.fft(np.concatenate([values, values[-2:0:-1]]),
                      axis=0)[:n + 1] / n
    coef[[0, -1]] *= 0.5
    return coef


def _real_roots(f, lo, hi, scale):
    """Real roots in [lo, hi] of the polynomial f: the real eigenvalues of
    the colleague matrix (Good, Quart. J. Math. 12, 1961) of its series on
    65 Chebyshev-Lobatto points, chopped at _ROOT_CHOP * scale, on pieces
    of [lo, hi] split off centre, as chebfun does, until that series ends
    below _CHEB_TAIL * scale; so no solve has more than 65 terms."""
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    coef = _cheb_coef(f(mid + half * _lobatto(64)[0]))
    mag = np.abs(coef)
    if mag[-4:].max() >= _CHEB_TAIL * scale:
        cut = mid - 0.004849834917525 * half   # chebfun's split point
        return np.concatenate([_real_roots(f, lo, cut, scale),
                               _real_roots(f, cut, hi, scale)])
    keep = np.flatnonzero(mag > _ROOT_CHOP * scale)
    z = chebroots(coef[:max(keep, default=0) + 1])
    z = z.real[(np.abs(z.imag) < _ROOT_IMAG) & (np.abs(z.real) <= 1.0)]
    return mid + half * z


def _barycentric(nodes, weights, values, s):
    """Columns of ``values`` but the last interpolated to ``s`` (a scalar
    or a 1-D array) by the second barycentric formula; the last column of
    ``values`` is all ones and yields the denominator.  A point on a node
    takes that node's values."""
    d = np.subtract.outer(s, nodes)
    hit = d == 0.0
    on_node = hit.any()
    if on_node:
        d[hit] = 1.0
    # a real product on the interleaved parts: a mixed one would copy
    # weights / d to complex
    q = ((weights / d) @ values.view(float)).view(complex)
    out = q[..., :-1] / q[..., -1:]
    if on_node:
        out = np.where(hit.any(axis=-1)[..., None],
                       values[hit.argmax(axis=-1), :-1], out)
    return out
