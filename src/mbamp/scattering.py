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

from .errors import DivisionNearZero, DomainError, Overflow
from .numerics import Tolerances, ode_advance
from .pulse import Pulse

logger = logging.getLogger(__name__)

_CHEB_TAIL = 1e-12      # chop level of the trailing Chebyshev coefficients
_CHEB_MAX_N = 4096      # node cap of the real-line interpolant (n + 1 nodes)
_SCAN_STEP = 40.0 / 8192   # spacing of the scan for the minima of |b|
_SCAN_ENTRIES = 8193    # about this many entries per scan distance matrix
_REAL_ZERO_TOL = 1e-8   # polished |b| below which a scan minimum is a zero
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

    Evaluations at distinct k are independent; the real-line cache is
    built once, under a lock, on first use and is read-only afterwards.
    It covers [-halfwidth, halfwidth]: a tail point reads r only on (-k0,
    k0), and a narrower window takes fewer steps and nodes.
    """

    def __init__(self, pulse: Pulse, tol: Tolerances | None = None,
                 halfwidth: float = CACHE_HALFWIDTH):
        if not 0.0 < halfwidth < math.inf:
            raise ValueError(f"cache halfwidth {halfwidth} is not a positive "
                             "finite number")
        self.pulse = pulse
        self.tol = tol or Tolerances()
        self.halfwidth = float(halfwidth)
        # (nodes, weights, [a b 1] at nodes, real zeros of b in [-K, K])
        self._cache = None
        self.cache_tail = None   # achieved Chebyshev tail of the cache
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ ODE

    def _jost(self, ks, variational: bool) -> np.ndarray:
        """Second column psi = (p1, p2) at t = 0 on a batch of spectral
        points, one row each, plus the rows (q1, q2) = dpsi/dk when
        ``variational``.  All points share the adaptive steps, and the pulse
        is evaluated once per step attempt."""
        ks = np.atleast_1d(np.asarray(ks, dtype=complex))
        self._check_growth(ks)
        minus_two_ik = -2j * ks
        y0 = np.zeros((4 if variational else 2, ks.size), dtype=complex)
        y0[1] = 1.0

        def rhs(e, y, out):
            # p1' = -2ik p1 - (e/2) p2 and p2' = (conj(e)/2) p1; the rows
            # q = dp/dk obey the same system plus the source -2i p1 in q1'
            he = 0.5 * e
            hec = np.conj(he)
            for r in range(0, len(y), 2):
                d = out[r]
                np.multiply(minus_two_ik, y[r], out=d)
                d -= he * y[r + 1]
                np.multiply(hec, y[r], out=out[r + 1])
            if variational:
                out[2] -= 2j * y[0]

        return ode_advance(rhs, self.pulse, self.pulse.support, 0.0, y0,
                           self.tol.ode_rel, atol=self.tol.ode_abs)

    def ab_many(self, ks) -> tuple[np.ndarray, np.ndarray]:
        """a(k), b(k) on an array of spectral points (shared adaptive steps).

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
        ks = np.atleast_1d(np.asarray(ks, dtype=complex))
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
        p1, p2 = self._jost(folded[reps], variational=False)
        a, b = p2[rank], p1[rank]   # a = psi2(0), b = psi1(0)
        if flip.any():
            a[flip] = np.conj(a[flip])
            b[flip] = c / np.conj(c) * np.conj(b[flip])
        return a, b

    def ab_and_derivs_many(self, ks):
        """(a, b, da/dk, db/dk) on an array of spectral points."""
        p1, p2, q1, q2 = self._jost(ks, variational=True)
        return p2, p1, q2, q1

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

    def _check_growth(self, ks):
        worst = float(np.max(np.abs(np.imag(ks)), initial=0.0)) \
            * self.pulse.support
        if worst > GROWTH_GUARD:
            raise Overflow(f"T*|Im k| = {worst:.1f} exceeds the growth guard "
                           f"{GROWTH_GUARD:.0f}")

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
        step count grows with K.
        """
        n = 128
        while True:
            x, weights = _lobatto(n)
            nodes = self.halfwidth * x
            ab = np.column_stack(self.ab_many(nodes))
            # Chebyshev coefficients (times n) by an FFT of the even extension
            coef = np.abs(np.fft.fft(np.concatenate([ab, ab[-2:0:-1]]),
                                     axis=0)[:n + 1])
            coef[[0, -1]] *= 0.5
            tail = float(np.max(coef[-4:] / np.max(coef, axis=0)))
            if tail < _CHEB_TAIL or n >= _CHEB_MAX_N:
                break
            n *= 2
        if tail >= _CHEB_TAIL:
            logger.warning("real-line cache capped at %d nodes, Chebyshev "
                           "tail %.2e", n + 1, tail)
        self.cache_tail = tail
        values = np.column_stack([ab, np.ones(n + 1)])
        self._cache = (nodes, weights, values,
                       _real_zeros(nodes, weights, values))

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
        near = (ks.real != 0.0) | (np.abs(ks) <= _KAPPA_MODEL_SWITCH)
        if near.any():
            a, b = self.ab_many(ks[near])
            small = np.flatnonzero(np.abs(a) < 1e-12)
            if small.size:
                j = small[0]
                raise DivisionNearZero(f"|a({complex(ks[near][j])})| = "
                                       f"{abs(a[j]):.2e}; near a zero of a")
            r[near] = b / a
        if not near.all():
            self.tail_fit()     # the leading term: the tail model's trace span
            terms = self._tail_terms()
            r[~near] = [sum(f.constant * kj ** -f.order for f in terms)
                        for kj in map(complex, ks[~near])]
        return complex(r) if r.ndim == 0 else r


def _lobatto(n):
    """Chebyshev-Lobatto points cos(pi j / n) and barycentric weights."""
    # written as a sine so that it is exactly odd
    nodes = np.sin(np.pi * np.arange(n, -n - 1, -2) / (2 * n))
    weights = np.where(np.arange(n + 1) % 2, -1.0, 1.0)
    weights[[0, -1]] *= 0.5
    return nodes, weights


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


def _real_zeros(nodes, weights, values) -> np.ndarray:
    """Real zeros of the interpolated b on the nodes' window [-K, K]: the
    local minima of |b| on a scan at most _SCAN_STEP apart (8193 points
    for K = 20), an end counting too, polished together by Gauss-Newton on
    |b|^2 within the scan points beside each, where |b| ends below
    _REAL_ZERO_TOL."""
    def b_at(s):
        return _barycentric(nodes, weights, values, s)[:, 1]

    K = nodes.max()
    scan = np.linspace(-K, K, math.ceil(2.0 * K / _SCAN_STEP) + 1)
    # in parts, so each distance matrix has ~_SCAN_ENTRIES entries
    parts = math.ceil(scan.size * (len(nodes) - 1) / _SCAN_ENTRIES)
    mag = np.abs(np.concatenate([b_at(part) for part in
                                 np.array_split(scan, parts)]))
    padded = np.pad(mag, 1, constant_values=np.inf)
    i = np.flatnonzero((mag < padded[:-2]) & (mag <= padded[2:]))
    ends = np.pad(scan, 1, mode="edge")
    k, lo, hi = scan[i], ends[i], ends[i + 2]
    for _ in range(8):
        bp, b0, bm = b_at(np.concatenate([k + 1e-6, k, k - 1e-6])
                          ).reshape(3, -1)
        k = np.clip(k - (b0 / ((bp - bm) / 2e-6)).real, lo, hi)
    return k[np.abs(b_at(k)) < _REAL_ZERO_TOL]
