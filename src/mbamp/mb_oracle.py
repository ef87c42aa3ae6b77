"""Direct integrator for the sharp-line two-level amplifier system

    E_t + E_x = rho,   rho_t = N E,   N_t = -Re(conj(E) rho),

with trivial initial data (E = rho = 0, N = 1) and boundary field E(t, 0)
given by the input pulse.  In tau = t - x it is the Goursat problem
E_x = rho, rho_tau = N E, N_tau = -Re(conj(E) rho) with E(tau, 0) = E1(tau)
and rho = 0, N = 1 on tau = 0; the region tau < 0 is the trivial state, so
the light cone is exact by construction.

The grid has dtau = dx = h and marches in tau, row u -> u + 1: the medium
takes one Heun step, vectorized over x, with a single predictor-corrector
coupling to the field, and E at each stage is the trapezoid of E_x = rho (a
cumulative sum along the row).  The medium flow is a rotation for any
driving E, so the Bloch defect N^2+|rho|^2-1 measures only the
discretization and shrinks as O(h^2).  A pulse jump on the grid (a box pulse
at tau = 0 and T) travels along its row, which holds the left limit: the
step leaving the row reads row + jump, and a probe's stencil stays on its
side of the row.

Row u + 1 covers the columns j <= min(nx, nt - u - 1) (t <= t_max).  The
store keeps (u, j) = (tau/h, x/h).  Without probes it is the whole
rectangle, shape (nt + 3, nx + 1), row u at index u + 2 (two trivial pad
rows), row u = 0 the initial data.  Given probes, it is exactly the (u, j)
bounding box of their bicubic stencils and the march stops at its last row;
a probe the run cannot serve (causal, outside the rectangle, or with a
stencil past t_max) is left out.
"""

from __future__ import annotations

import math
import struct
from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from .errors import CFLViolation, NonPhysical, OutOfDomain
from .pulse import Pulse

_MAX_NODES_PER_DIM = 150_000
_SAVE_LEVELS = 16     # t-levels save_binary gathers per write


def _trivial(shape):
    """E, N, rho arrays in the trivial state."""
    return (np.zeros(shape, dtype=complex), np.ones(shape),
            np.zeros(shape, dtype=complex))


@dataclass(frozen=True)
class FieldTriple:
    """Field envelope, population inversion, polarization at one point."""

    E: complex
    N: float
    rho: complex


@dataclass
class InvariantReport:
    conservation_defect: float   # max |N^2 + |rho|^2 - 1|
    causality_defect: float      # max of |E|, |rho|, |N-1| on stored tau <= 0
    node_updates: int = 0        # nodes marched
    defect_tx: tuple[float, float] | None = None   # (t, x) of the worst defect


class SimGrid:
    """Result of one oracle run; immutable once simulate() returns."""

    def __init__(self, pulse, h, t_max, x_max, probes=None):
        self.pulse = pulse
        self.h = h
        self.t_max = t_max
        self.x_max = x_max
        self.nt = int(round(t_max / h))
        self.nx = int(round(x_max / h))
        if self.nt > _MAX_NODES_PER_DIM or self.nx > _MAX_NODES_PER_DIM:
            raise CFLViolation(f"grid {self.nt}x{self.nx} exceeds "
                               f"{_MAX_NODES_PER_DIM} nodes per dimension")
        # rows u holding a pulse jump: the stored row is the left limit, the
        # right limit is row + jump.  Jump times off the grid cannot be
        # compensated; they smear O(h^2 |jump|^2) into the Bloch defect.
        self.jump_rows = {round(tj / h): complex(dv)
                          for tj, dv in pulse.jumps()
                          if abs(tj - round(tj / h) * h) < 1e-12 * max(1.0, tj)}
        self.invariants: InvariantReport | None = None
        self.whole = probes is None
        if self.whole:
            # (u0, j0): the (u, j) of the store's first row and column
            self.u0, self.j0 = -2, 0
            shape = (self.nt + 3, self.nx + 1)
        else:
            corners = []
            for t, x in probes:
                with suppress(OutOfDomain):      # probe() raises for it too
                    st = self._stencil(t, x)
                    corners += [st[:2]] if st else []
            rows, cols = zip(*corners) if corners else ((0,), (0,))
            self.u0, self.j0 = min(rows), min(cols)
            shape = ((max(rows) + 4 - self.u0, max(cols) + 4 - self.j0)
                     if corners else (0, 0))
        bytes_needed = (16 + 16 + 8) * shape[0] * shape[1]
        if bytes_needed > 3e9:
            raise CFLViolation(
                f"storage would need {bytes_needed / 1e9:.1f} GB; "
                "pass probes for runs this large")
        self.E, self.N, self.rho = _trivial(shape)

    def level(self, i):
        """E, N, rho over all x at the t-levels ``i`` (an int or an array of
        them) of a run that stores the whole rectangle: t-level i at column
        j is row u = i - j, stored at index u + 2, and past the cone (u < 0)
        the index lands on the trivial pad rows 0 and 1."""
        i = np.asarray(i)
        if not (self.whole and 0 <= i.min() and i.max() <= self.nt):
            raise OutOfDomain(f"t-level {i} is not stored whole")
        j = np.arange(self.nx + 1)
        u = np.maximum(i[..., None] - j + 2, 0)
        return self.E[u, j], self.N[u, j], self.rho[u, j]

    # --- probing --------------------------------------------------------

    def _stencil(self, t: float, x: float):
        """Row s0 and column c0 where the bicubic stencil of (t, x) starts
        (it spans s0..s0 + 3, c0..c0 + 3), the offsets of (t, x) from row
        s0 + 1 and column c0 + 1, and the jump row s0 reads; None if t <= x.
        OutOfDomain where (t, x) or the stencil leaves the rectangle."""
        if not (0.0 <= t <= self.t_max + 1e-9
                and 0.0 <= x <= self.x_max + 1e-9):
            raise OutOfDomain(f"({t}, {x}) outside the stored rectangle")
        if t <= x:
            return None
        u0, fu = _split((t - x) / self.h)
        v0, fv = _split(x / self.h)
        # at the edge columns the stencil moves inward, f leaves [0, 1]
        c0 = min(max(v0, 1), self.nx - 2) - 1
        fv += v0 - 1 - c0
        # stencil rows s0..s0 + 3 (u0 - 1..u0 + 2 away from jumps) stay on
        # the probe's side of a jump row, read as its right limit from above
        s0, jump = u0 - 1, 0j
        for row, dv in self.jump_rows.items():
            if s0 <= row <= s0 + 3:
                if u0 + fu > row:
                    s0, jump = row, dv
                else:
                    s0 = row - 3
        if c0 < 0 or s0 + c0 + 6 > self.nt:
            raise OutOfDomain(f"({t}, {x}): the stencil leaves [0, t_max = "
                              f"{self.t_max}] x [0, x_max = {self.x_max}]")
        return s0, c0, fu + (u0 - 1 - s0), fv, jump

    def probe(self, t: float, x: float) -> FieldTriple:
        """Field triple at (t, x), bicubic along characteristic coordinates;
        exactly the trivial state on the causal side t <= x."""
        st = self._stencil(t, x)
        if st is None:
            return FieldTriple(E=0j, N=1.0, rho=0j)
        s0, c0, fu, fv, jump = st
        i, j = s0 - self.u0, c0 - self.j0
        if min(i, j) < 0 or i + 4 > self.N.shape[0] or j + 4 > self.N.shape[1]:
            raise OutOfDomain(f"({t}, {x}): the stencil is outside the "
                              "stored window")
        idx = (slice(i, i + 4), slice(j, j + 4))
        E = self.E[idx]
        if jump:
            E = E.copy()
            E[0] += jump
        wu, wv = _cubic_weights(fu), _cubic_weights(fv)
        e, n, r = (wu @ arr @ wv for arr in (E, self.N[idx], self.rho[idx]))
        return FieldTriple(E=complex(e), N=float(np.real(n)), rho=complex(r))

    # --- serialization ----------------------------------------------------

    def save_binary(self, path):
        """Write the stored grid: header (h, t_max, x_max, node count), then
        E_re, E_im, N, rho_re, rho_im per node, row-major in (t, x)."""
        if not self.whole:
            raise OutOfDomain("binary dump requires storage of the whole "
                              "rectangle")
        buf = np.empty((_SAVE_LEVELS, self.nx + 1, 5), dtype="<f8")
        with open(path, "wb") as fh:
            fh.write(struct.pack("<dddd", self.h, self.t_max, self.x_max,
                                 float((self.nt + 1) * (self.nx + 1))))
            for i0 in range(0, self.nt + 1, _SAVE_LEVELS):
                E, N, rho = self.level(
                    np.arange(i0, min(i0 + _SAVE_LEVELS, self.nt + 1)))
                block = buf[:len(N)]
                block[..., 0], block[..., 1] = E.real, E.imag
                block[..., 2] = N
                block[..., 3], block[..., 4] = rho.real, rho.imag
                fh.write(block.tobytes())


def load_binary(path) -> tuple[float, float, float, np.ndarray]:
    """Read a grid dump; returns (h, t_max, x_max, array[(nt+1), (nx+1), 5])."""
    with open(path, "rb") as fh:
        h, t_max, x_max, nodes = struct.unpack("<dddd", fh.read(32))
        nt = int(round(t_max / h))
        nx = int(round(x_max / h))
        body = np.frombuffer(fh.read(), dtype="<f8").reshape(nt + 1, nx + 1, 5)
    if (nt + 1) * (nx + 1) != int(nodes):
        raise OutOfDomain("node count in header disagrees with dimensions")
    return h, t_max, x_max, body


def _split(v: float) -> tuple[int, float]:
    """Integer part and fraction of v, with representation noise snapped
    away so that a nodal probe lands on its node."""
    i = math.floor(v + 1e-9)
    f = v - i
    return i, (f if f >= 1e-9 else 0.0)


def _cubic_weights(f: float) -> np.ndarray:
    """Lagrange weights of the nodes -1, 0, 1, 2 at f."""
    a, b, c, d = f + 1.0, f, f - 1.0, f - 2.0
    return np.array([-b * c * d / 6.0, a * c * d / 2.0, -a * b * d / 2.0,
                     a * b * c / 6.0])


def _trapezoid(e1: complex, r: np.ndarray, half_h: float) -> np.ndarray:
    """E along a row from its boundary value e1 and E_x = r: the cumulative
    trapezoid."""
    f = np.empty(r.size, dtype=complex)
    f[0] = e1
    np.add(r[:-1], r[1:], out=f[1:])
    f[1:] *= half_h
    return np.cumsum(f, out=f)


def simulate(pulse: Pulse, t_max: float, x_max: float, h: float,
             nonphysical_tol: float = 1e-4, probes=None) -> SimGrid:
    """March the amplifier system on [0, t_max] x [0, x_max] row by row in
    tau = t - x with dtau = dx = h.  Given ``probes``, a list of (t, x)
    points, the run stores only the window their stencils read and marches
    up to its last row; by default it stores the whole rectangle.

    Returns the populated SimGrid with its invariant report.  Raises
    CFLViolation for grid parameters outside the scheme's envelope and
    NonPhysical as a blow-up guard when the Bloch defect exceeds
    ``nonphysical_tol``.
    """
    T = pulse.support
    if h > 0.02 * min(1.0, T):
        raise CFLViolation(f"h = {h} exceeds 0.02*min(1, T) = {0.02 * min(1.0, T)}")
    grid = SimGrid(pulse, h, t_max, x_max, probes)
    nt, nx, u0, j0 = grid.nt, grid.nx, grid.u0, grid.j0
    rows, cols = grid.N.shape
    half_h = 0.5 * h
    # row u = 0: the initial data, left limits at tau = 0
    E, N, rho = _trivial(nx + 1)

    cons_defect = 0.0
    defect_tx = None
    updates = 0

    for u in range(max(0, u0 + rows - 1)):
        m = min(nx, nt - u - 1) + 1     # columns of row u + 1
        # pulse() returns left limits at interior jump times (closed
        # support), the stored-value convention
        e1 = complex(pulse((u + 1) * h))
        E0 = E[:m]
        if u in grid.jump_rows:
            E0 = E0 + grid.jump_rows[u]
        N0 = N[:m]
        rho0 = rho[:m]

        k1r = N0 * E0
        k1n = -(np.conj(E0) * rho0).real
        rho_s = rho0 + h * k1r
        N_s = N0 + h * k1n
        rho_n = rho0 + half_h * (k1r + N_s * _trapezoid(e1, rho_s, half_h))
        Ec = _trapezoid(e1, rho_n, half_h)
        # single coupling sweep: medium re-driven by the corrected field
        rho = rho0 + half_h * (k1r + N_s * Ec)
        N = N0 + half_h * (k1n - (np.conj(Ec) * rho_s).real)
        E = _trapezoid(e1, rho, half_h)

        if u + 1 >= u0:             # a window's columns all lie in the row
            hi = min(m, j0 + cols)
            for arr, f in zip((grid.E, grid.N, grid.rho), (E, N, rho)):
                arr[u + 1 - u0, :hi - j0] = f[j0:hi]
        updates += m

        defect = np.abs(N * N + np.abs(rho) ** 2 - 1.0)
        worst = int(np.argmax(defect))
        if defect[worst] > cons_defect:
            cons_defect = float(defect[worst])
            defect_tx = ((u + 1 + worst) * h, worst * h)
            if cons_defect > nonphysical_tol:
                raise NonPhysical(
                    f"Bloch defect {cons_defect:.3e} at (t, x) = "
                    f"({defect_tx[0]:.4f}, {defect_tx[1]:.4f}) "
                    f"exceeds the guard {nonphysical_tol:.1e}")

    # the stored rows tau <= 0 are never marched and must stay trivial
    pre = slice(0, max(0, 1 - u0))
    caus_defect = float(max(np.abs(grid.E[pre]).max(initial=0.0),
                            np.abs(grid.rho[pre]).max(initial=0.0),
                            np.abs(grid.N[pre] - 1.0).max(initial=0.0)))
    grid.invariants = InvariantReport(cons_defect, caus_defect, updates,
                                      defect_tx)
    return grid
