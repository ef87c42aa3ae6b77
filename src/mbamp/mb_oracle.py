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

Row u + 1 covers the columns j <= min(nx, nt - u - 1) (t <= t_max), up to
U = ceil(tau_max / h) (default t_max).  The store keeps (u, j) = (tau/h, x/h)
for the columns j >= j0 = max(0, floor(x_min/h) - 1) a probe at x_min
reaches: shape (U + 3, nx - j0 + 1), row u at index u + 2 (two trivial pad
rows), row u = 0 the initial data.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import CFLViolation, NonPhysical, OutOfDomain
from .pulse import Pulse

_MAX_NODES_PER_DIM = 150_000


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

    def __init__(self, pulse, h, t_max, x_max, tau_max=None, x_min=0.0):
        self.pulse = pulse
        self.h = h
        self.t_max = t_max
        self.x_max = x_max
        self.x_min = x_min
        self.nt = int(round(t_max / h))
        self.nx = int(round(x_max / h))
        if not 0.0 <= x_min <= x_max:
            raise OutOfDomain(f"x_min = {x_min} outside [0, x_max = {x_max}]")
        tau_max = t_max if tau_max is None else tau_max
        self.nu = min(self.nt, max(0, math.ceil(tau_max / h - 1e-9)))
        # first stored column: the stencil of a probe at x_min reaches one left
        self.j0 = max(0, math.floor(x_min / h) - 1)
        # rows u holding a pulse jump: the stored row is the left limit, the
        # right limit is row + jump.  Jump times off the grid cannot be
        # compensated; they smear O(h^2 |jump|^2) into the Bloch defect.
        self.jump_rows = {round(tj / h): complex(dv)
                          for tj, dv in pulse.jumps()
                          if abs(tj - round(tj / h) * h) < 1e-12 * max(1.0, tj)}
        self.invariants: InvariantReport | None = None
        shape = (self.nu + 3, self.nx - self.j0 + 1)
        bytes_needed = (16 + 16 + 8) * shape[0] * shape[1]
        if bytes_needed > 3e9:
            raise CFLViolation(
                f"storage would need {bytes_needed / 1e9:.1f} GB; "
                "pass tau_max or x_min for runs this large")
        self.E, self.N, self.rho = _trivial(shape)

    def level(self, i: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """E, N, rho over all x at t-level i of a run that stores it whole."""
        if i > self.nu or self.j0 > 0:
            raise OutOfDomain(f"t-level {i} is not stored whole")
        j = np.arange(min(i, self.nx) + 1)
        rows = _trivial(self.nx + 1)
        for row, arr in zip(rows, (self.E, self.N, self.rho)):
            row[j] = arr[i - j + 2, j]
        return rows

    # --- probing --------------------------------------------------------

    def probe(self, t: float, x: float) -> FieldTriple:
        """Field triple at (t, x), bicubic along characteristic coordinates;
        exactly the trivial state on the causal side t <= x."""
        if not (0.0 <= t <= self.t_max + 1e-9
                and self.x_min <= x <= self.x_max + 1e-9):
            raise OutOfDomain(f"({t}, {x}) outside the stored rectangle")
        if t <= x:
            return FieldTriple(E=0j, N=1.0, rho=0j)
        h = self.h
        u = (t - x) / h           # row index
        v = x / h                 # column index
        v0 = int(np.floor(v))
        v0 = min(max(v0, self.j0 + 1), self.nx - 2)
        u0 = int(np.floor(u))
        fu = u - u0
        fv = v - v0
        # snap representation noise so nodal probes return stored values;
        # edge-clipped stencils (f outside [0,1]) are left alone
        if abs(fu) < 1e-9:
            fu = 0.0
        elif abs(fu - 1.0) < 1e-9:
            fu, u0 = 0.0, u0 + 1
        if abs(fv) < 1e-9:
            fv = 0.0
        elif abs(fv - 1.0) < 1e-9:
            fv, v0 = 0.0, min(v0 + 1, self.nx - 2)
        # stencil rows s0..s0 + 3 (u0 - 1..u0 + 2 away from jumps) stay on
        # the probe's side of a jump row, read as its right limit from above
        s0, jump = u0 - 1, 0j
        for row, dv in self.jump_rows.items():
            if s0 <= row <= s0 + 3:
                if u0 + fu > row:
                    s0, jump = row, dv
                else:
                    s0 = row - 3
        if s0 + 3 > self.nu:
            raise OutOfDomain(f"({t}, {x}): tau = {t - x} needs the strip "
                              f"beyond tau_max = {self.nu * h}")
        if s0 + v0 + 5 > self.nt:
            raise OutOfDomain(f"({t}, {x}): the stencil needs t-levels past "
                              f"t_max = {self.t_max}")
        if v0 - 1 < self.j0:
            raise OutOfDomain(f"({t}, {x}): the stencil needs columns left "
                              f"of x_min = {self.x_min}")
        c0 = v0 - 1 - self.j0
        idx = (slice(s0 + 2, s0 + 6), slice(c0, c0 + 4))
        E = self.E[idx]
        if jump:
            E = E.copy()
            E[0] += jump
        wu = _cubic_weights(fu + (u0 - 1 - s0))
        wv = _cubic_weights(fv)
        e, n, r = (wu @ arr @ wv for arr in (E, self.N[idx], self.rho[idx]))
        return FieldTriple(E=complex(e), N=float(np.real(n)), rho=complex(r))

    # --- serialization ----------------------------------------------------

    def save_binary(self, path):
        """Write the stored grid: header (h, t_max, x_max, node count), then
        E_re, E_im, N, rho_re, rho_im per node, row-major in (t, x)."""
        if self.j0 > 0 or self.nu < self.nt:
            raise OutOfDomain("binary dump requires storage of the whole "
                              "rectangle")
        nodes = (self.nt + 1) * (self.nx + 1)
        with open(path, "wb") as fh:
            fh.write(struct.pack("<dddd", self.h, self.t_max, self.x_max,
                                 float(nodes)))
            for i in range(self.nt + 1):
                E, N, rho = self.level(i)
                row = np.column_stack([E.real, E.imag, N, rho.real, rho.imag])
                fh.write(row.astype("<f8").tobytes())


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


def _cubic_weights(f: float) -> np.ndarray:
    """Lagrange weights of the nodes -1, 0, 1, 2 at f."""
    return np.array([
        -f * (f - 1.0) * (f - 2.0) / 6.0,
        (f + 1.0) * (f - 1.0) * (f - 2.0) / 2.0,
        -(f + 1.0) * f * (f - 2.0) / 2.0,
        (f + 1.0) * f * (f - 1.0) / 6.0,
    ])


def _trapezoid(e1: complex, r: np.ndarray, half_h: float) -> np.ndarray:
    """E along a row from its boundary value e1 and E_x = r: the cumulative
    trapezoid."""
    f = np.empty(r.size, dtype=complex)
    f[0] = e1
    np.add(r[:-1], r[1:], out=f[1:])
    f[1:] *= half_h
    return np.cumsum(f, out=f)


def simulate(pulse: Pulse, t_max: float, x_max: float, h: float,
             nonphysical_tol: float = 1e-4,
             tau_max: float | None = None, x_min: float = 0.0) -> SimGrid:
    """March the amplifier system on [0, t_max] x [0, x_max] row by row in
    tau = t - x with dtau = dx = h, restricted to the strip tau <= tau_max
    (default t_max: everything), and store it for x >= x_min (default 0:
    everything).

    Returns the populated SimGrid with its invariant report.  Raises
    CFLViolation for grid parameters outside the scheme's envelope and
    NonPhysical as a blow-up guard when the Bloch defect exceeds
    ``nonphysical_tol``.
    """
    T = pulse.support
    if h > 0.02 * min(1.0, T):
        raise CFLViolation(f"h = {h} exceeds 0.02*min(1, T) = {0.02 * min(1.0, T)}")
    nt = int(round(t_max / h))
    nx = int(round(x_max / h))
    if nt > _MAX_NODES_PER_DIM or nx > _MAX_NODES_PER_DIM:
        raise CFLViolation(
            f"grid {nt}x{nx} exceeds {_MAX_NODES_PER_DIM} nodes per dimension")

    grid = SimGrid(pulse, h, t_max, x_max, tau_max, x_min)
    j0 = grid.j0
    half_h = 0.5 * h
    # row u = 0: the initial data, left limits at tau = 0
    E, N, rho = _trivial(nx + 1)

    cons_defect = 0.0
    defect_tx = None
    updates = 0

    for u in range(grid.nu):
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

        if m > j0:
            for arr, f in zip((grid.E, grid.N, grid.rho), (E, N, rho)):
                arr[u + 3, :m - j0] = f[j0:]
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
    caus_defect = float(max(np.abs(grid.E[:3]).max(),
                            np.abs(grid.rho[:3]).max(),
                            np.abs(grid.N[:3] - 1.0).max()))
    grid.invariants = InvariantReport(cons_defect, caus_defect, updates,
                                      defect_tx)
    return grid
