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

A row step computes in buffers of nx + 1 columns kept for the whole run (two
sets of E, N, rho that take turns as the row read and the row written, the
two trapezoids, scratch) through in-place ufuncs.  Every product keeps the
operand order of the formula, N enters its products cast to complex once per
row as NumPy's mixed multiply would cast it, and each running sum is
np.add.accumulate, the sequential sum np.cumsum makes; so the arithmetic,
its order and every bit are those of the plain expressions.

Row u + 1 covers the columns j <= min(nx, nt - u - 1) (t <= t_max), and the
store keeps no more: the nodes (u, j) = (tau/h, x/h) of its box u = u0 .. u1,
j = j0 .. j1 with t-level i = u + j <= nt.  They lie in grid.bin's order: by
t-level, level i holding the columns jlo(i) = max(j0, i - u1) .. min(j1,
i - u0) in turn, each node one packed record (E_re, E_im, N, rho_re, rho_im)
of which E, N and rho are strided views; SimGrid.at is the one accessor.
The march writes row u = u0 + r through its offsets level_start[r + c] + c,
one slice of a vector built once per run, wherever its columns c stay within
u1 - u, as on every row of a whole run; other rows use SimGrid._row.
Without probes, u = -2 .. nt (two trivial pad rows, then the initial data
u = 0) and j = 0 .. nx, so t-level i >= 0 stores the columns j <= i + 2 and
the columns past them are causal and trivial.  Given probes, (u, j) spans the
bounding box of their bicubic stencils and the march stops at its last row; a
probe the run cannot serve (causal, outside the rectangle, or with a stencil
past t_max) is left out.
"""

from __future__ import annotations

import math
import os
import struct
from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from .errors import CFLViolation, NonPhysical, OutOfDomain
from .pulse import Pulse

_MAX_NODES_PER_DIM = 150_000
# one node of the store and of grid.bin: E_re, E_im, N, rho_re, rho_im
_NODE = np.dtype([("E", "<c16"), ("N", "<f8"), ("rho", "<c16")])
_IOV_MAX = 1024          # buffers per os.writev (Linux's IOV_MAX)


def _trivial(n):
    """n nodes in the trivial state."""
    nodes = np.zeros(n, dtype=_NODE)
    nodes["N"] = 1.0
    return nodes


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
        nt, nx = round(t_max / h, 0), round(x_max / h, 0)
        if max(nt, nx) > _MAX_NODES_PER_DIM:
            raise CFLViolation(f"grid {nt:.6g}x{nx:.6g} exceeds "
                               f"{_MAX_NODES_PER_DIM} nodes per dimension")
        self.nt, self.nx = int(nt), int(nx)
        # rows u holding a pulse jump: the stored row is the left limit, the
        # right limit is row + jump.  Jump times off the grid cannot be
        # compensated; they smear O(h^2 |jump|^2) into the Bloch defect.
        self.jump_rows = {round(tj / h): complex(dv)
                          for tj, dv in pulse.jumps()
                          if abs(tj - round(tj / h) * h) < 1e-12 * max(1.0, tj)}
        self.invariants: InvariantReport | None = None
        self.whole = probes is None
        if self.whole:
            self.u0, self.u1, self.j0, self.j1 = -2, self.nt, 0, self.nx
        else:
            corners = []
            for t, x in probes:
                with suppress(OutOfDomain):      # probe() raises for it too
                    st = self._stencil(t, x)
                    corners += [st[:2]] if st else []
            rows, cols = zip(*corners) if corners else ((0,), (0,))
            self.u0, self.j0 = min(rows), min(cols)
            self.u1, self.j1 = ((max(rows) + 3, max(cols) + 3) if corners
                                else (-1, 0))
        # t-level u0 + j0 + k starts at level_start[k]; level i holds the
        # columns jlo(i) = max(j0, i - u1) .. jhi(i) = min(j1, i - u0)
        i = np.arange(self.u0 + self.j0, min(self.u1 + self.j1, self.nt) + 1)
        size = (np.minimum(self.j1, i - self.u0)
                - np.maximum(self.j0, i - self.u1) + 1)
        self.level_start = np.concatenate([[0], np.cumsum(size)])
        bytes_needed = _NODE.itemsize * int(self.level_start[-1])
        if bytes_needed > 3e9:
            raise CFLViolation(
                f"storage would need {bytes_needed / 1e9:.1f} GB; "
                "pass probes for runs this large")
        self.nodes = _trivial(self.level_start[-1])
        self.E, self.N, self.rho = (self.nodes[f] for f in _NODE.names)

    def _offsets(self, r, c):
        """Store offsets of the nodes (u, j) = (u0 + r, j0 + c): t-level
        i = u + j is level r + c of the store, and (u, j) is its node
        j - jlo(i) = min(c, u1 - u)."""
        return self.level_start[r + c] + np.minimum(c, self.u1 - self.u0 - r)

    def _row(self, r):
        """Store offsets of row u = u0 + r, its columns j0 .. min(j1, nt - u):
        _offsets(r, c) for c = 0 .. n - 1, whose levels r + c are a slice."""
        n = max(min(self.j1, self.nt - self.u0 - r) - self.j0 + 1, 0)
        return (self.level_start[r:r + n]
                + np.minimum(np.arange(n), self.u1 - self.u0 - r))

    def at(self, r, c):
        """E, N, rho at store rows ``r`` and column offsets ``c`` (integer
        arrays that broadcast): the nodes (u0 + r, j0 + c).  IndexError for a
        node outside the store."""
        r, c = np.asarray(r), np.asarray(c)
        if (min(r.min(), c.min()) < 0 or r.max() > self.u1 - self.u0
                or c.max() > self.j1 - self.j0
                or (r + c).max() > self.nt - self.u0 - self.j0):
            raise IndexError("node outside the store")
        k = self._offsets(r, c)
        return self.E[k], self.N[k], self.rho[k]

    def level(self, i: int):
        """E, N, rho over all x at the t-level ``i`` of a run that stores
        the whole rectangle: its stored columns j <= i + 2, then the trivial
        state past the cone."""
        if not (self.whole and 0 <= i <= self.nt):
            raise OutOfDomain(f"t-level {i} is not stored whole")
        a, b = self.level_start[i + 2:i + 4]     # the store's level i + 2
        nodes = np.concatenate([self.nodes[a:b],
                                _trivial(self.nx + 1 - (b - a))])
        return nodes["E"], nodes["N"], nodes["rho"]

    # --- probing --------------------------------------------------------

    def _stencil(self, t: float, x: float):
        """Row s0 and column c0 where the bicubic stencil of (t, x) starts
        (it spans s0..s0 + 3, c0..c0 + 3), the offsets of (t, x) from row
        s0 + 1 and column c0 + 1, and the jump row s0 reads; None if t <= x
        or tau = t - x snaps onto the trivial row u = 0.  OutOfDomain where
        (t, x) or the stencil leaves the rectangle."""
        if not (0.0 <= t <= self.t_max + 1e-9
                and 0.0 <= x <= self.x_max + 1e-9):
            raise OutOfDomain(f"({t}, {x}) outside the stored rectangle")
        u0, fu = _split((t - x) / self.h)
        if u0 + fu <= 0:
            return None
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
        try:
            E, N, rho = self.at(np.arange(i, i + 4)[:, None],
                                np.arange(j, j + 4))
        except IndexError:
            raise OutOfDomain(f"({t}, {x}): the stencil is outside the "
                              "stored window") from None
        if jump:
            E[0] += jump
        wu, wv = _cubic_weights(fu), _cubic_weights(fv)
        e, n, r = (wu @ arr @ wv for arr in (E, N, rho))
        return FieldTriple(E=complex(e), N=float(np.real(n)), rho=complex(r))

    # --- serialization ----------------------------------------------------

    def save_binary(self, path):
        """Write the stored grid: header (h, t_max, x_max, node count), then
        E_re, E_im, N, rho_re, rho_im per node, row-major in (t, x): each
        t-level's stored columns as they lie in the store, then the trivial
        state past the cone.

        The file is rewritten in place, not truncated first, so a rerun into
        the same path reuses its pages: a zero header (h = 0, which
        load_binary rejects), the body in vectored writes of the store's
        slices, the file cut to its size, and the real header last.  A write
        cut short leaves a file that never reads as a grid."""
        if not self.whole:
            raise OutOfDomain("binary dump requires storage of the whole "
                              "rectangle")
        row = _NODE.itemsize * (self.nx + 1)       # bytes of one t-level
        tail = _trivial(self.nx + 1).view(np.uint8)
        body = self.nodes.view(np.uint8)
        # t-level i is body[starts[i]:starts[i + 1]], then tail up to row
        starts = (_NODE.itemsize * self.level_start[2:]).tolist()
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            _write_all(fd, [bytes(32)])
            for i in range(0, self.nt + 1, _IOV_MAX // 2):
                ends = starts[i:i + _IOV_MAX // 2 + 1]
                _write_all(fd, [part for a, b in zip(ends, ends[1:])
                                for part in (body[a:b], tail[:row - (b - a)])])
            os.ftruncate(fd, 32 + row * (self.nt + 1))
            os.pwrite(fd, struct.pack("<dddd", self.h, self.t_max, self.x_max,
                                      float((self.nt + 1) * (self.nx + 1))),
                      0)
        finally:
            os.close(fd)


def _write_all(fd, parts):
    """Write the byte arrays ``parts`` (at most _IOV_MAX of them) at the
    file position with os.writev, resuming after a short write."""
    k = 0
    while k < len(parts):
        n = os.writev(fd, parts[k:])
        while k < len(parts) and n >= len(parts[k]):
            n -= len(parts[k])
            k += 1
        if n:
            parts[k] = parts[k][n:]


def load_binary(path) -> tuple[float, float, float, np.ndarray]:
    """Read a grid dump; returns (h, t_max, x_max, array[(nt+1), (nx+1), 5]).
    OutOfDomain for a header that disagrees with itself or with the size of
    the body."""
    with open(path, "rb") as fh:
        header = fh.read(32)
        if len(header) < 32:
            raise OutOfDomain(f"grid dump {path} has no header")
        h, t_max, x_max, nodes = struct.unpack("<dddd", header)
        if not (h > 0.0 and 0.0 <= t_max < math.inf
                and 0.0 <= x_max < math.inf):
            raise OutOfDomain(f"grid dump {path}: (h, t_max, x_max) = "
                              f"({h}, {t_max}, {x_max}) is not a grid")
        nt = int(round(t_max / h))
        nx = int(round(x_max / h))
        if (nt + 1) * (nx + 1) != nodes:
            raise OutOfDomain("node count in header disagrees with dimensions")
        raw = fh.read()
    if len(raw) != _NODE.itemsize * int(nodes):
        raise OutOfDomain(f"grid dump {path} holds {len(raw)} bytes of nodes, "
                          f"its header promises {_NODE.itemsize * int(nodes)}")
    body = np.frombuffer(raw, dtype="<f8").reshape(nt + 1, nx + 1, 5)
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


def _trapezoid(f: np.ndarray, e1: complex, r: np.ndarray,
               half_h: float) -> None:
    """E along a row from its boundary value e1 and E_x = r, written into f:
    the cumulative trapezoid."""
    f[0] = e1
    g = f[1:]
    np.add(r[:-1], r[1:], g)
    g *= half_h
    np.add.accumulate(f, 0, None, f)


def simulate(pulse: Pulse, t_max: float, x_max: float, h: float,
             nonphysical_tol: float = 1e-4, probes=None) -> SimGrid:
    """March the amplifier system on [0, t_max] x [0, x_max] row by row in
    tau = t - x with dtau = dx = h.  Given ``probes``, a list of (t, x)
    points, the run stores only the window their stencils read and marches
    up to its last row; by default it stores the whole rectangle.

    Returns the populated SimGrid with its invariant report.  Raises
    ValueError, naming the argument, unless h > 0, t_max >= 0, x_max >= 0
    and nonphysical_tol > 0; CFLViolation for grid parameters outside the
    scheme's envelope; and NonPhysical as a blow-up guard when the Bloch
    defect exceeds ``nonphysical_tol``.
    """
    for key, value in (("h", h), ("nonphysical_tol", nonphysical_tol)):
        if not value > 0:
            raise ValueError(f"oracle {key!r} is {value!r}: expected > 0")
    for key, value in (("t_max", t_max), ("x_max", x_max)):
        if not value >= 0:
            raise ValueError(f"oracle {key!r} is {value!r}: expected >= 0")
    T = pulse.support
    if h > 0.02 * min(1.0, T):
        raise CFLViolation(f"h = {h} exceeds 0.02*min(1, T) = {0.02 * min(1.0, T)}")
    grid = SimGrid(pulse, h, t_max, x_max, probes)
    nt, nx, u0, j0, j1 = grid.nt, grid.nx, grid.u0, grid.j0, grid.j1
    span = grid.u1 - u0
    half_h = 0.5 * h
    rows = max(0, grid.u1)
    # pulse() returns left limits at interior jump times (closed support),
    # the stored-value convention
    e1s = pulse(np.arange(1, rows + 1) * h).tolist()
    # row r's store offsets are level_start[r + c] + c = lsp[r + c] - r
    # wherever min(c, u1 - u) is c: on every row of a whole run
    lsp = grid.level_start[:-1] + np.arange(grid.level_start.size - 1)

    # buffers of nx + 1 columns, each row using its first m: two sets
    # (E, N, rho) that take turns as the row read and the row written, and
    # scratch.  nc holds N0, then N_s, cast to complex, the operand NumPy's
    # float-by-complex multiply makes anyway.
    w = nx + 1
    # row u = 0: the initial data, left limits at tau = 0
    cur = (np.zeros(w, dtype=complex), np.ones(w), np.zeros(w, dtype=complex))
    nxt = (np.empty(w, dtype=complex), np.empty(w), np.empty(w, dtype=complex))
    (rho_nb, Ecb, k1rb, rho_sb, ncb, cb), (k1nb, N_sb) = (
        np.empty((6, w), dtype=complex), np.empty((2, w)))

    cons_defect = 0.0
    defect_tx = None
    updates = 0

    for u in range(rows):
        m = min(nx, nt - u - 1) + 1     # columns of row u + 1
        e1 = e1s[u]
        E0, N0, rho0 = cur[0][:m], cur[1][:m], cur[2][:m]
        if u in grid.jump_rows:
            E0 = E0 + grid.jump_rows[u]
        E, N, rho = nxt[0][:m], nxt[1][:m], nxt[2][:m]
        rho_n, Ec, k1r, rho_s, nc, c = (rho_nb[:m], Ecb[:m], k1rb[:m],
                                        rho_sb[:m], ncb[:m], cb[:m])
        k1n, N_s = k1nb[:m], N_sb[:m]

        # each product keeps its operands in the order of the formula: a
        # complex multiply on FMA hardware is not commutative in its last bit
        nc[:] = N0
        np.multiply(nc, E0, k1r)                    # k1r = N0 E0
        np.conjugate(E0, c)
        c *= rho0
        np.negative(c.real, k1n)                    # k1n = -Re(conj(E0) rho0)
        np.multiply(h, k1r, rho_s)
        rho_s += rho0                               # rho_s = rho0 + h k1r
        np.multiply(h, k1n, N_s)
        N_s += N0                                   # N_s = N0 + h k1n
        nc[:] = N_s
        _trapezoid(rho_n, e1, rho_s, half_h)
        np.multiply(nc, rho_n, rho_n)
        rho_n += k1r
        np.multiply(half_h, rho_n, rho_n)
        rho_n += rho0               # rho_n = rho0 + h/2 (k1r + N_s E(rho_s))
        _trapezoid(Ec, e1, rho_n, half_h)
        # single coupling sweep: medium re-driven by the corrected field
        np.multiply(nc, Ec, rho)
        rho += k1r
        np.multiply(half_h, rho, rho)
        rho += rho0                 # rho = rho0 + h/2 (k1r + N_s Ec)
        np.conjugate(Ec, c)
        c *= rho_s
        np.subtract(k1n, c.real, N)
        np.multiply(half_h, N, N)
        N += N0                     # N = N0 + h/2 (k1n - Re(conj(Ec) rho_s))
        _trapezoid(E, e1, rho, half_h)

        r = u + 1 - u0
        if r >= 0:
            n = max(min(j1, nt - u - 1) - j0 + 1, 0)
            k = lsp[r:r + n] - r if n - 1 <= span - r else grid._row(r)
            grid.E[k] = E[j0:j0 + n]
            grid.N[k] = N[j0:j0 + n]
            grid.rho[k] = rho[j0:j0 + n]
        updates += m

        defect, a = N_s, k1n
        np.multiply(N, N, defect)
        np.abs(rho, a)
        a *= a
        defect += a
        defect -= 1.0
        np.abs(defect, defect)      # |N^2 + |rho|^2 - 1|
        worst = int(defect.argmax())         # the first NaN, if any
        if not defect[worst] <= cons_defect:
            cons_defect = float(defect[worst])
            defect_tx = ((u + 1 + worst) * h, worst * h)
            if not cons_defect <= nonphysical_tol:
                raise NonPhysical(
                    f"Bloch defect {cons_defect:.3e} at (t, x) = "
                    f"({defect_tx[0]:.4f}, {defect_tx[1]:.4f}) "
                    f"exceeds the guard {nonphysical_tol:.1e}")
        cur, nxt = nxt, cur

    # the stored rows tau <= 0 are never marched and must stay trivial
    pre = grid.nodes[np.concatenate(
        [grid._row(r) for r in range(min(-u0, grid.u1 - u0) + 1)]
        + [np.zeros(0, dtype=int)])]
    caus_defect = float(max(np.abs(pre["E"]).max(initial=0.0),
                            np.abs(pre["rho"]).max(initial=0.0),
                            np.abs(pre["N"] - 1.0).max(initial=0.0)))
    grid.invariants = InvariantReport(cons_defect, caus_defect, updates,
                                      defect_tx)
    return grid
