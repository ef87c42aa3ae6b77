"""Direct integrator: causality, Bloch-sphere defect, convergence, probing."""

import os
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbamp import mb_oracle
from mbamp.errors import CFLViolation, NonPhysical, OutOfDomain
from mbamp.mb_oracle import InvariantReport, load_binary, simulate
from mbamp.pulse import BoxPulse, SmoothBumpPulse


def _stored_nodes(grid):
    """Store row r and column offset c of every stored node, in storage
    order: the nodes (u, j) = (u0 + r, j0 + c) of the box with t <= t_max,
    by t-level u + j, then by column."""
    r, c = np.meshgrid(np.arange(grid.u1 - grid.u0 + 1),
                       np.arange(grid.j1 - grid.j0 + 1), indexing="ij")
    keep = grid.u0 + r + grid.j0 + c <= grid.nt
    order = np.lexsort((c[keep], r[keep] + c[keep]))
    return r[keep][order], c[keep][order]


def _reference_march(pulse, t_max, x_max, h, rows, nonphysical_tol):
    """The oracle's row step, one row at a time with the pulse sampled per
    row, for pulses whose jumps lie on the grid: E, N, rho on the rows
    u = -2 .. rows (at index u + 2; NaN past t_max) and the invariants."""
    nt, nx, half_h = round(t_max / h), round(x_max / h), 0.5 * h
    jumps = {round(tj / h): dv for tj, dv in pulse.jumps()}
    out = np.full((3, rows + 3, nx + 1), np.nan, dtype=complex)
    (E, rho), N = np.zeros((2, nx + 1), dtype=complex), np.ones(nx + 1)
    out[:, :3] = np.array([E, N, rho])[:, None]
    cons, tx = 0.0, None

    def trapezoid(e1, r):
        return np.cumsum(np.concatenate([[e1], (r[:-1] + r[1:]) * half_h]))

    for u in range(rows):
        m = min(nx, nt - u - 1) + 1
        e1 = complex(pulse((u + 1) * h))
        E0, N0, rho0 = E[:m], N[:m], rho[:m]
        if u in jumps:
            E0 = E0 + jumps[u]
        k1r, k1n = N0 * E0, -(np.conj(E0) * rho0).real
        rho_s, N_s = rho0 + h * k1r, N0 + h * k1n
        rho_n = rho0 + half_h * (k1r + N_s * trapezoid(e1, rho_s))
        Ec = trapezoid(e1, rho_n)
        rho = rho0 + half_h * (k1r + N_s * Ec)
        N = N0 + half_h * (k1n - (np.conj(Ec) * rho_s).real)
        E = trapezoid(e1, rho)
        out[:, u + 3, :m] = E, N, rho
        defect = np.abs(N * N + np.abs(rho) ** 2 - 1.0)
        if defect.max() > cons:
            cons, j = float(defect.max()), int(np.argmax(defect))
            tx = ((u + 1 + j) * h, j * h)
            if cons > nonphysical_tol:
                raise NonPhysical(
                    f"Bloch defect {cons:.3e} at (t, x) = ({tx[0]:.4f}, "
                    f"{tx[1]:.4f}) exceeds the guard {nonphysical_tol:.1e}")
    updates = sum(min(nx, nt - u - 1) + 1 for u in range(rows))
    return out, InvariantReport(cons, 0.0, updates, tx)


@pytest.fixture(scope="module")
def box_run():
    # h at the CFL bound trips the blow-up guard through the amplified
    # front, so run the shared fixture at half that step
    return simulate(BoxPulse(1.0, 1.0), t_max=8.0, x_max=8.0, h=0.005)


def test_causal_region_exactly_trivial(box_run):
    inv = box_run.invariants
    assert inv.causality_defect == 0.0
    ft = box_run.probe(3.0, 4.0)
    assert ft.E == 0j and ft.N == 1.0 and ft.rho == 0j


def test_boundary_reproduction(box_run):
    assert box_run.probe(0.5, 0.0).E == pytest.approx(1.0, abs=1e-12)


def test_probe_exact_at_nodes(box_run):
    i, j = 412, 317
    ft = box_run.probe(i * box_run.h, j * box_run.h)
    # stored by (u, j) = (tau/h, x/h), row u + 2
    assert (ft.E, ft.N, ft.rho) == box_run.at(i - j + 2, j)


def test_probe_before_light_cone_is_trivial(box_run):
    h = box_run.h
    # nodes and points with tau < 0, down to tau = -h/2, where the bicubic
    # stencil would reach the front jump at u = 1
    for t, x in ((2.0, 3.5), (1.2345, 2.3456), (6.01, 6.4),
                 (3.0, 3.0 + 1.7 * h), (3.0, 3.0 + 0.5 * h), (3.0, 3.0)):
        ft = box_run.probe(t, x)
        assert (ft.E, ft.N, ft.rho) == (0j, 1.0, 0j)


def test_probe_a_hair_inside_the_cone_reads_row_zero(box_run):
    # tau below the snap of _split lands on row u = 0 (the left limit, the
    # trivial state), in the whole run as in a window
    for t, x in ((1e-13, 0.0), (1.4e-45, 0.0), (3.0 + 1e-12, 3.0)):
        win = simulate(box_run.pulse, t_max=8.0, x_max=8.0, h=box_run.h,
                       probes=[(t, x)])
        ft = box_run.probe(t, x)
        assert (ft.E, ft.N, ft.rho) == (0j, 1.0, 0j)
        assert win.probe(t, x) == ft


def test_probe_stays_on_its_side_of_jump_rows(box_run):
    # the box 1/1 pulse jumps by +1 at tau = 0 and by -1 at tau = T = 1 (row
    # 200); between two rows the probe must lie near the mean of the limits
    # on its side, never interpolate across the jump
    h, j = box_run.h, 600                    # the column x = 3
    # the rows u <= nt - j that store the column, row u at index u + 2
    E = box_run.at(np.arange(box_run.nt - j + 3), j)[0]
    for tau, lo, hi in ((0.5 * h, 1.0, E[3]),
                        (1.5 * h, E[3], E[4]),
                        (1.0 - 0.5 * h, E[201], E[202]),
                        (1.0 + 0.5 * h, E[202] - 1.0, E[203])):
        got = box_run.probe(3.0 + tau, 3.0).E
        assert abs(got - 0.5 * (lo + hi)) < 1e-3
    # on a jump row the probe gives the stored left limit
    assert box_run.probe(4.0, 3.0).E == E[202]


def test_probe_out_of_domain(box_run):
    with pytest.raises(OutOfDomain):
        box_run.probe(9.0, 1.0)
    with pytest.raises(OutOfDomain):
        box_run.probe(1.0, -0.5)
    with pytest.raises(OutOfDomain):
        box_run.probe(8.0, 0.0)     # the stencil would need t-levels past t_max


# probes at tau <= 0.47 beside the columns x = 2..2.9, and the probe that
# sets each run's window edge: tau = 0.7 at x = 0, or at x = 2 for the band
_STRIP_PROBES = [(3.3, 2.9), (2.13, 2.0), (2.45, 2.0), (3.0, 2.53)]


@pytest.mark.parametrize("pulse, edge", [(BoxPulse(1.0, 1.0), (0.7, 0.0)),
                                         (SmoothBumpPulse(1.0, 2.0, 1.0),
                                          (0.7, 0.0)),
                                         (BoxPulse(1.0, 1.0), (2.7, 2.0))],
                         ids=["box", "bump", "band"])
def test_strip_run_matches_full_run(pulse, edge, tmp_path):
    full = simulate(pulse, t_max=5.0, x_max=4.0, h=0.01)
    win = simulate(pulse, t_max=5.0, x_max=4.0, h=0.01,
                   probes=_STRIP_PROBES + [edge])
    r, c = _stored_nodes(win)
    rows, cols = r.max() + 1, c.max() + 1
    # stencil rows 12 (tau = 0.13) to 72 (tau = 0.7), columns from one left
    # of the edge probe's to 292 (x = 2.9)
    j0 = 0 if edge[1] == 0.0 else 199
    assert (win.u0, win.j0) == (12, j0)
    assert (rows, cols) == (61, 293 - j0)
    # every stored node, bit for bit: row u at index u + 2 of the full store
    for got, want in zip((win.E, win.N, win.rho),
                         full.at(r + win.u0 + 2, c + j0)):
        assert np.array_equal(got, want)
    for t, x in _STRIP_PROBES + [edge]:
        assert win.probe(t, x) == full.probe(t, x)
    # rows u = 1..last, row u covering the columns j <= min(nx, nt - u); the
    # row u = 0 is initial data and stays trivial
    nt, nx = 500, 400
    assert full.invariants.node_updates == sum(min(nx, nt - u) + 1
                                               for u in range(1, nt + 1))
    assert full.invariants.node_updates == 120_300
    assert win.invariants.node_updates == sum(min(nx, nt - u) + 1
                                              for u in range(1, 73))
    E0, N0, rho0 = full.at(2, np.arange(nx + 1))
    assert not E0.any() and not rho0.any()
    assert (N0 == 1.0).all()
    assert win.invariants.causality_defect == 0.0
    assert win.invariants.conservation_defect \
        <= full.invariants.conservation_defect
    with pytest.raises(OutOfDomain):
        win.level(50)                    # no t-level is stored whole
    with pytest.raises(OutOfDomain):
        win.save_binary(tmp_path / "win.bin")
    if j0 > 0:
        with pytest.raises(OutOfDomain):
            win.probe(2.3, 1.995)        # left of the window
    # probes the run cannot serve (causal, outside the rectangle, past
    # t_max) store nothing, and probe() still raises for them
    empty = simulate(pulse, t_max=2.0, x_max=1.0, h=0.01,
                     probes=[(0.5, 1.0), (2.5, 1.0), (2.0, 0.5)])
    assert empty.E.size == 0 and empty.invariants.node_updates == 0
    ft = empty.probe(0.5, 1.0)
    assert (ft.E, ft.N, ft.rho) == (0j, 1.0, 0j)
    for t, x in ((1.5, 1.0), (2.5, 1.0), (2.0, 0.5)):
        with pytest.raises(OutOfDomain):
            empty.probe(t, x)


def test_probe_past_tau_max_raises():
    g = simulate(BoxPulse(1.0, 1.0), t_max=4.0, x_max=3.0, h=0.01,
                 probes=[(3.0, 2.53)])
    assert np.bincount(_stored_nodes(g)[0]).tolist() == [4] * 4  # one stencil
    g.probe(3.0, 2.53)
    # tau = 0.6 and 0.52 need rows past the last one marched
    for t, x in ((3.0, 2.4), (3.0, 2.48), (1.0, 0.0)):
        with pytest.raises(OutOfDomain):
            g.probe(t, x)
    with pytest.raises(OutOfDomain):
        g.save_binary("unused.bin")      # the window is not the whole rectangle


def test_strip_with_capture_column():
    # a column probe: the window of probes on the column x = 2
    g = simulate(BoxPulse(1.0, 1.0), t_max=4.0, x_max=3.0, h=0.01,
                 probes=[(t, 2.0) for t in (1.7, 2.13, 2.45)])
    full = simulate(BoxPulse(1.0, 1.0), t_max=4.0, x_max=3.0, h=0.01)
    for t in (1.7, 2.13, 2.45):
        assert g.probe(t, 2.0) == full.probe(t, 2.0)
    with pytest.raises(OutOfDomain):
        g.probe(2.49, 2.0)


def test_probe_exact_at_last_columns():
    # nodal probes at the four columns by the x_max edge, where the stencil
    # is shifted inward and the offset leaves [0, 1)
    g = simulate(BoxPulse(1.0, 1.0), t_max=4.0, x_max=2.0, h=0.01)
    u = 50
    for j in range(g.nx - 3, g.nx + 1):
        ft = g.probe((u + j) * g.h, j * g.h)
        assert (ft.E, ft.N, ft.rho) == g.at(u + 2, j)


_H = 0.01


@pytest.fixture(scope="module")
def full_runs():
    """Whole-rectangle reference runs, shared by the drawn examples."""
    return {kind: simulate(pulse, t_max=3.0, x_max=2.0, h=_H)
            for kind, pulse in (("box", BoxPulse(1.0, 1.0)),
                                ("bump", SmoothBumpPulse(1.0, 2.0, 1.0)))}


# probes anywhere near the rectangle [0, 3] x [0, 2] (causal ones and ones
# outside it included), on nodes, and within 1.5h of the box's jump rows
_POINTS = st.one_of(
    st.tuples(st.floats(-0.2, 3.2), st.floats(-0.2, 2.2)),
    st.builds(lambda i, j: (i * _H, j * _H), st.integers(0, 300),
              st.integers(0, 200)),
    st.builds(lambda tau, k, x: (x + tau + k * _H, x),
              st.sampled_from([0.0, 1.0]),
              st.sampled_from([-1.5, -0.5, 0.0, 0.5, 1.5]),
              st.floats(0.0, 2.0)))


@settings(max_examples=30, deadline=None, database=None)
@given(kind=st.sampled_from(["box", "bump"]),
       probes=st.lists(_POINTS, min_size=1, max_size=6))
def test_window_serves_its_probes_bit_for_bit(full_runs, kind, probes):
    full = full_runs[kind]
    win = simulate(full.pulse, t_max=3.0, x_max=2.0, h=_H, probes=probes)
    served = []
    for t, x in probes:
        try:
            want = full.probe(t, x)
        except OutOfDomain:
            with pytest.raises(OutOfDomain):
                win.probe(t, x)
            continue
        assert win.probe(t, x) == want
        # a point within _split's snap of 1e-9 h inside the cone is on row
        # u = 0 and reads no stored node
        if (t - x) / _H >= 1e-9:
            served.append((t, x))
    if not served:
        assert win.N.size == 0
        return
    # the window is the stencils' bounding box: each of its edge rows and
    # columns is read by some probe (NaN there reaches its result)
    r, c = _stored_nodes(win)
    for edge in (r == 0, r == r.max(), c == 0, c == c.max()):
        saved = win.N[edge].copy()
        win.N[edge] = np.nan
        assert any(np.isnan(win.probe(t, x).N) for t, x in served)
        win.N[edge] = saved


def test_defect_location(box_run):
    inv = box_run.invariants
    t, x = inv.defect_tx
    i, j = round(t / box_run.h), round(x / box_run.h)
    _, n, r = box_run.at(i - j + 2, j)
    assert abs(n * n + abs(r) ** 2 - 1.0) == inv.conservation_defect


def test_conservation_defect_small(box_run):
    # the amplified front out to x = 8 dominates the defect at this step
    assert box_run.invariants.conservation_defect < 5e-5


def test_field_richardson_second_order():
    probes = [(5.0, 0.4), (7.0, 0.8), (3.5, 0.2)]
    sols = {}
    for h in (0.02, 0.01, 0.005):
        g = simulate(BoxPulse(1.0, 1.0), t_max=8.0, x_max=1.0, h=h)
        sols[h] = np.array([[g.probe(t, x).E, g.probe(t, x).N,
                             g.probe(t, x).rho] for t, x in probes],
                           dtype=complex)
    d1 = np.linalg.norm(sols[0.02] - sols[0.01])
    d2 = np.linalg.norm(sols[0.01] - sols[0.005])
    assert 3.2 <= d1 / d2 <= 4.8


def test_conservation_richardson_at_least_second_order():
    # the Bloch defect of this scheme shrinks at least as fast as promised
    ds = []
    for h in (0.02, 0.01):
        g = simulate(BoxPulse(1.0, 1.0), t_max=10.0, x_max=1.0, h=h)
        ds.append(g.invariants.conservation_defect)
    assert ds[0] / ds[1] > 3.5


def test_cfl_guards():
    with pytest.raises(CFLViolation):
        simulate(BoxPulse(1.0, 1.0), t_max=1.0, x_max=1.0, h=0.05)
    with pytest.raises(CFLViolation):
        simulate(BoxPulse(1.0, 1.0), t_max=1e5, x_max=1.0, h=0.01)


def test_whole_run_stores_only_marched_rows():
    # the two pad rows and row u = 0 whole, then row u up to column
    # min(nx, nt - u): exactly the nodes the march updates
    g = simulate(BoxPulse(1.0, 1.0), t_max=3.0, x_max=3.0, h=0.01)
    nt, nx = g.nt, g.nx
    marched = sum(min(nx, nt - u) + 1 for u in range(nt + 1))
    assert g.E.size == g.N.size == g.rho.size == 2 * (nx + 1) + marched
    assert g.E.size == 3 * (nx + 1) + g.invariants.node_updates
    assert np.bincount(_stored_nodes(g)[0]).size == nt + 3
    # by t-level: level i = -2 .. nt holds the columns j <= min(nx, i + 2)
    assert np.diff(g.level_start).tolist() == [min(nx, i + 2) + 1
                                               for i in range(-2, nt + 1)]
    assert g.level_start[-1] == g.E.size


def test_storage_guard_counts_stored_nodes():
    # 120001 x 120001 nodes: the rectangle would take 576 GB, the stored
    # triangle about half; the guard raises before any field is allocated
    tracemalloc.start()
    try:
        with pytest.raises(CFLViolation, match="would need 288.0 GB"):
            simulate(BoxPulse(1.0, 1.0), t_max=600.0, x_max=600.0, h=0.005)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6


def test_nonphysical_guard_trips_on_underresolved_run():
    # strong pulse at the CFL-limit step: medium rotation underresolved
    with pytest.raises(NonPhysical):
        simulate(BoxPulse(40.0, 1.0), t_max=6.0, x_max=6.0, h=0.02,
                 nonphysical_tol=1e-6)


def test_capture_columns_match_full(box_run):
    # the columns x = 2 and x = 5 from one window
    probes = [(t, x) for x in (2.0, 5.0) for t in (1.37, 4.92, 7.5)]
    g = simulate(BoxPulse(1.0, 1.0), t_max=8.0, x_max=8.0, h=0.005,
                 probes=probes)
    for t, x in probes:
        a = g.probe(t, x)
        b = box_run.probe(t, x)
        assert abs(a.E - b.E) < 1e-12
        assert abs(a.N - b.N) < 1e-12


def test_capture_window_matches_full(box_run):
    g = simulate(BoxPulse(1.0, 1.0), t_max=8.0, x_max=8.0, h=box_run.h,
                 probes=[(4.3, 1.7), (4.71, 3.33)])
    for (t, x) in ((4.3, 1.7), (4.71, 3.33)):
        a = g.probe(t, x)
        b = box_run.probe(t, x)
        assert abs(a.E - b.E) < 1e-12
        assert abs(a.rho - b.rho) < 1e-12
    with pytest.raises(OutOfDomain):
        g.probe(4.3, 1.0)   # left of the window
    with pytest.raises(OutOfDomain):
        g.probe(7.0, 1.7)   # past the window's last row


def test_binary_round_trip(tmp_path, box_run):
    path = tmp_path / "grid.bin"
    box_run.save_binary(path)
    h, t_max, x_max, body = load_binary(path)
    assert h == box_run.h and t_max == box_run.t_max and x_max == box_run.x_max
    assert body.shape == (box_run.nt + 1, box_run.nx + 1, 5)
    for i in range(box_run.nt + 1):
        E, N, rho = box_run.level(i)
        assert np.array_equal(body[i], np.column_stack(
            [E.real, E.imag, N, rho.real, rho.imag]))
    i, j = 456, 123
    E, N, rho = box_run.at(i - j + 2, j)
    assert body[i, j, 0] == E.real
    assert body[i, j, 2] == N
    assert body[i, j, 4] == rho.imag
    assert body[j, i, 2] == 1.0 and body[j, i, 0] == 0.0


def test_wide_whole_run_is_trivial_on_the_causal_side(tmp_path):
    # x_max = 4 t_max: the pad rows end at column nt + 2, far short of nx,
    # and every node with t <= x must still read the trivial state
    g = simulate(BoxPulse(1.0, 1.0), t_max=1.0, x_max=4.0, h=0.01)
    E, N, rho = g.level(0)
    assert not E.any() and not rho.any() and (N == 1.0).all()
    g.save_binary(tmp_path / "grid.bin")
    body = load_binary(tmp_path / "grid.bin")[3]
    causal = np.arange(g.nt + 1)[:, None] <= np.arange(g.nx + 1)
    assert (body[causal] == [0.0, 0.0, 1.0, 0.0, 0.0]).all()
    assert np.abs(body[..., 0][~causal]).max() > 0.5
    with pytest.raises(IndexError):         # past pad row 0's columns
        g.at(0, g.nt + 3)


def test_tall_whole_run_round_trip(tmp_path):
    # t_max = 3 x_max: the t-levels i >= nx - 2 store every column and have
    # no trivial tail, the levels below store the columns j <= i + 2
    g = simulate(BoxPulse(1.0, 1.0), t_max=3.0, x_max=1.0, h=0.01)
    assert np.diff(g.level_start).tolist() == [
        min(g.nx, i + 2) + 1 for i in range(-2, g.nt + 1)]
    g.save_binary(tmp_path / "grid.bin")
    h, t_max, x_max, body = load_binary(tmp_path / "grid.bin")
    assert (h, t_max, x_max) == (0.01, 3.0, 1.0)
    assert body.shape == (g.nt + 1, g.nx + 1, 5)
    for i in range(g.nt + 1):
        E, N, rho = g.level(i)
        assert np.array_equal(body[i], np.column_stack(
            [E.real, E.imag, N, rho.real, rho.imag]))
    for r, c in ((-1, 0), (0, -1), (g.nt + 3, 0), (g.nt + 2, 1)):
        with pytest.raises(IndexError):     # outside the store
            g.at(r, c)


def test_malformed_dump_is_out_of_domain(tmp_path):
    g = simulate(BoxPulse(1.0, 1.0), t_max=1.0, x_max=1.0, h=0.01)
    path = tmp_path / "grid.bin"
    g.save_binary(path)
    data = path.read_bytes()
    assert len(data) == 32 + 40 * 101 * 101

    def header(*values):
        return struct.pack("<dddd", *values) + data[32:]

    for bad, match in ((data[:-40], "holds 408000 bytes of nodes, its "
                                    "header promises 408040"),
                       (data + bytes(8), "holds 408048 bytes"),
                       (data[:20], "has no header"),
                       (header(0.0, 1.0, 1.0, 10201.0), "is not a grid"),
                       (header(0.01, np.nan, 1.0, 10201.0), "is not a grid"),
                       (header(0.01, 1.0, 1.0, np.nan), "node count")):
        path.write_bytes(bad)
        with pytest.raises(OutOfDomain, match=match):
            load_binary(path)


@pytest.mark.parametrize("stale", [bytes(range(256)) * 2000, b"short"])
def test_rewrite_over_a_stale_dump_equals_a_fresh_one(tmp_path, stale):
    # the dump rewrites in place: a longer stale file is cut to size, a
    # shorter one grows to it, and no stale byte survives
    g = simulate(BoxPulse(1.0, 1.0), t_max=1.0, x_max=1.0, h=0.01)
    fresh, path = tmp_path / "fresh.bin", tmp_path / "grid.bin"
    g.save_binary(fresh)
    path.write_bytes(stale)
    g.save_binary(path)
    assert path.read_bytes() == fresh.read_bytes()


def test_short_writes_resume(tmp_path, monkeypatch):
    # a writev that writes at most 1000 bytes of its first buffer per call
    g = simulate(BoxPulse(1.0, 1.0), t_max=1.0, x_max=1.0, h=0.01)
    g.save_binary(tmp_path / "fresh.bin")
    writev = os.writev
    monkeypatch.setattr(mb_oracle.os, "writev",
                        lambda fd, parts: writev(fd, [parts[0][:1000]]))
    g.save_binary(tmp_path / "grid.bin")
    assert ((tmp_path / "grid.bin").read_bytes()
            == (tmp_path / "fresh.bin").read_bytes())


def test_interrupted_rewrite_never_reads_as_a_grid(tmp_path, monkeypatch):
    # 601 t-levels need two vectored batches after the header's write; the
    # write fails after the first batch, over a complete earlier dump
    g = simulate(BoxPulse(1.0, 1.0), t_max=6.0, x_max=1.0, h=0.01)
    path = tmp_path / "grid.bin"
    g.save_binary(path)
    load_binary(path)
    calls, writev = [], os.writev

    def fail_third(fd, parts):
        calls.append(len(parts))
        if len(calls) == 3:
            raise OSError(28, "No space left on device")
        return writev(fd, parts)

    monkeypatch.setattr(mb_oracle.os, "writev", fail_third)
    with pytest.raises(OSError):
        g.save_binary(path)
    assert calls == [1, 1024, 178]
    with pytest.raises(OutOfDomain, match="is not a grid"):
        load_binary(path)


def test_window_dump_raises_before_touching_the_path(tmp_path):
    g = simulate(BoxPulse(1.0, 1.0), t_max=4.0, x_max=3.0, h=0.01,
                 probes=[(3.0, 2.53)])
    new, old = tmp_path / "new.bin", tmp_path / "old.bin"
    old.write_bytes(b"earlier dump")
    before = os.stat(old)
    for path in (new, old):
        with pytest.raises(OutOfDomain, match="whole rectangle"):
            g.save_binary(path)
    assert not new.exists()
    assert old.read_bytes() == b"earlier dump"
    assert os.stat(old).st_mtime_ns == before.st_mtime_ns


class _NaNPastHalf(BoxPulse):
    """A box whose samples past t = 0.5 are NaN."""

    def __call__(self, t):
        return np.where(np.asarray(t) > 0.5, np.nan, super().__call__(t))


def test_nonphysical_guard_trips_on_nan():
    with pytest.raises(NonPhysical, match=r"Bloch defect nan at \(t, x\) = "
                                          r"\(0\.5100, 0\.0000\)"):
        simulate(_NaNPastHalf(1.0, 1.0), 2.0, 2.0, 0.01, nonphysical_tol=1e-2)


def _offset_branches(grid):
    """Marched rows u whose store offsets are one slice of level_start (every
    column offset c <= u1 - u), and marched rows that need min(c, u1 - u)."""
    sliced = clipped = 0
    for u in range(max(grid.u0, 1), grid.u1 + 1):
        if min(grid.j1, grid.nt - u) - grid.j0 <= grid.u1 - u:
            sliced += 1
        else:
            clipped += 1
    return sliced, clipped


# (probes, t_max, x_max, marched rows through each offset branch): a whole
# run, a wide window, a narrow window across the box's jump row u = 100, and
# whole runs with rows shorter than their buffers (wide), with more rows
# than columns (tall) and of one column
_MARCHES = {
    "whole": (None, 5.0, 4.0, (500, 0)),
    "window": (_STRIP_PROBES + [(0.7, 0.0)], 5.0, 4.0, (0, 61)),
    "narrow-window": ([(1.2, 0.5), (3.0, 0.5), (4.0, 0.55)], 5.0, 4.0,
                      (271, 8)),
    "wide": (None, 3.0, 5.0, (300, 0)),
    "tall": (None, 6.0, 1.5, (600, 0)),
    "one-column": (None, 4.0, 0.0, (400, 0)),
}


@pytest.mark.parametrize("probes, t_max, x_max, branches",
                         _MARCHES.values(), ids=_MARCHES.keys())
@pytest.mark.parametrize("pulse", [BoxPulse(1.0, 1.0),
                                   SmoothBumpPulse(1.0, 2.0, 1.0)],
                         ids=["box", "bump"])
def test_march_matches_the_reference_bit_for_bit(pulse, probes, t_max, x_max,
                                                 branches):
    # the box's jump rows u = 0 and 100 lie on the grid
    g = simulate(pulse, t_max=t_max, x_max=x_max, h=0.01, probes=probes)
    assert _offset_branches(g) == branches
    ref, inv = _reference_march(pulse, t_max, x_max, 0.01, g.u1, 1e-4)
    assert g.invariants == inv
    r, c = _stored_nodes(g)
    assert r.size == g.E.size
    for got, want in zip((g.E, g.N, g.rho), ref[:, g.u0 + 2 + r, g.j0 + c]):
        assert np.array_equal(got, want)


def test_underresolved_run_trips_the_guard_as_the_reference():
    args = (BoxPulse(40.0, 1.0), 6.0, 6.0, 0.02)
    with pytest.raises(NonPhysical) as want:
        _reference_march(*args, rows=300, nonphysical_tol=1e-6)
    with pytest.raises(NonPhysical) as got:
        simulate(*args, nonphysical_tol=1e-6)
    assert str(got.value) == str(want.value)


def test_smooth_pulse_tighter_defect():
    g = simulate(SmoothBumpPulse(1.0, 2.0, 1.0), t_max=10.0, x_max=1.0, h=0.01)
    assert g.invariants.conservation_defect < 1e-6
    assert g.invariants.causality_defect == 0.0
