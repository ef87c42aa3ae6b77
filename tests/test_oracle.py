"""Direct integrator: causality, Bloch-sphere defect, convergence, probing."""

import numpy as np
import pytest

from mbamp.errors import CFLViolation, NonPhysical, OutOfDomain
from mbamp.mb_oracle import load_binary, simulate
from mbamp.pulse import BoxPulse, SmoothBumpPulse


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
    assert ft.E == box_run.E[i - j + 2, j]
    assert ft.N == box_run.N[i - j + 2, j]
    assert ft.rho == box_run.rho[i - j + 2, j]


def test_probe_before_light_cone_is_trivial(box_run):
    h = box_run.h
    # nodes and points with tau < 0, down to tau = -h/2, where the bicubic
    # stencil would reach the front jump at u = 1
    for t, x in ((2.0, 3.5), (1.2345, 2.3456), (6.01, 6.4),
                 (3.0, 3.0 + 1.7 * h), (3.0, 3.0 + 0.5 * h), (3.0, 3.0)):
        ft = box_run.probe(t, x)
        assert (ft.E, ft.N, ft.rho) == (0j, 1.0, 0j)


def test_probe_stays_on_its_side_of_jump_rows(box_run):
    # the box 1/1 pulse jumps by +1 at tau = 0 and by -1 at tau = T = 1 (row
    # 200); between two rows the probe must lie near the mean of the limits
    # on its side, never interpolate across the jump
    h, j = box_run.h, 600                    # the column x = 3
    E = box_run.E[:, j]                      # row u at index u + 2
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


@pytest.mark.parametrize("pulse, x_min", [(BoxPulse(1.0, 1.0), 0.0),
                                          (SmoothBumpPulse(1.0, 2.0, 1.0), 0.0),
                                          (BoxPulse(1.0, 1.0), 2.0)],
                         ids=["box", "bump", "band"])
def test_strip_run_matches_full_run(pulse, x_min, tmp_path):
    full = simulate(pulse, t_max=5.0, x_max=4.0, h=0.01)
    strip = simulate(pulse, t_max=5.0, x_max=4.0, h=0.01, tau_max=0.7,
                     x_min=x_min)
    rows = strip.nu + 3
    j0 = strip.j0
    assert strip.nu == 70 and rows < full.E.shape[0]
    assert j0 == max(0, round(x_min / 0.01) - 1)
    # every stored node with tau <= tau_max and x >= x_min, bit for bit
    assert np.array_equal(strip.E, full.E[:rows, j0:])
    assert np.array_equal(strip.N, full.N[:rows, j0:])
    assert np.array_equal(strip.rho, full.rho[:rows, j0:])
    for t, x in ((3.3, 2.9), (2.13, 2.0), (2.45, 2.0), (3.0, 2.53)):
        assert strip.probe(t, x) == full.probe(t, x)
    # rows u = 1..nu, row u covering the columns j <= min(nx, nt - u); the
    # row u = 0 is initial data and stays trivial
    nt, nx = 500, 400
    assert full.invariants.node_updates == sum(min(nx, nt - u) + 1
                                               for u in range(1, nt + 1))
    assert full.invariants.node_updates == 120_300
    assert strip.invariants.node_updates == sum(min(nx, nt - u) + 1
                                                for u in range(1, 71))
    for g in (full, strip):
        assert not g.E[2].any() and not g.rho[2].any()
        assert (g.N[2] == 1.0).all()
    assert strip.invariants.causality_defect == 0.0
    assert strip.invariants.conservation_defect \
        <= full.invariants.conservation_defect
    if x_min > 0:
        with pytest.raises(OutOfDomain):
            strip.probe(2.3, x_min - 0.005)
        with pytest.raises(OutOfDomain):
            strip.level(50)              # inside the strip, left of x_min
        # two stored columns: too narrow for any stencil, and no whole level
        edge = simulate(pulse, t_max=2.0, x_max=1.0, h=0.01, x_min=1.0)
        assert edge.E.shape == (203, 2)
        with pytest.raises(OutOfDomain):
            edge.probe(1.5, 1.0)
        with pytest.raises(OutOfDomain):
            edge.save_binary(tmp_path / "edge.bin")


def test_probe_past_tau_max_raises():
    g = simulate(BoxPulse(1.0, 1.0), t_max=4.0, x_max=3.0, h=0.01, tau_max=0.5)
    g.probe(3.0, 2.53)                   # tau = 0.47: stencil inside the strip
    for t, x in ((3.0, 2.4), (3.0, 2.48), (1.0, 0.0)):
        with pytest.raises(OutOfDomain):
            g.probe(t, x)
    with pytest.raises(OutOfDomain):
        g.save_binary("unused.bin")      # the strip is not the whole rectangle


def test_strip_with_capture_column():
    # a column probe is a strip probe with x_min at the column
    g = simulate(BoxPulse(1.0, 1.0), t_max=4.0, x_max=3.0, h=0.01,
                 tau_max=0.5, x_min=2.0)
    full = simulate(BoxPulse(1.0, 1.0), t_max=4.0, x_max=3.0, h=0.01)
    for t in (1.7, 2.13, 2.45):
        assert g.probe(t, 2.0) == full.probe(t, 2.0)
    with pytest.raises(OutOfDomain):
        g.probe(2.49, 2.0)


def test_defect_location(box_run):
    inv = box_run.invariants
    t, x = inv.defect_tx
    i, j = round(t / box_run.h), round(x / box_run.h)
    n, r = box_run.N[i - j + 2, j], box_run.rho[i - j + 2, j]
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


def test_nonphysical_guard_trips_on_underresolved_run():
    # strong pulse at the CFL-limit step: medium rotation underresolved
    with pytest.raises(NonPhysical):
        simulate(BoxPulse(40.0, 1.0), t_max=6.0, x_max=6.0, h=0.02,
                 nonphysical_tol=1e-6)


def test_capture_columns_match_full(box_run):
    # the columns x = 2 and x = 5 from one store cut at x_min = 2
    g = simulate(BoxPulse(1.0, 1.0), t_max=8.0, x_max=8.0, h=0.005, x_min=2.0)
    for x in (2.0, 5.0):
        for t in (1.37, 4.92, 7.5):
            a = g.probe(t, x)
            b = box_run.probe(t, x)
            assert abs(a.E - b.E) < 1e-12
            assert abs(a.N - b.N) < 1e-12


def test_capture_window_matches_full(box_run):
    # a window around the probes is a strip cut at x_min and tau_max
    h = box_run.h
    g = simulate(BoxPulse(1.0, 1.0), t_max=8.0, x_max=8.0, h=h,
                 tau_max=2.6 + 3.0 * h, x_min=1.7)
    for (t, x) in ((4.3, 1.7), (4.71, 3.33)):
        a = g.probe(t, x)
        b = box_run.probe(t, x)
        assert abs(a.E - b.E) < 1e-12
        assert abs(a.rho - b.rho) < 1e-12
    with pytest.raises(OutOfDomain):
        g.probe(4.3, 1.0)   # left of the window
    with pytest.raises(OutOfDomain):
        g.probe(7.0, 1.7)   # past the window's tau_max


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
    assert body[i, j, 0] == box_run.E[i - j + 2, j].real
    assert body[i, j, 2] == box_run.N[i - j + 2, j]
    assert body[i, j, 4] == box_run.rho[i - j + 2, j].imag
    assert body[j, i, 2] == 1.0 and body[j, i, 0] == 0.0


def test_smooth_pulse_tighter_defect():
    g = simulate(SmoothBumpPulse(1.0, 2.0, 1.0), t_max=10.0, x_max=1.0, h=0.01)
    assert g.invariants.conservation_defect < 1e-6
    assert g.invariants.causality_defect == 0.0
