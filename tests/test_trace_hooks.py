"""The traced benchmark patches layer functions by name; they must exist,
and the CLI must still call them."""

import importlib.util
import json
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_trace_hooks_install_and_restore():
    tracing = load_tracing()
    from mbamp import scattering, tail_asym
    before = (tail_asym.adaptive_quad, scattering.ScatteringData.r_real)
    with tracing.installed(tracing.Tracer()):
        assert tail_asym.adaptive_quad is not before[0]
    assert (tail_asym.adaptive_quad, scattering.ScatteringData.r_real) == before


def test_traced_compare_counts_each_light_cone_point(tmp_path):
    # the per-layer counts of the benchmark read 0 if the CLI stops calling
    # the patched names
    tracing = load_tracing()
    from mbamp.cli import main
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "schema_version": 1,
        "pulse": {"kind": "box", "amplitude_re": 1.0, "support": 1.0},
        "oracle": {"h": 0.01, "t_max": 2.7, "x_max": 2.3}}))
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert main(["compare", "--config", str(cfg), "--out", str(tmp_path),
                     "--grid", "2.1:2.6:3,2:2.2:3"]) == 0
    rows = [ln.split(",") for ln in (tmp_path / "compare_points.csv")
            .read_text().strip().split("\n")[1:]]
    cone = sum(r[2].startswith("part") for r in rows)
    assert cone == 5
    assert tracer.counts["lightcone_asym.eval_lightcone.calls"] == cone
    # one oracle run, sized from the points without probing them; then one
    # probe per supported point
    supported = sum(r[3] != "skipped" for r in rows)
    assert tracer.counts["mb_oracle.simulate.calls"] == 1
    assert tracer.counts["mb_oracle.probe.calls"] == supported
    assert tracer.counts["scattering.reflection_uhp.calls"] == 1
    assert tracer.counts["soliton_spectrum.find_zeros.calls"] == 0


def test_traced_compare_past_the_tail_switch_solves_once(tmp_path):
    # k0 = 42.8 > 40 takes r from the tail model, which solves nothing: the
    # one batched solve is that of the other cone point
    tracing = load_tracing()
    from mbamp.cli import main
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "schema_version": 1,
        "pulse": {"kind": "box", "amplitude_re": 1.0, "support": 1.0},
        "oracle": {"h": 0.01, "t_max": 2.7, "x_max": 2.3}}))
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert main(["compare", "--config", str(cfg), "--out", str(tmp_path),
                     "--grid", "2.2003:2.3:2,2.2:2.2:1"]) == 0
    regions = [ln.split(",")[2] for ln in (tmp_path / "compare_points.csv")
               .read_text().strip().split("\n")[1:]]
    assert regions == ["part1", "part1"]
    assert tracer.counts["scattering.ab_many.calls"] == 1
    assert tracer.counts["scattering.ab_many.kpoints"] == 1


def test_traced_default_box_zeros_builds_no_cache(tmp_path):
    # the default search box needs no solve, and the pencil none: the
    # bump's zero search makes only the winding count's one solve, which
    # certifies that the tail cone's box holds no zero, and never builds the
    # real-line cache
    tracing = load_tracing()
    from mbamp.cli import main
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "schema_version": 1,
        "pulse": {"kind": "smooth_bump", "amplitude_re": 1.0,
                  "start_exponent": 2.0, "support": 1.0}}))
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert main(["zeros", "--config", str(cfg), "--out",
                     str(tmp_path)]) == 0
    assert tracer.counts["soliton_spectrum.default_search_box.calls"] == 1
    assert tracer.counts["scattering.cache_build.calls"] == 0
    assert tracer.counts["numerics.count_zeros_rect.calls"] == 1
    assert tracer.counts["numerics.complex_newton.calls"] == 0
    assert tracer.counts["scattering.ab_many.calls"] == 1


def test_traced_explicit_box_zeros_counts_in_one_solve(tmp_path):
    # box 5/2's real zeros +-1.9025 lie 1e-4 under the bottom edge; the
    # count divides out their pencil eigenvalues, so its first samples
    # settle the phase in one call of b, and Newton from the eigenvalue at
    # the zero stops after its first pass; that pass and the first samples
    # share one Jost solve, which Newton's f and df, the zero's a and bdot,
    # and the count read
    tracing = load_tracing()
    from mbamp.cli import main
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "schema_version": 1,
        "pulse": {"kind": "box", "amplitude_re": 5.0, "support": 2.0},
        "search_box": [-3.0, 3.0, 1e-4, 3.0]}))
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert main(["zeros", "--config", str(cfg), "--out",
                     str(tmp_path)]) == 0
    assert tracer.counts["scattering.ab_many.calls"] == 1
    assert tracer.counts["numerics.count_zeros_rect.f_evals"] == 1
    assert tracer.counts["numerics.complex_newton.iterations"] == 1
    assert tracer.counts["numerics.ode_advance.calls"] == 1


def test_traced_tail_asym_builds_the_cache_from_129_points(tmp_path):
    # box 5/2 at sigma = 0.05: the cache on the tail cone's window [-3.12,
    # 3.12] reads 129 points, which the traced benchmark reports; they were
    # solved with the zero search's first pass, the command's one solve
    tracing = load_tracing()
    from mbamp.cli import main
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "schema_version": 1,
        "pulse": {"kind": "box", "amplitude_re": 5.0, "support": 2.0},
        "search_box": [-3.0, 3.0, 1e-4, 3.0],
        "bands": {"sigma": 0.05}}))
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert main(["asym", "--config", str(cfg), "--out", str(tmp_path),
                     "--grid", "30:36:2,26:35:2"]) == 0
    regions = [ln.split(",")[2] for ln in (tmp_path / "asym.csv")
               .read_text().strip().split("\n")[1:]]
    assert regions.count("tail") == 2
    assert tracer.counts["scattering.cache_build.calls"] == 1
    assert tracer.counts["scattering.cache_build.kpoints_solved"] == 129
    assert tracer.counts["numerics.ode_advance.calls"] == 1


def test_traced_scatter_is_one_solve(tmp_path):
    # both axes of the k-grid in one ab_many call, and for a constant-phase
    # pulse one ODE solve of its points folded onto Re k >= 0
    tracing = load_tracing()
    from mbamp.cli import main
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "schema_version": 1,
        "pulse": {"kind": "smooth_bump", "amplitude_re": 1.0,
                  "start_exponent": 2.0, "support": 1.0},
        "kgrid": {"re": [-20.0, 20.0, 401], "imag": [0.05, 6.0, 120]}}))
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert main(["scatter", "--config", str(cfg), "--out",
                     str(tmp_path)]) == 0
    assert tracer.counts["scattering.ab_many.calls"] == 1
    assert tracer.counts["scattering.ab_many.kpoints"] == 521
    assert tracer.counts["numerics.ode_advance.calls"] == 1
