"""CLI: config round-trip, subcommand outputs, determinism."""

import contextlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mbamp.cli import RunConfig, main
from mbamp.numerics import Tolerances

BOX52 = {
    "schema_version": 1,
    "pulse": {"kind": "box", "amplitude_re": 5.0, "support": 2.0},
    "kgrid": {"re": [-3.0, 3.0, 25]},
    "search_box": [-3.0, 3.0, 1e-4, 3.0],
}
BUMP = {**BOX52, "pulse": {"kind": "smooth_bump", "amplitude_re": 1.0,
                           "start_exponent": 2.0, "support": 1.0}}


def write_cfg(tmp_path, extra=None, name="cfg.json"):
    cfg = dict(BOX52)
    if extra:
        cfg.update(extra)
    path = tmp_path / name
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return path


def test_config_round_trip(tmp_path):
    path = write_cfg(tmp_path, {"tolerances": {"quad_tol": 3e-9}})
    cfg = RunConfig.load(path)
    out = tmp_path / "echo.json"
    cfg.dump(out)
    cfg2 = RunConfig.load(out)
    assert cfg2 == cfg
    out2 = tmp_path / "echo2.json"
    cfg2.dump(out2)
    assert out.read_bytes() == out2.read_bytes()


def test_readme_cli_example_runs_as_written(tmp_path, monkeypatch):
    # the README's config and its six commands, run in a fresh directory
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    text = text[text.index("## CLI"):]
    config = re.search(r"```json\n(.*?)```", text, re.S).group(1)
    shell = re.search(r"```sh\n(.*?)```", text, re.S).group(1)
    commands = [shlex.split(line)[1:] for line in shell.splitlines()
                if line.startswith("mbamp ")]
    assert len(commands) == 6
    monkeypatch.chdir(tmp_path)
    Path("run.json").write_text(config, encoding="utf-8")
    for argv in commands:
        assert main(argv) == 0, argv


def test_config_version_check(tmp_path):
    path = tmp_path / "bad.json"
    with open(path, "w") as fh:
        json.dump({"schema_version": 99, "pulse": BOX52["pulse"]}, fh)
    assert main(["scatter", "--config", str(path), "--out", str(tmp_path)]) == 2


def test_zero_pulse_rejected(tmp_path):
    path = write_cfg(tmp_path, {"pulse": {"kind": "box", "amplitude_re": 0.0,
                                          "support": 1.0}})
    rc = main(["regions", "--config", str(path), "--out", str(tmp_path),
               "--grid", "1:5:3,1:5:3"])
    assert rc == 2


def test_scatter_csv_and_determinism(tmp_path):
    path = write_cfg(tmp_path)
    out1 = tmp_path / "o1"
    out2 = tmp_path / "o2"
    assert main(["scatter", "--config", str(path), "--out", str(out1)]) == 0
    assert main(["scatter", "--config", str(path), "--out", str(out2)]) == 0
    b1 = (out1 / "scatter.csv").read_bytes()
    assert b1 == (out2 / "scatter.csv").read_bytes()
    lines = b1.decode().strip().split("\n")
    assert lines[0] == ("k_re,k_im,a_re,a_im,b_re,b_im,r_re,r_im,"
                       "unitarity_defect")
    assert len(lines) == 26
    # unitarity defect column small on the real line
    for ln in lines[1:]:
        assert float(ln.split(",")[-1]) < 1e-8


def test_zeros_csv(tmp_path):
    path = write_cfg(tmp_path)
    out = tmp_path / "oz"
    assert main(["zeros", "--config", str(path), "--out", str(out)]) == 0
    lines = (out / "zeros.csv").read_text().strip().split("\n")
    assert lines[0] == "j,kj_re,kj_im,gamma_re,gamma_im,velocity"
    assert len(lines) == 2
    _, kre, kim, _, _, vel = lines[1].split(",")
    assert abs(float(kim) - 1.9448904595703225) < 1e-6
    assert abs(float(vel) - 0.938) < 1e-3
    meta = json.loads((out / "zeros_meta.json").read_text())
    assert meta["count"] == 1


def test_zeros_meta_holds_the_searched_box(tmp_path):
    # the search and the count start at Im k = 1e-4, whatever im_lo asks
    path = write_cfg(tmp_path, {"search_box": [-3.0, 3.0, -1.0, 3.0]})
    assert main(["zeros", "--config", str(path), "--out", str(tmp_path)]) == 0
    meta = json.loads((tmp_path / "zeros_meta.json").read_text())
    assert meta == {"search_box": [-3.0, 3.0, 1e-4, 3.0], "count": 1}


@pytest.mark.parametrize("sigma, K, zeros", [
    (None, math.sqrt(7.0) / 2.0, []),
    (0.05, math.sqrt(39.0) / 2.0, [1.9448904595703225])])
def test_zeros_without_search_box_lists_the_tail_cone(tmp_path, sigma, K,
                                                      zeros):
    # the default region holds the zeros |k| <= K whose soliton velocity
    # 4|k|^2/(1 + 4|k|^2) <= 1 - sigma/2 reaches the tail cone; box 5/2's
    # zero (velocity 0.938) is in it only for the narrower cone edge
    cfg = {k: v for k, v in BOX52.items() if k != "search_box"}
    if sigma is not None:
        cfg["bands"] = {"sigma": sigma}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "oz"
    assert main(["zeros", "--config", str(path), "--out", str(out)]) == 0
    meta = json.loads((out / "zeros_meta.json").read_text())
    assert meta["search_box"] == pytest.approx([-K, K, 1e-4, K], rel=1e-15)
    assert meta["count"] == len(zeros)
    rows = [ln.split(",") for ln in
            (out / "zeros.csv").read_text().strip().split("\n")[1:]]
    assert len(rows) == len(zeros)
    for row, k in zip(rows, zeros):
        assert abs(complex(float(row[1]), float(row[2])) - 1j * k) < 1e-10


def test_regions_and_asym(tmp_path):
    path = write_cfg(tmp_path)
    out = tmp_path / "oa"
    assert main(["regions", "--config", str(path), "--out", str(out),
                 "--grid", "0.5:12:8,1:10:6"]) == 0
    lines = (out / "regions.csv").read_text().strip().split("\n")
    assert lines[0].startswith("t,x,region,n,k0,xi")
    assert len(lines) == 49
    assert main(["asym", "--config", str(path), "--out", str(out),
                 "--grid", "30:40:3,8:12:3"]) == 0
    alines = (out / "asym.csv").read_text().strip().split("\n")
    assert alines[0].startswith("t,x,region,n,E_re")
    regions = {ln.split(",")[2] for ln in alines[1:]}
    assert regions <= {"causal", "part1", "part2", "part3", "part4", "tail",
                       "unsupported"}


def test_simulate_and_compare(tmp_path):
    path = write_cfg(tmp_path, {
        "pulse": {"kind": "box", "amplitude_re": 1.0, "support": 1.0},
        "oracle": {"h": 0.01, "t_max": 8.0, "x_max": 8.0,
                   "nonphysical_tol": 1e-3},
        "search_box": [-3.0, 3.0, 1e-4, 3.0],
    })
    out = tmp_path / "os"
    assert main(["simulate", "--config", str(path), "--out", str(out),
                 "--slice-t", "4.0"]) == 0
    assert (out / "grid.bin").exists()
    inv = json.loads((out / "invariants.json").read_text())
    assert inv["causality_defect"] == 0.0
    # rows u = 1..800, row u covering x <= t_max - tau
    assert inv["node_updates"] == sum(801 - u for u in range(1, 801)) == 320_400
    t_d, x_d = inv["defect_tx"]
    assert 0.0 <= x_d <= t_d <= 8.0
    slice_csv = (out / "slice_t4.csv").read_text().strip().split("\n")
    assert slice_csv[0] == "x,E_re,E_im,N,rho_re,rho_im"

    assert main(["compare", "--config", str(path), "--out", str(out),
                 "--grid", "2:7:4,1:6:4"]) == 0
    pts = (out / "compare_points.csv").read_text().strip().split("\n")
    assert pts[0].startswith("t,x,region,status")
    # causal points agree exactly
    for ln in pts[1:]:
        cells = ln.split(",")
        if cells[2] == "causal" and cells[3] == "ok":
            assert float(cells[4]) < 1e-9
    assert (out / "compare_summary.csv").exists()


def test_simulate_rerun_into_one_out_matches_a_fresh_run(tmp_path):
    # the benchmark's traffic: every round reruns simulate into the same
    # --out, here after a larger run left a larger grid.bin there
    box = {"kind": "box", "amplitude_re": 1.0, "support": 1.0}
    big = write_cfg(tmp_path, {"pulse": box, "oracle": {
        "h": 0.01, "t_max": 4.0, "x_max": 3.0}}, name="big.json")
    small = write_cfg(tmp_path, {"pulse": box, "oracle": {
        "h": 0.01, "t_max": 2.0, "x_max": 1.5}}, name="small.json")
    for cfg, out in ((big, "rerun"), (small, "rerun"), (small, "fresh")):
        assert main(["simulate", "--config", str(cfg), "--out",
                     str(tmp_path / out), "--slice-t", "1.0"]) == 0
    for name in ("grid.bin", "invariants.json", "slice_t1.csv"):
        assert ((tmp_path / "rerun" / name).read_bytes()
                == (tmp_path / "fresh" / name).read_bytes())
    assert (tmp_path / "rerun" / "grid.bin").stat().st_size \
        == 32 + 40 * 201 * 151


def test_compare_past_the_tail_switch_matches_the_oracle(tmp_path):
    # k0 = 42.8 > 40: r(i k0) comes from the tail model, and E agrees with
    # the oracle far inside the part1 error scale 1/k0
    path = write_cfg(tmp_path, {
        "pulse": {"kind": "box", "amplitude_re": 1.0, "support": 1.0},
        "oracle": {"h": 0.01, "t_max": 2.7, "x_max": 2.3}})
    assert main(["compare", "--config", str(path), "--out", str(tmp_path),
                 "--grid", "2.2003:2.2003:1,2.2:2.2:1"]) == 0
    row = (tmp_path / "compare_points.csv").read_text().split("\n")[1]
    region, status, e_dev = row.split(",")[2:5]
    assert (region, status) == ("part1", "ok")
    assert float(e_dev) <= 1e-6


@pytest.mark.parametrize("slice_t", ["50", "-3"])
def test_slice_outside_the_run_is_a_usage_error(tmp_path, capsys, slice_t):
    path = write_cfg(tmp_path, {
        "pulse": {"kind": "box", "amplitude_re": 1.0, "support": 1.0},
        "oracle": {"h": 0.01, "t_max": 2.0, "x_max": 1.0}})
    out = tmp_path / "os"
    assert main(["simulate", "--config", str(path), "--out", str(out),
                 "--slice-t", slice_t]) == 2
    assert f"--slice-t {float(slice_t)} outside [0, t_max = 2.0]" \
        in capsys.readouterr().err
    assert not list(out.glob("slice_t*.csv"))


def test_bad_grid_spec(tmp_path):
    path = write_cfg(tmp_path)
    assert main(["regions", "--config", str(path), "--out", str(tmp_path),
                 "--grid", "oops"]) == 2


@pytest.mark.parametrize("command", ["regions", "asym"])
def test_grid_on_the_input_boundary_is_unsupported(tmp_path, command):
    # t > x = 0 is the input boundary, where part 1's error scale k0^-m is
    # infinite; it once divided by x
    path = write_cfg(tmp_path)
    out = tmp_path / "o"
    assert main([command, "--config", str(path), "--out", str(out),
                 "--grid", "0:10:3,0:5:3"]) == 0
    rows = [ln.split(",") for ln in
            (out / f"{command}.csv").read_text().strip().split("\n")[1:]]
    assert len(rows) == 9
    tags = {(float(r[0]), float(r[1])): r[2] for r in rows}
    assert tags[0.0, 0.0] == "causal"
    assert tags[5.0, 0.0] == tags[10.0, 0.0] == "unsupported"


@pytest.mark.parametrize("grid, key", [
    ("-1:5:3,1:5:3", "t0"), ("1:5:3,1:-2:3", "x1"), ("1:5:0,1:5:3", "nt")])
def test_grid_off_the_quadrant_is_a_usage_error(tmp_path, capsys, grid, key):
    path = write_cfg(tmp_path)
    assert main(["regions", "--config", str(path), "--out", str(tmp_path),
                 f"--grid={grid}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error") and repr(key) in err
    assert not (tmp_path / "regions.csv").exists()


# cone, causal and unsupported points only (box 5/2: tail order 1)
CONE_GRID = "2.1:2.6:3,2:2.2:3"
CONE_ORACLE = {"h": 0.01, "t_max": 2.7, "x_max": 2.3, "nonphysical_tol": 0.01}


def count_solves(monkeypatch):
    """Count the batched Jost solves, plain and variational."""
    from mbamp.scattering import ScatteringData
    calls = {"ab_many": 0, "ab_and_derivs_many": 0}
    for name in calls:
        original = getattr(ScatteringData, name)

        def counted(self, ks, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, ks)
        monkeypatch.setattr(ScatteringData, name, counted)
    return calls


def test_compare_without_tail_points_solves_once(tmp_path, monkeypatch):
    path = write_cfg(tmp_path, {"oracle": CONE_ORACLE})
    calls = count_solves(monkeypatch)
    out = tmp_path / "oc"
    assert main(["compare", "--config", str(path), "--out", str(out),
                 "--grid", CONE_GRID]) == 0
    rows = [ln.split(",") for ln in
            (out / "compare_points.csv").read_text().strip().split("\n")[1:]]
    assert {r[2] for r in rows} == {"part1", "causal", "unsupported"}
    assert all(r[3] == "ok" for r in rows if r[2] != "unsupported")
    # no zero search; the five light-cone points share one solve
    assert calls == {"ab_many": 1, "ab_and_derivs_many": 0}


def test_scatter_takes_both_axes_from_one_solve(tmp_path, monkeypatch):
    # one batch over both axes; an integral float count is a count
    path = write_cfg(tmp_path, {"kgrid": {"re": [-3.0, 3.0, 25.0],
                                          "imag": [0.5, 3.0, 6]}})
    calls = count_solves(monkeypatch)
    out = tmp_path / "os"
    assert main(["scatter", "--config", str(path), "--out", str(out)]) == 0
    assert calls == {"ab_many": 1, "ab_and_derivs_many": 0}
    rows = np.loadtxt(out / "scatter.csv", delimiter=",", skiprows=1)
    assert rows.shape == (31, 9)
    assert np.array_equal(rows[:25, 0], np.linspace(-3.0, 3.0, 25))
    assert np.array_equal(rows[25:, 1], np.linspace(0.5, 3.0, 6))
    assert np.all(rows[:25, -1] < 1e-8) and np.all(np.isnan(rows[25:, -1]))


def test_scatter_on_an_empty_kgrid_writes_the_header_only(tmp_path):
    # null and [] are the two spellings of no axis
    for kgrid in ({}, {"re": None, "imag": []}):
        path = write_cfg(tmp_path, {"kgrid": kgrid})
        out = tmp_path / "oe"
        assert main(["scatter", "--config", str(path), "--out",
                     str(out)]) == 0
        assert (out / "scatter.csv").read_text() == \
            "k_re,k_im,a_re,a_im,b_re,b_im,r_re,r_im,unitarity_defect\n"


def test_tail_point_runs_the_zero_search_once(tmp_path, monkeypatch):
    from mbamp import cli
    searches = []
    find_zeros = cli.find_zeros
    monkeypatch.setattr(cli, "find_zeros",
                        lambda *a: searches.append(a) or find_zeros(*a))
    calls = count_solves(monkeypatch)
    path = write_cfg(tmp_path)
    out = tmp_path / "ot"
    assert main(["asym", "--config", str(path), "--out", str(out),
                 "--grid", "2.1:2.7:4,2:2.2:3"]) == 0
    regions = [ln.split(",")[2] for ln in
               (out / "asym.csv").read_text().strip().split("\n")[1:]]
    assert regions.count("tail") == 1 and regions.count("part1") == 7
    assert len(searches) == 1
    assert calls["ab_and_derivs_many"] > 0


@pytest.mark.parametrize("cfg, command, grid", [
    ({k: v for k, v in BUMP.items() if k != "search_box"}, "asym",
     "10:14:3,3:7:3"),
    ({**BOX52, "bands": {"sigma": 0.05}}, "asym", "30:36:4,26:35:7"),
    ({**BOX52, "bands": {"sigma": 0.05}}, "zeros", None),
    (BOX52, "asym", "2.1:2.7:4,2:2.2:3")],
    ids=["bump-tail-asym", "box52-asym", "box52-zeros", "box52-asym-cone"])
def test_first_pass_is_one_jost_solve(tmp_path, monkeypatch, cfg, command,
                                      grid):
    # the benchmark's commands, and a grid of one tail point and seven
    # light-cone points: Newton's first pass, the count's first samples,
    # the cache's first nodes and the light-cone points share one solve,
    # where there were 2, 3, 2 and 4
    from mbamp import scattering
    solves = []
    advance = scattering.ode_advance

    def counted(*args, **kwargs):
        solves.append(args[4].shape)
        return advance(*args, **kwargs)

    monkeypatch.setattr(scattering, "ode_advance", counted)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    argv = [command, "--config", str(path), "--out", str(tmp_path / "o")]
    assert main(argv + (["--grid", grid] if grid else [])) == 0
    assert len(solves) == 1


@pytest.mark.parametrize("cfg, sigma, grid", [
    (BOX52, 0.05, "40:40:1,30:38:5"), (BUMP, 0.25, "40:40:1,10:30:5")])
def test_asym_at_the_tail_cone_edge_stays_in_the_cache(tmp_path, cfg, sigma,
                                                       grid):
    # x/t = 1 - sigma exactly at x = 38 (and 30): the grid's largest tail
    # k0, sqrt((1 - sigma)/sigma)/2, against the cache's window K = sqrt(v/(1
    # - v))/2 with v = 1 - sigma/2
    from mbamp.soliton_spectrum import tail_cone_radius
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**cfg, "bands": {"sigma": sigma}}))
    out = tmp_path / "oe"
    args = ["--config", str(path), "--out", str(out), "--grid", grid]
    assert main(["asym", *args]) == 0
    assert main(["regions", *args]) == 0
    rows = [ln.split(",") for ln in
            (out / "asym.csv").read_text().strip().split("\n")[1:]]
    assert [r[2] for r in rows] == ["tail"] * 5
    assert all(math.isfinite(float(v)) for r in rows for v in r[4:10])
    k0 = [float(ln.split(",")[4]) for ln in
          (out / "regions.csv").read_text().strip().split("\n")[1:]]
    assert max(k0) == k0[-1] == pytest.approx(
        0.5 * math.sqrt((1.0 - sigma) / sigma), rel=1e-12)
    assert k0[-1] < 0.95 * tail_cone_radius(sigma)


def test_long_pulse_asym_builds_the_cache_in_one_129_point_solve(
        tmp_path, monkeypatch):
    # T = 8: the cache on [-20, 20] needed 513 nodes; the tail cone's window
    # at the default sigma, K = 1.32, needs 129.  The default search box
    # holds the equal-modulus pair +-1.1538 + 0.0343i, which find_zeros
    # rejects, so the box is narrowed past it
    from mbamp.scattering import ScatteringData
    solves = []
    building = []
    ab_many, build = ScatteringData.ab_many, ScatteringData._build_cache

    def counted(self, ks):
        if building:
            solves.append(np.size(ks))
        return ab_many(self, ks)

    def flagged(self):
        building.append(True)
        try:
            return build(self)
        finally:
            building.pop()

    monkeypatch.setattr(ScatteringData, "ab_many", counted)
    monkeypatch.setattr(ScatteringData, "_build_cache", flagged)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**BUMP, "search_box": [-1.0, 1.0, 1e-4, 1.3],
                                "pulse": {**BUMP["pulse"], "support": 8.0}}))
    out = tmp_path / "ol"
    assert main(["asym", "--config", str(path), "--out", str(out),
                 "--grid", "20:40:3,5:15:3"]) == 0
    regions = [ln.split(",")[2] for ln in
               (out / "asym.csv").read_text().strip().split("\n")[1:]]
    assert regions.count("tail") == 7
    assert solves == [129]


def test_compare_on_cone_points_needs_no_search_box(tmp_path):
    # no point is in the tail cone, so no zero search runs
    path = write_cfg(tmp_path, {"oracle": CONE_ORACLE})
    cfg = json.loads(path.read_text())
    del cfg["search_box"]
    path.write_text(json.dumps(cfg))
    assert main(["compare", "--config", str(path), "--out", str(tmp_path),
                 "--grid", CONE_GRID]) == 0


@pytest.mark.parametrize("box", [
    [3.0, -3.0, 1e-4, 3.0], [-3.0, 3.0, 1e-4, 1e-5], [-3.0, 3.0, 2.0, 1.0],
    [-3.0, 3.0, 1e-4], [-3.0, 3.0, 1e-4, float("inf")],
    [-3.0, 3.0, 1e-4, "3"], [-3.0, 3.0, 1e-4, True], 3.0])
@pytest.mark.parametrize("command", ["zeros", "asym", "compare"])
def test_bad_search_box_is_a_usage_error(tmp_path, capsys, box, command):
    path = write_cfg(tmp_path, {"search_box": box, "oracle": CONE_ORACLE})
    # a causal-only grid: no tail point would ever run the zero search
    assert main([command, "--config", str(path), "--out", str(tmp_path),
                 "--grid", "1:2:2,2:3:2"]) == 2
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("h", 0.0), ("t_max", -1.0), ("h", -0.01), ("x_max", -1.0),
    ("nonphysical_tol", -1.0)])
@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_oracle_value_out_of_range_is_a_usage_error(tmp_path, capsys, command,
                                                    key, value):
    # checked before the march, so no bad value reaches a division, an
    # array size, a file size or the blow-up guard
    path = write_cfg(tmp_path, {"oracle": {**CONE_ORACLE, key: value}})
    out = tmp_path / "o"
    grid = ["--grid", CONE_GRID] if command == "compare" else []
    assert main([command, "--config", str(path), "--out", str(out),
                 *grid]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error") and repr(key) in err
    assert not any(out.iterdir())


def test_oracle_grid_past_the_node_limit_states_its_size(tmp_path, capsys):
    # the node counts are formed as floats, so the message stays short
    path = write_cfg(tmp_path, {"oracle": {**CONE_ORACLE, "h": 1e-300}})
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: CFLViolation: grid 2.7e+300x2.3e+300 exceeds 150000 nodes "
        "per dimension\n")
    assert not any(out.iterdir())


def _with_key(section, key, base=BOX52):
    """``base`` with ``key`` set to 1.0 at the top level (section None) or
    inside ``section``; returns (config, key)."""
    cfg = json.loads(json.dumps(base))
    (cfg if section is None else cfg.setdefault(section, {}))[key] = 1.0
    return cfg, key


def _with_unknown_key(section, names, base=BOX52):
    """``base`` plus one drawn key that is not in ``names``."""
    return st.text(max_size=12).filter(lambda k: k not in names).map(
        lambda key: _with_key(section, key, base))


_GRID_KEYS = ("t0", "t1", "nt", "x0", "x1", "nx")


@settings(max_examples=50, deadline=None, database=None)
@given(case=st.one_of(
    _with_unknown_key(None, [f.name for f in fields(RunConfig)]),
    _with_unknown_key("tolerances", [f.name for f in fields(Tolerances)]),
    _with_unknown_key("bands", ["sigma"]),
    _with_unknown_key("pulse", BOX52["pulse"]),
    _with_unknown_key("pulse", BUMP["pulse"], BUMP),
    _with_unknown_key("oracle", CONE_ORACLE),
    _with_unknown_key("grid", _GRID_KEYS),
    _with_unknown_key("kgrid", ["re", "imag"])))
@example(case=([1, 2], None))
@example(case=(3, None))
@example(case=(None, None))
@example(case=_with_key("bands", "tail_order"))
@example(case=_with_key("pulse", "start_exponent"))
@example(case=_with_key("oracle", "nonphysicl_tol"))
@example(case=_with_key("kgrid", "real"))
def test_unknown_config_keys_are_usage_errors(tmp_path_factory, case):
    raw, key = case
    work = tmp_path_factory.mktemp("cfg")
    path = work / "cfg.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(["scatter", "--config", str(path), "--out", str(work)])
    assert rc == 2
    assert err.getvalue().startswith("usage error")
    if key is None:
        assert "must be a JSON object" in err.getvalue()
    else:
        assert repr(key) in err.getvalue()


@pytest.mark.parametrize("command, raw, what", [
    ("simulate", {**BOX52, "oracle": {"h": 0.01, "x_max": 1.0}},
     "config 'oracle' lacks key(s) 't_max'"),
    ("compare", BOX52, "config 'oracle' lacks key(s) 'h', 't_max', 'x_max'"),
    ("scatter", {**BUMP, "pulse": {"kind": "smooth_bump", "support": 1.0,
                                   "amplitude_re": 1.0}},
     "config 'pulse' lacks key(s) 'start_exponent'"),
    ("regions", {**BOX52, "grid": {k: 1 for k in _GRID_KEYS[1:]}},
     "config 'grid' lacks key(s) 't0'")])
def test_missing_config_keys_name_their_section(tmp_path, capsys, command,
                                                raw, what):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    assert main([command, "--config", str(path), "--out", str(tmp_path),
                 "--grid", CONE_GRID]) == 2
    assert what in capsys.readouterr().err


# every config value the CLI reads as a number, as (section, key)
_NUMBER_SLOTS = ([("pulse", k) for k in ("amplitude_re", "amplitude_im",
                                         "support", "start_exponent")]
                 + [("tolerances", f.name) for f in fields(Tolerances)]
                 + [("bands", "sigma")]
                 + [("oracle", k) for k in CONE_ORACLE]
                 + [("grid", k) for k in _GRID_KEYS])
_NOT_NUMBERS = st.one_of(
    st.text(max_size=8), st.booleans(),
    st.sampled_from([float("nan"), float("inf"), -float("inf")]),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=1))


def _with_bad_grid(key, value):
    """BOX52 with a full grid whose ``key`` is ``value``; returns (config,
    key)."""
    grid = {"t0": 1.0, "t1": 5.0, "nt": 3, "x0": 1.0, "x1": 5.0, "nx": 3}
    return {**BOX52, "grid": {**grid, key: value}}, key


def _with_bad_value(slot, value):
    """BOX52 with ``value`` in one slot, a section of None being the top
    level; returns (config, key)."""
    section, key = slot
    cfg = json.loads(json.dumps(BOX52))
    if section is None:
        cfg[key] = value
    else:
        cfg.setdefault(section, {})[key] = value
    return cfg, key


@settings(max_examples=50, deadline=None, database=None)
@given(case=st.builds(_with_bad_value, st.sampled_from(_NUMBER_SLOTS),
                      _NOT_NUMBERS))
@example(case=_with_bad_value(("pulse", "amplitude_re"), "5"))
@example(case=_with_bad_value(("tolerances", "quad_tol"), "x"))
@example(case=_with_bad_value(("tolerances", "ode_rel"), None))
@example(case=_with_bad_value(("kgrid", "re"), [-3.0, 3.0, "25"]))
# a count that is not an integral n >= 1: 0 failed inside numpy, and 2.5
# silently wrote 2 rows
@example(case=_with_bad_value(("kgrid", "re"), [-3.0, 3.0, 0]))
@example(case=_with_bad_value(("kgrid", "re"), [-3.0, 3.0, 2.5]))
@example(case=_with_bad_value(("kgrid", "imag"), [0.5, 3.0, -1]))
# only null and [] mean no axis, not any other falsy value
@example(case=_with_bad_value(("kgrid", "re"), 0))
@example(case=_with_bad_value(("kgrid", "re"), False))
@example(case=_with_bad_value(("kgrid", "imag"), ""))
@example(case=_with_bad_value(("kgrid", "imag"), {}))
# likewise a grid count (2.5 wrote 2 rows, 0 the header only), and a
# coordinate off the quadrant t, x >= 0
@example(case=_with_bad_grid("nt", 2.5))
@example(case=_with_bad_grid("nt", 0))
@example(case=_with_bad_grid("nx", -3))
@example(case=_with_bad_grid("t1", -1.0))
@example(case=_with_bad_grid("x0", -0.5))
@example(case=_with_bad_value((None, "pulse"), [1]))
@example(case=_with_bad_value((None, "pulse"), None))
@example(case=_with_bad_value((None, "oracle"), None))
@example(case=_with_bad_value((None, "tolerances"), [1]))
@example(case=_with_bad_value((None, "bands"), 0.25))
@example(case=_with_bad_value((None, "kgrid"), None))
@example(case=_with_bad_value((None, "grid"), "1:5:3,1:5:3"))
@example(case=({"schema_version": 1}, "pulse"))
def test_wrong_typed_config_values_are_usage_errors(tmp_path_factory, case):
    raw, key = case
    work = tmp_path_factory.mktemp("cfg")
    path = work / "cfg.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(["scatter", "--config", str(path), "--out", str(work)])
    assert rc == 2
    assert err.getvalue().startswith("usage error")
    assert repr(key) in err.getvalue()


def test_the_cli_runs_on_numpy_alone():
    # the method coefficients are literals; a scipy import would add about
    # 0.7 s and 45 MB to every command
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    subprocess.run([sys.executable, "-c", "import mbamp.cli, sys; "
                    "assert 'scipy' not in sys.modules"],
                   env=env, cwd=root, check=True)
