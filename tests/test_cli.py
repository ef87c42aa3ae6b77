"""CLI: config round-trip, subcommand outputs, determinism."""

import contextlib
import io
import json
from dataclasses import fields

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mbamp.cli import RunConfig, main
from mbamp.lightcone_asym import BandParams
from mbamp.numerics import Tolerances

BOX52 = {
    "schema_version": 1,
    "pulse": {"kind": "box", "amplitude_re": 5.0, "support": 2.0},
    "kgrid": {"re": [-3.0, 3.0, 25]},
    "search_box": [-3.0, 3.0, 1e-4, 3.0],
}


def write_cfg(tmp_path, extra=None, name="cfg.json"):
    cfg = dict(BOX52)
    if extra:
        cfg.update(extra)
    path = tmp_path / name
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return path


def test_config_round_trip(tmp_path):
    path = write_cfg(tmp_path, {"tolerances": {"quad_tol": 3e-9},
                                "match_eps": 0.015})
    cfg = RunConfig.load(path)
    out = tmp_path / "echo.json"
    cfg.dump(out)
    cfg2 = RunConfig.load(out)
    assert cfg2 == cfg
    out2 = tmp_path / "echo2.json"
    cfg2.dump(out2)
    assert out.read_bytes() == out2.read_bytes()


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


def test_bad_grid_spec(tmp_path):
    path = write_cfg(tmp_path)
    assert main(["regions", "--config", str(path), "--out", str(tmp_path),
                 "--grid", "oops"]) == 2


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


def test_compare_on_cone_points_needs_no_search_box(tmp_path):
    # the default-box zero search diverges on box 5/2; no output reads it here
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


def _with_unknown_key(section, known):
    """BOX52 plus one drawn key that ``known`` lacks, at the top level
    (section None) or inside ``section``; returns (config, key)."""
    names = {f.name for f in fields(known)}

    def build(key):
        cfg = dict(BOX52)
        if section is None:
            cfg[key] = 1.0
        else:
            cfg[section] = {key: 1.0}
        return cfg, key

    return st.text(max_size=12).filter(lambda k: k not in names).map(build)


@settings(max_examples=50, deadline=None, database=None)
@given(case=st.one_of(_with_unknown_key(None, RunConfig),
                      _with_unknown_key("tolerances", Tolerances),
                      _with_unknown_key("bands", BandParams)))
@example(case=([1, 2], None))
@example(case=(3, None))
@example(case=(None, None))
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
