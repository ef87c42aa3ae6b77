"""Tests of the benchmark itself: repeatable counts, seeded inputs, checks.

    python3 -m pytest perfbench/test_perfbench.py -q

The traced-count test runs each workload's pipeline twice (about a minute
in all on two cores).
"""

import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from checks import check_scatter, check_zeros  # noqa: E402
from reference import Sampler  # noqa: E402
from run import END_TO_END, Runner  # noqa: E402
from tracing import PER_LAYER, Tracer, installed  # noqa: E402
from workloads import WORKLOADS, make_inputs, region_mix  # noqa: E402


def traced_counts(workload, seed, work: Path):
    runner = Runner(workload, make_inputs(workload, seed, work / "cfg"), work)
    tracer = Tracer()
    with installed(tracer):
        runner.round(tracer, passes=1)
    assert runner.failed == 0
    return dict(tracer.counts), [(s[1], s[2], s[6]) for s in tracer.spans]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat(name, tmp_path):
    first = traced_counts(WORKLOADS[name], 3, tmp_path / "a")
    second = traced_counts(WORKLOADS[name], 3, tmp_path / "b")
    assert first == second


def test_tracing_restores_every_patch():
    from mbamp import cli, scattering, tail_asym
    before = (cli.find_zeros, scattering.ScatteringData.ab_many,
              tail_asym.adaptive_quad, scattering.ode_advance)
    with installed(Tracer()):
        assert cli.find_zeros is not before[0]
    after = (cli.find_zeros, scattering.ScatteringData.ab_many,
             tail_asym.adaptive_quad, scattering.ode_advance)
    assert after == before


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_moves_grids_and_keeps_region_mix(name, tmp_path):
    workload = WORKLOADS[name]
    plans = [make_inputs(workload, seed, tmp_path / str(seed))
             for seed in (1, 2)]
    again = make_inputs(workload, 1, tmp_path / "again")
    assert [e["grid"] for e in again] == [e["grid"] for e in plans[0]]
    gridded = [i for i, e in enumerate(plans[0]) if e["grid"] is not None]
    assert gridded
    for i in gridded:
        step = workload.steps[i]
        assert plans[0][i]["grid"] != plans[1][i]["grid"]
        nominal = region_mix(step.grid, step, workload.pulse)
        for plan in plans:
            assert region_mix(plan[i]["grid"], step, workload.pulse) == nominal


def _write_csv(path, header, rows):
    path.write_text("\n".join([",".join(header)]
                              + [",".join(map(str, r)) for r in rows]) + "\n")


def test_checks_reject_wrong_outputs(tmp_path):
    workload = WORKLOADS["box52"]
    step = workload.steps[0]
    _write_csv(tmp_path / "zeros.csv",
               ["j", "kj_re", "kj_im", "gamma_re", "gamma_im", "velocity"],
               [[0, 0.0, 1.9448, 1.0, 0.0, 0.938]])
    (tmp_path / "zeros_meta.json").write_text(json.dumps({"count": 1}))
    assert check_zeros(tmp_path, step, workload.pulse)
    _write_csv(tmp_path / "scatter.csv",
               ["k_re", "k_im", "a_re", "a_im", "b_re", "b_im", "r_re", "r_im",
                "unitarity_defect"],
               [[0.0, 0.0, 0.2837, 0.0, -0.9589, 0.0, 0.0, 0.0, 0.0]])
    problems = check_scatter(tmp_path, step, workload.pulse)
    assert any("unitarity" in p for p in problems)
    assert any("closed form" in p for p in problems)


def test_sampler_busy_and_speed():
    sampler = Sampler(interval=1.0)
    sampler.samples = [(0.0, 0.5), (2.0, 0.1), (3.9, 0.2), (9.0, 0.4)]
    # kernel time inside [1, 4]: all of the second sample, 0.1 of the third
    assert sampler.busy(1.0, 4.0) == pytest.approx(0.2)
    # samples starting within one interval of [1, 4]: all but the last
    assert sampler.speed(1.0, 4.0) == pytest.approx(0.8 / 3)


def test_sampler_samples_during_a_command():
    with Sampler(interval=0.01) as sampler:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert len(sampler.samples) >= 3
    assert all(d > 0 for _, d in sampler.samples)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == \
        [w.why for w in WORKLOADS.values()]
