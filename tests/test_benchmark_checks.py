"""The benchmark's own output checks pass on the CLI's outputs.

perfbench/ sits outside the test paths; its workloads and checks import
RunConfig, classify and velocity_of from the package, and read every file
the CLI writes.  This runs each workload's seed-1 pipeline and checks each
command's output as the benchmark does: then it runs the command again into
the same directory, and the files must hash the same.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from mbamp.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def perfbench():
    """perfbench/workloads.py and perfbench/checks.py, loaded from their
    files; checks.py imports workloads by that name."""
    saved = {name: sys.modules.get(name) for name in ("workloads", "checks")}
    try:
        yield _load("workloads"), _load("checks")
    finally:
        for name, module in saved.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module


@pytest.mark.parametrize("name", ["box52", "bump-tail"])
def test_benchmark_checks_pass_on_the_seed_1_pipeline(perfbench, name,
                                                      tmp_path):
    workloads, checks = perfbench
    workload = workloads.WORKLOADS[name]
    plan = workloads.make_inputs(workload, 1, tmp_path / "cfg")
    for i, entry in enumerate(plan):
        out = tmp_path / "out" / str(i)
        argv = [*entry["argv"], "--out", str(out)]
        assert main(argv) == 0, entry["command"]
        assert checks.check_output(entry["command"], out, entry["step"],
                                   workload.pulse, entry["grid"]) == []
        first = checks.digest(out)
        # the benchmark reruns every command into the same directory, and
        # a repeat that writes different bytes fails it
        assert main(argv) == 0, entry["command"]
        assert checks.digest(out) == first, entry["command"]
        (out / "grid.bin").unlink(missing_ok=True)   # 102.5 MB for box52
