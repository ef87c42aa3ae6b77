"""The traced benchmark patches layer functions by name; they must exist."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_trace_hooks_install_and_restore():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    from mbamp import scattering, tail_asym
    before = (tail_asym.adaptive_quad, scattering.ScatteringData.r_real)
    with tracing.installed(tracing.Tracer()):
        assert tail_asym.adaptive_quad is not before[0]
    assert (tail_asym.adaptive_quad, scattering.ScatteringData.r_real) == before
