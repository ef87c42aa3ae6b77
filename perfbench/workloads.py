"""The benchmark's workloads and the seeded inputs they hand to the CLI.

Each workload is a fixed pipeline of ``mbamp`` commands.  The seed moves the
origin of every (t, x) grid by a small random shift; a shifted grid is kept
only when it has the same mix of points as the nominal grid, so every seed
does the same kind and nearly the same amount of work.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from mbamp.cli import RunConfig
from mbamp.lightcone_asym import BandParams, classify
from mbamp.soliton_spectrum import velocity_of

BOX52 = {"kind": "box", "amplitude_re": 5.0, "support": 2.0}
BUMP = {"kind": "smooth_bump", "amplitude_re": 1.0, "start_exponent": 2.0,
        "support": 1.0}
EXPLICIT_BOX = [-3.0, 3.0, 1e-4, 3.0]
K1_BOX52 = 1.9448904595703225     # sqrt(A^2/4 - pi^2/T^2) for A = 5, T = 2
KGRID = {"re": [-20.0, 20.0, 401], "imag": [0.05, 6.0, 120]}
MATCH_EPS = 0.02                  # the CLI's default with fewer than two solitons


@dataclass(frozen=True)
class Step:
    """One CLI command of a workload, with its nominal grid and config."""

    command: str
    config: dict
    grid: tuple[float, float, int, float, float, int] | None = None
    jitter: float = 0.0           # largest origin shift in t and in x
    argv: tuple[str, ...] = ()
    reps: int = 1                 # invocations per round of the pipeline


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    pulse: dict
    steps: tuple[Step, ...]


def _config(pulse, **extra) -> dict:
    cfg = {"schema_version": 1, "pulse": pulse, "kgrid": KGRID}
    cfg.update(extra)
    return cfg


_BOX52_CFG = _config(BOX52, search_box=EXPLICIT_BOX, bands={"sigma": 0.05})
_BUMP_CFG = _config(BUMP)
_CONE_CFG = _config(BOX52, search_box=EXPLICIT_BOX,
                    oracle={"h": 0.005, "t_max": 24.6, "x_max": 24.4,
                            "nonphysical_tol": 0.01})
_SIM_CFG = _config(BOX52, search_box=EXPLICIT_BOX,
                   oracle={"h": 0.005, "t_max": 8.0, "x_max": 8.0,
                           "nonphysical_tol": 0.01})

WORKLOADS = {
    w.name: w for w in (
        Workload(
            "box52",
            "Box A=5 T=2, explicit search box: asym across the 0.938 soliton "
            "line builds the largest real-line cache, and compare near the "
            "light cone is dominated by the oracle march.",
            BOX52,
            (Step("scatter", _BOX52_CFG, reps=3),
             Step("zeros", _BOX52_CFG, reps=4),
             Step("asym", _BOX52_CFG, (30.0, 36.0, 4, 26.0, 35.0, 7), 0.1),
             Step("compare", _CONE_CFG, (24.025, 24.425, 6, 24.0, 24.2, 3),
                  0.02),
             Step("simulate", _SIM_CFG, argv=("--slice-t", "6")))),
        Workload(
            "bump-tail",
            "Smooth bump c1=1 m=2 T=1 with the default search box: asym on "
            "tail points is dominated by scalar quadrature of the tail "
            "phases; the cache is small and the oracle never runs.",
            BUMP,
            (Step("scatter", _BUMP_CFG, reps=3),
             Step("zeros", _BUMP_CFG),
             Step("asym", _BUMP_CFG, (10.0, 14.0, 3, 3.0, 7.0, 3), 0.1))),
    )
}


def box_real_zeros(pulse: dict) -> list[float]:
    """Positive real zeros of b for a box pulse: sin(wT) = 0, w = n pi / T."""
    if pulse["kind"] != "box":
        return []
    half = 0.5 * pulse["amplitude_re"]
    T = pulse["support"]
    out = []
    for n in range(1, 64):
        w = n * math.pi / T
        if w > half:
            out.append(math.sqrt(w * w - half * half))
    return out


def point_class(t: float, x: float, params: BandParams, pulse: dict,
                velocities: tuple[float, ...]) -> str:
    """The region tag of a point, refined where the cost of a tail point
    jumps: whether it sits on a soliton line and how many real zeros of b
    its phase integrals straddle."""
    tag = classify(t, x, params)
    if tag.variant != "tail":
        return tag.variant
    hit = any(abs(x / t - v) < MATCH_EPS for v in velocities)
    splits = sum(1 for z in box_real_zeros(pulse) if z < tag.k0)
    return f"tail{'+soliton' if hit else ''}/{splits}"


def _run_config(grid, step: Step, pulse: dict) -> RunConfig:
    t0, t1, nt, x0, x1, nx = grid
    return RunConfig(pulse=pulse, bands=step.config.get("bands", {}),
                     grid={"t0": t0, "t1": t1, "nt": nt,
                           "x0": x0, "x1": x1, "nx": nx})


def _points_and_bands(grid, step: Step, pulse: dict):
    """The grid points and band constants exactly as the CLI derives them."""
    cfg = _run_config(grid, step, pulse)
    return cfg.grid_points(), cfg.make_bands(cfg.make_pulse())


def point_mix(grid, step: Step, pulse: dict) -> Counter:
    points, params = _points_and_bands(grid, step, pulse)
    velocities = (velocity_of(1j * K1_BOX52),) if pulse == BOX52 else ()
    return Counter(point_class(t, x, params, pulse, velocities)
                   for t, x in points)


def region_mix(grid, step: Step, pulse: dict) -> Counter:
    points, params = _points_and_bands(grid, step, pulse)
    return Counter(classify(t, x, params).variant for t, x in points)


def seeded_grid(step: Step, pulse: dict, rng: random.Random):
    """Shift the nominal grid's origin until the point mix is unchanged."""
    t0, t1, nt, x0, x1, nx = step.grid
    want = point_mix(step.grid, step, pulse)
    for _ in range(500):
        dt = rng.uniform(-step.jitter, step.jitter)
        dx = rng.uniform(-step.jitter, step.jitter)
        grid = (t0 + dt, t1 + dt, nt, x0 + dx, x1 + dx, nx)
        if point_mix(grid, step, pulse) == want:
            return grid
    raise RuntimeError(f"no shifted {step.command} grid keeps the point mix")


def make_inputs(workload: Workload, seed: int, directory: Path) -> list[dict]:
    """Write one config per step into ``directory``; returns the plan.

    Each plan entry holds the command, its argv for ``mbamp.cli.main`` (the
    output directory is appended by the caller) and the grid it was given.
    """
    rng = random.Random(f"{workload.name}:{seed}")
    directory.mkdir(parents=True, exist_ok=True)
    plan = []
    for i, step in enumerate(workload.steps):
        cfg = dict(step.config)
        grid = None
        if step.grid is not None:
            grid = seeded_grid(step, workload.pulse, rng)
            cfg["grid"] = _run_config(grid, step, workload.pulse).grid
        path = directory / f"{i}-{step.command}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh, indent=2, sort_keys=True)
            fh.write("\n")
        plan.append({"command": step.command, "step": step, "grid": grid,
                     "argv": [step.command, "--config", str(path),
                              *step.argv]})
    return plan
