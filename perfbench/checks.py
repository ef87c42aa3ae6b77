"""Output checks, one per CLI command, at the acceptance suite's tolerances.

Each check reads the files a command wrote and returns a list of problems;
an empty list means the output is correct.
"""

from __future__ import annotations

import cmath
import csv
import hashlib
import json
import math
import struct
from collections import Counter
from pathlib import Path

from workloads import BOX52, K1_BOX52, region_mix

UNITARITY_TOL = 1e-8
CLOSED_FORM_TOL = 1e-8
ZERO_TOL = 1e-6
CAUSALITY_TOL = 1e-9
# The oracle probe interpolates stored nodes with bicubic weights whose sum
# can miss 1 by an ulp, so N = 1 on causal nodes may come back as 1 - 2e-16.
PROBE_ROUNDING = 4 * 2.0 ** -52


def _rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def box_ab(amplitude: float, support: float, k: complex):
    """Closed-form a(k), b(k) of the constant box pulse."""
    w = cmath.sqrt(k * k + amplitude * amplitude / 4.0)
    wt = w * support
    # sin(wT)/w, with its limit T at the branch point w = 0
    sinc = support * (1.0 - wt * wt / 6.0) if abs(wt) < 1e-6 \
        else cmath.sin(wt) / w
    phase = cmath.exp(1j * k * support)
    a = phase * (cmath.cos(wt) - 1j * k * sinc)
    b = 0.5 * amplitude * sinc * phase
    return a, b


def check_scatter(out: Path, step, pulse) -> list[str]:
    rows = _rows(out / "scatter.csv")
    spec = step.config["kgrid"]
    want = int(spec["re"][2]) + int(spec["imag"][2])
    problems = [] if len(rows) == want else [
        f"scatter: {len(rows)} rows, expected {want}"]
    for row in rows:
        k = complex(float(row["k_re"]), float(row["k_im"]))
        a = complex(float(row["a_re"]), float(row["a_im"]))
        b = complex(float(row["b_re"]), float(row["b_im"]))
        if k.imag == 0.0:
            defect = abs(abs(a) ** 2 + abs(b) ** 2 - 1.0)
            if not defect <= UNITARITY_TOL:
                problems.append(f"scatter: unitarity defect {defect:.2e} "
                                f"at k = {k}")
        if pulse["kind"] == "box":
            ae, be = box_ab(pulse["amplitude_re"], pulse["support"], k)
            for name, got, exact in (("a", a, ae), ("b", b, be)):
                if not abs(got - exact) <= CLOSED_FORM_TOL * max(1.0, abs(exact)):
                    problems.append(f"scatter: {name}({k}) off the closed "
                                    f"form by {abs(got - exact):.2e}")
    return problems


def check_zeros(out: Path, step, pulse) -> list[str]:
    rows = _rows(out / "zeros.csv")
    meta = json.loads((out / "zeros_meta.json").read_text(encoding="utf-8"))
    problems = []
    if meta["count"] != len(rows):
        problems.append(f"zeros: meta count {meta['count']} != {len(rows)} rows")
    if pulse == BOX52:
        if len(rows) != 1:
            return problems + [f"zeros: {len(rows)} zeros on box 5/2, expected 1"]
        k = complex(float(rows[0]["kj_re"]), float(rows[0]["kj_im"]))
        if not abs(k - 1j * K1_BOX52) <= ZERO_TOL:
            problems.append(f"zeros: {k} is {abs(k - 1j * K1_BOX52):.2e} "
                            f"from {K1_BOX52}i")
    elif rows:
        problems.append(f"zeros: {len(rows)} zeros, expected none")
    return problems


_FIELDS = ("E_re", "E_im", "N", "rho_re", "rho_im")
_TRIVIAL = {"E_re": 0.0, "E_im": 0.0, "N": 1.0, "rho_re": 0.0, "rho_im": 0.0}


def _finite(row, keys) -> bool:
    try:
        return all(math.isfinite(float(row[k])) for k in keys)
    except ValueError:
        return False


def _check_mix(name, rows, grid, step, pulse) -> list[str]:
    got = Counter(row["region"] for row in rows)
    want = region_mix(grid, step, pulse)
    return [] if got == want else [
        f"{name}: region mix {dict(got)}, expected {dict(want)}"]


def check_asym(out: Path, step, pulse, grid) -> list[str]:
    rows = _rows(out / "asym.csv")
    problems = _check_mix("asym", rows, grid, step, pulse)
    for row in rows:
        where = f"asym ({row['t']}, {row['x']}) {row['region']}"
        if row["region"] == "unsupported":
            if any(row[k] for k in _FIELDS):
                problems.append(f"{where}: unsupported row carries fields")
        elif not _finite(row, _FIELDS):
            problems.append(f"{where}: non-finite fields")
        elif row["region"] == "causal" and any(
                float(row[k]) != v for k, v in _TRIVIAL.items()):
            problems.append(f"{where}: causal row is not trivial")
    return problems


def check_compare(out: Path, step, pulse, grid) -> list[str]:
    rows = _rows(out / "compare_points.csv")
    problems = _check_mix("compare", rows, grid, step, pulse)
    devs = ("E_rel_dev", "N_abs_dev", "rho_rel_dev")
    for row in rows:
        where = f"compare ({row['t']}, {row['x']}) {row['region']}"
        want = "skipped" if row["region"] == "unsupported" else "ok"
        if row["status"] != want:
            problems.append(f"{where}: status {row['status']}, expected {want}")
        elif want == "ok" and not _finite(row, devs):
            problems.append(f"{where}: non-finite deviations")
        elif row["region"] == "causal" and (
                float(row["E_rel_dev"]) != 0.0 or float(row["rho_rel_dev"]) != 0.0
                or not float(row["N_abs_dev"]) <= PROBE_ROUNDING):
            problems.append(f"{where}: oracle is not trivial on a causal row")
    summary = _rows(out / "compare_summary.csv")
    counted = {r["region"]: int(r["points"]) for r in summary}
    ok_rows = Counter(r["region"] for r in rows if r["status"] == "ok")
    if counted != dict(ok_rows):
        problems.append(f"compare: summary counts {counted} != {dict(ok_rows)}")
    return problems


def check_simulate(out: Path, step, pulse) -> list[str]:
    inv = json.loads((out / "invariants.json").read_text(encoding="utf-8"))
    problems = []
    if not inv["causality_defect"] <= CAUSALITY_TOL:
        problems.append(f"simulate: causality defect {inv['causality_defect']}")
    path = out / "grid.bin"
    with open(path, "rb") as fh:
        _, _, _, nodes = struct.unpack("<dddd", fh.read(32))
    if path.stat().st_size != 32 + 40 * int(nodes):
        problems.append(f"simulate: grid.bin holds {path.stat().st_size} "
                        f"bytes for {int(nodes)} nodes")
    if not list(out.glob("slice_t*.csv")):
        problems.append("simulate: no slice CSV")
    return problems


def check_output(command: str, out: Path, step, pulse, grid) -> list[str]:
    if command == "scatter":
        return check_scatter(out, step, pulse)
    if command == "zeros":
        return check_zeros(out, step, pulse)
    if command == "asym":
        return check_asym(out, step, pulse, grid)
    if command == "compare":
        return check_compare(out, step, pulse, grid)
    if command == "simulate":
        return check_simulate(out, step, pulse)
    raise ValueError(f"no check for command {command}")


def digest(out: Path) -> dict[str, str]:
    """Content hash of every file a command wrote."""
    result = {}
    for path in sorted(out.iterdir()):
        h = hashlib.blake2b()
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 22), b""):
                h.update(chunk)
        result[path.name] = h.hexdigest()
    return result
