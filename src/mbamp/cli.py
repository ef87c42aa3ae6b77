"""Command-line front end: scattering tables, zero finding, asymptotic
sweeps, direct simulation, and asymptotics-vs-oracle comparison reports.

All outputs are deterministic for a fixed config: fixed iteration orders,
fixed float formatting, newline-terminated CSV with a header row.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import mb_oracle, tail_asym
from .errors import MbampError
from .lightcone_asym import (AsymptoticFields, BandParams, classify,
                             eval_lightcone)
from .numerics import Tolerances
from .pulse import BoxPulse, PowerStartPulse, SmoothBumpPulse
from .scattering import ScatteringData
from .soliton_spectrum import IM_FLOOR, find_zeros, tail_cone_radius

SCHEMA_VERSION = 1
_PULSES = {"box": BoxPulse, "power_start": PowerStartPulse,
           "smooth_bump": SmoothBumpPulse}
_ORACLE_KEYS = ("h", "t_max", "x_max", "nonphysical_tol")  # the last optional
_GRID_KEYS = ("t0", "t1", "nt", "x0", "x1", "nx")
_BAND_KEYS = [f.name for f in fields(BandParams) if f.name != "tail_order"]


_FMT = ".17g"   # every float in the CSV outputs: exact round trip


def _fmt(v: float) -> str:
    return format(float(v), _FMT)


@dataclass
class RunConfig:
    """Everything a run needs; round-trips losslessly through JSON."""

    pulse: dict
    tolerances: dict = field(default_factory=dict)
    search_box: list | None = None
    bands: dict = field(default_factory=dict)
    oracle: dict = field(default_factory=dict)
    kgrid: dict = field(default_factory=lambda: {"re": [-20.0, 20.0, 401]})
    grid: dict | None = None
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self):
        # checked on construction: some commands never read the bands, the
        # tolerances or the oracle, and the zero search runs only for tail
        # points
        kind = self.pulse.get("kind") if isinstance(self.pulse, dict) else None
        cls = _PULSES.get(kind) if isinstance(kind, str) else None
        if cls is None and isinstance(self.pulse, dict):
            raise ValueError(f"unknown pulse kind {kind!r}")
        slots = ([f.name for f in fields(cls) if f.name != "amplitude"]
                 if cls else [])
        _check_section(self.pulse, "config 'pulse'",
                       ["kind", "amplitude_re", "amplitude_im"] + slots,
                       ["amplitude_re"] + slots)
        _check_section(self.tolerances, "config 'tolerances'",
                       [f.name for f in fields(Tolerances)])
        _check_section(self.bands, "config 'bands'", _BAND_KEYS)
        _check_section(self.oracle, "config 'oracle'", _ORACLE_KEYS)
        _check_section(self.kgrid, "config 'kgrid'", ["re", "imag"],
                       numbers=False)
        if self.grid is not None:
            _check_grid(self.grid, "config 'grid'")
        for axis, spec in self.kgrid.items():
            if spec not in (None, []) and not (
                    isinstance(spec, list) and len(spec) == 3
                    and all(map(_is_number, spec))
                    and float(spec[2]).is_integer() and spec[2] >= 1):
                raise ValueError(f"bad kgrid '{axis}' {spec!r}: expected "
                                 "[lo, hi, n] with an integral n >= 1, or "
                                 "null or [] for no axis")
        box = self.search_box
        if box is not None and not (
                isinstance(box, (list, tuple)) and len(box) == 4
                and all(map(_is_number, box))
                and box[0] < box[1] and box[3] > max(box[2], IM_FLOOR)):
            raise ValueError(f"bad search_box {box!r}: expected finite "
                             "[re_lo, re_hi, im_lo, im_hi] with re_lo < "
                             f"re_hi and im_hi > max(im_lo, {IM_FLOOR:g})")

    @classmethod
    def load(cls, path) -> "RunConfig":
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        _check_section(raw, "config", [f.name for f in fields(cls)],
                       ["pulse"], numbers=False)
        version = raw.pop("schema_version", None)
        if version != SCHEMA_VERSION:
            raise ValueError(f"config schema_version {version} unsupported "
                             f"(expected {SCHEMA_VERSION})")
        return cls(schema_version=SCHEMA_VERSION, **raw)

    def dump(self, path):
        _write_json(path, asdict(self))

    # --- constructors for the domain objects ---

    def make_pulse(self):
        spec = dict(self.pulse)
        cls = _PULSES[spec.pop("kind")]
        amp = complex(spec.pop("amplitude_re"), spec.pop("amplitude_im", 0.0))
        return cls(amplitude=amp, **spec)

    def make_bands(self, pulse) -> BandParams:
        return BandParams(tail_order=float(pulse.start_exponent), **self.bands)

    def make_scattering(self, pulse) -> ScatteringData:
        """The pulse's scattering data, its real-line cache on the tail
        cone's window [-K, K], K = tail_cone_radius(sigma): only tail points
        read the cache, and their k0 stay below K."""
        sigma = self.make_bands(pulse).sigma
        return ScatteringData(pulse, Tolerances(**self.tolerances),
                              halfwidth=tail_cone_radius(sigma))

    def oracle_args(self) -> dict:
        """Keyword arguments of mb_oracle.simulate from 'oracle'."""
        _check_section(self.oracle, "config 'oracle'", _ORACLE_KEYS,
                       _ORACLE_KEYS[:-1])
        return dict(self.oracle)

    def grid_points(self):
        g = self.grid
        if g is None:
            raise ValueError("this command needs a (t, x) grid; pass --grid "
                             "or set 'grid' in the config")
        ts = np.linspace(g["t0"], g["t1"], int(g["nt"]))
        xs = np.linspace(g["x0"], g["x1"], int(g["nx"]))
        return [(float(t), float(x)) for t in ts for x in xs]


def _is_number(v) -> bool:
    """A finite JSON number (true and false are not numbers)."""
    return type(v) in (int, float) and math.isfinite(v)


def _check_section(spec, what: str, known, required=(), numbers=True):
    """ValueError unless ``spec`` is a JSON object whose values, with
    ``numbers``, are all finite numbers but a pulse's ``kind``, and whose
    keys are all in ``known`` and include all of ``required``."""
    if not isinstance(spec, dict):
        raise ValueError(f"{what} must be a JSON object, not {spec!r}")
    bad = [k for k, v in spec.items()
           if numbers and k != "kind" and not _is_number(v)]
    if bad:
        raise ValueError(f"non-numeric value(s) in {what}: " + ", ".join(
            f"{k!r}: {spec[k]!r}" for k in bad))
    unknown = sorted(set(spec) - set(known))
    if unknown:
        raise ValueError(f"unknown key(s) in {what}: "
                         + ", ".join(map(repr, unknown)))
    missing = [k for k in required if k not in spec]
    if missing:
        raise ValueError(f"{what} lacks key(s) "
                         + ", ".join(map(repr, missing)))


def _check_grid(grid, what: str):
    """ValueError, naming the key, unless ``grid`` is a JSON object of all
    the grid keys, with t0, t1, x0, x1 >= 0 (the quadrant of the input
    boundary x = 0) and integral counts nt, nx >= 1."""
    _check_section(grid, what, _GRID_KEYS, _GRID_KEYS)
    for key in _GRID_KEYS:
        v = grid[key]
        if key in ("nt", "nx") and not (float(v).is_integer() and v >= 1):
            raise ValueError(f"{what} {key!r} is {v!r}: expected an integral "
                             "count >= 1")
        elif v < 0:
            raise ValueError(f"{what} {key!r} is {v!r}: t and x must be >= 0")


def _parse_grid(text: str) -> dict:
    try:
        tpart, xpart = text.split(",")
        t0, t1, nt = tpart.split(":")
        x0, x1, nx = xpart.split(":")
        grid = {"t0": float(t0), "t1": float(t1), "nt": int(nt),
                "x0": float(x0), "x1": float(x1), "nx": int(nx)}
    except ValueError as exc:
        raise ValueError(f"bad --grid '{text}', expected t0:t1:nt,x0:x1:nx") from exc
    _check_grid(grid, "--grid")
    return grid


def _write_json(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path, header, rows):
    """``rows`` are lists of formatted fields, or a 2-D float array, whose
    values are formatted as ``_fmt`` does in one pass over the table."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        if isinstance(rows, np.ndarray):
            line = ",".join(["%" + _FMT] * len(header)) + "\n"
            fh.write(line * len(rows) % tuple(rows.ravel().tolist()))
            return
        for row in rows:
            fh.write(",".join(row) + "\n")


# ----------------------------------------------------------------- commands

def cmd_scatter(cfg: RunConfig, out: Path) -> int:
    """a, b and r on both axes of the k-grid, from one batched solve."""
    pulse = cfg.make_pulse()
    sd = cfg.make_scattering(pulse)
    ks = np.zeros(0, dtype=complex)
    for axis, unit in (("re", 1.0), ("imag", 1j)):
        if cfg.kgrid.get(axis):
            lo, hi, n = cfg.kgrid[axis]
            ks = np.append(ks, unit * np.linspace(lo, hi, int(n)))
    a, b = sd.ab_many(ks)
    r = np.divide(b, a, out=np.full(ks.shape, complex(math.nan, math.nan)),
                  where=np.abs(a) > 1e-12)
    defect = np.where(np.abs(ks.imag) < 1e-14,
                      np.abs(np.abs(a) ** 2 + np.abs(b) ** 2 - 1.0), math.nan)
    _write_csv(out / "scatter.csv",
               ["k_re", "k_im", "a_re", "a_im", "b_re", "b_im",
                "r_re", "r_im", "unitarity_defect"],
               np.column_stack([ks.real, ks.imag, a.real, a.imag, b.real,
                                b.imag, r.real, r.imag, defect]))
    return 0


def cmd_zeros(cfg: RunConfig, out: Path) -> int:
    pulse = cfg.make_pulse()
    sd = cfg.make_scattering(pulse)
    box = tuple(cfg.search_box) if cfg.search_box else None
    spec = find_zeros(sd, box, cfg.make_bands(pulse).sigma)
    rows = []
    for j, (k, g, v) in enumerate(zip(spec.zeros, spec.residues,
                                      spec.velocities)):
        rows.append([str(j), _fmt(k.real), _fmt(k.imag),
                     _fmt(g.real), _fmt(g.imag), _fmt(v)])
    _write_csv(out / "zeros.csv",
               ["j", "kj_re", "kj_im", "gamma_re", "gamma_im", "velocity"],
               rows)
    _write_json(out / "zeros_meta.json",
                {"search_box": list(spec.box), "count": len(spec)})
    return 0


_CAUSAL = AsymptoticFields(mb_oracle.FieldTriple(0j, 1.0, 0j), 0.0)


def _asymptotics(cfg: RunConfig, sd, params, points, keep=None):
    """Region tags of all points, and the asymptotic fields of those with a
    formula that ``keep(i)`` (default: all) accepts, else None.

    The zero search runs only when a tail point is evaluated.  Then its
    first Jost solve also takes the light-cone points' r(i k0) and the
    real-line cache's first nodes, which only tail points read, so the
    first pass of the command is one solve; without tail points the
    light-cone points are one batched solve.
    """
    tags = [classify(t, x, params) for t, x in points]
    todo = [i for i, tag in enumerate(tags) if tag.variant != "unsupported"
            and (keep is None or keep(i))]
    cone = [i for i in todo if tags[i].variant not in ("causal", "tail")]
    ks = np.array([1j * tags[i].k0 for i in cone], dtype=complex)
    if any(tags[i].variant == "tail" for i in todo):
        box = tuple(cfg.search_box) if cfg.search_box else None
        spec = find_zeros(sd, box, params.sigma, np.concatenate(
            [sd.first_cache_nodes(), ks[sd.solved_directly(ks)]]))
    if cone:
        r = dict(zip(cone, sd.reflection_uhp(ks)))
    out = [None] * len(points)
    for i in todo:
        (t, x), tag = points[i], tags[i]
        if tag.variant == "causal":
            out[i] = _CAUSAL
        elif tag.variant == "tail":
            out[i] = tail_asym.eval_tail(sd, spec, t, x)
        else:
            out[i] = eval_lightcone(tag.variant, tag.n, t - x, x, r[i],
                                    params.tail_order)
    return tags, out


_ASYM_HEADER = ["t", "x", "region", "n", "E_re", "E_im", "N",
                "rho_re", "rho_im", "error_scale",
                "soliton_j", "w_abs", "w_arg"]


def cmd_asym(cfg: RunConfig, out: Path) -> int:
    pulse = cfg.make_pulse()
    sd = cfg.make_scattering(pulse)
    points = cfg.grid_points()
    tags, results = _asymptotics(cfg, sd, cfg.make_bands(pulse), points)
    rows = []
    for (t, x), tag, res in zip(points, tags, results):
        row = [_fmt(t), _fmt(x), tag.variant,
               str(tag.n) if tag.n is not None else ""] + [""] * 9
        if res is not None:
            f, sol = res.fields, res.soliton
            row[4:10] = map(_fmt, (f.E.real, f.E.imag, f.N, f.rho.real,
                                   f.rho.imag, res.error_scale))
            if sol is not None:
                row[10:] = [str(sol.index), _fmt(sol.w_abs), _fmt(sol.w_arg)]
        rows.append(row)
    _write_csv(out / "asym.csv", _ASYM_HEADER, rows)
    return 0


def cmd_regions(cfg: RunConfig, out: Path) -> int:
    pulse = cfg.make_pulse()   # validates nontriviality
    params = cfg.make_bands(pulse)
    rows = []
    for t, x in cfg.grid_points():
        tag = classify(t, x, params)
        rows.append([_fmt(t), _fmt(x), tag.variant,
                     str(tag.n) if tag.n is not None else "",
                     _fmt(tag.k0), _fmt(tag.xi),
                     _fmt(tag.band[0]), _fmt(tag.band[1])])
    _write_csv(out / "regions.csv",
               ["t", "x", "region", "n", "k0", "xi", "band_lo", "band_hi"],
               rows)
    return 0


def cmd_simulate(cfg: RunConfig, out: Path, slice_t: float | None) -> int:
    pulse = cfg.make_pulse()
    o = cfg.oracle_args()
    if slice_t is not None and not 0.0 <= slice_t <= o["t_max"]:
        raise ValueError(f"--slice-t {slice_t} outside [0, t_max = "
                         f"{o['t_max']}]")
    grid = mb_oracle.simulate(pulse, **o)
    grid.save_binary(out / "grid.bin")
    _write_json(out / "invariants.json", asdict(grid.invariants))
    if slice_t is not None:
        i = int(round(slice_t / grid.h))
        E, N, rho = grid.level(i)
        _write_csv(out / f"slice_t{i * grid.h:g}.csv",
                   ["x", "E_re", "E_im", "N", "rho_re", "rho_im"],
                   np.column_stack([np.arange(grid.nx + 1) * grid.h, E.real,
                                    E.imag, N, rho.real, rho.imag]))
    return 0


def cmd_compare(cfg: RunConfig, out: Path) -> int:
    pulse = cfg.make_pulse()
    sd = cfg.make_scattering(pulse)
    params = cfg.make_bands(pulse)
    points = cfg.grid_points()
    grid = mb_oracle.simulate(pulse, **cfg.oracle_args(), probes=points)

    # only points the oracle can probe are evaluated, so a point outside
    # its grid cannot fail the command
    oracle = {}

    def probed(i):
        try:
            oracle[i] = grid.probe(*points[i])
        except MbampError:
            return False
        return True

    tags, results = _asymptotics(cfg, sd, params, points, keep=probed)
    rows = []
    per_region: dict[str, list] = {}
    for i, ((t, x), tag, res) in enumerate(zip(points, tags, results)):
        if res is None:
            status = "skipped" if tag.variant == "unsupported" \
                else "outside_oracle"
            rows.append([_fmt(t), _fmt(x), tag.variant, status, "", "", ""])
            continue
        orc, f = oracle[i], res.fields
        scale = max(abs(orc.E), abs(orc.rho), 1e-30)
        dev = abs(f.E - orc.E) / scale
        rows.append([_fmt(t), _fmt(x), tag.variant, "ok", _fmt(dev),
                     _fmt(abs(f.N - orc.N)),
                     _fmt(abs(f.rho - orc.rho) / scale)])
        per_region.setdefault(tag.variant, []).append(
            (dev, t - x if tag.variant == "tail" else tag.k0))
    _write_csv(out / "compare_points.csv",
               ["t", "x", "region", "status", "E_rel_dev", "N_abs_dev",
                "rho_rel_dev"], rows)

    summary = []
    for region in sorted(per_region):
        devs, xs = np.array(per_region[region]).T
        stats = [region, str(devs.size), _fmt(devs.max()),
                 _fmt(np.median(devs)), ""]
        # decay-fit exponent: tail regions against tau, cone regions vs k0;
        # meaningless for the causal region where deviations are zero
        xs = np.log(xs)
        if devs.size >= 3 and region != "causal" \
                and np.all(np.isfinite(xs)) and np.ptp(xs) > 1e-9:
            ys = np.log(np.maximum(devs, 1e-300))
            stats[-1] = _fmt(np.polyfit(xs, ys, 1)[0])
        summary.append(stats)
    _write_csv(out / "compare_summary.csv",
               ["region", "points", "max_dev", "median_dev",
                "decay_fit_exponent"], summary)
    return 0


_COMMANDS = {"scatter": cmd_scatter, "zeros": cmd_zeros, "asym": cmd_asym,
             "compare": cmd_compare, "regions": cmd_regions}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mbamp",
        description="Scattering data and long-time asymptotics of an input "
                    "pulse in a two-level amplifier, with a direct PDE oracle.")
    parser.add_argument("command", choices=[*_COMMANDS, "simulate"])
    parser.add_argument("--config", required=True, help="JSON run config")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--grid", default=None,
                        help="t0:t1:nt,x0:x1:nx sweep grid (overrides config)")
    parser.add_argument("--slice-t", type=float, default=None,
                        help="simulate: also emit a CSV slice at this time")
    args = parser.parse_args(argv)

    try:
        cfg = RunConfig.load(args.config)
        if args.grid:
            cfg.grid = _parse_grid(args.grid)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        if args.command == "simulate":
            return cmd_simulate(cfg, out, args.slice_t)
        return _COMMANDS[args.command](cfg, out)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except MbampError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
