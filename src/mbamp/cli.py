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
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import mb_oracle, tail_asym
from .errors import MbampError
from .lightcone_asym import BandParams, classify, eval_lightcone
from .numerics import Tolerances
from .pulse import BoxPulse, PowerStartPulse, SmoothBumpPulse
from .scattering import ScatteringData
from .soliton_spectrum import find_zeros

SCHEMA_VERSION = 1


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


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
    match_eps: float | None = None
    schema_version: int = SCHEMA_VERSION

    @classmethod
    def load(cls, path) -> "RunConfig":
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        version = raw.pop("schema_version", None)
        if version != SCHEMA_VERSION:
            raise ValueError(f"config schema_version {version} unsupported "
                             f"(expected {SCHEMA_VERSION})")
        return cls(schema_version=SCHEMA_VERSION, **raw)

    def dump(self, path):
        data = {
            "schema_version": self.schema_version,
            "pulse": self.pulse,
            "tolerances": self.tolerances,
            "search_box": self.search_box,
            "bands": self.bands,
            "oracle": self.oracle,
            "kgrid": self.kgrid,
            "grid": self.grid,
            "match_eps": self.match_eps,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=2, sort_keys=True)
            fh.write("\n")

    # --- constructors for the domain objects ---

    def make_pulse(self):
        spec = dict(self.pulse)
        kind = spec.pop("kind")
        amp = complex(spec.pop("amplitude_re"), spec.pop("amplitude_im", 0.0))
        if amp == 0:
            raise ValueError("pulse must be nontrivial (amplitude != 0)")
        if kind == "box":
            return BoxPulse(amp, spec["support"])
        if kind == "power_start":
            return PowerStartPulse(amp, spec["start_exponent"], spec["support"])
        if kind == "smooth_bump":
            return SmoothBumpPulse(amp, spec["start_exponent"], spec["support"])
        raise ValueError(f"unknown pulse kind '{kind}'")

    def make_tolerances(self, scale: float = 1.0) -> Tolerances:
        tol = Tolerances(**self.tolerances)
        return tol.scaled(scale) if scale != 1.0 else tol

    def make_bands(self, pulse) -> BandParams:
        spec = dict(self.bands)
        order = spec.pop("tail_order", None)
        if order is None:
            order = float(pulse.start_exponent)
        return BandParams(tail_order=order, **spec)

    def grid_points(self):
        g = self.grid
        if g is None:
            raise ValueError("this command needs a (t, x) grid; pass --grid "
                             "or set 'grid' in the config")
        ts = np.linspace(g["t0"], g["t1"], int(g["nt"]))
        xs = np.linspace(g["x0"], g["x1"], int(g["nx"]))
        return [(float(t), float(x)) for t in ts for x in xs]


def _parse_grid(text: str) -> dict:
    try:
        tpart, xpart = text.split(",")
        t0, t1, nt = tpart.split(":")
        x0, x1, nx = xpart.split(":")
        return {"t0": float(t0), "t1": float(t1), "nt": int(nt),
                "x0": float(x0), "x1": float(x1), "nx": int(nx)}
    except ValueError as exc:
        raise ValueError(f"bad --grid '{text}', expected t0:t1:nt,x0:x1:nx") from exc


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


# ----------------------------------------------------------------- commands

def cmd_scatter(cfg: RunConfig, out: Path, tol_scale: float) -> int:
    pulse = cfg.make_pulse()
    sd = ScatteringData(pulse, cfg.make_tolerances(tol_scale))
    rows = []
    segments = []
    re_spec = cfg.kgrid.get("re")
    if re_spec:
        segments.append(np.linspace(re_spec[0], re_spec[1], int(re_spec[2])))
    im_spec = cfg.kgrid.get("imag")
    if im_spec:
        segments.append(1j * np.linspace(im_spec[0], im_spec[1], int(im_spec[2])))
    for ks in segments:
        a, b = sd.ab_many(ks)
        for k, av, bv in zip(ks, a, b):
            r = bv / av if abs(av) > 1e-12 else complex(math.nan, math.nan)
            defect = abs(abs(av) ** 2 + abs(bv) ** 2 - 1.0) \
                if abs(np.imag(k)) < 1e-14 else math.nan
            rows.append([_fmt(np.real(k)), _fmt(np.imag(k)),
                         _fmt(av.real), _fmt(av.imag),
                         _fmt(bv.real), _fmt(bv.imag),
                         _fmt(r.real), _fmt(r.imag), _fmt(defect)])
    _write_csv(out / "scatter.csv",
               ["k_re", "k_im", "a_re", "a_im", "b_re", "b_im",
                "r_re", "r_im", "unitarity_defect"], rows)
    return 0


def cmd_zeros(cfg: RunConfig, out: Path, tol_scale: float) -> int:
    pulse = cfg.make_pulse()
    sd = ScatteringData(pulse, cfg.make_tolerances(tol_scale))
    box = tuple(cfg.search_box) if cfg.search_box else None
    spec = find_zeros(sd, box)
    rows = []
    for j, (k, g, v) in enumerate(zip(spec.zeros, spec.residues,
                                      spec.velocities)):
        rows.append([str(j), _fmt(k.real), _fmt(k.imag),
                     _fmt(g.real), _fmt(g.imag), _fmt(v)])
    _write_csv(out / "zeros.csv",
               ["j", "kj_re", "kj_im", "gamma_re", "gamma_im", "velocity"],
               rows)
    meta = {"search_box": list(spec.box), "count": len(spec)}
    with open(out / "zeros_meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def _asym_row(point, sd, spec, params, match_eps):
    t, x = point
    tag = classify(t, x, params)
    base = [_fmt(t), _fmt(x), tag.variant,
            str(tag.n) if tag.n is not None else ""]
    empty = ["", "", "", "", "", ""]
    if tag.variant == "causal":
        return base + [_fmt(0), _fmt(0), _fmt(1), _fmt(0), _fmt(0), _fmt(0),
                       "", "", ""]
    if tag.variant == "unsupported":
        return base + empty + ["", "", ""]
    if tag.variant == "tail":
        tf = tail_asym.eval_tail(sd, spec, t, x, match_eps)
        f = tf.fields
        sol = tf.soliton
        extra = ([str(sol.index), _fmt(sol.w_abs), _fmt(sol.w_arg)]
                 if sol is not None else ["", "", ""])
        return base + [_fmt(f.E.real), _fmt(f.E.imag), _fmt(f.N),
                       _fmt(f.rho.real), _fmt(f.rho.imag),
                       _fmt(tf.error_scale)] + extra
    af = eval_lightcone(tag, t, x, sd, params.tail_order)
    f = af.fields
    return base + [_fmt(f.E.real), _fmt(f.E.imag), _fmt(f.N),
                   _fmt(f.rho.real), _fmt(f.rho.imag),
                   _fmt(af.error_scale)] + ["", "", ""]


_ASYM_HEADER = ["t", "x", "region", "n", "E_re", "E_im", "N",
                "rho_re", "rho_im", "error_scale",
                "soliton_j", "w_abs", "w_arg"]


def cmd_asym(cfg: RunConfig, out: Path, tol_scale: float) -> int:
    pulse = cfg.make_pulse()
    sd = ScatteringData(pulse, cfg.make_tolerances(tol_scale))
    params = cfg.make_bands(pulse)
    box = tuple(cfg.search_box) if cfg.search_box else None
    spec = find_zeros(sd, box)
    rows = [_asym_row(pt, sd, spec, params, cfg.match_eps)
            for pt in cfg.grid_points()]
    _write_csv(out / "asym.csv", _ASYM_HEADER, rows)
    return 0


def cmd_regions(cfg: RunConfig, out: Path, tol_scale: float) -> int:
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


def cmd_simulate(cfg: RunConfig, out: Path, tol_scale: float,
                 slice_t: float | None) -> int:
    pulse = cfg.make_pulse()
    o = cfg.oracle
    grid = mb_oracle.simulate(
        pulse, t_max=o["t_max"], x_max=o["x_max"], h=o["h"],
        nonphysical_tol=o.get("nonphysical_tol", 1e-4))
    grid.save_binary(out / "grid.bin")
    inv = grid.invariants
    with open(out / "invariants.json", "w", encoding="utf-8") as fh:
        json.dump(asdict(inv), fh, indent=2, sort_keys=True)
        fh.write("\n")
    if slice_t is not None:
        i = int(round(slice_t / grid.h))
        i = min(max(i, 0), grid.nt)
        E, N, rho = grid.level(i)
        rows = [[_fmt(j * grid.h), _fmt(E[j].real), _fmt(E[j].imag), _fmt(N[j]),
                 _fmt(rho[j].real), _fmt(rho[j].imag)] for j in range(grid.nx + 1)]
        _write_csv(out / f"slice_t{i * grid.h:g}.csv",
                   ["x", "E_re", "E_im", "N", "rho_re", "rho_im"], rows)
    return 0


def cmd_compare(cfg: RunConfig, out: Path, tol_scale: float) -> int:
    pulse = cfg.make_pulse()
    sd = ScatteringData(pulse, cfg.make_tolerances(tol_scale))
    params = cfg.make_bands(pulse)
    box = tuple(cfg.search_box) if cfg.search_box else None
    spec = find_zeros(sd, box)
    o = cfg.oracle
    points = cfg.grid_points()
    # the probes' bicubic stencils reach less than 3h past their largest tau;
    # the store starts at their smallest x
    tau_max = min(o["t_max"],
                  max((t - x for t, x in points), default=0.0) + 3.0 * o["h"])
    x_min = min(o["x_max"], max(0.0, min((x for _, x in points), default=0.0)))
    grid = mb_oracle.simulate(
        pulse, t_max=o["t_max"], x_max=o["x_max"], h=o["h"],
        nonphysical_tol=o.get("nonphysical_tol", 1e-4), tau_max=tau_max,
        x_min=x_min)

    rows = []
    per_region: dict[str, list] = {}
    for t, x in points:
        tag = classify(t, x, params)
        if tag.variant == "unsupported":
            rows.append([_fmt(t), _fmt(x), tag.variant, "skipped", "", "", ""])
            continue
        try:
            orc = grid.probe(t, x)
        except MbampError:
            rows.append([_fmt(t), _fmt(x), tag.variant, "outside_oracle",
                         "", "", ""])
            continue
        if tag.variant == "causal":
            asym_E, asym_N, asym_rho = 0.0 + 0.0j, 1.0, 0.0 + 0.0j
        elif tag.variant == "tail":
            f = tail_asym.eval_tail(sd, spec, t, x, cfg.match_eps).fields
            asym_E, asym_N, asym_rho = f.E, f.N, f.rho
        else:
            f = eval_lightcone(tag, t, x, sd, params.tail_order).fields
            asym_E, asym_N, asym_rho = f.E, f.N, f.rho
        scale = max(abs(orc.E), abs(orc.rho), 1e-30)
        dev = abs(asym_E - orc.E) / scale
        rows.append([_fmt(t), _fmt(x), tag.variant, "ok", _fmt(dev),
                     _fmt(abs(asym_N - orc.N)),
                     _fmt(abs(asym_rho - orc.rho) / scale)])
        tau = t - x
        k0 = 0.5 * math.sqrt(x / tau) if tau > 0 else math.inf
        per_region.setdefault(tag.variant, []).append((dev, tau, k0))
    _write_csv(out / "compare_points.csv",
               ["t", "x", "region", "status", "E_rel_dev", "N_abs_dev",
                "rho_rel_dev"], rows)

    summary = []
    for region in sorted(per_region):
        data = per_region[region]
        devs = np.array([d[0] for d in data])
        stats = [region, str(len(data)), _fmt(float(devs.max())),
                 _fmt(float(np.median(devs)))]
        # decay-fit exponent: tail regions against tau, cone regions vs k0;
        # meaningless for the causal region where deviations are zero
        if len(data) >= 3 and region != "causal":
            if region == "tail":
                xs = np.log([d[1] for d in data])
            else:
                xs = np.log([d[2] for d in data])
            ys = np.log(np.maximum(devs, 1e-300))
            if np.all(np.isfinite(xs)) and np.ptp(xs) > 1e-9:
                stats.append(_fmt(float(np.polyfit(xs, ys, 1)[0])))
            else:
                stats.append("")
        else:
            stats.append("")
        summary.append(stats)
    _write_csv(out / "compare_summary.csv",
               ["region", "points", "max_dev", "median_dev",
                "decay_fit_exponent"], summary)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mbamp",
        description="Scattering data and long-time asymptotics of an input "
                    "pulse in a two-level amplifier, with a direct PDE oracle.")
    parser.add_argument("command",
                        choices=["scatter", "zeros", "asym", "simulate",
                                 "compare", "regions"])
    parser.add_argument("--config", required=True, help="JSON run config")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--grid", default=None,
                        help="t0:t1:nt,x0:x1:nx sweep grid (overrides config)")
    parser.add_argument("--tol-scale", type=float, default=1.0,
                        help="multiply all tolerances by this factor")
    parser.add_argument("--slice-t", type=float, default=None,
                        help="simulate: also emit a CSV slice at this time")
    args = parser.parse_args(argv)

    try:
        cfg = RunConfig.load(args.config)
        if args.grid:
            cfg.grid = _parse_grid(args.grid)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        if args.command == "scatter":
            return cmd_scatter(cfg, out, args.tol_scale)
        if args.command == "zeros":
            return cmd_zeros(cfg, out, args.tol_scale)
        if args.command == "asym":
            return cmd_asym(cfg, out, args.tol_scale)
        if args.command == "regions":
            return cmd_regions(cfg, out, args.tol_scale)
        if args.command == "simulate":
            return cmd_simulate(cfg, out, args.tol_scale, args.slice_t)
        if args.command == "compare":
            return cmd_compare(cfg, out, args.tol_scale)
        raise ValueError(f"unhandled command {args.command}")
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except MbampError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
