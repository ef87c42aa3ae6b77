"""Spans and counters around the public functions of each mbamp layer.

The modules bind their dependencies with ``from ... import``, so each
function is patched under the name its caller looks up (for example
``mbamp.tail_asym.adaptive_quad`` rather than ``mbamp.numerics``).  Methods
are patched on their class.  Per-node callbacks (ODE right-hand sides,
quadrature integrands, winding-number samples) are counted, not spanned;
``r_real`` is timed but opens no span, so its time stays in the self time of
the quadrature that calls it.  The Jost solves inside the real-line cache
build are counted by the cache build and open no spans either, so the cache
shows as one layer.

Spans are kept in memory as (id, parent, name, start, end, self time,
command) and written out once the traced round ends.  A span's self time is
its duration minus the time its child spans cover; calls are sequential, so
that is the sum of the children's durations.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

from mbamp import cli, errors, lightcone_asym, mb_oracle, scattering
from mbamp import soliton_spectrum, tail_asym

# (owner, attribute, span name) of the functions that only need a span.
_PLAIN = (
    (cli, "find_zeros", "soliton_spectrum.find_zeros"),
    (cli, "classify", "lightcone_asym.classify"),
    (cli, "eval_lightcone", "lightcone_asym.eval_lightcone"),
    (soliton_spectrum, "default_search_box",
     "soliton_spectrum.default_search_box"),
    (tail_asym, "eval_tail", "tail_asym.eval_tail"),
    (tail_asym, "soliton_state", "tail_asym.soliton_state"),
    (scattering.ScatteringData, "ab_and_derivs_many",
     "scattering.ab_and_derivs_many"),
    (scattering.ScatteringData, "reflection_uhp", "scattering.reflection_uhp"),
    (scattering.ScatteringData, "tail_fit", "scattering.tail_fit"),
    (mb_oracle.SimGrid, "probe", "mb_oracle.probe"),
)
_COUNTED = (
    (lightcone_asym, "bessel_i", "specfun.bessel_i"),
    (tail_asym, "gamma_imag", "specfun.gamma_imag"),
)

_BYTES_PER_NODE = 16 + 16 + 8       # E, rho complex and N real per grid node


class Tracer:
    """Collects spans, self times and counters for one traced round."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[list] = []        # [id, name, start, child time]
        self.active: Counter = Counter()   # open spans per name
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.command = None
        self.largest_batch = 0
        self._next_id = 0

    def call(self, name, fn, args, kwargs):
        span_id = self._next_id
        self._next_id += 1
        parent = self.stack[-1][0] if self.stack else None
        frame = [span_id, name, time.perf_counter(), 0.0]
        self.stack.append(frame)
        self.active[name] += 1
        self.counts[f"{name}.calls"] += 1
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.active[name] -= 1
            duration = end - frame[2]
            self.self_s[name] += duration - frame[3]
            self.total_s[name] += duration
            if self.stack:
                self.stack[-1][3] += duration
            self.spans.append((span_id, parent, name, frame[2], end,
                               duration - frame[3], self.command))

    def inside(self, name) -> bool:
        return self.active[name] > 0

    def counting(self, key, fn):
        def counted(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    def span_durations(self, name) -> list[float]:
        return [s[4] - s[3] for s in self.spans if s[2] == name]

    def self_by_command(self) -> dict[str, Counter]:
        """Self time per layer within each command's spans."""
        out: defaultdict = defaultdict(Counter)
        for _, _, name, _, _, self_time, command in self.spans:
            out[command][name] += self_time
        return out

    def write(self, path):
        keys = ("id", "parent", "name", "start", "end", "self", "command")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def _ab_many(tr: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(self, ks):
        n = int(np.size(ks))
        if tr.inside("scattering.cache_build"):
            tr.counts["scattering.cache_build.kpoints_solved"] += n
            tr.largest_batch = max(tr.largest_batch, n)
            return fn(self, ks)
        tr.counts["scattering.ab_many.kpoints"] += n
        if n == 1:
            tr.counts["scattering.ab_many.single_k_calls"] += 1
            if tr.inside("soliton_spectrum.find_zeros"):
                tr.counts["soliton_spectrum.find_zeros.single_k_solves"] += 1
        return tr.call("scattering.ab_many", fn, (self, ks), {})
    return wrapper


def _build_cache(tr: Tracer, fn):
    """The cache keeps the last, largest batch; the rest is probing."""
    @functools.wraps(fn)
    def wrapper(self):
        tr.largest_batch = 0
        result = tr.call("scattering.cache_build", fn, (self,), {})
        tr.counts["scattering.cache_build.kpoints_kept"] += tr.largest_batch
        return result
    return wrapper


def _ode_advance(tr: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(rhs, *args, **kwargs):
        if tr.inside("scattering.cache_build"):
            return fn(rhs, *args, **kwargs)
        rhs = tr.counting("numerics.ode_advance.rhs_evals", rhs)
        return tr.call("numerics.ode_advance", fn, (rhs, *args), kwargs)
    return wrapper


def _r_real(tr: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(self, s):
        tr.counts["scattering.r_real.calls"] += 1
        cache_before = tr.total_s["scattering.cache_build"]
        start = time.perf_counter()
        try:
            return fn(self, s)
        finally:
            tr.self_s["scattering.r_real"] += (
                time.perf_counter() - start
                - (tr.total_s["scattering.cache_build"] - cache_before))
    return wrapper


def _count_zeros_rect(tr: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(f, *args, **kwargs):
        f = tr.counting("numerics.count_zeros_rect.f_evals", f)
        try:
            return tr.call("numerics.count_zeros_rect", fn, (f, *args), kwargs)
        except errors.BoundaryZero:
            # the caller nudges the cell and counts again
            tr.counts["numerics.count_zeros_rect.boundary_retries"] += 1
            raise
    return wrapper


def _complex_newton(tr: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(f, df, *args, **kwargs):
        df = tr.counting("numerics.complex_newton.iterations", df)
        return tr.call("numerics.complex_newton", fn, (f, df, *args), kwargs)
    return wrapper


def _adaptive_quad(tr: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(f, *args, **kwargs):
        f = tr.counting("numerics.adaptive_quad.integrand_evals", f)
        return tr.call("numerics.adaptive_quad", fn, (f, *args), kwargs)
    return wrapper


def _simulate(tr: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        grid = tr.call("mb_oracle.simulate", fn, args, kwargs)
        tr.counts["mb_oracle.simulate.node_updates"] += grid.nt * (grid.nx + 1)
        tr.counts["mb_oracle.simulate.grid_nodes"] += \
            (grid.nt + 1) * (grid.nx + 1)
        return grid
    return wrapper


def _save_binary(tr: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(self, path):
        result = tr.call("mb_oracle.save_binary", fn, (self, path), {})
        tr.counts["mb_oracle.save_binary.bytes"] += \
            32 + 40 * (self.nt + 1) * (self.nx + 1)
        return result
    return wrapper


def _plain(tr, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tr.call(name, fn, args, kwargs)
    return wrapper


@contextmanager
def installed(tr: Tracer):
    """Patch every traced name for the duration of the block."""
    patches = [(o, a, _plain(tr, n, getattr(o, a))) for o, a, n in _PLAIN]
    patches += [(o, a, tr.counting(f"{n}.calls", getattr(o, a)))
                for o, a, n in _COUNTED]
    SD = scattering.ScatteringData
    patches += [
        (SD, "ab_many", _ab_many(tr, SD.ab_many)),
        (SD, "_build_cache", _build_cache(tr, SD._build_cache)),
        (SD, "r_real", _r_real(tr, SD.r_real)),
        (scattering, "ode_advance", _ode_advance(tr, scattering.ode_advance)),
        (soliton_spectrum, "count_zeros_rect",
         _count_zeros_rect(tr, soliton_spectrum.count_zeros_rect)),
        (soliton_spectrum, "complex_newton",
         _complex_newton(tr, soliton_spectrum.complex_newton)),
        (tail_asym, "adaptive_quad",
         _adaptive_quad(tr, tail_asym.adaptive_quad)),
        (mb_oracle, "simulate", _simulate(tr, mb_oracle.simulate)),
        (mb_oracle.SimGrid, "save_binary",
         _save_binary(tr, mb_oracle.SimGrid.save_binary)),
    ]
    saved = [(o, a, o.__dict__[a]) for o, a, _ in patches]
    try:
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        yield tr
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


COMMANDS = ("scatter", "zeros", "asym", "compare", "simulate")

# Every per-layer metric with its unit, in report order.  ".s" is self time.
PER_LAYER = (
    [("scattering.cache_build." + m, u) for m, u in (
        ("s", "s"), ("kpoints_solved", "count"), ("kpoints_kept", "count"),
        ("useful_ratio", "ratio"))]
    + [("scattering.ab_many." + m, u) for m, u in (
        ("calls", "count"), ("kpoints", "count"), ("single_k_calls", "count"),
        ("s", "s"))]
    + [("scattering.ab_and_derivs_many.calls", "count"),
       ("scattering.ab_and_derivs_many.s", "s"),
       ("numerics.ode_advance.calls", "count"),
       ("numerics.ode_advance.rhs_evals", "count"),
       ("numerics.ode_advance.s", "s"),
       ("soliton_spectrum.find_zeros.s", "s"),
       ("soliton_spectrum.find_zeros.single_k_solves", "count"),
       ("soliton_spectrum.default_search_box.s", "s"),
       ("numerics.count_zeros_rect.calls", "count"),
       ("numerics.count_zeros_rect.f_evals", "count"),
       ("numerics.count_zeros_rect.boundary_retries", "count"),
       ("numerics.count_zeros_rect.s", "s"),
       ("numerics.complex_newton.calls", "count"),
       ("numerics.complex_newton.iterations", "count"),
       ("numerics.complex_newton.s", "s"),
       ("numerics.adaptive_quad.calls", "count"),
       ("numerics.adaptive_quad.integrand_evals", "count"),
       ("numerics.adaptive_quad.s", "s"),
       ("scattering.r_real.calls", "count"),
       ("scattering.r_real.s", "s"),
       ("tail_asym.eval_tail.calls", "count"),
       ("tail_asym.eval_tail.ms_p50", "ms"),
       ("tail_asym.eval_tail.ms_hi", "ms"),
       ("tail_asym.eval_tail.hi_pct", "%"),
       ("tail_asym.eval_tail.s", "s"),
       ("tail_asym.soliton_state.calls", "count"),
       ("tail_asym.soliton_state.s", "s"),
       ("scattering.reflection_uhp.calls", "count"),
       ("scattering.reflection_uhp.s", "s"),
       ("scattering.tail_fit.s", "s"),
       ("lightcone_asym.eval_lightcone.calls", "count"),
       ("lightcone_asym.eval_lightcone.ms_p50", "ms"),
       ("lightcone_asym.eval_lightcone.s", "s"),
       ("lightcone_asym.classify.s", "s"),
       ("specfun.bessel_i.calls", "count"),
       ("specfun.gamma_imag.calls", "count"),
       ("mb_oracle.simulate.s", "s"),
       ("mb_oracle.simulate.node_updates", "count"),
       ("mb_oracle.simulate.node_updates_per_s", "1/s"),
       ("mb_oracle.simulate.grid_mb", "MB-computed"),
       ("mb_oracle.probe.calls", "count"),
       ("mb_oracle.probe.us_per_call", "us"),
       ("mb_oracle.save_binary.s", "s"),
       ("mb_oracle.save_binary.mb", "MB"),
       ("mb_oracle.save_binary.mb_per_s", "MB/s")]
    + [(f"cli.{c}.s", "s") for c in COMMANDS]
    + [("cli.output_mb", "MB"),
       ("trace.spans", "count"),
       ("trace.overhead_s", "s"),
       ("trace.overhead_pct", "%")]
)


def high_percentile(samples) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; the median when there are fewer than twenty."""
    xs = sorted(samples)
    if not xs:
        return 0.0, 50.0
    pct = max(50.0, 100.0 * (1.0 - 10.0 / len(xs)))
    return float(np.percentile(xs, pct)), pct


def layer_metrics(tr: Tracer, plain_s: float, traced_s: float,
                  output_bytes: int) -> dict[str, float]:
    """Every PER_LAYER value from one traced round.

    ``plain_s`` and ``traced_s`` are the summed command times of an
    untraced and the traced round; ``cli.<command>.s`` is a command's wall
    time (its span is the root, so self time would hide its children).
    """
    c, self_s = tr.counts, tr.self_s
    values = {}
    for name, _ in PER_LAYER:
        layer, _, what = name.rpartition(".")
        values[name] = self_s.get(layer, 0.0) if what == "s" else c[name]
    for cmd in COMMANDS:
        values[f"cli.{cmd}.s"] = sum(tr.span_durations(f"cli.{cmd}"))
    solved = c["scattering.cache_build.kpoints_solved"]
    values["scattering.cache_build.useful_ratio"] = (
        c["scattering.cache_build.kpoints_kept"] / solved if solved else 0.0)
    for layer in ("tail_asym.eval_tail", "lightcone_asym.eval_lightcone"):
        ms = [1e3 * d for d in tr.span_durations(layer)]
        values[f"{layer}.ms_p50"] = float(np.median(ms)) if ms else 0.0
    hi, pct = high_percentile(1e3 * d for d in
                              tr.span_durations("tail_asym.eval_tail"))
    values["tail_asym.eval_tail.ms_hi"] = hi
    values["tail_asym.eval_tail.hi_pct"] = pct
    sim_s = self_s.get("mb_oracle.simulate", 0.0)
    updates = c["mb_oracle.simulate.node_updates"]
    values["mb_oracle.simulate.node_updates_per_s"] = \
        updates / sim_s if sim_s else 0.0
    values["mb_oracle.simulate.grid_mb"] = \
        _BYTES_PER_NODE * c["mb_oracle.simulate.grid_nodes"] / 1e6
    probes = c["mb_oracle.probe.calls"]
    values["mb_oracle.probe.us_per_call"] = \
        1e6 * self_s.get("mb_oracle.probe", 0.0) / probes if probes else 0.0
    dump_mb = c["mb_oracle.save_binary.bytes"] / 1e6
    dump_s = self_s.get("mb_oracle.save_binary", 0.0)
    values["mb_oracle.save_binary.mb"] = dump_mb
    values["mb_oracle.save_binary.mb_per_s"] = dump_mb / dump_s if dump_s else 0.0
    values["cli.output_mb"] = output_bytes / 1e6
    values["trace.spans"] = len(tr.spans)
    values["trace.overhead_s"] = traced_s - plain_s
    values["trace.overhead_pct"] = 100.0 * (traced_s - plain_s) / plain_s
    return values
