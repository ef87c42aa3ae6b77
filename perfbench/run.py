"""Benchmark of the mbamp pipeline through its command-line interface.

    python3 perfbench/run.py --workload box52 --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout.  One process runs one workload: a
closed loop with a single caller that invokes ``mbamp.cli.main(argv)``
in-process, command after command, on configs generated from ``--seed``.
Every output is checked; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics: the set-up time (median of
several fresh processes that import mbamp and write the configs), each
command's median wall time over rounds of the whole pipeline in units of the
reference kernel timed before and during it (``reference.py``), and peak RSS.
``--trace 1`` runs one untraced and one traced pass of the pipeline and
reports the per-layer metrics of ``tracing.PER_LAYER``; the spans go to
``.bench_out/spans-<workload>-seed<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROCESSES = 7
MIN_ROUNDS = 2
SAMPLE_INTERVAL = 0.2             # seconds between reference-kernel samples
REFERENCE_WARMUP = 20

END_TO_END = (
    ("setup_s", "s"),
    ("pipeline_ref", "ref"),
    ("scatter_ref", "ref"),
    ("zeros_ref", "ref"),
    ("asym_ref", "ref"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", metavar="DIR", default=None,
                   help=argparse.SUPPRESS)   # child process of the set-up timing
    return p.parse_args(argv)


class Runner:
    """Invokes the workload's commands and checks every output."""

    def __init__(self, workload, plan, work: Path):
        self.workload = workload
        self.plan = plan
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.digests: dict[int, dict] = {}

    def invoke(self, index: int, tracer=None) -> tuple[float, float]:
        """Runs one command and checks its output; returns the start time
        (``time.perf_counter``) and wall time of the command."""
        from mbamp import cli
        from checks import check_output, digest

        entry = self.plan[index]
        out = self.work / "out" / str(index)
        argv = [*entry["argv"], "--out", str(out)]
        problems = []
        start = time.perf_counter()
        try:
            if tracer is None:
                rc = cli.main(argv)
            else:
                tracer.command = entry["command"]
                rc = tracer.call(f"cli.{entry['command']}", cli.main, (argv,), {})
        except Exception:
            rc = None
            problems.append(traceback.format_exc())
        elapsed = time.perf_counter() - start
        self.attempted += 1
        if rc == 0:
            try:
                problems += check_output(entry["command"], out, entry["step"],
                                         self.workload.pulse, entry["grid"])
                got = digest(out)
                want = self.digests.setdefault(index, got)
                if got != want:
                    problems.append(f"{entry['command']}: a repeat wrote "
                                    "different bytes")
            except Exception:
                problems.append(traceback.format_exc())
        elif rc is not None:
            problems.append(f"{entry['command']}: exit code {rc}")
        if problems:
            self.failed += 1
            print(f"FAILED {' '.join(argv)}", file=sys.stderr)
            for problem in problems:
                print(f"  {problem}", file=sys.stderr)
        return start, elapsed

    def round(self, tracer=None, passes=None,
              before=None) -> list[tuple[str, float, float]]:
        """The pipeline once, then again for the commands that repeat, so
        the samples of each command spread over the round.  Returns each
        invocation's command, start and wall time, in order; ``before`` is
        called before every invocation."""
        times = []
        if passes is None:
            passes = max(entry["step"].reps for entry in self.plan)
        for rep in range(passes):
            for index, entry in enumerate(self.plan):
                if rep < entry["step"].reps:
                    if before is not None:
                        before()
                    times.append((entry["command"],
                                  *self.invoke(index, tracer)))
        return times

    def output_bytes(self) -> int:
        return sum(p.stat().st_size for p in (self.work / "out").rglob("*")
                   if p.is_file())


def environment() -> dict:
    import platform

    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {k: os.environ.get(k, "unset") for k in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "MBAMP_THREADS": "unset",
            "blas": f"{blas.get('name')} {blas.get('version')}", **threads}


def measure_setup(args, work: Path) -> list[float]:
    """Wall time of fresh processes that import mbamp and write the configs."""
    env = {k: v for k, v in os.environ.items() if k != "MBAMP_THREADS"}
    samples = []
    for i in range(SETUP_PROCESSES):
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--setup-probe", str(work / f"setup{i}")]
        start = time.perf_counter()
        subprocess.run(cmd, check=True, env=env, cwd=ROOT,
                       stdout=subprocess.DEVNULL, timeout=120)
        samples.append(time.perf_counter() - start)
    return samples


def untraced(runner: Runner, seconds: float, setup: list[float]):
    """Rounds of the pipeline for ``seconds`` while the reference kernel is
    timed every ``SAMPLE_INTERVAL`` seconds and before every command.  A
    command's sample is its wall time, less the kernel's time inside it,
    over the mean kernel time around it."""
    from reference import Sampler

    sampler = Sampler(SAMPLE_INTERVAL)
    for _ in range(REFERENCE_WARMUP):
        sampler.sample()
    sampler.samples.clear()
    calls: list[tuple[str, float, float]] = []
    with sampler:
        start = time.perf_counter()
        rounds = 0
        while True:
            calls += runner.round(before=sampler.sample)
            rounds += 1
            elapsed = time.perf_counter() - start
            # stop when another round would end after the measuring time
            if (rounds >= MIN_ROUNDS
                    and elapsed * (rounds + 1) / rounds > seconds):
                break
        sampler.sample()
    wall = defaultdict(list)
    ratio = defaultdict(list)
    for command, begin, took in calls:
        end = begin + took
        net = took - sampler.busy(begin, end)
        wall[command].append(net)
        ratio[command].append(net / sampler.speed(begin, end))
    medians = {c: statistics.median(rs) for c, rs in ratio.items()}
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "setup_s": (statistics.median(setup), len(setup)),
        "pipeline_ref": (sum(medians.values()), rounds),  # one of each command
        "scatter_ref": (medians["scatter"], len(ratio["scatter"])),
        "zeros_ref": (medians["zeros"], len(ratio["zeros"])),
        "asym_ref": (medians["asym"], len(ratio["asym"])),
        "peak_rss_mb": (peak, 1),
    }
    print(f"{'metric':<14}{'unit':>6}{'median':>12}{'samples':>9}")
    for name, unit in END_TO_END:
        value, n = values[name]
        print(f"{name:<14}{unit:>6}{value:>12.4f}{n:>9}")
    kernel = [d * 1e3 for _, d in sampler.samples]
    q1, _, q3 = statistics.quantiles(kernel, n=4)
    print(f"reference kernel: median {statistics.median(kernel):.2f} ms, "
          f"quartiles {q1:.2f} {q3:.2f} ms, {len(kernel)} samples")
    for command, ts in wall.items():
        print(f"  {command:<10} median {statistics.median(ts):8.3f} s "
              f"{medians[command]:9.1f} ref; ref: "
              + " ".join(f"{r:.1f}" for r in ratio[command]))
    return {name: {"value": values[name][0], "unit": unit}
            for name, unit in END_TO_END}


def traced(runner: Runner, args):
    from tracing import PER_LAYER, Tracer, installed, layer_metrics

    plain = sum(t for _, _, t in runner.round(passes=1))
    tracer = Tracer()
    with installed(tracer):
        traced_s = sum(t for _, _, t in runner.round(tracer, passes=1))
    spans = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans)
    values = layer_metrics(tracer, plain, traced_s, runner.output_bytes())
    for name, unit in PER_LAYER:
        print(f"{name:<46}{unit:>12}{values[name]:>16.6g}")
    for command, layers in tracer.self_by_command().items():
        top = ", ".join(f"{n} {s:.3f}s" for n, s in layers.most_common(4)
                        if not n.startswith("cli."))
        print(f"top self time in {command}: {top}")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mbamp" / "cli.py").is_file():
        print(f"error: no mbamp sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("MBAMP_THREADS", None)
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS, make_inputs

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        import mbamp.cli  # noqa: F401  (the import is what set-up pays for)
        make_inputs(workload, args.seed, Path(args.setup_probe))
        return 0

    work = ROOT / ".bench_out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup = measure_setup(args, work) if not args.trace else []
        runner = Runner(workload, make_inputs(workload, args.seed,
                                              work / "cfg"), work)
        print(f"environment: {json.dumps(environment(), sort_keys=True)}")
        runner.invoke(0)                      # warm-up, checked, not timed
        if args.trace:
            metrics = traced(runner, args)
        else:
            metrics = untraced(runner, args.seconds, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": runner.failed == 0,
                      "attempted": runner.attempted,
                      "failed": runner.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
