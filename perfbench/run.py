#!/usr/bin/env python3
"""pipeopt benchmark: run one seeded workload in one single-threaded process.

    python3 perfbench/run.py --workload welfare --seed 1 --seconds 28 --trace 0

Workloads: welfare, maximin, exante, oracle (see README.md for why each is
here).  A pass solves every job of the workload once; passes repeat until
--seconds have elapsed, after one untimed warm-up pass.  Every output is
checked outside the timed region.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
passes with traced ones, which record spans around the calls into each
pipeopt module, and prints the per-layer metrics, including the tracing
overhead (traced minus untraced median pass time).

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it are for people.
"""

import os

# Single-threaded BLAS; must be set before numpy is imported.
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 2      # fresh-interpreter set-ups, besides this process's own
TAIL_BEYOND = 10      # samples the tail percentile must leave above it
MIN_PASSES = 12       # a run measures at least this many passes


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("welfare", "maximin", "exante", "oracle"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment_stamp() -> str:
    import numpy
    import scipy
    blas = ",".join(f"{v}={os.environ[v]}" for v in BLAS_VARS)
    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy.__version__} scipy={scipy.__version__} "
            f"blas_threads={blas} cpu={cpu_model()!r}")


def setup_probe(workload: str, seed: int) -> float:
    """One set-up in a fresh interpreter, as timed by that interpreter."""
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def tail(times):
    """(value, percentile, n): the highest percentile with TAIL_BEYOND samples above."""
    ordered = sorted(times)
    n = len(ordered)
    k = n - TAIL_BEYOND - 1  # n >= MIN_PASSES > TAIL_BEYOND
    return ordered[k], 100.0 * (k + 1) / n, n


class Runner:
    """Runs passes, checks every output and keeps the tallies."""

    def __init__(self, jobs_mod, jobs, reference):
        self.jm = jobs_mod
        self.jobs = jobs
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.ratios = []
        self.gap = 0.0
        self.reported = set()
        self.last_outcomes = []

    def one_pass(self, tracer=None) -> float:
        outcomes = []
        if tracer is not None:
            tracer.install()
        t0 = time.perf_counter()
        for job in self.jobs:
            try:
                outcomes.append(self.jm.run_job(job))
            except Exception as exc:  # a failed job is counted, not fatal
                outcomes.append(exc)
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.restore()
            tracer.tracer.fold()
        self._check(outcomes)
        return elapsed

    def _check(self, outcomes):
        good = []
        for job, out in zip(self.jobs, outcomes):
            self.attempted += 1
            if isinstance(out, Exception):
                problems = ["".join(traceback.format_exception(out)).rstrip()]
            else:
                problems = self.jm.check(job, out, self.reference)
                ref = self.reference[job.key]
                self.gap = max(self.gap, ref - out.objective)
                self.ratios.append(out.objective / ref)
                good.append((job.kind, out))
            if problems:
                self.failed += 1
                if job.key not in self.reported:
                    self.reported.add(job.key)
                    print(f"FAILED {job.key}:\n  " + "\n  ".join(problems),
                          file=sys.stderr)
        self.last_outcomes = good

    def passes_until(self, deadline: float, tracer=None) -> tuple:
        """Timed passes until the deadline: (untraced times, traced times).

        With a tracer, traced and untraced passes alternate, so both see
        the same share of the host's slow and fast periods.
        """
        times, traced = [], []
        while len(times) < MIN_PASSES or time.perf_counter() < deadline:
            times.append(self.one_pass())
            if tracer is not None:
                traced.append(self.one_pass(tracer))
        return times, traced


def main(argv=None) -> int:
    args = parse_args(argv)
    start = time.perf_counter()
    try:
        import jobs as jm  # imports pipeopt: part of the set-up time
    except ImportError as exc:
        print(f"cannot import the benchmark's program: {exc}", file=sys.stderr)
        return 2
    traced = None
    if args.trace:
        from layers import LayerTrace, per_layer_metrics
        from tracer import Tracer
        traced = LayerTrace(Tracer())
        traced.install()  # set-up is traced too, for serialize.s
    reference = jm.load_reference()
    pairs = jm.draw(args.workload, args.seed)
    jobs, setup_problems = jm.make_jobs(pairs)
    setup_s = [time.perf_counter() - start]
    if traced is not None:
        traced.restore()
        traced.tracer.fold()
    print(f"# {environment_stamp()}")
    print(f"# workload={args.workload} seed={args.seed} jobs={len(jobs)} "
          f"trace={args.trace} instance seeds="
          + " ".join(f"{s.kind}:{seed}" for s, seed in pairs))

    runner = Runner(jm, jobs, reference)
    for problem in setup_problems:
        runner.attempted += 1
        runner.failed += 1
        print(f"FAILED set-up: {problem}", file=sys.stderr)
    runner.one_pass()  # warm-up: checked, not timed
    times, traced_times = runner.passes_until(time.perf_counter() + args.seconds, traced)
    if traced is None:
        setup_s += [setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    p50 = statistics.median(times)
    tail_s, tail_pct, n = tail(times)
    print(f"# passes={n} (after 1 warm-up) attempted={runner.attempted} "
          f"failed={runner.failed} quality.gap={runner.gap:.3g} "
          f"wall_s.tail=p{tail_pct:.1f} of {n} passes")

    if traced is None:
        metrics = {
            "wall_s.p50": (p50, "s"),
            "wall_s.tail": (tail_s, "s"),
            "setup_s": (statistics.median(setup_s), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "quality.objective_ratio": (min(runner.ratios, default=0.0), "ratio"),
            "ok_frac": (1.0 - runner.failed / max(runner.attempted, 1), "ratio"),
        }
    else:
        metrics = per_layer_metrics(traced, len(traced_times), runner.last_outcomes,
                                    statistics.median(traced_times), p50)
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
