"""Benchmark of the hilbseries command line: one seeded workload per run.

    python3 perfbench/run.py --workload extract --seed 1 --seconds 15 --trace 0

Every job is one in-process call of ``hilbseries.cli.main(argv)`` with
stdout captured: a closed loop of one client in one thread.  The run
imports the package from ``src/``, then runs whole blocks of the
workload's seeded stream until ``--seconds`` have passed, and at least
the workload's least number of blocks.  The import is timed again
between jobs (``setup_s``).  Outputs are checked against independent
references after the timed region.

Times are CPU times of this process, which leave out the time it spends
descheduled on a shared machine, rescaled to a reference speed by a
fixed probe timed after every job (``measure.speed_factors``).  The raw
CPU and wall times are in the details line.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
With ``--trace 1`` the run instead replays the stream's first block
untraced, then traced, and reports the per-layer metrics of the traced
pass; both passes must print the same bytes.  The line before the last
holds the run's details: machine, tail percentile, failures.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(ROOT))

from perfbench import checks, measure, spans, workloads  # noqa: E402

JOB_LIMIT_S = 60.0
RECHECKED_JOBS = 2


class Run:
    """Jobs attempted in one run and what became of them."""

    def __init__(self, cli, catalog):
        self.cli = cli
        self.catalog = catalog
        self.jobs = []  # (argv, JobResult)
        self.failures = []

    def execute(self, argv, before=None):
        if before is not None:
            before()
        result = measure.run_job(self.cli, argv, JOB_LIMIT_S)
        self.jobs.append((argv, result))
        return result

    def check(self, argv, result):
        """Reference-check one job; False, and the reason recorded, if it failed."""
        reason = result.error or checks.check(argv, result.stdout, self.catalog)
        if reason is not None:
            self.fail(argv, reason)
        return reason is None

    def fail(self, argv, reason):
        self.failures.append({"argv": argv, "reason": reason})


def timed_run(run, stream, seconds, min_blocks, setup=None):
    """Run whole blocks until ``seconds`` have passed and ``min_blocks`` ran.

    The probe is timed after every job, and so is ``setup``, when given; it
    returns the CPU seconds of one set-up.  Its timings thus span the run
    rather than one moment of a shared machine.
    """
    start = perf_counter()
    blocks = 0
    probes = []
    setups = []  # (index of the job before it, CPU seconds)
    while blocks < min_blocks or perf_counter() - start < seconds:
        block = next(stream)
        for argv in block:
            run.execute(argv)
            probes.append(measure.probe_s())
            if setup is not None:
                setups.append((len(probes) - 1, setup()))
        blocks += 1
    rss = measure.peak_rss_mib()
    timed = list(run.jobs)
    passed = [run.check(argv, result) for argv, result in timed]
    # identical argv must print identical bytes: rerun the quickest jobs
    quickest = sorted(timed, key=lambda pair: pair[1].seconds)[:RECHECKED_JOBS]
    for argv, first in quickest:
        again = run.execute(argv)
        if again.stdout != first.stdout:
            run.fail(argv, "a second run of the same argv printed different bytes")
    ok = sum(passed)
    speed = measure.speed_factors(probes)
    busy_s = sum(factor * result.seconds for factor, (_, result) in zip(speed, timed))
    # a failed job counts as missing any latency limit
    latencies = [factor * result.seconds if good else JOB_LIMIT_S
                 for factor, (_, result), good in zip(speed, timed, passed)]
    tail = measure.tail_fraction(len(block) * min_blocks)
    metrics = {}
    if setups:
        metrics["setup_s"] = (statistics.median(speed[i] * s for i, s in setups), "s")
    metrics.update({
        "jobs_per_s": (ok / busy_s, "1/s"),
        "job_p50_s": (measure.quantile(latencies, 0.5), "s"),
        "job_tail_s": (measure.quantile(latencies, tail), "s"),
        "peak_rss_mib": (rss, "MiB"),
    })
    detail = {"blocks": blocks, "timed_jobs": len(timed), "busy_s": busy_s,
              "speed_factor_median": statistics.median(speed),
              "probe_mean_s": sum(probes) / len(probes),
              "setup_samples_cpu_s": [s for _, s in setups],
              "cpu_busy_s": sum(result.seconds for _, result in timed),
              "wall_busy_s": sum(result.wall_s for _, result in timed),
              "failed_ratio": (len(timed) - ok) / len(timed),
              "job_tail_percentile": 100 * tail, "job_tail_samples": len(latencies),
              "job_seconds": latencies}
    return metrics, detail


def traced_run(run, stream):
    block = next(stream)
    untraced = [run.execute(argv) for argv in block]
    tracer = spans.Tracer()
    with spans.installed(tracer):
        traced = [run.execute(argv, before=tracer.begin_job) for argv in block]
    for argv, plain, seen in zip(block, untraced, traced):
        run.check(argv, plain)
        run.check(argv, seen)
        if plain.stdout != seen.stdout:
            run.fail(argv, "tracing changed the printed bytes")
    # spans are timed on the wall clock, so the shares and the overhead are too
    traced_s = sum(result.wall_s for result in traced)
    metrics = spans.layer_metrics(tracer)
    extraction_self = sum(tracer.self_s[name] for name, module, _ in spans.TRACED
                          if module == "hilbseries.extraction")
    metrics["extraction.self_share"] = (extraction_self / traced_s, "ratio")
    metrics["cli.self_share"] = (tracer.self_s["cli.main"] / traced_s, "ratio")
    metrics["cli.stdout_bytes"] = (sum(len(result.stdout.encode()) for result in traced),
                                   "count")
    metrics["trace.overhead_ratio"] = (
        traced_s / sum(result.wall_s for result in untraced), "ratio")
    return metrics, {"block_jobs": len(block), "traced_s": traced_s}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "hilbseries" / "__init__.py").is_file():
        print("perfbench: no hilbseries sources under %s" % SRC, file=sys.stderr)
        return 2
    before = measure.machine_snapshot()
    cli = measure.timed_setup(SRC)[1]
    run = Run(cli, sys.modules["hilbseries.catalog"])
    stream = workloads.blocks(args.workload, args.seed)
    if args.trace:
        metrics, detail = traced_run(run, stream)
    else:
        def setup():
            # the jobs keep the modules they were given: ``run`` holds them
            return measure.timed_setup(SRC)[0]

        metrics, detail = timed_run(run, stream, args.seconds,
                                    workloads.MIN_BLOCKS[args.workload], setup)
    detail.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace,
                  machine=measure.machine_info(ROOT, SRC), machine_start=before,
                  machine_end=measure.machine_snapshot(), failures=run.failures[:20])
    failed = len({tuple(item["argv"]) for item in run.failures})
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": not run.failures,
        "attempted": len(run.jobs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
