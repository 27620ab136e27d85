"""Running one CLI job under a time limit, and the statistics of a run."""

from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib
import io
import math
import os
import platform
import resource
import signal
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter, process_time

from perfbench.checks import series_product

TAIL_BEYOND = 10


class JobTimeout(Exception):
    """A job ran past its wall-clock limit."""


def _on_alarm(signum, frame):
    raise JobTimeout


@dataclass
class JobResult:
    stdout: str
    seconds: float  # CPU time of this process
    wall_s: float
    error: str | None = None


def run_job(cli, argv, limit_s):
    """Call ``cli.main(argv)`` in this thread with stdout and stderr captured.

    ``cli.main`` is looked up on every call, so a traced wrapper installed
    on the module is what runs.  The limit is a one-shot SIGALRM timer, so
    this must run in the main thread.

    The job's time is the CPU time of this process (user and system) while
    it runs, so time spent descheduled on a shared machine is left out; a
    job runs in one thread and does no I/O, so that is all the time it
    needs.  Its wall time is kept beside it.
    """
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    start, wall_start = process_time(), perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, limit_s)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(argv))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except JobTimeout:
        error = "timed out after %.1f s" % limit_s
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a failing job is counted, the run goes on
        error = "%s: %s" % (type(exc).__name__, exc)
    finally:
        seconds, wall_s = process_time() - start, perf_counter() - wall_start
        signal.signal(signal.SIGALRM, previous)
    if error is None and code != 0:
        error = "exit code %r: %s" % (code, err.getvalue().strip()[-300:])
    return JobResult(out.getvalue(), seconds, wall_s, error)


def quantile(samples, fraction):
    """Harrell-Davis estimate of the ``fraction`` quantile.

    A mean of all order statistics, the k-th of n weighted by the
    probability that a Beta(f (n + 1), (1 - f) (n + 1)) variable falls in
    ((k - 1) / n, k / n), here by the midpoint rule.  Job sizes within a
    workload differ many-fold, so a single order statistic jumps whenever
    noise swaps the jobs next to it; the weighted mean moves only a
    little.  ``baseline.json`` compares the two over the baseline runs.
    """
    ordered = sorted(samples)
    n = len(ordered)
    a, b = fraction * (n + 1), (1.0 - fraction) * (n + 1)
    # the Beta density's constant keeps its values near 1 for any n
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 64
    total = weights = 0.0
    for k, x in enumerate(ordered):
        weight = 0.0
        for j in range(steps):
            t = (k + (j + 0.5) / steps) / n
            weight += math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
        total += weight * x
        weights += weight
    return total / weights


def tail_fraction(jobs):
    """The highest quantile that leaves ten samples beyond it among ``jobs``.

    Among ``jobs`` samples the value of rank k is the k/jobs quantile and
    has jobs - k samples above it, so the rank is jobs - 10.  With
    ``jobs`` the least number a run holds, the quantile stays the same
    however many more a faster program fits into a run, and it always
    leaves at least ten samples beyond it.
    """
    if jobs <= 2 * TAIL_BEYOND:
        raise ValueError("a tail above the median needs more than %d jobs, got %d"
                         % (2 * TAIL_BEYOND, jobs))
    return (jobs - TAIL_BEYOND) / jobs


def peak_rss_mib():
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setup(src):
    """Import hilbseries and build its three surfaces; return the CPU seconds
    taken and the CLI module.

    The package is dropped from ``sys.modules`` first, so the import pays
    the module execution and the surfaces' localized self-validation
    again.  Modules imported before stay usable by whoever holds them.
    """
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "hilbseries" or m.startswith("hilbseries.")]:
        del sys.modules[name]
    # start from a heap without the garbage of an earlier import
    gc.collect()
    start = process_time()
    cli = importlib.import_module("hilbseries.cli")
    localization = importlib.import_module("hilbseries.localization")
    for name in ("p2", "p1xp1", "f1"):
        localization.get_surface(name)
    seconds = process_time() - start
    loaded = Path(cli.__file__).resolve()
    if Path(src).resolve() not in loaded.parents:
        raise ImportError("hilbseries was imported from %s, not from %s" % (loaded, src))
    return seconds, cli


# The probe is a fixed product of two exact series, the kind of arithmetic
# the jobs do.  PROBE_REF_S is about its mean CPU time on the machine the
# committed baseline was taken on (2-core shared VM, Python 3.11.7).
PROBE_A = [Fraction(k + 1, 2 * k + 3) for k in range(64)]
PROBE_B = [Fraction(3 - k, k + 5) for k in range(64)]
PROBE_REF_S = 0.010
PROBE_WINDOW = 4


def probe_s():
    """CPU time of one run of the probe."""
    start = process_time()
    series_product(PROBE_A, PROBE_B, len(PROBE_A) - 1)
    return process_time() - start


def speed_factors(probes):
    """For each probe, the factor that turns CPU times taken beside it into
    times at the reference speed.

    A shared machine's speed drifts by a quarter and more, over seconds
    and over minutes, and CPU time does not leave that out.  A probe timed
    after every job slows down with it, so the mean of the probes within
    PROBE_WINDOW of a job tells the speed the job ran at.
    """
    factors = []
    for i in range(len(probes)):
        near = probes[max(i - PROBE_WINDOW, 0):i + PROBE_WINDOW + 1]
        factors.append(PROBE_REF_S * len(near) / sum(near))
    return factors


def calibration(iterations=2_000_000):
    """Wall and CPU time of a fixed pure-Python loop, to show the machine's state."""
    start, cpu_start = perf_counter(), process_time()
    acc = 0
    for i in range(iterations):
        acc = (acc + i * i) % 1_000_003
    return {"calibration_s": perf_counter() - start,
            "calibration_cpu_s": process_time() - cpu_start}


def _commit(root):
    """The checked-out commit, read from ``.git`` without running git."""
    git = Path(root) / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def _source_sha256(src):
    digest = hashlib.sha256()
    for path in sorted(Path(src).rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def machine_snapshot():
    return {"loadavg": list(os.getloadavg()), **calibration()}


def machine_info(root, src):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": _commit(root),
        "source_sha256": _source_sha256(src),
    }
