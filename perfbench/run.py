"""Run one benchmark workload and print its metrics as a JSON line.

    python3 perfbench/run.py --workload synth_scale --seed 1 --seconds 15 \\
        --trace 0

Builds the library from ``src/`` of the checkout this file sits in (there is
nothing to compile), then:

1. times ``SETUP_REPEATS`` fresh-process set-ups (import the library, build
   the job list, load the answers) and reports their median as ``setup_s``;
2. runs the checker's self-tests and one untimed warm-up pass;
3. runs whole passes over the job list, each in an order shuffled from
   ``--seed``, until ``--seconds`` are used, checking every output against
   ``answers/<workload>.json``.

With ``--trace 0`` the end-to-end metrics of ``BENCHMARK.json`` are
reported.  With ``--trace 1`` half the time runs untraced and the same
passes then run again traced (see :mod:`layers`), and the per-layer
metrics are reported.  The last line of standard output is the result
object; diagnostics go to standard error.

Times are reported at a fixed reference CPU speed.  On a shared host the
speed of a core drifts by tens of percent within seconds, so a short,
fixed calibration kernel runs between consecutive jobs (and around each
set-up), and every interval is scaled by ``CALIBRATION_REF_S`` over the
mean of the kernel times measured on either side of it.  A second at
reference speed is therefore a wall-clock second on a host where the
kernel takes ``CALIBRATION_REF_S``; the traced run reports the measured
kernel time as ``host.calibration_ms``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, Iterator, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Fresh-process set-ups per run; their median is ``setup_s``.
SETUP_REPEATS = 7

#: Kernel time that defines the reference CPU speed.
CALIBRATION_REF_S = 0.003


def _calibration_kernel() -> int:
    """Fixed interpreter work of the library's kind: tuple keys, dict
    updates and small sets."""
    counts: Dict[tuple, int] = {}
    for i in range(6000):
        key = (i & 255, i >> 3)
        counts[key] = counts.get(key, 0) + 1
        if len({i, i ^ 5, i | 3}) > 2:
            counts[key] += 1
    return len(counts)


def calibrate() -> float:
    """Seconds the calibration kernel takes right now.

    The cyclic garbage collector is collected first and paused during the
    kernel, so that a collection of the jobs' garbage never lands in it;
    this also starts every job from a collected heap, as in a fresh
    process.
    """
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _calibration_kernel()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def _import_library() -> None:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit("error: no repro package under %s" % SRC)
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit("error: imported repro from %s, not from %s"
                         % (repro.__file__, SRC))


def _setup_seconds(workload: str) -> float:
    """Median time, at reference speed, of fresh processes that only set
    up."""
    times = []
    before = calibrate()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, os.path.abspath(__file__),
                        "--setup-only", "--workload", workload],
                       check=True, stdout=subprocess.DEVNULL)
        elapsed = time.perf_counter() - t0
        after = calibrate()
        times.append(elapsed * 2 * CALIBRATION_REF_S / (before + after))
        before = after
    return statistics.median(times)


def _cpu_s() -> float:
    """CPU seconds of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _nearest_rank(values: List[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Phase:
    """Whole passes over the job list, timed job by job and checked.

    ``job_s`` / ``cpu_s`` hold each job's wall and CPU time scaled to
    reference speed; ``calibrations`` the raw kernel times.
    """

    def __init__(self, tally, run: Callable):
        self.tally = tally
        self.run = run
        self.orders: List[list] = []
        self.job_s: List[float] = []
        self.cpu_s: List[float] = []
        self.calibrations: List[float] = []
        self.literals = 0
        self.gates = 0

    def one_pass(self, order: list) -> float:
        started = time.perf_counter()
        before = calibrate()
        for job in order:
            cpu0 = _cpu_s()
            t0 = time.perf_counter()
            output, error = None, ""
            try:
                output = self.run(job)
            except Exception as exc:  # a failed job is a result, not a crash
                error = repr(exc)
            elapsed = time.perf_counter() - t0
            cpu = _cpu_s() - cpu0
            after = calibrate()
            scale = 2 * CALIBRATION_REF_S / (before + after)
            self.job_s.append(elapsed * scale)
            self.cpu_s.append(cpu * scale)
            self.calibrations.append(after)
            before = after
            self.tally.record(job.id, output, error)
            if output is not None:
                self.literals += output.get("literals", 0)
                self.gates += output.get("gates", 0)
        self.orders.append(order)
        return time.perf_counter() - started

    def until(self, orders: Iterator[list], seconds: float) -> "Phase":
        """Run passes until less than half a pass of ``seconds`` is left."""
        started = time.perf_counter()
        while True:
            last = self.one_pass(next(orders))
            if time.perf_counter() - started + last / 2 >= seconds:
                return self


def _run(job) -> dict:
    return job.run()


def _result(tally, metrics: Dict[str, float], declared: List[dict]) -> dict:
    return {"correct": tally.correct, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {m["name"]: {"value": metrics[m["name"]],
                                    "unit": m["unit"]} for m in declared}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_library()
    import checker
    import layers
    import selftest
    import workloads

    if args.setup_only:
        workloads.setup(args.workload)
        return 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    setup_s = 0.0 if args.trace else _setup_seconds(args.workload)
    jobs, answers = workloads.setup(args.workload)
    selftest_failures = selftest.run()
    tally = checker.Tally(answers)
    orders = workloads.pass_orders(jobs, args.seed)
    for job in next(orders):  # warm-up: lazy imports, engine caches
        try:
            job.run()
        except Exception:  # recorded when the measured passes repeat it
            pass

    if args.trace:
        untraced = Phase(tally, _run).until(orders, args.seconds / 2)
        passes = len(untraced.orders)
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        with layers.Tracer() as tracer:
            traced = Phase(tally, tracer.run_job)
            for order in untraced.orders:
                traced.one_pass(order)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        calibration = statistics.median(traced.calibrations)
        scale = CALIBRATION_REF_S / calibration
        metrics = tracer.metrics(passes, scale)
        metrics.update({
            "obs.trace_overhead_frac":
                sum(traced.job_s) / sum(untraced.job_s) - 1.0,
            "portfolio.worker_cpu_s":
                round(after.ru_utime + after.ru_stime - children.ru_utime
                      - children.ru_stime, 6) * scale / passes,
            "literals_total": traced.literals / passes,
            "gates_total": traced.gates / passes,
            "host.calibration_ms": calibration * 1000.0,
            "job_p50_s": _nearest_rank(untraced.job_s, 0.5),
            "job_p90_s": _nearest_rank(untraced.job_s, 0.9),
        })
        result = _result(tally, metrics, declared["per_layer"])
    else:
        timed = Phase(tally, _run).until(orders, args.seconds)
        passes = len(timed.orders)
        metrics = {
            "setup_s": setup_s,
            "jobs_per_s": len(timed.job_s) / sum(timed.job_s),
            "cpu_s_per_job": sum(timed.cpu_s) / len(timed.cpu_s),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": (tally.attempted - tally.failed) / tally.attempted,
        }
        result = _result(tally, metrics, declared["end_to_end"])

    if selftest_failures:
        result["correct"] = False
        print("checker self-test failed: %s" % "; ".join(selftest_failures),
              file=sys.stderr)
    if tally.first_error:
        print("first unexpected failure: %s" % tally.first_error,
              file=sys.stderr)
    print("%s: %d passes, %d jobs, %d failed"
          % (args.workload, passes, tally.attempted, tally.failed),
          file=sys.stderr)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
