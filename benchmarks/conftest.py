"""Shared helpers for the benchmark suite.

Every benchmark regenerates one artifact of the paper (a figure or an
in-text table), asserts that its *shape* matches what the paper reports,
and times the computation with pytest-benchmark.  EXPERIMENTS.md records
the paper-vs-measured comparison for each.

A timed run additionally writes one ``BENCH_<suite>.json`` per
benchmarked module (schema ``repro-bench/2``, see
:mod:`repro.obs.schema`) next to the invocation directory — the
machine-readable counterpart of pytest-benchmark's terminal table, the
artifact CI uploads per run, and the input of ``repro obs regress``.
Each document carries a ``meta`` block (git commit, UTC timestamp,
python and platform strings) so a report can always be traced back to
the code and machine that produced it.  The files are gitignored; a
``--benchmark-disable`` smoke pass records no timings and writes
nothing.
"""

import datetime
import json
import math
import os
import platform as _platform
import subprocess
import time

import pytest


def _bench_meta():
    """The provenance block of a ``repro-bench/2`` document."""
    try:
        commit = subprocess.check_output(
            ["git", "rev-parse", "HEAD"], cwd=os.path.dirname(__file__),
            stderr=subprocess.DEVNULL).decode().strip()
    except Exception:
        commit = "unknown"
    return {
        "git_commit": commit,
        "timestamp_utc": datetime.datetime.utcnow().strftime(
            "%Y-%m-%dT%H:%M:%SZ"),
        "python": _platform.python_version(),
        "platform": _platform.platform(),
    }


def pytest_configure(config):
    config.addinivalue_line("markers",
                            "paper(artifact): the paper artifact reproduced")


def pytest_sessionfinish(session, exitstatus):
    """Write per-suite ``BENCH_<suite>.json`` benchmark reports.

    One file per benchmarked test module, named after the module stem,
    each a single ``repro-bench/2`` document: suite name, a ``meta``
    provenance block, plus one row (name, group, mean/stddev seconds,
    rounds) per benchmark, sorted by name so identical runs produce
    byte-stable files (up to ``meta``).  Every document is validated
    against the schema before it is written.  Skipped when no timings
    exist (``--benchmark-disable``, collection errors).
    """
    bench_session = getattr(session.config, "_benchmarksession", None)
    if bench_session is None or not getattr(bench_session, "benchmarks", None):
        return
    suites = {}
    for bench in bench_session.benchmarks:
        stats = getattr(bench, "stats", None)
        if stats is None or not getattr(stats, "rounds", 0):
            continue
        module = bench.fullname.split("::")[0]
        suite = os.path.splitext(os.path.basename(module))[0]
        suites.setdefault(suite, []).append({
            "name": bench.name,
            "group": bench.group,
            "mean_s": stats.mean,
            "stddev_s": stats.stddev,
            "rounds": stats.rounds,
        })
    from repro.obs import validate_bench_report

    meta = _bench_meta()
    for suite, rows in sorted(suites.items()):
        document = {
            "schema": "repro-bench/2",
            "suite": suite,
            "meta": meta,
            "benchmarks": sorted(rows, key=lambda r: r["name"]),
        }
        problems = validate_bench_report(document)
        if problems:
            raise RuntimeError("BENCH_%s.json would be invalid: %s"
                               % (suite, "; ".join(problems)))
        with open("BENCH_%s.json" % suite, "w") as f:
            json.dump(document, f, indent=2, sort_keys=True)
            f.write("\n")


def per_round(benchmark, target, make_args, **kwargs):
    """Time ``target(*make_args(), **kwargs)`` with fresh positional
    arguments every round.

    :func:`repro.ts.builder.explore` memoises a net's graph on the net,
    so a model reused across rounds is explored in the first round only
    and the later rounds would time a memo lookup.  ``make_args`` builds
    a fresh model per round and runs untimed.  The rounds are sized like
    pytest-benchmark's own calibration: at least ``--benchmark-min-rounds``
    and enough for ``--benchmark-max-time`` of timed work, judged from the
    faster of two untimed trials.  A disabled run calls the target once.
    Returns the last round's result.
    """
    def setup():
        return make_args(), kwargs

    if benchmark.disabled:
        return benchmark.pedantic(target, setup=setup)
    trial = math.inf
    for _ in range(2):
        args = make_args()
        start = time.perf_counter()
        target(*args, **kwargs)
        trial = min(trial, time.perf_counter() - start)
    rounds = max(getattr(benchmark, "_min_rounds", 5),
                 math.ceil(getattr(benchmark, "_max_time", 1.0) / trial))
    return benchmark.pedantic(target, setup=setup, rounds=rounds)


PAPER_SIGNAL_ORDER = ["DSr", "DTACK", "LDTACK", "LDS", "D"]
PAPER_GROUPS = [["DSr", "DTACK"], ["LDTACK", "LDS"], ["D"]]
PAPER_ORDER_CSC = ["DSr", "DTACK", "LDTACK", "LDS", "D", "csc0"]

VME_ENV_DELAYS = {
    # a slow bus (DSr) and a moderately fast device (LDTACK):
    # the delay regime the paper's Section 5 assumes when it claims
    # sep(LDTACK-, DSr+) < 0
    "DSr+": (18, 25), "DSr-": (4, 6),
    "DTACK+": (1, 2), "DTACK-": (1, 2),
    "LDS+": (1, 2), "LDS-": (1, 2),
    "LDTACK+": (3, 5), "LDTACK-": (3, 5),
    "D+": (1, 2), "D-": (1, 2),
}


def fig8a_netlist():
    """Figure 8(a): C-element implementation of the READ-cycle control."""
    from repro.synth import Gate, Netlist

    n = Netlist("fig8a", inputs=["DSr", "LDTACK"])
    n.add(Gate.classic_c_element("csc0", "DSr", "LDTACK", invert_b=True))
    n.add(Gate.comb("D", "LDTACK & csc0"))
    n.add(Gate.comb("LDS", "csc0 | D"))
    n.add(Gate.buffer("DTACK", "D"))
    return n


def fig8b_netlist():
    """Figure 8(b): reset-dominant RS-latch implementation."""
    from repro.synth import Gate, Netlist

    n = Netlist("fig8b", inputs=["DSr", "LDTACK"])
    n.add(Gate.sr_latch("csc0", "DSr & ~LDTACK", "~DSr", dominance="reset"))
    n.add(Gate.comb("D", "LDTACK & csc0"))
    n.add(Gate.comb("LDS", "csc0 | D"))
    n.add(Gate.buffer("DTACK", "D"))
    return n


def fig9a_netlist():
    """Figure 9(a): two-input decomposition, map0 multiply acknowledged."""
    from repro.synth import Gate, Netlist

    n = Netlist("fig9a", inputs=["DSr", "LDTACK"])
    n.add(Gate.comb("map0", "csc0 | ~LDTACK"))
    n.add(Gate.comb("csc0", "DSr & map0"))
    n.add(Gate.comb("D", "LDTACK & map0"))
    n.add(Gate.comb("LDS", "csc0 | D"))
    n.add(Gate.buffer("DTACK", "D"))
    return n


def fig9b_netlist():
    """Figure 9(b): the hazardous variant — map0 read only by csc0."""
    from repro.synth import Gate, Netlist

    n = Netlist("fig9b", inputs=["DSr", "LDTACK"])
    n.add(Gate.comb("map0", "csc0 | ~LDTACK"))
    n.add(Gate.comb("csc0", "DSr & map0"))
    n.add(Gate.comb("D", "LDTACK & csc0"))
    n.add(Gate.comb("LDS", "csc0 | D"))
    n.add(Gate.buffer("DTACK", "D"))
    return n
