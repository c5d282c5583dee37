"""The machine-readable schemas and their validators.

Two document shapes leave the subsystem, both versioned by a literal
``schema`` tag so downstream consumers (the portfolio scheduler, the CI
trace lint, external tooling) can reject what they don't understand:

**Trace records** (``repro-trace/1``) — one JSON object per line of a
``--trace`` JSONL file, one per completed span::

    {"schema": "repro-trace/1", "event": "span", "name": "engine.build",
     "seq": 3, "depth": 0, "parent": null,
     "start_s": 0.0012, "duration_s": 0.0401,
     "tags": {"engine": "compiled", "net": "muller_pipeline_6"},
     "counters": {"states": 1304, "arcs": 3968},
     "gauges": {"states_per_sec": 32500.1}}

Worker heartbeats (:mod:`repro.obs.remote`) share the record shape with
``"event": "heartbeat"`` and ``duration_s`` 0 — an instantaneous
liveness/progress sample rather than a timed interval.  Both events are
``repro-trace/1``; the addition is backward compatible because every
field keeps its meaning.

**Run reports** (``repro-run-report/1``) — the single document printed
by ``repro check --json`` and its ``sat-check`` / ``bdd-check`` aliases:
command, verdict, result details, and the per-span aggregate produced by
:meth:`repro.obs.sinks.MemorySink.stats`.

**Benchmark reports** (``repro-bench/2``) — the ``BENCH_<suite>.json``
document written by ``benchmarks/conftest.py`` after a timed run: suite
name, a ``meta`` block aligning the run with history (git commit, UTC
timestamp, python and platform), and one row per benchmark with mean,
stddev and round count.  Version 1 (no ``meta``) is still accepted by
the validator so older artifacts keep linting clean.

**Bench baselines** (``repro-bench-baseline/1``) — the committed
``benchmarks/baselines.json`` consumed by ``repro obs regress``: per
suite, per benchmark, the reference mean/stddev/rounds.

The validators return a list of human-readable problems (empty == valid)
rather than raising, so the CI lint can report every defect of a file in
one pass.
"""

from __future__ import annotations

import json
from typing import Any, List

#: Version tag carried by every JSONL trace record.
TRACE_SCHEMA = "repro-trace/1"

#: Version tag carried by every ``--json`` run report.
REPORT_SCHEMA = "repro-run-report/1"

#: Version tag carried by every ``BENCH_<suite>.json`` benchmark record.
BENCH_SCHEMA = "repro-bench/2"

#: Every accepted benchmark-report version (v1 predates the meta block).
BENCH_SCHEMAS = ("repro-bench/1", "repro-bench/2")

#: Version tag of the committed ``benchmarks/baselines.json``.
BASELINE_SCHEMA = "repro-bench-baseline/1"

#: Trace record event kinds: timed spans and instantaneous heartbeats.
TRACE_EVENTS = ("span", "heartbeat")

_SCALAR = (str, int, float, bool, type(None))


def _check_numbers(problems: List[str], where: str, values: Any) -> None:
    """Append a problem per non-numeric (or bool) metric value."""
    if not isinstance(values, dict):
        problems.append("%s: expected an object, got %r" % (where, values))
        return
    for k, v in values.items():
        if not isinstance(k, str):
            problems.append("%s: non-string key %r" % (where, k))
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            problems.append("%s[%r]: non-numeric value %r" % (where, k, v))


def validate_trace_record(record: Any) -> List[str]:
    """Problems of one trace record against ``repro-trace/1`` (empty
    list == the record is valid)."""
    problems: List[str] = []
    if not isinstance(record, dict):
        return ["record is not an object: %r" % (record,)]
    if record.get("schema") != TRACE_SCHEMA:
        problems.append("schema: expected %r, got %r"
                        % (TRACE_SCHEMA, record.get("schema")))
    if record.get("event") not in TRACE_EVENTS:
        problems.append("event: expected one of %s, got %r"
                        % ("/".join(repr(e) for e in TRACE_EVENTS),
                           record.get("event")))
    name = record.get("name")
    if not isinstance(name, str) or not name:
        problems.append("name: expected a non-empty string, got %r" % (name,))
    for key in ("seq", "depth"):
        v = record.get(key)
        if isinstance(v, bool) or not isinstance(v, int) or v < 0:
            problems.append("%s: expected a non-negative int, got %r"
                            % (key, v))
    parent = record.get("parent", "missing")
    if parent is not None and not isinstance(parent, str):
        problems.append("parent: expected a string or null, got %r"
                        % (parent,))
    for key in ("start_s", "duration_s"):
        v = record.get(key)
        if isinstance(v, bool) or not isinstance(v, (int, float)) or v < 0:
            problems.append("%s: expected a non-negative number, got %r"
                            % (key, v))
    tags = record.get("tags")
    if not isinstance(tags, dict):
        problems.append("tags: expected an object, got %r" % (tags,))
    else:
        for k, v in tags.items():
            if not isinstance(k, str):
                problems.append("tags: non-string key %r" % (k,))
            if not isinstance(v, _SCALAR):
                problems.append("tags[%r]: non-scalar value %r" % (k, v))
    _check_numbers(problems, "counters", record.get("counters"))
    _check_numbers(problems, "gauges", record.get("gauges"))
    error = record.get("error")
    if error is not None and not isinstance(error, str):
        problems.append("error: expected a string, got %r" % (error,))
    return problems


def validate_trace_text(text: str) -> List[str]:
    """Problems of a whole JSONL trace, prefixed ``line N:``.

    Blank lines are rejected (a truncated write must not lint clean);
    an empty file is valid (a run with tracing enabled but no spans).
    """
    problems: List[str] = []
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            problems.append("line %d: blank line" % number)
            continue
        try:
            record = json.loads(line)
        except ValueError as exc:
            problems.append("line %d: not JSON (%s)" % (number, exc))
            continue
        problems.extend("line %d: %s" % (number, p)
                        for p in validate_trace_record(record))
    return problems


def validate_trace_file(path: str) -> List[str]:
    """Problems of the JSONL trace at ``path`` (empty list == valid)."""
    with open(path) as f:
        return validate_trace_text(f.read())


def validate_run_report(report: Any) -> List[str]:
    """Problems of one ``--json`` run report against
    ``repro-run-report/1`` (empty list == valid)."""
    problems: List[str] = []
    if not isinstance(report, dict):
        return ["report is not an object: %r" % (report,)]
    if report.get("schema") != REPORT_SCHEMA:
        problems.append("schema: expected %r, got %r"
                        % (REPORT_SCHEMA, report.get("schema")))
    for key in ("command", "spec", "verdict"):
        v = report.get(key)
        if not isinstance(v, str) or not v:
            problems.append("%s: expected a non-empty string, got %r"
                            % (key, v))
    code = report.get("exit_code")
    if isinstance(code, bool) or not isinstance(code, int):
        problems.append("exit_code: expected an int, got %r" % (code,))
    if not isinstance(report.get("details"), dict):
        problems.append("details: expected an object, got %r"
                        % (report.get("details"),))
    stats = report.get("stats")
    if not isinstance(stats, dict):
        problems.append("stats: expected an object, got %r" % (stats,))
        return problems
    for name, agg in stats.items():
        where = "stats[%r]" % name
        if not isinstance(agg, dict):
            problems.append("%s: expected an object, got %r" % (where, agg))
            continue
        calls = agg.get("calls")
        if isinstance(calls, bool) or not isinstance(calls, int) or calls < 1:
            problems.append("%s.calls: expected a positive int, got %r"
                            % (where, calls))
        time_s = agg.get("time_s")
        if isinstance(time_s, bool) or not isinstance(time_s, (int, float)) \
                or time_s < 0:
            problems.append("%s.time_s: expected a non-negative number,"
                            " got %r" % (where, time_s))
        _check_numbers(problems, where + ".counters", agg.get("counters"))
        _check_numbers(problems, where + ".gauges", agg.get("gauges"))
    return problems


#: String fields every ``repro-bench/2`` meta block must carry.
BENCH_META_KEYS = ("git_commit", "timestamp_utc", "python", "platform")


def _check_bench_row(problems: List[str], where: str, row: Any) -> None:
    """Append the problems of one benchmark row."""
    if not isinstance(row, dict):
        problems.append("%s: expected an object, got %r" % (where, row))
        return
    name = row.get("name")
    if not isinstance(name, str) or not name:
        problems.append("%s.name: expected a non-empty string, got %r"
                        % (where, name))
    group = row.get("group", "missing")
    if group is not None and not isinstance(group, str):
        problems.append("%s.group: expected a string or null, got %r"
                        % (where, group))
    for key in ("mean_s", "stddev_s"):
        v = row.get(key)
        if isinstance(v, bool) or not isinstance(v, (int, float)) or v < 0:
            problems.append("%s.%s: expected a non-negative number, got %r"
                            % (where, key, v))
    rounds = row.get("rounds")
    if isinstance(rounds, bool) or not isinstance(rounds, int) or rounds < 1:
        problems.append("%s.rounds: expected a positive int, got %r"
                        % (where, rounds))


def validate_bench_report(report: Any) -> List[str]:
    """Problems of one ``BENCH_<suite>.json`` document (empty == valid).

    Accepts every version in :data:`BENCH_SCHEMAS`; the ``meta`` block
    (git commit, UTC timestamp, python, platform) is required from
    ``repro-bench/2`` on.
    """
    problems: List[str] = []
    if not isinstance(report, dict):
        return ["report is not an object: %r" % (report,)]
    schema = report.get("schema")
    if schema not in BENCH_SCHEMAS:
        problems.append("schema: expected one of %s, got %r"
                        % ("/".join(repr(s) for s in BENCH_SCHEMAS), schema))
    suite = report.get("suite")
    if not isinstance(suite, str) or not suite:
        problems.append("suite: expected a non-empty string, got %r"
                        % (suite,))
    rows = report.get("benchmarks")
    if not isinstance(rows, list):
        problems.append("benchmarks: expected a list, got %r" % (rows,))
    else:
        for i, row in enumerate(rows):
            _check_bench_row(problems, "benchmarks[%d]" % i, row)
    if schema == BENCH_SCHEMA:
        meta = report.get("meta")
        if not isinstance(meta, dict):
            problems.append("meta: expected an object, got %r" % (meta,))
        else:
            for key in BENCH_META_KEYS:
                v = meta.get(key)
                if not isinstance(v, str) or not v:
                    problems.append(
                        "meta.%s: expected a non-empty string, got %r"
                        % (key, v))
    return problems


def validate_baseline(doc: Any) -> List[str]:
    """Problems of a ``benchmarks/baselines.json`` document
    (``repro-bench-baseline/1``; empty list == valid)."""
    problems: List[str] = []
    if not isinstance(doc, dict):
        return ["baseline is not an object: %r" % (doc,)]
    if doc.get("schema") != BASELINE_SCHEMA:
        problems.append("schema: expected %r, got %r"
                        % (BASELINE_SCHEMA, doc.get("schema")))
    suites = doc.get("suites")
    if not isinstance(suites, dict):
        problems.append("suites: expected an object, got %r" % (suites,))
        return problems
    for suite, rows in suites.items():
        if not isinstance(suite, str) or not suite:
            problems.append("suites: non-string suite key %r" % (suite,))
        if not isinstance(rows, dict):
            problems.append("suites[%r]: expected an object, got %r"
                            % (suite, rows))
            continue
        for name, row in rows.items():
            where = "suites[%r][%r]" % (suite, name)
            if not isinstance(row, dict):
                problems.append("%s: expected an object, got %r"
                                % (where, row))
                continue
            _check_bench_row(problems, where,
                             dict(row, name=name, group=row.get("group")))
    return problems
