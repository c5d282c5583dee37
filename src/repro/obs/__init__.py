"""repro.obs — zero-dependency instrumentation for the engine framework.

Every engine of the unified framework (``auto`` / ``compiled`` /
``naive`` / ``bdd`` / ``sat``) does measurable work — SAT conflicts and
decisions, BDD nodes and image iterations, explicit states and arcs,
reduction rules fired — but until this subsystem none of it was
surfaced.  ``repro.obs`` makes that work observable without giving up
the library's zero-dependency rule or its performance:

* **spans** (:func:`~repro.obs.core.span`) — nested, named,
  ``perf_counter``-timed context managers tagged with engine / query /
  net metadata;
* **counters and gauges** (:class:`~repro.obs.core.Counter`,
  :class:`~repro.obs.core.Gauge`) — typed observations attached to the
  active span;
* **sinks** (:mod:`repro.obs.sinks`) — an in-memory registry for tests
  and the CLI's ``--stats`` table, plus a JSONL trace writer for
  ``--trace FILE``;
* **schemas** (:mod:`repro.obs.schema`) — versioned, validated shapes
  for trace lines, the CLI's ``--json`` run reports, benchmark
  artifacts and the committed benchmark baseline;
* **remote** (:mod:`repro.obs.remote`) — cross-process propagation:
  traced portfolio workers stream their span trees and heartbeats over
  the result pipe; the supervisor merges them into the parent trace
  under the owning ``portfolio.race`` span;
* **analysis** (:mod:`repro.obs.analyze`) — the ``repro obs`` CLI
  family: span-tree reports (a text flamegraph), trace diffs, and
  noise-aware benchmark regression checks against
  ``benchmarks/baselines.json``.

The whole layer keys off one switch: the ``REPRO_TRACE`` environment
variable or :func:`~repro.obs.core.enable`.  Disabled (the default),
:func:`~repro.obs.core.span` returns a shared no-op object, so the
instrumented hot paths cost one function call each — measured at under
2 % on the engine benchmark matrix (``EXPERIMENTS.md``).

See ``docs/observability.md`` for the user guide.
"""

from .core import (
    ENV_VAR,
    Counter,
    Gauge,
    NullSpan,
    Span,
    active_sinks,
    add,
    add_sink,
    current,
    disable,
    enable,
    enabled,
    pop_progress,
    push_progress,
    remove_sink,
    reset,
    sample_progress,
    set_gauge,
    span,
    tracing,
)
from .schema import (
    BASELINE_SCHEMA,
    BENCH_SCHEMA,
    BENCH_SCHEMAS,
    REPORT_SCHEMA,
    TRACE_SCHEMA,
    validate_baseline,
    validate_bench_report,
    validate_run_report,
    validate_trace_file,
    validate_trace_record,
    validate_trace_text,
)
from .sinks import JsonlSink, MemorySink, report

__all__ = [
    "ENV_VAR", "Counter", "Gauge", "NullSpan", "Span",
    "active_sinks", "add", "add_sink", "current", "disable", "enable",
    "enabled", "pop_progress", "push_progress", "remove_sink", "reset",
    "sample_progress", "set_gauge", "span", "tracing",
    "BASELINE_SCHEMA", "BENCH_SCHEMA", "BENCH_SCHEMAS",
    "REPORT_SCHEMA", "TRACE_SCHEMA",
    "validate_baseline", "validate_bench_report",
    "validate_run_report", "validate_trace_file", "validate_trace_record",
    "validate_trace_text",
    "JsonlSink", "MemorySink", "report",
]
