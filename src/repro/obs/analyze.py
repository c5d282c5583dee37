"""Turn recorded telemetry into decisions: reports, diffs, regressions.

Everything :mod:`repro.obs` writes — JSONL traces (``repro-trace/1``)
and benchmark artifacts (``repro-bench/*``) — is consumed here, behind
the ``repro obs`` CLI family:

* :func:`render_report` — reconstruct the span tree of a trace and
  render it as a text flamegraph: one line per span with total and
  *self* time (total minus direct span children), percent of its root,
  and a proportional bar; heartbeat events are folded into a per-parent
  summary line.
* :func:`render_diff` — two traces side by side, aggregated per span
  name: call counts, total seconds and the delta, largest movers first.
* :func:`compare_bench` — ``BENCH_<suite>.json`` documents against the
  committed ``benchmarks/baselines.json``, with noise-aware thresholds:
  a benchmark regresses only when its mean exceeds the baseline mean by
  more than ``max(rel_tol · base, sigma · σ_combined, min_abs_s)``, so
  recorded stddev — not wishful thinking — sets the bar.
* :func:`make_baseline` — distil benchmark documents into a new
  baseline (``repro-bench-baseline/1``), the thing CI compares against.

Span trees are rebuilt from *intervals* (``start_s`` + ``duration_s``),
not from record order: merged traces interleave parent-side and
worker-side records whose sequence numbers reflect arrival, while all
timestamps share one CLOCK_MONOTONIC axis (see :mod:`repro.obs.remote`)
— containment is the ground truth.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, List, Optional, Sequence

from .schema import (validate_baseline, validate_bench_report,
                     validate_trace_record)
from .sinks import MemorySink
from . import sinks as _sinks

Record = Dict[str, Any]

#: Interval-containment slack (seconds) for tree reconstruction: spans
#: on one monotonic clock nest exactly; the epsilon only absorbs float
#: rounding in serialised timestamps.
EPS_S = 1e-6

#: Default relative regression threshold (fraction of the baseline mean).
DEFAULT_REL_TOL = 0.15

#: Default noise threshold in combined standard deviations.
DEFAULT_SIGMA = 3.0

#: Absolute floor (seconds) below which mean movements never count.
DEFAULT_MIN_ABS_S = 0.001


def read_trace(path: str) -> List[Record]:
    """Parse a JSONL trace file into a list of records.

    Raises ``ValueError`` naming the offending line for non-JSON input;
    schema problems are the lint's job (``repro obs lint``), not this
    loader's.
    """
    records: List[Record] = []
    with open(path) as fp:
        for number, line in enumerate(fp, start=1):
            line = line.strip()
            if not line:
                raise ValueError("%s:%d: blank line in trace" % (path, number))
            try:
                record = json.loads(line)
            except ValueError as exc:
                raise ValueError("%s:%d: not JSON (%s)" % (path, number, exc))
            if not isinstance(record, dict):
                raise ValueError("%s:%d: record is not an object"
                                 % (path, number))
            records.append(record)
    return records


class SpanNode:
    """One span (or event) of a reconstructed trace tree."""

    __slots__ = ("record", "children")

    def __init__(self, record: Record):
        self.record = record
        self.children: List["SpanNode"] = []

    @property
    def name(self) -> str:
        """The span name."""
        return self.record.get("name", "?")

    @property
    def start_s(self) -> float:
        """Start instant on the trace's time axis."""
        return float(self.record.get("start_s", 0.0))

    @property
    def duration_s(self) -> float:
        """Total (wall-clock) duration; 0 for events."""
        return float(self.record.get("duration_s", 0.0))

    @property
    def end_s(self) -> float:
        """End instant on the trace's time axis."""
        return self.start_s + self.duration_s

    @property
    def is_event(self) -> bool:
        """True for instantaneous records (heartbeats)."""
        return self.record.get("event") != "span"

    def self_s(self) -> float:
        """Self time: duration minus the direct span children's."""
        covered = sum(c.duration_s for c in self.children if not c.is_event)
        return max(0.0, self.duration_s - covered)

    def walk(self):
        """Yield (depth, node) over the subtree, pre-order."""
        stack = [(0, self)]
        while stack:
            depth, node = stack.pop()
            yield depth, node
            for child in reversed(node.children):
                stack.append((depth + 1, child))

    def __repr__(self):
        return "SpanNode(%r, %d children)" % (self.name, len(self.children))


def _contains(parent: SpanNode, node: SpanNode) -> bool:
    """True when ``node``'s interval nests inside ``parent``'s."""
    return (node.start_s >= parent.start_s - EPS_S
            and node.end_s <= parent.end_s + EPS_S)


def _deeper(parent: SpanNode, node: SpanNode) -> bool:
    """True when the records' ``depth`` fields permit nesting.

    Merged portfolio traces contain racing sibling spans whose intervals
    genuinely overlap (a cancelled loser's span covers the whole race,
    including the winner's) — interval containment alone would nest
    them.  The recorded lexical depth breaks the tie: a child must be
    strictly deeper than its parent.  Records without an integer depth
    fall back to containment only.
    """
    pd, nd = parent.record.get("depth"), node.record.get("depth")
    if isinstance(pd, int) and isinstance(nd, int):
        return nd > pd
    return True


def build_tree(records: Sequence[Record]) -> List[SpanNode]:
    """Reconstruct the span forest of a trace by interval containment.

    Records are ordered by start time (ties: longer span first, then
    shallower, so a parent precedes the children sharing its start
    instant — even one sharing its whole interval, as a worker's first
    span can share its ``worker.task`` root's) and each is attached to
    the innermost already-placed span whose interval contains it *and*
    whose recorded depth is strictly smaller (:func:`_deeper` — racing
    siblings in a merged trace may overlap in time but never in depth).
    Returns the root nodes in start order.
    """
    ordered = sorted((SpanNode(r) for r in records),
                     key=lambda n: (n.start_s, -n.duration_s,
                                    n.record.get("depth", 0),
                                    n.record.get("seq", 0)))
    roots: List[SpanNode] = []
    placed: List[SpanNode] = []
    for node in ordered:
        parent: Optional[SpanNode] = None
        # innermost candidate = latest-starting (then shortest) placed
        # span, which is the last match in start order
        for cand in reversed(placed):
            if _contains(cand, node) and _deeper(cand, node):
                parent = cand
                break
        if parent is not None:
            parent.children.append(node)
        else:
            roots.append(node)
        if not node.is_event:
            placed.append(node)
    return roots


def _tag_suffix(record: Record) -> str:
    """The most informative tags of a record, rendered compactly."""
    tags = record.get("tags") or {}
    keys = ("slot", "engine", "method", "attempt", "verdict", "outcome",
            "net", "query", "result", "error")
    parts = ["%s=%s" % (k, tags[k]) for k in keys if k in tags]
    if record.get("error") and "error" not in tags:
        parts.append("error=%s" % record["error"])
    return " [%s]" % " ".join(parts) if parts else ""


def _heartbeat_line(indent: str, beats: List[SpanNode]) -> str:
    """One summary line for a parent's heartbeat children."""
    last = beats[-1].record.get("gauges") or {}
    suffix = ""
    if last:
        suffix = ", last: " + _sinks._format_values(last)
    return "%9s %9s %6s  %s* %d heartbeat%s%s" % (
        "", "", "", indent, len(beats), "s" if len(beats) != 1 else "",
        suffix)


def render_report(records: Sequence[Record], width: int = 30) -> str:
    """The text flamegraph of a trace: one line per span.

    Columns: total seconds, self seconds (total minus direct span
    children), percent of the enclosing root, then an indented name with
    a proportional bar.  Heartbeat runs collapse to a summary line under
    their parent.  An aggregate per-span-name table
    (:func:`repro.obs.sinks.report`) follows the tree.
    """
    spans = [r for r in records if r.get("event") == "span"]
    if not spans:
        return "(no spans in trace)"
    roots = build_tree(records)
    lines = ["%9s %9s %6s  %s" % ("total(s)", "self(s)", "root%", "span")]
    for root in roots:
        if root.is_event:
            continue
        scale = root.duration_s or 1.0
        for depth, node in root.walk():
            if node.is_event:
                continue
            indent = "  " * depth
            share = node.duration_s / scale
            bar = "#" * max(1, int(round(share * 20)))
            lines.append("%9.4f %9.4f %5.1f%%  %s%s %s%s" % (
                node.duration_s, node.self_s(), share * 100.0, indent,
                node.name, bar, _tag_suffix(node.record)))
            beats = [c for c in node.children if c.is_event]
            if beats:
                lines.append(_heartbeat_line(indent + "  ", beats))
    lines.append("")
    lines.append(_sinks.report(spans))
    return "\n".join(lines)


def _totals(records: Sequence[Record]) -> Dict[str, Dict[str, float]]:
    """Per-span-name calls and total seconds of a trace."""
    sink = MemorySink()
    for r in records:
        if r.get("event") == "span":
            sink.handle(r)
    return {name: {"calls": agg["calls"], "time_s": agg["time_s"]}
            for name, agg in sink.stats().items()}


def render_diff(a_records: Sequence[Record],
                b_records: Sequence[Record],
                a_label: str = "a", b_label: str = "b") -> str:
    """Two traces compared per span name, largest time movers first.

    Shows call counts and total seconds from each trace plus the
    absolute and relative delta; spans present in only one trace show a
    ``-`` on the other side.
    """
    a = _totals(a_records)
    b = _totals(b_records)
    names = sorted(set(a) | set(b),
                   key=lambda n: -abs(b.get(n, {}).get("time_s", 0.0)
                                      - a.get(n, {}).get("time_s", 0.0)))
    lines = ["%-32s %7s %7s %10s %10s %10s %8s" % (
        "span", "calls:" + a_label, "calls:" + b_label,
        a_label + "(s)", b_label + "(s)", "delta(s)", "delta")]
    for name in names:
        ra, rb = a.get(name), b.get(name)
        ta = ra["time_s"] if ra else 0.0
        tb = rb["time_s"] if rb else 0.0
        delta = tb - ta
        pct = "%+7.1f%%" % (100.0 * delta / ta) if ta > 0 else "     new" \
            if rb and not ra else "    gone" if ra and not rb else "       -"
        lines.append("%-32s %7s %7s %10.4f %10.4f %+10.4f %8s" % (
            name,
            ra["calls"] if ra else "-", rb["calls"] if rb else "-",
            ta, tb, delta, pct))
    return "\n".join(lines)


def coverage(records: Sequence[Record], name: str = "portfolio.race"
             ) -> float:
    """Fraction of a span's wall-clock covered by its child spans.

    Finds the first span named ``name`` in the reconstructed tree and
    measures the union of its direct span children's intervals (clipped
    to the parent) against the parent's duration — the "no black hole"
    figure: for a merged portfolio trace, how much of the race is
    attributed to named worker-side (or parent-side probe) spans.
    Returns 0.0 when the span is missing or has zero duration.
    """
    target: Optional[SpanNode] = None
    for root in build_tree(records):
        for _depth, node in root.walk():
            if node.name == name and not node.is_event:
                target = node
                break
        if target is not None:
            break
    if target is None or target.duration_s <= 0:
        return 0.0
    intervals = sorted(
        (max(c.start_s, target.start_s), min(c.end_s, target.end_s))
        for c in target.children if not c.is_event)
    covered = 0.0
    cursor = target.start_s
    for lo, hi in intervals:
        lo = max(lo, cursor)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered / target.duration_s


# -- benchmark regression ------------------------------------------------ #

def load_bench_file(path: str) -> Record:
    """Load and validate one ``BENCH_<suite>.json`` document."""
    with open(path) as fp:
        doc = json.load(fp)
    problems = validate_bench_report(doc)
    if problems:
        raise ValueError("%s: %s" % (path, "; ".join(problems)))
    return doc


def load_baseline(path: str) -> Record:
    """Load and validate a ``benchmarks/baselines.json`` document."""
    with open(path) as fp:
        doc = json.load(fp)
    problems = validate_baseline(doc)
    if problems:
        raise ValueError("%s: %s" % (path, "; ".join(problems)))
    return doc


def make_baseline(docs: Sequence[Record]) -> Record:
    """Distil benchmark documents into a ``repro-bench-baseline/1`` doc.

    Later documents win on suite collisions (pass files oldest-first
    when merging histories).
    """
    suites: Dict[str, Dict[str, Any]] = {}
    for doc in docs:
        rows = suites.setdefault(doc["suite"], {})
        for row in doc.get("benchmarks", []):
            entry = {"mean_s": row["mean_s"], "stddev_s": row["stddev_s"],
                     "rounds": row["rounds"]}
            if row.get("group") is not None:
                entry["group"] = row["group"]
            rows[row["name"]] = entry
    from .schema import BASELINE_SCHEMA

    return {"schema": BASELINE_SCHEMA, "suites": suites}


def compare_bench(docs: Sequence[Record], baseline: Record,
                  rel_tol: float = DEFAULT_REL_TOL,
                  sigma: float = DEFAULT_SIGMA,
                  min_abs_s: float = DEFAULT_MIN_ABS_S
                  ) -> List[Dict[str, Any]]:
    """Judge benchmark documents against a baseline, noise-aware.

    Returns one entry per benchmark row with ``status`` in ``"ok"``,
    ``"regression"``, ``"improvement"`` or ``"new"`` (no baseline to
    compare against).  The margin around the baseline mean is
    ``max(rel_tol · base_mean, sigma · sqrt(σ_base² + σ_new²),
    min_abs_s)`` — a mean must move beyond recorded noise *and* beyond
    the relative/absolute floors to count in either direction.
    """
    suites = baseline.get("suites", {})
    entries: List[Dict[str, Any]] = []
    for doc in docs:
        suite = doc.get("suite", "?")
        base_rows = suites.get(suite, {})
        for row in doc.get("benchmarks", []):
            name = row["name"]
            entry: Dict[str, Any] = {
                "suite": suite, "name": name, "mean_s": row["mean_s"],
                "stddev_s": row["stddev_s"],
            }
            base = base_rows.get(name)
            if base is None:
                entry.update(status="new", base_mean_s=None, margin_s=None)
            else:
                margin = max(rel_tol * base["mean_s"],
                             sigma * math.sqrt(base["stddev_s"] ** 2
                                               + row["stddev_s"] ** 2),
                             min_abs_s)
                if row["mean_s"] > base["mean_s"] + margin:
                    status = "regression"
                elif row["mean_s"] < base["mean_s"] - margin:
                    status = "improvement"
                else:
                    status = "ok"
                entry.update(status=status, base_mean_s=base["mean_s"],
                             margin_s=margin)
            entries.append(entry)
    return entries


def render_regress(entries: Sequence[Dict[str, Any]]) -> str:
    """The regression table for :func:`compare_bench` entries, worst
    first, with a one-line verdict at the bottom."""
    order = {"regression": 0, "improvement": 1, "new": 2, "ok": 3}
    ranked = sorted(entries, key=lambda e: (order.get(e["status"], 9),
                                            e["suite"], e["name"]))
    lines = ["%-52s %11s %11s %11s  %s" % (
        "benchmark", "base(s)", "now(s)", "margin(s)", "status")]
    for e in ranked:
        base = "%11.6f" % e["base_mean_s"] if e["base_mean_s"] is not None \
            else "          -"
        margin = "%11.6f" % e["margin_s"] if e["margin_s"] is not None \
            else "          -"
        lines.append("%-52s %s %11.6f %s  %s" % (
            "%s::%s" % (e["suite"], e["name"]), base, e["mean_s"], margin,
            e["status"]))
    regressions = [e for e in ranked if e["status"] == "regression"]
    lines.append("")
    if regressions:
        lines.append("REGRESSION: %d of %d benchmarks slower than baseline"
                     " beyond noise" % (len(regressions), len(ranked)))
    else:
        lines.append("ok: %d benchmarks within thresholds" % len(ranked))
    return "\n".join(lines)


def lint_records(records: Sequence[Record]) -> List[str]:
    """Schema problems of in-memory trace records (empty == valid)."""
    problems: List[str] = []
    for i, record in enumerate(records):
        problems.extend("record %d: %s" % (i, p)
                        for p in validate_trace_record(record))
    return problems
