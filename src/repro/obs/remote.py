"""Cross-process trace propagation and worker heartbeats.

The portfolio (:mod:`repro.portfolio.workers`) runs every engine in a
supervised child process.  Without help, spans and counters recorded
inside the child die with it — a ``portfolio.race`` trace shows the
race outcome with a black hole where the engine work happened.  This
module closes that hole from both ends of the pipe:

**Worker side** — when tracing is armed, :class:`worker_telemetry`
drops the telemetry state the forked child inherited from the parent
(span stack and sinks — including any open ``--trace`` file descriptor,
which the parent still owns), attaches a :class:`PipeSink` that streams
every completed span over the existing result pipe as it closes (one
message per record, so a killed worker loses nothing already sent), and
opens a root ``worker.task`` span tagged with the task's slot / engine
/ method / attempt.  A :class:`HeartbeatThread` hands a ``heartbeat``
event to the same sink every :data:`HEARTBEAT_S`, each carrying a live
progress sample from the innermost engine
(:func:`repro.obs.core.sample_progress` — SAT conflicts/decisions, BDD
node counts, explicit states explored).  Heartbeats are trace records
only: an untraced worker starts no thread, and nothing stops a worker
for a missing beat — its deadline is the only stop.

**Parent side** — :func:`merge_worker_record` re-bases each received
record under the owning span (normally ``portfolio.race``): fresh
``seq``, shifted ``depth``, parent link and slot/attempt attribution
tags, then dispatches it to the parent's sinks immediately — partial
traces are flushed line-by-line, never lost wholesale.  For workers the
parent stops before they can report their root span (cancelled losers,
deadline overruns, crashes), :func:`synthesize_task_record` emits the
``worker.task`` record from the parent's own observations, so every
second a worker process ran is attributed in the merged trace.

Record timestamps need no translation: workers are forked, so the child
inherits the parent's trace origin, and ``perf_counter`` is
CLOCK_MONOTONIC on Linux — system-wide, not per-process.  (Under a
spawn start method children produce no span messages at all, and the
synthesized records keep the trace complete.)
"""

from __future__ import annotations

import os
import threading
from typing import Any, Dict, Optional

from . import core
from .schema import TRACE_SCHEMA

#: Span name of the root span each worker opens around its task.
TASK_SPAN = "worker.task"

#: Event/span name of the periodic progress records traced workers emit.
HEARTBEAT_NAME = "worker.heartbeat"

#: Interval between heartbeats (seconds), read as each heartbeat thread
#: starts.
HEARTBEAT_S = 0.25


class PipeSink:
    """A sink that streams records over a multiprocessing Connection.

    Each record — a completed span or a heartbeat event — becomes one
    ``("span", record)`` message: the pipe is the line-buffered trace, so
    everything sent before a kill survives in the parent.  Sends are
    serialised by a lock, because the heartbeat thread and the task's
    thread share the sink and a large record is written to the pipe in
    more than one piece.  Send failures are swallowed: a worker whose
    parent vanished must still run its task to completion.
    """

    def __init__(self, conn: Any):
        self._conn = conn
        self._lock = threading.Lock()

    def handle(self, record: Dict[str, Any]) -> None:
        """Ship one record to the parent (best effort)."""
        with self._lock:
            try:
                self._conn.send(("span", record))
            except Exception:
                pass

    def __repr__(self):
        return "PipeSink(%r)" % (self._conn,)


def heartbeat_record(tags: Dict[str, Any]) -> Dict[str, Any]:
    """One ``repro-trace/1`` heartbeat event for this instant.

    Shaped exactly like a span record with ``event: "heartbeat"`` and a
    zero duration; the innermost engine's progress sample (if any) lands
    in ``gauges``.  Nested under :data:`TASK_SPAN` so interval-based
    tree reconstruction and the ``parent`` link agree.
    """
    record: Dict[str, Any] = {
        "schema": TRACE_SCHEMA,
        "event": "heartbeat",
        "name": HEARTBEAT_NAME,
        "seq": core.next_seq(),
        "depth": 1,
        "parent": TASK_SPAN,
        "start_s": core.rel_time(),
        "duration_s": 0.0,
        "tags": dict(tags),
        "counters": {},
        "gauges": core.sample_progress() or {},
    }
    return record


class HeartbeatThread(threading.Thread):
    """Daemon thread handing a heartbeat record to ``sink`` every
    :data:`HEARTBEAT_S` — once immediately, then until :meth:`stop`."""

    def __init__(self, sink: Any, tags: Dict[str, Any]):
        super().__init__(name="repro-heartbeat", daemon=True)
        self._sink = sink
        self._tags = dict(tags, pid=os.getpid())
        self._halt = threading.Event()

    def run(self) -> None:
        """Beat until stopped."""
        interval_s = HEARTBEAT_S
        while True:
            self._sink.handle(heartbeat_record(self._tags))
            if self._halt.wait(interval_s):
                return

    def stop(self) -> None:
        """Ask the thread to exit and wait until it has."""
        self._halt.set()
        self.join()


class worker_telemetry:
    """Context manager arming a forked worker's telemetry.

    Used by the worker wrapper around the task body::

        with remote.worker_telemetry(conn, slot="sat", engine="sat",
                                     method="bmc", attempt=0) as telemetry:
            payload = run_the_task()
            telemetry.annotate(outcome="ok")

    A no-op unless tracing is armed.  Then, on entry, it resets the
    inherited span stack/sinks, installs a :class:`PipeSink` on the
    result pipe, opens the root :data:`TASK_SPAN` span and starts the
    :class:`HeartbeatThread` on the same sink.  On exit it stops the
    thread, then closes the span, whose record is the last message the
    parent receives before the final result.
    """

    def __init__(self, conn: Any, *, slot: str, engine: str, method: str,
                 attempt: int):
        self._conn = conn
        self._tags = {"slot": slot, "engine": engine, "method": method,
                      "attempt": attempt}
        self._beat: Optional[HeartbeatThread] = None
        self._sink: Optional[PipeSink] = None
        self.span: Optional[core.Span] = None

    def annotate(self, **tags: Any) -> None:
        """Merge tags into the root task span (no-op when untraced)."""
        if self.span is not None:
            self.span.annotate(**tags)

    def __enter__(self) -> "worker_telemetry":
        if core.enabled():
            # the fork copied the parent's telemetry state; none of it is
            # ours to keep — the parent still owns its sinks (and any
            # open trace file), and its span stack is not our ancestry
            del core._stack[:]
            del core._sinks[:]
            del core._progress[:]
            self._sink = core.add_sink(PipeSink(self._conn))
            self.span = core.Span(TASK_SPAN, **self._tags)
            self.span.__enter__()
            self._beat = HeartbeatThread(self._sink, self._tags)
            self._beat.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._beat is not None:
            self._beat.stop()
            self._beat = None
        if self.span is not None:
            self.span.__exit__(exc_type, exc, tb)
            self.span = None
        if self._sink is not None:
            core.remove_sink(self._sink)
            self._sink = None
        return None


def merge_worker_record(record: Dict[str, Any], *, slot: str,
                        attempt: int) -> Dict[str, Any]:
    """Re-base one worker record under the parent's owning span.

    Takes a ``span`` or ``heartbeat`` record as received from the pipe
    and returns the merged copy after dispatching it to the parent's
    sinks: fresh parent-side ``seq``, ``depth`` shifted below the
    ambient span (normally ``portfolio.race``), root records re-parented
    onto that span, and ``slot``/``attempt`` attribution tags stamped on
    every record (engine/method attribution lives on the root
    :data:`TASK_SPAN` span's own tags).
    """
    owner = core.current()
    base_depth = owner.depth + 1 if owner is not None else 0
    merged = dict(record)
    merged["seq"] = core.next_seq()
    merged["depth"] = int(record.get("depth", 0)) + base_depth
    if record.get("parent") is None and owner is not None:
        merged["parent"] = owner.name
    tags = dict(record.get("tags") or {})
    tags.setdefault("slot", slot)
    tags.setdefault("attempt", attempt)
    merged["tags"] = tags
    core.dispatch(merged)
    return merged


def synthesize_task_record(*, started_at: float, stopped_at: float,
                           slot: str, engine: str, method: str,
                           attempt: int, outcome: str) -> Dict[str, Any]:
    """Emit a ``worker.task`` record for a worker that never reported.

    The parent observed the worker's lifetime even if the child was
    killed or cancelled before its root span could close; this converts
    that observation (``perf_counter`` start/stop instants) into a trace
    record attributed like the real thing, tagged with the ``outcome``
    ("cancelled", "timeout", "crash") and
    ``synthetic: True``.  Returns the merged record.
    """
    record: Dict[str, Any] = {
        "schema": TRACE_SCHEMA,
        "event": "span",
        "name": TASK_SPAN,
        "seq": 0,  # replaced by the merge
        "depth": 0,
        "parent": None,
        "start_s": core.rel_time(started_at),
        "duration_s": max(0.0, stopped_at - started_at),
        "tags": {"slot": slot, "engine": engine, "method": method,
                 "attempt": attempt, "outcome": outcome, "synthetic": True},
        "counters": {},
        "gauges": {},
    }
    return merge_worker_record(record, slot=slot, attempt=attempt)
