"""Spans, counters and gauges — the instrumentation core.

The design is span-centric: every instrumented operation opens a
:func:`span` (a context manager timed with :func:`time.perf_counter`),
and all numeric observations — counter increments (:meth:`Span.add`)
and gauge snapshots (:meth:`Span.set_gauge`) — attach to the innermost
active span.  When the layer is disabled (the default), :func:`span`
hands back one shared :class:`NullSpan` whose every method is a
``pass``, so the hot paths pay a single function call and an attribute
read per operation; the engine benchmark matrix bounds that overhead at
under 2 % (see ``EXPERIMENTS.md``).

Switching is global and explicit: the ``REPRO_TRACE`` environment
variable (``1``/``true``/``yes``/``on``) arms the layer at import time,
:func:`enable` / :func:`disable` flip it at run time, and the
:func:`tracing` context manager scopes it for tests and the CLI —
enabling, attaching an in-memory :class:`~repro.obs.sinks.MemorySink`,
and restoring the previous state on exit.

Completed spans are dispatched to every registered sink as plain-dict
records (see :mod:`repro.obs.schema` for the exact shape), innermost
first, so a sink sees a child before its parent — the natural order for
streaming JSONL.
"""

from __future__ import annotations

import os
import time
from typing import Any, Callable, Dict, List, Optional, Union

Number = Union[int, float]

#: Environment variable that arms the layer at import time.
ENV_VAR = "REPRO_TRACE"

_TRUTHY = ("1", "true", "yes", "on")

_enabled: bool = os.environ.get(ENV_VAR, "").strip().lower() in _TRUTHY
_sinks: List[Any] = []
_stack: List["Span"] = []
_seq: int = 0
#: perf_counter origin: span start times are reported relative to this.
#: Forked worker processes inherit the parent's origin, so their record
#: timestamps land on the same axis as the parent's (perf_counter is
#: CLOCK_MONOTONIC on Linux — system-wide, not per-process).
_origin: float = time.perf_counter()
_progress: List[Callable[[], Dict[str, Number]]] = []


def enabled() -> bool:
    """True iff the instrumentation layer is currently armed.

    The single switch every instrumented hot path keys off — set from
    the ``REPRO_TRACE`` environment variable at import time and flipped
    at run time by :func:`enable` / :func:`disable`.
    """
    return _enabled


def enable(on: bool = True) -> None:
    """Arm (or, with ``on=False``, disarm) the instrumentation layer."""
    global _enabled
    _enabled = bool(on)


def disable() -> None:
    """Disarm the instrumentation layer (spans become no-ops again)."""
    enable(False)


def add_sink(sink: Any) -> Any:
    """Register a sink; every completed span record is handed to its
    ``handle(record)`` method.  Returns the sink for chaining."""
    _sinks.append(sink)
    return sink


def remove_sink(sink: Any) -> None:
    """Unregister a sink previously added with :func:`add_sink`."""
    try:
        _sinks.remove(sink)
    except ValueError:
        pass


def active_sinks() -> List[Any]:
    """The currently registered sinks (a copy).

    Named to avoid shadowing the :mod:`repro.obs.sinks` submodule on the
    package namespace.
    """
    return list(_sinks)


def reset() -> None:
    """Restore the module to its pristine state (tests only).

    Disarms the layer unless ``REPRO_TRACE`` is set, drops all sinks and
    any active span stack, and rewinds the record sequence counter.
    """
    global _enabled, _seq
    _enabled = os.environ.get(ENV_VAR, "").strip().lower() in _TRUTHY
    del _sinks[:]
    del _stack[:]
    del _progress[:]
    _seq = 0


def current() -> Optional["Span"]:
    """The innermost active span, or None outside any span."""
    return _stack[-1] if _stack else None


def next_seq() -> int:
    """Allocate the next record sequence number.

    Spans take one automatically on entry; :mod:`repro.obs.remote` takes
    them when re-basing worker records into the parent trace, so every
    record of a merged trace keeps a unique ``seq``.
    """
    global _seq
    seq = _seq
    _seq += 1
    return seq


def rel_time(at: Optional[float] = None) -> float:
    """A ``perf_counter`` instant (default: now) relative to the trace
    origin — the time axis every record's ``start_s`` is reported on."""
    return (time.perf_counter() if at is None else at) - _origin


def dispatch(record: Dict[str, Any]) -> None:
    """Hand one completed record to every registered sink.

    Spans dispatch themselves on exit; :mod:`repro.obs.remote` uses this
    to inject re-based worker records into the parent's sinks.
    """
    for sink in _sinks:
        sink.handle(record)


def push_progress(fn: Callable[[], Dict[str, Number]]) -> None:
    """Install ``fn`` as the innermost progress provider.

    A provider is a cheap zero-argument callable returning a dict of
    numeric progress figures (e.g. ``Solver.stats`` or ``BDD.stats``).
    The worker heartbeat thread (:mod:`repro.obs.remote`) samples the
    innermost provider to annotate each heartbeat with live engine
    progress.  Providers nest: engines push on entry and pop on exit, so
    the sample always reflects the deepest running computation.
    """
    _progress.append(fn)


def pop_progress() -> None:
    """Remove the innermost progress provider (no-op when none)."""
    if _progress:
        _progress.pop()


def sample_progress() -> Optional[Dict[str, Number]]:
    """One numeric snapshot from the innermost progress provider.

    Returns None when no provider is installed or the provider fails —
    heartbeats must never die because an engine was mid-mutation.  Only
    numeric values survive the sample (the heartbeat record stores them
    as gauges).
    """
    if not _progress:
        return None
    try:
        values = _progress[-1]()
    except Exception:
        return None
    if not isinstance(values, dict):
        return None
    return {k: v for k, v in values.items()
            if isinstance(k, str) and not isinstance(v, bool)
            and isinstance(v, (int, float))}


class Span:
    """One timed, named, tagged unit of work.

    Use as a context manager (normally via the module-level
    :func:`span` helper, which returns a :class:`NullSpan` when the
    layer is disabled)::

        with obs.span("engine.build", engine="compiled") as sp:
            sp.add("states", 1024)
            sp.set_gauge("peak_nodes", 2171)

    On exit the span is converted to a plain-dict record
    (:meth:`to_record`) and dispatched to every registered sink.
    """

    __slots__ = ("name", "tags", "counters", "gauges", "start",
                 "duration", "parent", "depth", "seq", "error")

    def __init__(self, name: str, **tags: Any):
        self.name = name
        self.tags: Dict[str, Any] = tags
        self.counters: Dict[str, Number] = {}
        self.gauges: Dict[str, Number] = {}
        self.start: float = 0.0
        self.duration: float = 0.0
        self.parent: Optional[str] = None
        self.depth: int = 0
        self.seq: int = 0
        self.error: Optional[str] = None

    # -- observation API ------------------------------------------------ #

    def add(self, name: str, n: Number = 1) -> None:
        """Increment counter ``name`` by ``n``."""
        self.counters[name] = self.counters.get(name, 0) + n

    def set_gauge(self, name: str, value: Number) -> None:
        """Set gauge ``name`` to ``value`` (the last value wins)."""
        self.gauges[name] = value

    def annotate(self, **tags: Any) -> None:
        """Merge extra tags into the span (e.g. a verdict known only at
        the end of the operation)."""
        self.tags.update(tags)

    def elapsed(self) -> float:
        """Seconds since the span was entered (its duration once closed)."""
        if self.duration:
            return self.duration
        return time.perf_counter() - _origin - self.start

    # -- lifecycle ------------------------------------------------------ #

    def __enter__(self) -> "Span":
        parent = _stack[-1] if _stack else None
        if parent is not None:
            self.parent = parent.name
            self.depth = parent.depth + 1
        self.seq = next_seq()
        _stack.append(self)
        self.start = time.perf_counter() - _origin
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.duration = time.perf_counter() - _origin - self.start
        if exc_type is not None:
            self.error = exc_type.__name__
        if _stack and _stack[-1] is self:
            _stack.pop()
        dispatch(self.to_record())
        return None

    def to_record(self) -> Dict[str, Any]:
        """The span as a plain dict following the ``repro-trace/1``
        schema of :mod:`repro.obs.schema` (one JSONL line per span)."""
        from .schema import TRACE_SCHEMA

        record: Dict[str, Any] = {
            "schema": TRACE_SCHEMA,
            "event": "span",
            "name": self.name,
            "seq": self.seq,
            "depth": self.depth,
            "parent": self.parent,
            "start_s": self.start,
            "duration_s": self.duration,
            "tags": dict(self.tags),
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
        }
        if self.error is not None:
            record["error"] = self.error
        return record

    def __repr__(self):
        return "Span(%r, depth=%d, counters=%r)" % (
            self.name, self.depth, self.counters)


class NullSpan:
    """The shared do-nothing span handed out while the layer is disabled.

    Every method is a no-op; :meth:`elapsed` still measures nothing
    (returns 0.0) so callers never need an ``enabled()`` guard of their
    own.  A single instance (:data:`NULL_SPAN`) is reused for every
    disabled :func:`span` call.
    """

    __slots__ = ()

    #: Shared empty mapping: reads see no counters, and instrumentation
    #: code must go through add()/set_gauge() (which discard) anyway.
    counters: Dict[str, Number] = {}
    gauges: Dict[str, Number] = {}

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    def add(self, name: str, n: Number = 1) -> None:
        """Discard the increment."""

    def set_gauge(self, name: str, value: Number) -> None:
        """Discard the measurement."""

    def annotate(self, **tags: Any) -> None:
        """Discard the tags."""

    def elapsed(self) -> float:
        """Always 0.0 — nothing is timed while disabled."""
        return 0.0

    def __repr__(self):
        return "NullSpan()"


#: The shared disabled-path span.
NULL_SPAN = NullSpan()


def span(name: str, **tags: Any) -> Union[Span, NullSpan]:
    """Open a span (the one instrumentation entry point).

    Returns a live :class:`Span` when the layer is enabled and the
    shared :data:`NULL_SPAN` otherwise, so call sites read identically
    either way::

        with obs.span("sat.solve", net=net.name) as sp:
            ...
            sp.add("conflicts", delta)
    """
    if not _enabled:
        return NULL_SPAN
    return Span(name, **tags)


def add(name: str, n: Number = 1) -> None:
    """Increment counter ``name`` on the innermost active span.

    A no-op when the layer is disabled or no span is active — used by
    helpers (e.g. the BDD fixpoint loop) that observe work without
    owning a span.
    """
    if _enabled and _stack:
        _stack[-1].add(name, n)


def set_gauge(name: str, value: Number) -> None:
    """Set gauge ``name`` on the innermost active span (no-op when
    disabled or outside any span)."""
    if _enabled and _stack:
        _stack[-1].set_gauge(name, value)


class tracing:
    """Context manager: arm the layer with a fresh memory sink attached.

    ``with tracing() as sink:`` enables the layer, registers (and on
    exit removes) a :class:`~repro.obs.sinks.MemorySink` — or any sink
    passed explicitly — and restores the previous enabled state::

        with obs.tracing() as sink:
            build_reachability_graph(net)
        assert sink.counter_total("states")

    The workhorse of the test suite and the CLI's ``--stats`` path.
    """

    def __init__(self, sink: Optional[Any] = None):
        if sink is None:
            from .sinks import MemorySink

            sink = MemorySink()
        self.sink = sink
        self._was_enabled = False

    def __enter__(self) -> Any:
        """Enable the layer, attach the sink, return the sink."""
        self._was_enabled = _enabled
        enable(True)
        add_sink(self.sink)
        return self.sink

    def __exit__(self, exc_type, exc, tb) -> None:
        """Detach the sink and restore the previous enabled state."""
        remove_sink(self.sink)
        enable(self._was_enabled)
        return None
