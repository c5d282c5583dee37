"""The fault-tolerant worker pool behind the portfolio.

Every engine run executes in a **child process** under a per-task
wall-clock deadline, supervised by an event loop in the parent that is
engineered to survive every way a worker can misbehave:

* **deadline overrun** — the child is terminated and the outcome
  classified as an :class:`~repro.errors.EngineTimeoutError`; the slot
  *degrades* to the next-cheaper rung of its ladder;
* **crash** (segfault, ``os._exit``, OOM kill, injected ``kill``
  fault) — classified as a :class:`~repro.errors.WorkerCrashError` and
  retried with bounded exponential backoff; when attempts are
  exhausted the slot degrades;
* **state explosion** — a structured
  :class:`~repro.errors.StateExplosionError` reported by the child
  degrades the slot immediately (retrying a deterministic blow-up is
  wasted work);
* **any other exception** — retried with backoff (it may be an
  injected or transient fault), then degraded.

The deadline is the only way a worker is stopped early: a hung worker
(a spinning loop, a blocking call) is classified when its deadline
passes, like any other overrun.

Telemetry crosses the process boundary with the results: when tracing
is armed, each worker streams its span records and heartbeat events
over the result pipe and the supervisor merges them under the ambient
``portfolio.race`` span with slot/engine/attempt attribution
(:func:`repro.obs.remote.merge_worker_record`).  Workers the supervisor
stops before they can report — cancelled losers, deadline overruns,
crashes — get their ``worker.task`` interval synthesized from the
parent's own clock, so the merged trace attributes every second a
child process ran.

The race ends at the **first definitive verdict**: every other live
worker is terminated and joined before :func:`race` returns, so no
orphan processes outlive the call (a ``finally`` block enforces this on
every exit path, including KeyboardInterrupt).  Workers that finish
with *partial* evidence (``definitive: False`` payloads — bounded
searches that found nothing) close their slot and contribute their
evidence to the eventual ``Unknown`` verdict if nobody wins.

Workers are forked, so models need not be pickled on the way in;
payloads cross back through a pipe and must be plain data (see
:mod:`repro.portfolio.tasks`).  Fault injection
(:mod:`repro.portfolio.faults`) hooks the child wrapper, never the
engines themselves.

``race(..., inline=True)`` drives the same slots through the same loop
without child processes: each rung runs in the caller's process, one
slot at a time in schedule order, and its result or exception is
classified exactly as a worker's report would be.  There is no deadline
to enforce; injected faults arrive pre-translated
(:func:`repro.portfolio.faults.fire`).
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from .. import obs
from ..errors import EngineTimeoutError, StateExplosionError, WorkerCrashError
from ..obs import remote
from . import faults

#: Default per-task wall-clock budget (seconds).
DEFAULT_DEADLINE_S = 60.0

#: Default bounded-attempt budget per ladder rung (1 initial + retries).
DEFAULT_MAX_ATTEMPTS = 3

#: First retry backoff; doubles per attempt, capped at BACKOFF_CAP_S.
BACKOFF_BASE_S = 0.05
BACKOFF_CAP_S = 2.0


def _context():
    """The multiprocessing context: fork where available (no pickling of
    models on the way in), the platform default elsewhere."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


@dataclass
class TaskSpec:
    """One engine/method run the pool may execute.

    ``fn(**kwargs)`` must be a module-level runner returning a plain
    payload dict (:mod:`repro.portfolio.tasks`); ``slot`` names the race
    lane the task belongs to, ``engine``/``method`` identify it in
    outcomes, faults and telemetry.
    """

    slot: str
    engine: str
    method: str
    fn: Callable[..., dict]
    kwargs: dict = field(default_factory=dict)
    deadline_s: float = DEFAULT_DEADLINE_S
    max_attempts: int = DEFAULT_MAX_ATTEMPTS

    def label(self) -> str:
        """Short ``slot:engine/method`` identifier for messages."""
        return "%s:%s/%s" % (self.slot, self.engine, self.method)


@dataclass
class TaskOutcome:
    """The classified result of one ladder rung (possibly after retries).

    ``status`` is one of ``"ok"`` (definitive payload), ``"partial"``
    (payload with ``definitive: False``), ``"timeout"``, ``"crash"`` or
    ``"error"``; ``error`` carries the classified exception
    (:class:`~repro.errors.EngineTimeoutError`,
    :class:`~repro.errors.WorkerCrashError`, a reconstructed engine
    error) when the rung failed.
    """

    spec: TaskSpec
    status: str
    payload: Optional[dict] = None
    error: Optional[BaseException] = None
    attempts: int = 1
    elapsed_s: float = 0.0


@dataclass
class RaceResult:
    """What :func:`race` hands back to the orchestration layer.

    ``winner`` is the first definitive outcome (or None), ``outcomes``
    every classified rung in completion order, and ``stats`` the
    robustness counters (``attempts``, ``retries``, ``timeouts``,
    ``crashes``, ``errors``, ``degradations``, ``cancellations``).
    """

    winner: Optional[TaskOutcome]
    outcomes: List[TaskOutcome]
    stats: Dict[str, int]
    elapsed_s: float


def _error_attrs(exc: BaseException) -> dict:
    """Structured attributes worth shipping across the pipe."""
    if isinstance(exc, StateExplosionError):
        return {"bound": exc.bound, "states": exc.states}
    return {}


def _worker_main(conn, spec: TaskSpec, attempt: int) -> None:
    """Child entry point: arm telemetry, fire faults, run, report, exit.

    When tracing is armed, the telemetry context streams span records
    and heartbeats over ``conn`` while the task runs; it is closed
    *before* the final result message, so the parent receives the
    worker's complete span tree ahead of the verdict that settles the
    slot.
    """
    final = None
    telemetry = remote.worker_telemetry(
        conn, slot=spec.slot, engine=spec.engine, method=spec.method,
        attempt=attempt)
    with telemetry:
        try:
            faults.fire(spec.slot, spec.engine, spec.method, attempt)
            payload = spec.fn(**spec.kwargs)
            telemetry.annotate(outcome="ok")
            final = ("ok", payload)
        except BaseException as exc:  # report everything; parent classifies
            telemetry.annotate(outcome="error", error=type(exc).__name__)
            final = ("error", type(exc).__name__, str(exc),
                     _error_attrs(exc))
    try:
        conn.send(final)
    except Exception:
        pass  # pipe gone: the parent will classify this as a crash
    finally:
        conn.close()


def _rebuild_error(name: str, message: str, attrs: dict) -> BaseException:
    """Reconstruct a child-reported exception in the parent.

    Known :mod:`repro.errors` classes come back as themselves (with
    structured attributes restored for :class:`StateExplosionError`);
    everything else — including injected faults — becomes a
    ``RuntimeError`` tagged with the original type name.
    """
    from .. import errors as errors_module

    cls = getattr(errors_module, name, None)
    if cls is StateExplosionError:
        return StateExplosionError(message, bound=attrs.get("bound"),
                                   states=attrs.get("states"))
    if isinstance(cls, type) and issubclass(cls, errors_module.ReproError):
        return cls(message)
    return RuntimeError("%s: %s" % (name, message))


class _Worker:
    """One live child process plus its parent-side bookkeeping."""

    __slots__ = ("spec", "attempt", "process", "conn", "started_at",
                 "deadline_at", "root_reported")

    def __init__(self, ctx, spec: TaskSpec, attempt: int):
        self.spec = spec
        self.attempt = attempt
        self.conn, child_conn = ctx.Pipe(duplex=False)
        self.process = ctx.Process(
            target=_worker_main, args=(child_conn, spec, attempt),
            daemon=True)
        # stamp before the fork so the synthetic span of a worker that
        # never reports covers the process-start latency it caused
        self.started_at = time.perf_counter()
        self.process.start()
        child_conn.close()  # the parent keeps only the read end
        self.deadline_at = self.started_at + spec.deadline_s
        self.root_reported = False

    def elapsed(self) -> float:
        return time.perf_counter() - self.started_at

    def reap(self, timeout: float = 5.0) -> None:
        """Join the child, escalating terminate → kill; close the pipe."""
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout)
            if self.process.is_alive():
                self.process.kill()
                self.process.join(timeout)
        else:
            self.process.join(timeout)
        self.conn.close()


class _Slot:
    """One race lane: a ladder of rungs from preferred to cheapest."""

    __slots__ = ("name", "ladder", "rung", "attempt", "worker",
                 "restart_at", "evidence", "closed")

    def __init__(self, name: str, ladder: Sequence[TaskSpec]):
        self.name = name
        self.ladder = list(ladder)
        self.rung = 0
        self.attempt = 0
        self.worker: Optional[_Worker] = None
        # when the next attempt is due; None while one runs or once closed
        self.restart_at: Optional[float] = 0.0
        self.evidence: List[TaskOutcome] = []
        self.closed = not self.ladder

    @property
    def spec(self) -> TaskSpec:
        return self.ladder[self.rung]

    def degrade(self) -> bool:
        """Advance to the next-cheaper rung, due at once; False when
        exhausted."""
        self.rung += 1
        self.attempt = 0
        if self.rung >= len(self.ladder):
            self.restart_at = None
            self.closed = True
            return False
        self.restart_at = time.perf_counter()
        return True


def _run_inline(spec: TaskSpec, attempt: int) -> TaskOutcome:
    """Run one rung in this process and classify it as :func:`race`
    classifies a worker's report (the ``inline=True`` executor)."""
    started = time.perf_counter()
    status, payload, error = "error", None, None
    try:
        faults.fire(spec.slot, spec.engine, spec.method, attempt, inline=True)
        payload = spec.fn(**spec.kwargs)
        status = "ok" if payload.get("definitive") else "partial"
    except EngineTimeoutError as exc:  # an injected delay
        status, error = "timeout", exc
    except WorkerCrashError as exc:  # an injected kill
        status, error = "crash", exc
    except Exception as exc:  # engine failure: the supervisor classifies
        error = exc
    return TaskOutcome(spec, status, payload=payload, error=error,
                       attempts=attempt + 1,
                       elapsed_s=time.perf_counter() - started)


def race(ladders: Dict[str, Sequence[TaskSpec]],
         inline: bool = False) -> RaceResult:
    """Race the ladders' head rungs; first definitive verdict wins.

    ``ladders`` maps slot names to degradation ladders (most-informative
    rung first, cheapest last).  The supervision loop enforces each
    rung's deadline, retries crashes and unclassified errors with
    exponential backoff, degrades on timeout / state explosion /
    exhausted retries, and cancels every loser the moment a worker
    reports a definitive payload.  Robustness counters are also
    forwarded to the ambient :mod:`repro.obs` span (``attempts``,
    ``retries``, ``timeouts``, ``crashes``, ``errors``,
    ``degradations``, ``cancellations``) when telemetry is armed — and
    each worker's span records and heartbeats are merged into the
    parent trace as they stream in (:mod:`repro.obs.remote`).

    With ``inline=True`` the rungs run in this process instead, one slot
    at a time in ``ladders`` order, through the same retry / degrade /
    settle logic (see the module docstring).

    The fault plan is parsed before any rung runs, so a malformed one
    raises :class:`~repro.portfolio.faults.FaultSyntaxError` here.
    Never raises on worker misbehaviour — a race with no surviving
    definitive rung returns ``winner=None`` plus the partial evidence.
    Guarantees no child process outlives the call.
    """
    faults.active_rules()  # a malformed plan fails the call, not each rung
    ctx = _context()
    started = time.perf_counter()
    slots = [_Slot(name, ladder) for name, ladder in ladders.items()]
    outcomes: List[TaskOutcome] = []
    stats = {"attempts": 0, "retries": 0, "timeouts": 0, "crashes": 0,
             "errors": 0, "degradations": 0, "cancellations": 0}
    winner: Optional[TaskOutcome] = None

    def count(key: str, n: int = 1) -> None:
        stats[key] += n
        obs.add(key, n)

    def start_worker(slot: _Slot) -> None:
        slot.restart_at = None
        count("attempts")
        if inline:
            settle(slot, _run_inline(slot.spec, slot.attempt))
        else:
            slot.worker = _Worker(ctx, slot.spec, slot.attempt)

    def handle_telemetry(worker: _Worker, record: dict) -> None:
        """Absorb one streamed trace record (a span or a heartbeat)."""
        if record.get("parent") is None \
                or record.get("name") == remote.TASK_SPAN:
            worker.root_reported = True
        if obs.enabled():
            remote.merge_worker_record(record, slot=worker.spec.slot,
                                       attempt=worker.attempt)

    def salvage_telemetry(worker: _Worker) -> None:
        """Drain telemetry already in a worker's pipe before reaping it,
        so records a loser streamed before cancellation still merge."""
        while True:
            try:
                if not worker.conn.poll(0):
                    return
                message = worker.conn.recv()
            except (EOFError, OSError):
                return
            if message[0] == "span":
                handle_telemetry(worker, message[1])
            # a final verdict that lost the race is dropped

    def stop_worker(slot: _Slot, outcome: Optional[str] = None) -> None:
        worker = slot.worker
        if worker is None:
            return
        if obs.enabled():
            salvage_telemetry(worker)
        worker.reap()
        if obs.enabled() and not worker.root_reported:
            # the child never closed its root span (killed, hung,
            # cancelled): attribute its lifetime — including the
            # terminate/join we just paid for it — from our own clock
            remote.synthesize_task_record(
                started_at=worker.started_at,
                stopped_at=time.perf_counter(),
                slot=worker.spec.slot, engine=worker.spec.engine,
                method=worker.spec.method, attempt=worker.attempt,
                outcome=outcome or "stopped")
        slot.worker = None

    def schedule_retry(slot: _Slot) -> None:
        count("retries")
        delay = min(BACKOFF_CAP_S, BACKOFF_BASE_S * (2 ** slot.attempt))
        slot.attempt += 1
        slot.restart_at = time.perf_counter() + delay

    def degrade_or_close(slot: _Slot) -> None:
        if slot.degrade():
            count("degradations")

    def settle(slot: _Slot, outcome: TaskOutcome) -> None:
        """Record a classified rung outcome and advance the slot."""
        nonlocal winner
        outcomes.append(outcome)
        if outcome.status == "ok":
            winner = outcome
            return
        if outcome.status == "partial":
            slot.evidence.append(outcome)
            slot.closed = True
            return
        if outcome.status == "timeout":
            count("timeouts")
            degrade_or_close(slot)
            return
        if outcome.status == "crash":
            count("crashes")
        else:
            count("errors")
        if isinstance(outcome.error, StateExplosionError):
            degrade_or_close(slot)  # deterministic blow-up: don't retry
        elif slot.attempt + 1 < slot.spec.max_attempts:
            schedule_retry(slot)
        else:
            degrade_or_close(slot)

    def receive(slot: _Slot) -> None:
        """Drain a ready worker connection: absorb telemetry messages,
        classify and settle on the final result (or on EOF = crash)."""
        worker = slot.worker
        assert worker is not None
        attempts = slot.attempt + 1
        while slot.worker is not None:
            try:
                if not worker.conn.poll(0):
                    return  # telemetry only so far; the task is running
                message = worker.conn.recv()
            except (EOFError, OSError):
                message = None
            if message is not None and message[0] == "span":
                handle_telemetry(worker, message[1])
                continue
            elapsed = worker.elapsed()
            stop_worker(slot, outcome="crash" if message is None else None)
            if message is None:  # died before reporting
                exitcode = worker.process.exitcode
                error = WorkerCrashError(
                    "worker %s died without reporting (exit code %s,"
                    " attempt %d)" % (worker.spec.label(), exitcode,
                                      slot.attempt),
                    task=worker.spec.label(), exitcode=exitcode)
                settle(slot, TaskOutcome(worker.spec, "crash", error=error,
                                         attempts=attempts,
                                         elapsed_s=elapsed))
                return
            if message[0] == "ok":
                payload = message[1]
                status = "ok" if payload.get("definitive") else "partial"
                settle(slot, TaskOutcome(worker.spec, status,
                                         payload=payload, attempts=attempts,
                                         elapsed_s=elapsed))
                return
            _, name, text, attrs = message
            settle(slot, TaskOutcome(worker.spec, "error",
                                     error=_rebuild_error(name, text, attrs),
                                     attempts=attempts, elapsed_s=elapsed))
            return

    def expire(slot: _Slot) -> None:
        """Terminate a worker that overran its deadline."""
        worker = slot.worker
        assert worker is not None
        attempts = slot.attempt + 1
        elapsed = worker.elapsed()
        stop_worker(slot, outcome="timeout")
        error = EngineTimeoutError(
            "worker %s exceeded its %.3gs deadline"
            % (worker.spec.label(), worker.spec.deadline_s),
            task=worker.spec.label(), deadline_s=worker.spec.deadline_s)
        settle(slot, TaskOutcome(worker.spec, "timeout", error=error,
                                 attempts=attempts, elapsed_s=elapsed))

    try:
        while winner is None:
            live = [s for s in slots if not s.closed]
            if not live:
                break
            if inline:  # in-process: one slot at a time, schedule order
                live = live[:1]
            now = time.perf_counter()
            # start every rung that is due: first attempts, degradations
            # and retries whose backoff has elapsed
            for slot in live:
                if slot.worker is None and slot.restart_at is not None \
                        and now >= slot.restart_at:
                    start_worker(slot)
            if winner is not None:  # inline: the rung just run won
                break
            # how long may we sleep before something needs attention?
            now = time.perf_counter()
            wakeups = []
            for s in live:
                if s.worker is not None:
                    wakeups.append(s.worker.deadline_at)
                elif s.restart_at is not None:
                    wakeups.append(s.restart_at)
            if not wakeups:  # inline: the slot closed; go on to the next
                continue
            timeout = max(0.0, min(wakeups) - now)
            results = {s.worker.conn: s for s in live
                       if s.worker is not None}
            if results:
                for conn in multiprocessing.connection.wait(list(results),
                                                            timeout):
                    receive(results[conn])
                    if winner is not None:
                        break
            else:
                time.sleep(min(timeout, 0.05))
            if winner is not None:
                break
            now = time.perf_counter()
            for slot in slots:
                if slot.worker is not None and now >= slot.worker.deadline_at:
                    expire(slot)
    finally:
        # cancel every loser: no child process outlives the race
        for slot in slots:
            if slot.worker is not None:
                count("cancellations")
                stop_worker(slot, outcome="cancelled")

    return RaceResult(winner=winner, outcomes=outcomes, stats=stats,
                      elapsed_s=time.perf_counter() - started)
