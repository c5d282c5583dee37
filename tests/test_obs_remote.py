"""Cross-process telemetry (``repro.obs.remote``).

The contract under test: worker span trees and heartbeats cross the
process boundary losslessly over the one result pipe (every record
still ``repro-trace/1`` valid), merging preserves the tree shape and
counter totals while adding slot/attempt attribution, only traced
workers run a heartbeat thread, and a killed process never costs more
than the unflushed tail of its trace — which per-line flushing makes
empty.
"""

import json
import multiprocessing
import os
import threading
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.cli import main
from repro.obs import remote
from repro.obs.analyze import build_tree, coverage, lint_records, read_trace
from repro.portfolio import TaskSpec, faults, race
from repro.stg import write_g
from repro.stg.library import ALL_EXAMPLES, muller_pipeline


@pytest.fixture(autouse=True)
def clean_slate():
    """Each test starts and ends with pristine obs state and no faults."""
    faults.clear()
    obs.reset()
    yield
    faults.clear()
    obs.reset()


def _pipe():
    return multiprocessing.Pipe(duplex=False)


# ---------------------------------------------------------------------- #
# the pipe sink and heartbeats
# ---------------------------------------------------------------------- #

class TestPipeSink:
    def test_forwards_records_as_span_messages(self):
        reader, writer = _pipe()
        sink = remote.PipeSink(writer)
        sink.handle({"name": "x", "event": "span"})
        kind, record = reader.recv()
        assert kind == "span"
        assert record["name"] == "x"

    def test_swallows_a_dead_pipe(self):
        reader, writer = _pipe()
        reader.close()
        writer.close()
        remote.PipeSink(writer).handle({"name": "x"})  # must not raise


class TestHeartbeats:
    def test_heartbeat_record_is_trace_schema_valid(self):
        record = remote.heartbeat_record({"slot": "sat", "attempt": 0})
        assert record["event"] == "heartbeat"
        assert record["name"] == remote.HEARTBEAT_NAME
        assert obs.validate_trace_record(record) == []

    def test_heartbeat_gauges_sample_the_progress_provider(self):
        obs.push_progress(lambda: {"conflicts": 41, "decisions": 7})
        try:
            record = remote.heartbeat_record({})
        finally:
            obs.pop_progress()
        assert record["gauges"] == {"conflicts": 41, "decisions": 7}

    def test_thread_beats_immediately_and_repeatedly(self, monkeypatch):
        monkeypatch.setattr(remote, "HEARTBEAT_S", 0.01)
        reader, writer = _pipe()
        thread = remote.HeartbeatThread(remote.PipeSink(writer),
                                        {"slot": "s"})
        thread.start()
        try:
            deadline = time.time() + 5.0
            beats = []
            while len(beats) < 3 and time.time() < deadline:
                if reader.poll(0.05):
                    beats.append(reader.recv())
        finally:
            thread.stop()
        assert len(beats) >= 3
        # heartbeats are trace records on the span stream
        assert all(kind == "span" and record["event"] == "heartbeat"
                   for kind, record in beats)
        assert beats[0][1]["tags"]["pid"] == os.getpid()


# ---------------------------------------------------------------------- #
# merging worker records into the parent trace
# ---------------------------------------------------------------------- #

def _worker_record(name, depth, parent, start_s, duration_s, seq,
                   counters=None):
    """A record shaped like a worker-side span (worker coordinates)."""
    return {
        "schema": obs.TRACE_SCHEMA, "event": "span", "name": name,
        "seq": seq, "depth": depth, "parent": parent,
        "start_s": start_s, "duration_s": duration_s,
        "tags": {}, "counters": dict(counters or {}), "gauges": {},
    }


class TestMerge:
    def test_merge_attributes_slot_attempt_and_owner(self):
        obs.enable()
        sink = obs.add_sink(obs.MemorySink())
        with obs.span("portfolio.race"):
            record = _worker_record("worker.task", 0, None, 0.5, 0.1, 0)
            merged = remote.merge_worker_record(record, slot="sat",
                                                attempt=2)
        assert merged["tags"]["slot"] == "sat"
        assert merged["tags"]["attempt"] == 2
        assert merged["parent"] == "portfolio.race"
        assert merged["depth"] == 1
        assert sink.spans("worker.task")  # dispatched to the sinks
        assert lint_records(sink.records) == []

    def test_merge_preserves_existing_attribution(self):
        obs.enable()
        obs.add_sink(obs.MemorySink())
        record = _worker_record("sat.solve", 1, "worker.task", 0.5, 0.1, 3)
        record["tags"]["slot"] = "original"
        merged = remote.merge_worker_record(record, slot="other", attempt=9)
        assert merged["tags"]["slot"] == "original"  # setdefault semantics

    def test_synthesized_task_record_is_valid_and_tagged(self):
        obs.enable()
        sink = obs.add_sink(obs.MemorySink())
        now = time.perf_counter()
        with obs.span("portfolio.race"):
            remote.synthesize_task_record(
                started_at=now - 0.25, stopped_at=now, slot="bdd",
                engine="bdd", method="bdd", attempt=0,
                outcome="cancelled")
        records = sink.spans(remote.TASK_SPAN)
        assert len(records) == 1
        record = records[0]
        assert record["tags"]["outcome"] == "cancelled"
        assert record["tags"]["synthetic"] is True
        assert record["duration_s"] == pytest.approx(0.25, abs=0.01)
        assert obs.validate_trace_record(record) == []


# a worker-side span forest: nested intervals with consistent depths —
# the property-test input for merge invariants
@st.composite
def span_forests(draw):
    records = []
    seq = [0]

    def node(depth, parent, lo, hi):
        start = draw(st.floats(min_value=lo, max_value=hi - 0.01,
                               allow_nan=False, allow_infinity=False))
        end = draw(st.floats(min_value=start + 0.001, max_value=hi,
                             allow_nan=False, allow_infinity=False))
        counters = draw(st.dictionaries(
            st.sampled_from(["conflicts", "states", "nodes"]),
            st.integers(min_value=0, max_value=1000), max_size=2))
        name = "s%d" % seq[0]
        records.append(_worker_record(name, depth, parent, start,
                                      end - start, seq[0], counters))
        seq[0] += 1
        if depth < 3 and end - start > 0.05:
            for _ in range(draw(st.integers(min_value=0, max_value=2))):
                node(depth + 1, name, start, end)

    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        node(1, "worker.task", 10.0, 20.0)
    return records


class TestMergeProperties:
    @given(span_forests())
    # a worker span with the same interval as its worker.task root (and
    # an earlier seq) must still nest under the root
    @example([_worker_record("s0", 1, "worker.task", 10.0, 10.0, 0)])
    @settings(max_examples=30, deadline=None)
    def test_merge_preserves_nesting_and_counter_totals(self, records):
        obs.reset()
        obs.enable()
        sink = obs.add_sink(obs.MemorySink())
        try:
            with obs.span("portfolio.race"):
                # the worker root arrives like a real worker's does
                root = _worker_record("worker.task", 0, None, 10.0, 10.0,
                                      999)
                for record in records + [root]:
                    remote.merge_worker_record(dict(record), slot="s",
                                               attempt=0)
        finally:
            obs.remove_sink(sink)
            obs.reset()
        merged = [r for r in sink.records if r["name"] != "portfolio.race"]
        # counter totals survive the merge
        for key in ("conflicts", "states", "nodes"):
            want = sum(r["counters"].get(key, 0) for r in records)
            got = sum(r["counters"].get(key, 0) for r in merged)
            assert got == want
        # depths shift uniformly: relative nesting is intact
        by_name = {r["name"]: r for r in merged}
        for record in records:
            shifted = by_name[record["name"]]
            assert shifted["depth"] == record["depth"] + 1
            assert shifted["parent"] == record["parent"]
        # and the tree over the worker's records reconstructs to one
        # forest rooted at its task span, losing no record
        roots = build_tree(merged)
        assert len(roots) == 1
        assert roots[0].name == "worker.task"
        assert sum(1 for _ in roots[0].walk()) == len(merged)
        assert lint_records(sink.records) == []


# ---------------------------------------------------------------------- #
# one result pipe per worker
# ---------------------------------------------------------------------- #

def _thread_count():
    return {"verdict": "n/a", "definitive": True,
            "threads": threading.active_count()}


#: A tag big enough that each span record is written to the pipe in more
#: than one piece.
BLOB = "x" * 20_000


def _bulk_spans(n):
    for i in range(n):
        with obs.span("bulk", i=i, blob=BLOB):
            pass
    return {"verdict": "n/a", "definitive": True}


class _SlimSink:
    """Keeps merged records with the bulky tag replaced by its length."""

    def __init__(self):
        self.records = []

    def handle(self, record):
        tags = dict(record["tags"])
        if "blob" in tags:
            tags["blob"] = len(tags["blob"])
        self.records.append(dict(record, tags=tags))


class TestWorkerPipe:
    def _run(self, fn, **kwargs):
        faults.install([])  # an ambient REPRO_FAULTS plan would interfere
        spec = TaskSpec(slot="s", engine="e", method="m", fn=fn,
                        kwargs=kwargs, max_attempts=1)
        result = race({"s": [spec]})
        assert result.winner is not None, result.outcomes
        return result.winner.payload

    def test_untraced_worker_starts_no_thread(self):
        assert self._run(_thread_count)["threads"] == 1

    def test_traced_worker_runs_one_heartbeat_thread(self):
        obs.enable()
        assert self._run(_thread_count)["threads"] == 2

    def test_large_spans_and_heartbeats_share_the_pipe(self, monkeypatch):
        # the heartbeat thread beats while the task thread writes records
        # larger than one pipe write; the sink's lock keeps every message
        # whole
        monkeypatch.setattr(remote, "HEARTBEAT_S", 0.0005)
        obs.enable()
        sink = obs.add_sink(_SlimSink())
        with obs.span("portfolio.race"):
            self._run(_bulk_spans, n=3000)
        bulk = [r for r in sink.records if r["name"] == "bulk"]
        assert sorted(r["tags"]["i"] for r in bulk) == list(range(3000))
        assert all(r["tags"]["blob"] == len(BLOB) for r in bulk)
        assert any(r["event"] == "heartbeat" for r in sink.records)
        assert lint_records(sink.records) == []


# ---------------------------------------------------------------------- #
# trace survival under kills
# ---------------------------------------------------------------------- #

class TestTraceSurvival:
    def test_jsonl_sink_line_buffering_survives_hard_exit(self, tmp_path):
        """A process that dies without flushing loses nothing: every
        record was pushed to the OS as its line was written."""
        path = tmp_path / "killed.jsonl"
        pid = os.fork()
        if pid == 0:  # the doomed child
            sink = obs.JsonlSink(str(path))
            for i in range(50):
                sink.handle({"seq": i})
            os._exit(9)  # no close(), no flush, no atexit
        os.waitpid(pid, 0)
        lines = path.read_text().splitlines()
        assert len(lines) == 50
        assert [json.loads(line)["seq"] for line in lines] == list(range(50))

    def test_killed_workers_leave_a_valid_attributed_trace(self, tmp_path):
        """REPRO_FAULTS kill plan: the merged trace stays schema-valid
        and still attributes the killed workers' lifetimes."""
        from repro.portfolio import check_deadlock

        trace = tmp_path / "faulted.jsonl"
        stg = ALL_EXAMPLES["vme_read"]()
        faults.install("kill:max_attempt=99,engine=sat")
        obs.enable()
        sink = obs.add_sink(obs.JsonlSink(str(trace)))
        try:
            verdict = check_deadlock(stg, deadline_s=10.0)
        finally:
            obs.remove_sink(sink)
            sink.close()
        assert verdict.verdict == "deadlock-free"
        records = read_trace(str(trace))
        assert lint_records(records) == []
        killed = [r for r in records if r["name"] == remote.TASK_SPAN
                  and r["tags"].get("slot") == "sat"]
        assert killed  # the killed slot's time is attributed, not lost
        assert all(r["tags"].get("synthetic") for r in killed)


# ---------------------------------------------------------------------- #
# the acceptance pipeline: Muller trace end to end
# ---------------------------------------------------------------------- #

class TestMullerAcceptance:
    def test_traced_check_attributes_the_race_and_reports(self, tmp_path,
                                                          capsys):
        spec_path = tmp_path / "muller12.g"
        spec_path.write_text(write_g(muller_pipeline(12)))
        trace = tmp_path / "muller.jsonl"
        assert main(["check", str(spec_path), "--portfolio",
                     "--trace", str(trace)]) == 0
        records = read_trace(str(trace))
        assert lint_records(records) == []
        assert any(r["event"] == "heartbeat" for r in records)
        # >= 90% of the race's wall-clock lands in named child spans
        # (worker tasks, synthetic cancellation spans, the validation
        # probe) — the "no attribution black hole" acceptance bar
        assert coverage(records, "portfolio.race") >= 0.9
        capsys.readouterr()
        assert main(["obs", "report", str(trace),
                     "--coverage", "portfolio.race"]) == 0
        out = capsys.readouterr().out
        assert "portfolio.race" in out
        assert "worker.task" in out
        assert "heartbeat" in out
        assert "coverage(portfolio.race):" in out
