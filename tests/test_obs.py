"""The repro.obs instrumentation layer: spans, counters, sinks, schemas."""

import io
import json

import pytest

from repro import obs
from repro.obs.sinks import JsonlSink, MemorySink, report
from repro.stg import vme_read

pytestmark = pytest.mark.usefixtures("pristine_obs")


@pytest.fixture
def pristine_obs():
    """Start and finish each test with the layer in its default state."""
    obs.reset()
    yield
    obs.reset()


class TestSwitch:
    def test_disabled_by_default(self):
        assert not obs.enabled()

    def test_enable_disable(self):
        obs.enable()
        assert obs.enabled()
        obs.disable()
        assert not obs.enabled()

    def test_tracing_scopes_and_restores(self):
        with obs.tracing() as sink:
            assert obs.enabled()
            assert sink in obs.active_sinks()
        assert not obs.enabled()
        assert sink not in obs.active_sinks()

    def test_tracing_restores_an_enabled_layer(self):
        obs.enable()
        with obs.tracing():
            pass
        assert obs.enabled()


class TestSpans:
    def test_nesting_parent_depth_and_dispatch_order(self):
        with obs.tracing() as sink:
            with obs.span("outer", engine="compiled"):
                with obs.span("inner"):
                    pass
        # children close (and stream) before their parents
        assert [r["name"] for r in sink.records] == ["inner", "outer"]
        inner, outer = sink.records
        assert inner["parent"] == "outer" and inner["depth"] == 1
        assert outer["parent"] is None and outer["depth"] == 0
        assert outer["tags"] == {"engine": "compiled"}
        assert inner["seq"] > outer["seq"]  # outer entered first

    def test_timing_sanity(self):
        with obs.tracing() as sink:
            with obs.span("outer"):
                with obs.span("inner"):
                    sum(range(1000))
        inner, outer = sink.records
        assert 0.0 <= inner["duration_s"] <= outer["duration_s"]
        assert outer["start_s"] <= inner["start_s"]

    def test_counters_gauges_and_annotations(self):
        with obs.tracing() as sink:
            with obs.span("work") as span:
                span.add("items", 3)
                span.add("items", 2)
                span.add("items")
                span.set_gauge("peak", 7)
                span.set_gauge("peak", 9)
                span.annotate(verdict="done")
        record = sink.spans("work")[0]
        assert record["counters"] == {"items": 6}
        assert record["gauges"] == {"peak": 9}
        assert record["tags"]["verdict"] == "done"

    def test_module_level_add_attaches_to_innermost_span(self):
        with obs.tracing() as sink:
            with obs.span("outer"):
                with obs.span("inner"):
                    obs.add("hits", 2)
                obs.set_gauge("level", 5)
        assert sink.spans("inner")[0]["counters"] == {"hits": 2}
        assert sink.spans("outer")[0]["gauges"] == {"level": 5}

    def test_error_is_recorded_and_span_unwound(self):
        with obs.tracing() as sink:
            with pytest.raises(ValueError):
                with obs.span("boom"):
                    raise ValueError("x")
        assert sink.spans("boom")[0]["error"] == "ValueError"
        assert obs.current() is None


class TestDisabledNoOp:
    def test_span_is_the_shared_null_singleton(self):
        assert obs.span("a") is obs.span("b")

    def test_null_span_discards_everything(self):
        with obs.span("x") as span:
            span.add("n", 5)
            span.set_gauge("g", 1)
            span.annotate(k=2)
            assert span.counters == {} and span.gauges == {}
            assert span.elapsed() == 0.0
        assert obs.current() is None

    def test_no_records_reach_sinks(self):
        sink = obs.add_sink(MemorySink())
        with obs.span("x") as span:
            span.add("n")
        obs.add("m")
        obs.set_gauge("g", 1)
        assert len(sink) == 0


class TestEngineCounters:
    def test_states_counter_matches_explicit_graph(self):
        from repro.ts.builder import build_reachability_graph

        stg = vme_read()
        with obs.tracing() as sink:
            graph = build_reachability_graph(stg)
        assert sink.counter_total("states", span="engine.build") == len(graph)
        assert sink.counter_total("arcs", span="engine.build") \
            == graph.arc_count()
        build = sink.spans("engine.build")[0]
        assert build["tags"]["engine"] in ("compiled", "naive")

    def test_sat_counters_match_solver_stats(self):
        from repro.sat import CNF, Solver

        solver = Solver(CNF.from_dimacs("p cnf 2 3\n1 2 0\n-1 0\n-2 0\n"))
        before = solver.stats()  # clause loading already propagates units
        with obs.tracing() as sink:
            assert solver.solve() is False
        stats = solver.stats()
        assert stats["vars"] == 2 and stats["clauses"] == 3
        record = sink.spans("sat.solve")[0]
        # the span records per-call deltas of the cumulative solver stats
        assert record["counters"]["conflicts"] \
            == stats["conflicts"] - before["conflicts"]
        assert record["counters"]["decisions"] \
            == stats["decisions"] - before["decisions"]
        assert record["counters"]["propagations"] \
            == stats["propagations"] - before["propagations"]
        assert record["tags"]["result"] == "unsat"

    def test_bdd_traversal_counters(self):
        from repro.bdd.queries import SymbolicCSC

        with obs.tracing() as sink:
            assert SymbolicCSC(vme_read()).has_conflict()
        fixpoint = sink.spans("bdd.fixpoint")[0]
        lookups = fixpoint["counters"]["ite_lookups"]
        hits = fixpoint["counters"]["ite_hits"]
        assert lookups > 0 and 0 <= hits <= lookups
        assert fixpoint["counters"]["image_iterations"] > 0
        assert fixpoint["gauges"]["peak_nodes"] > 0
        assert fixpoint["gauges"]["cache_hit_rate"] == hits / lookups
        assert sink.spans("bdd.csc")[0]["counters"]["excitation_checks"] > 0

    def test_implementability_counters_match_report(self):
        from repro.analysis import check_implementability

        with obs.tracing() as sink:
            result = check_implementability(vme_read())
        record = sink.spans("analysis.implementability")[0]
        assert record["counters"]["states"] == result.states
        assert record["counters"]["csc_conflicts"] \
            == len(result.csc_conflicts)
        assert record["tags"]["verdict"] == "not-implementable"

    def test_reduction_counters(self):
        from repro.petri import linear_reduce
        from repro.stg import vme_read_write

        net = vme_read_write().net
        with obs.tracing() as sink:
            reduced = linear_reduce(net)
        record = sink.spans("petri.reduce")[0]
        assert record["counters"]["rules_fired"] > 0
        assert record["counters"]["places_removed"] \
            == len(net.places) - len(reduced.places)


class TestSinks:
    def test_memory_sink_aggregation(self):
        with obs.tracing() as sink:
            for _ in range(3):
                with obs.span("step") as span:
                    span.add("n", 2)
                    span.set_gauge("g", 1)
        stats = sink.stats()
        assert stats["step"]["calls"] == 3
        assert stats["step"]["counters"] == {"n": 6}
        assert stats["step"]["time_s"] >= 0.0
        assert sink.counter_total("n") == 6
        assert sink.last_gauge("g", span="step") == 1

    def test_jsonl_sink_streams_valid_schema(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        obs.enable()
        sink = obs.add_sink(JsonlSink(path))
        with obs.span("a", engine="bdd"):
            with obs.span("b"):
                obs.add("work", 3)
        obs.remove_sink(sink)
        sink.close()
        assert obs.validate_trace_file(path) == []
        lines = open(path).read().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["name"] == "b" and first["counters"] == {"work": 3}
        assert first["schema"] == obs.TRACE_SCHEMA

    def test_jsonl_sink_accepts_streams(self):
        buffer = io.StringIO()
        with obs.tracing(JsonlSink(buffer)):
            with obs.span("x"):
                pass
        assert obs.validate_trace_text(buffer.getvalue()) == []

    def test_report_table(self):
        with obs.tracing() as sink:
            with obs.span("engine.build") as span:
                span.add("states", 14)
        table = report(sink)
        assert "engine.build" in table and "states=14" in table
        assert report(MemorySink()) == "(no spans recorded)"


class TestSchemas:
    def test_record_validator_catches_field_damage(self):
        with obs.tracing() as sink:
            with obs.span("x"):
                pass
        record = sink.records[0]
        assert obs.validate_trace_record(record) == []
        for damage in ({"schema": "bogus/9"}, {"name": ""}, {"seq": -1},
                       {"duration_s": -0.5}, {"tags": "nope"},
                       {"counters": {"k": "not-a-number"}}):
            assert obs.validate_trace_record(dict(record, **damage))

    def test_trace_text_rejects_blank_and_non_json_lines(self):
        assert obs.validate_trace_text("") == []
        assert obs.validate_trace_text("not json\n")
        assert obs.validate_trace_text("\n")

    def test_run_report_validator(self):
        good = {"schema": obs.REPORT_SCHEMA, "command": "bdd-check",
                "spec": "vme_read", "verdict": "counted", "exit_code": 0,
                "details": {}, "stats": {}}
        assert obs.validate_run_report(good) == []
        assert obs.validate_run_report(dict(good, schema="x"))
        assert obs.validate_run_report(dict(good, verdict=""))
        assert obs.validate_run_report(dict(good, exit_code="0"))
        bad_stats = dict(good, stats={"s": {"calls": 0, "time_s": -1,
                                            "counters": {}, "gauges": {}}})
        assert obs.validate_run_report(bad_stats)

    def test_lint_entry_point(self, tmp_path, capsys):
        from repro.obs.__main__ import main as lint

        good = tmp_path / "good.jsonl"
        with obs.tracing(JsonlSink(str(good))):
            with obs.span("x"):
                pass
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"schema": "bogus"}\n')
        assert lint([str(good)]) == 0
        assert lint([str(good), str(bad)]) == 1
        assert lint([]) == 2


class TestSolverStats:
    def test_public_stats_dict(self):
        from repro.sat import CNF, Solver

        solver = Solver(CNF.from_dimacs("p cnf 2 3\n1 2 0\n-1 0\n-2 0\n"))
        assert solver.solve() is False
        stats = solver.stats()
        assert set(stats) == {"vars", "clauses", "learnts", "conflicts",
                              "decisions", "propagations", "restarts"}
        assert stats["vars"] == 2
        assert stats["clauses"] == 3
        assert all(isinstance(v, int) for v in stats.values())

    def test_stats_track_incremental_use(self):
        from repro.sat import CNF, Solver

        solver = Solver(CNF.from_dimacs("p cnf 2 1\n1 2 0\n"))
        assert solver.solve() is True
        before = solver.stats()
        assert solver.solve([-1]) is True
        after = solver.stats()
        assert after["propagations"] >= before["propagations"]
