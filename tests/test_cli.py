"""The command-line interface."""

import json
import multiprocessing
import time

import pytest

from repro.cli import main
from repro.stg import muller_pipeline, save_g, vme_read, write_g


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "spec.g"
    save_g(vme_read(), str(path))
    return str(path)


@pytest.fixture
def muller20_file(tmp_path):
    """A spec whose single-slot deadlock query runs far longer than a
    second on either rung of its ladder."""
    path = tmp_path / "m20.g"
    path.write_text(write_g(muller_pipeline(20)))
    return str(path)


class TestAnalyze:
    def test_analyze_file(self, spec_file, capsys):
        code = main(["analyze", spec_file])
        out = capsys.readouterr().out
        assert "CSC" in out
        assert code == 1  # not implementable as-is

    def test_analyze_bundled_example(self, capsys):
        code = main(["analyze", "latch_controller"])
        assert code == 0
        assert "implementable as SI circuit: True" in capsys.readouterr().out

    def test_verbose_lists_conflicts(self, spec_file, capsys):
        main(["analyze", spec_file, "-v"])
        assert "CSC conflict" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["analyze", "/nonexistent/x.g"]) == 2


class TestViews:
    def test_states(self, spec_file, capsys):
        assert main(["states", spec_file]) == 0
        out = capsys.readouterr().out
        assert "# 14 states" in out

    def test_waveform(self, spec_file, capsys):
        assert main(["waveform", spec_file]) == 0
        out = capsys.readouterr().out
        assert "/" in out and "\\" in out

    def test_dot(self, spec_file, capsys):
        assert main(["dot", spec_file]) == 0
        assert "digraph" in capsys.readouterr().out

    def test_reduce(self, capsys):
        assert main(["reduce", "vme_read_write"]) == 0
        out = capsys.readouterr().out
        assert "invariant:" in out and "SM component" in out

    def test_examples_listing(self, capsys):
        assert main(["examples"]) == 0
        out = capsys.readouterr().out
        assert "vme_read" in out and "mutex_controller" in out


class TestFlow:
    def test_resolve_to_file(self, spec_file, tmp_path, capsys):
        out_path = str(tmp_path / "resolved.g")
        assert main(["resolve", spec_file, "-o", out_path]) == 0
        text = open(out_path).read()
        assert ".internal csc0" in text

    def test_resolve_to_stdout(self, spec_file, capsys):
        assert main(["resolve", spec_file]) == 0
        assert "csc0" in capsys.readouterr().out

    def test_synthesize_and_verify(self, spec_file, capsys):
        assert main(["synthesize", spec_file, "--verify"]) == 0
        out = capsys.readouterr().out
        assert "DTACK = D" in out
        assert "speed-independent implementation: True" in out

    @pytest.mark.parametrize("arch", ["cg", "gc", "sr"])
    def test_architectures(self, spec_file, arch, capsys):
        assert main(["synthesize", spec_file, "--arch", arch,
                     "--verify"]) == 0

    def test_latch_circuit_verifies_from_its_reset_state(self, capsys):
        """The SR circuit's inserted state signals start where the resolved
        spec does, not where settling from 0 would put them."""
        assert main(["synthesize", "concurrent_latch_controller", "--arch",
                     "sr", "--verify"]) == 0
        out = capsys.readouterr().out
        assert "composed states: 27" in out
        assert "speed-independent implementation: True" in out

    def test_synthesize_decomposed(self, spec_file, capsys):
        assert main(["synthesize", spec_file, "--decompose",
                     "--verify"]) == 0
        out = capsys.readouterr().out
        assert "map0" in out

    def test_verilog_output(self, spec_file, capsys):
        assert main(["synthesize", spec_file, "--verilog"]) == 0
        assert "module" in capsys.readouterr().out


class TestFamilies:
    """``<family>:N`` names a scalable specification on the command line."""

    @pytest.mark.parametrize("spec, arch", [
        ("muller_pipeline:8", "cg"), ("sequencer:8", "gc"),
        ("parallel_handshakes:3", "sr")])
    def test_synthesize_and_verify(self, spec, arch, capsys):
        assert main(["synthesize", spec, "--arch", arch, "--verify"]) == 0
        assert "speed-independent implementation: True" \
            in capsys.readouterr().out

    @pytest.mark.parametrize("spec, states", [
        ("muller_pipeline:3", 16), ("parallel_handshakes:2", 16),
        ("sequencer:4", 8)])
    def test_states(self, spec, states, capsys):
        assert main(["states", spec]) == 0
        assert capsys.readouterr().out.startswith("# %d states" % states)

    @pytest.mark.parametrize("spec", [
        "muller_pipeline:0", "sequencer:-2", "parallel_handshakes:x",
        "sequencer:", "muller_pipeline:3.5", "sequencer: 4",
        "muller_pipeline:\u0663"])
    def test_bad_size_is_a_usage_error(self, spec, capsys):
        assert main(["synthesize", spec]) == 2
        family = spec.partition(":")[0]
        assert "usage %s:N with N a positive integer" % family \
            in capsys.readouterr().err

    def test_unknown_family_is_read_as_a_file(self, capsys):
        assert main(["states", "dining_philosophers:3"]) == 2
        assert "usage" not in capsys.readouterr().err


class TestNewCommands:
    def test_testbench(self, spec_file, capsys):
        assert main(["testbench", spec_file]) == 0
        out = capsys.readouterr().out
        assert "module vme_read_tb;" in out
        assert "expect_edge" in out

    def test_coverability_bounded(self, spec_file, capsys):
        assert main(["coverability", spec_file]) == 0
        assert "bounded: True" in capsys.readouterr().out

    def test_simulate(self, spec_file, tmp_path, capsys):
        delays = {t: [1, 2] for t in vme_read().net.transitions}
        delay_file = tmp_path / "delays.json"
        delay_file.write_text(json.dumps(delays))
        assert main(["simulate", spec_file, "--delays", str(delay_file),
                     "--cycles", "8"]) == 0
        out = capsys.readouterr().out
        assert "estimated cycle time" in out


class TestBddCheck:
    def test_count(self, spec_file, capsys):
        assert main(["bdd-check", spec_file]) == 0
        assert "reachable markings: 14" in capsys.readouterr().out

    def test_count_dense_reduced(self, capsys):
        assert main(["bdd-check", "vme_read_write", "--query", "count",
                     "--encoding", "dense"]) == 0
        assert "reachable codes:" in capsys.readouterr().out

    def test_count_is_the_original_nets(self, capsys):
        # the state graph of Figure 5 has 24 states; a count over a
        # linear-reduced net is not a count of this spec, so --reduce
        # is gone rather than answering for another net
        assert main(["bdd-check", "vme_read_write", "--query",
                     "count"]) == 0
        assert "reachable markings: 24 " in capsys.readouterr().out
        with pytest.raises(SystemExit) as err:
            main(["bdd-check", "vme_read_write", "--query", "count",
                  "--reduce"])
        assert err.value.code == 2

    def test_deadlock_free_proof(self, spec_file, capsys):
        assert main(["bdd-check", spec_file, "--query", "deadlock"]) == 0
        out = capsys.readouterr().out
        assert "deadlock-free (winner: bdd/bdd" in out
        assert "symbolic fixpoint proved deadlock freedom" in out

    def test_csc_conflict_found(self, spec_file, capsys):
        assert main(["bdd-check", spec_file, "--query", "csc"]) == 1
        out = capsys.readouterr().out
        assert "conflict (winner: bdd/bdd)" in out
        assert "covers 1 conflicting code(s)" in out

    def test_csc_clean_example(self, capsys):
        assert main(["bdd-check", "vme_read_csc", "--query", "csc"]) == 0
        assert "no-conflict (winner: bdd/bdd" in capsys.readouterr().out

    def test_sorted_order_variant(self, spec_file, capsys):
        assert main(["bdd-check", spec_file, "--order", "sorted"]) == 0
        assert "reachable markings: 14" in capsys.readouterr().out

    def test_dense_restricted_to_count(self, spec_file, capsys):
        assert main(["bdd-check", spec_file, "--query", "csc",
                     "--encoding", "dense"]) == 2

    def test_reduce_restricted_to_net_queries(self, spec_file, capsys):
        with pytest.raises(SystemExit) as err:
            main(["bdd-check", spec_file, "--query", "csc", "--reduce"])
        assert err.value.code == 2


class TestSatCheck:
    def test_deadlock_bounded(self, spec_file, capsys):
        assert main(["sat-check", spec_file, "--bound", "8"]) == 0
        assert "deadlock-free (winner: sat/kinduction" in \
            capsys.readouterr().out

    def test_deadlock_induction(self, spec_file, capsys):
        # the SAT ladder tries k-induction before BMC
        assert main(["sat-check", spec_file]) == 0
        assert "proved deadlock-free by 0-induction" in \
            capsys.readouterr().out

    def test_csc_conflict_found(self, spec_file, capsys):
        assert main(["sat-check", spec_file, "--property", "csc",
                     "--bound", "12"]) == 1
        out = capsys.readouterr().out
        assert "conflict (winner: sat/sat, validated by token-game)" in out
        assert "found a CSC conflict" in out
        assert "witness:" in out

    def test_csc_clean_example(self, capsys):
        # a bounded miss is no proof: unknown, never no-conflict
        assert main(["sat-check", "latch_controller", "--property", "csc",
                     "--bound", "8"]) == 1
        out = capsys.readouterr().out
        assert out.startswith("unknown ")
        assert "no CSC conflict within 8 steps (bounded)" in out

    def test_bounded_csc_miss_is_unknown(self, capsys):
        # vme_read_csc is CSC-clean, but two steps prove nothing
        assert main(["sat-check", "vme_read_csc", "--property", "csc",
                     "--bound", "2", "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "unknown"
        assert not doc["details"]["definitive"]

    def test_reach_with_target(self, spec_file, capsys):
        assert main(["sat-check", spec_file, "--property", "reach",
                     "--target", "p4", "--cover", "--bound", "8"]) == 1
        assert "reached" in capsys.readouterr().out

    def test_reach_requires_target(self, spec_file, capsys):
        assert main(["sat-check", spec_file, "--property", "reach"]) == 2

    def test_induction_only_for_deadlock(self, spec_file, capsys):
        # --induction is gone: the SAT ladder always tries k-induction
        # where one exists, and a bounded CSC miss reports unknown
        with pytest.raises(SystemExit) as err:
            main(["sat-check", spec_file, "--property", "csc",
                  "--induction"])
        assert err.value.code == 2

    def test_consistency(self, spec_file, capsys):
        assert main(["sat-check", spec_file, "--property", "consistency",
                     "--bound", "6"]) == 1
        out = capsys.readouterr().out
        assert out.startswith("unknown ")
        assert "no single-trace violation within 6 steps" in out

    def test_dimacs_dump_round_trips(self, spec_file, tmp_path, capsys):
        from repro.sat import CNF

        path = str(tmp_path / "unrolling.cnf")
        assert main(["sat-check", spec_file, "--bound", "4",
                     "--dimacs", path]) == 0
        text = open(path).read()
        assert "p cnf" in text
        parsed = CNF.from_dimacs(text)
        assert parsed.num_vars > 0 and parsed.clauses
        assert "# wrote" in capsys.readouterr().out

    @pytest.mark.parametrize("prop,expect_sat", [
        ("deadlock", False), ("csc", True), ("consistency", False)])
    def test_dimacs_dump_reproduces_verdict(self, spec_file, tmp_path,
                                            prop, expect_sat, capsys):
        # the dumped formula must be satisfiable iff the CLI reported a
        # counterexample, for every property (not just deadlock)
        from repro.sat import CNF, Solver

        path = str(tmp_path / "query.cnf")
        main(["sat-check", spec_file, "--property", prop, "--bound", "10",
              "--dimacs", path, "--json"])
        verdict = json.loads(capsys.readouterr().out)["verdict"]
        assert (verdict in ("deadlock", "conflict", "violation")) == \
            expect_sat
        solver = Solver(CNF.from_dimacs(open(path).read()))
        assert solver.solve() == expect_sat


class TestCheck:
    def test_single_slot_csc_runs_a_complete_method(self, capsys):
        # the SAT slot cannot prove CSC; the first slot that can is bdd
        assert main(["check", "vme_read_csc", "--query", "csc"]) == 0
        assert capsys.readouterr().out.startswith(
            "no-conflict (winner: bdd/bdd")

    def test_single_slot_consistency_runs_a_complete_method(self, capsys):
        assert main(["check", "latch_controller", "--query",
                     "consistency"]) == 0
        assert capsys.readouterr().out.startswith(
            "consistent (winner: compiled/explicit")

    def test_reach_exit_code_reads_the_holds_verdict(self, spec_file,
                                                     capsys):
        # the property of a reach query is "the target is unreachable"
        assert main(["check", spec_file, "--query", "reach",
                     "--target", "p4", "--cover"]) == 1
        assert capsys.readouterr().out.startswith("reached ")
        assert main(["check", spec_file, "--query", "reach",
                     "--target", "p0 p4"]) == 0
        assert capsys.readouterr().out.startswith("unreachable ")

    def test_deadline_stops_the_single_slot(self, muller20_file, capsys):
        # without --portfolio the slot runs in a worker process when a
        # deadline is given, so each rung stops when its deadline passes
        started = time.perf_counter()
        code = main(["check", muller20_file, "--query", "deadlock",
                     "--deadline", "0.5"])
        assert time.perf_counter() - started < 10.0
        assert code == 1
        out = capsys.readouterr().out
        assert out.startswith("unknown ")
        assert "timeouts=" in out
        assert multiprocessing.active_children() == []

    def test_deadline_with_inline_is_a_usage_error(self, muller20_file,
                                                   capsys):
        # nothing stops an in-process rung, so the pair is refused
        assert main(["check", muller20_file, "--query", "deadlock",
                     "--inline", "--deadline", "0.5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --deadline")


class TestTelemetry:
    def test_sat_check_json_round_trips(self, spec_file, capsys):
        from repro import obs

        code = main(["sat-check", spec_file, "--property", "csc",
                     "--bound", "12", "--json"])
        assert code == 1
        report = json.loads(capsys.readouterr().out)
        assert obs.validate_run_report(report) == []
        assert report["schema"] == "repro-run-report/1"
        assert report["command"] == "sat-check"
        assert report["verdict"] == "conflict"
        assert report["exit_code"] == 1
        assert report["details"]["query"] == "csc"
        assert report["details"]["engine"] == "sat"
        assert report["details"]["witness"]
        solve = report["stats"]["sat.solve"]
        assert solve["counters"]["decisions"] > 0
        assert solve["counters"]["propagations"] > 0

    def test_bdd_check_json_round_trips(self, spec_file, capsys):
        from repro import obs

        code = main(["bdd-check", spec_file, "--query", "csc", "--json"])
        assert code == 1
        report = json.loads(capsys.readouterr().out)
        assert obs.validate_run_report(report) == []
        assert report["command"] == "bdd-check"
        assert report["verdict"] == "conflict"
        assert report["details"]["engine"] == "bdd"
        assert "covers 1 conflicting code" in report["details"]["evidence"]
        fixpoint = report["stats"]["bdd.fixpoint"]
        assert fixpoint["counters"]["image_iterations"] > 0
        assert fixpoint["gauges"]["peak_nodes"] > 0

    def test_bdd_check_json_count_verdict(self, spec_file, capsys):
        code = main(["bdd-check", spec_file, "--query", "count", "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "counted"
        assert report["details"]["reachable"] == 14

    def test_stats_table_goes_to_stderr(self, spec_file, capsys):
        assert main(["sat-check", spec_file, "--bound", "8"]) == 0
        plain = capsys.readouterr().out
        code = main(["sat-check", spec_file, "--bound", "8", "--stats"])
        assert code == 0
        captured = capsys.readouterr()
        # stdout is byte-identical to a run without --stats
        assert captured.out == plain
        assert plain.startswith("deadlock-free ")
        assert "sat.solve" in captured.err
        assert "span" in captured.err

    def test_human_output_unchanged_by_flags(self, spec_file, capsys):
        main(["bdd-check", spec_file, "--query", "csc"])
        plain = capsys.readouterr().out
        main(["bdd-check", spec_file, "--query", "csc", "--stats"])
        assert capsys.readouterr().out == plain

    def test_trace_file_lints_clean(self, spec_file, tmp_path, capsys):
        from repro import obs

        path = str(tmp_path / "run.jsonl")
        assert main(["bdd-check", spec_file, "--query", "count",
                     "--trace", path]) == 0
        assert obs.validate_trace_file(path) == []
        names = [json.loads(line)["name"]
                 for line in open(path).read().splitlines()]
        assert "bdd.fixpoint" in names

    def test_analyze_stats(self, spec_file, capsys):
        assert main(["analyze", spec_file, "--stats"]) == 1
        captured = capsys.readouterr()
        assert "implementable as SI circuit: False" in captured.out
        assert "analysis.implementability" in captured.err

    def test_flags_do_not_leave_the_layer_armed(self, spec_file, capsys):
        from repro import obs

        main(["bdd-check", spec_file, "--query", "count", "--stats"])
        capsys.readouterr()
        assert not obs.enabled()
        assert obs.active_sinks() == []


class TestSeparation:
    def test_separation_command(self, spec_file, tmp_path, capsys):
        delays = {t: [1, 2] for t in vme_read().net.transitions}
        delays["DSr+"] = [18, 25]
        delay_file = tmp_path / "delays.json"
        delay_file.write_text(json.dumps(delays))
        code = main(["separation", spec_file, "LDTACK-", "DSr+",
                     "--delays", str(delay_file), "--offset", "-1"])
        out = capsys.readouterr().out
        assert "max sep(LDTACK-, DSr+)" in out
        assert code == 0  # negative separation with the slow bus
