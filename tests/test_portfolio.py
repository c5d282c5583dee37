"""The fault-tolerant portfolio layer (``repro.portfolio``).

The load-bearing property is **verdict stability**: on the library
corpus the portfolio must return verdicts bit-identical to fault-free
single-engine runs — with no faults, and under every injected-fault
scenario (worker kill, deadline overrun, mid-run raise), in both the
process-racing and the inline execution modes — while provably
cancelling losers (no orphan worker processes) and never resolving an
engine disagreement silently.
"""

import json
import multiprocessing
import time

import pytest

from repro.cli import main
from repro.errors import (EngineTimeoutError, StateExplosionError,
                          WorkerCrashError)
from repro.petri.compiled import CompiledNet
from repro.petri.library import dining_philosophers
from repro.petri.marking import Marking
from repro.portfolio import (TaskSpec, check_consistency, check_csc,
                             check_deadlock, check_reach, race)
from repro.portfolio import faults, tasks
from repro.portfolio.faults import FaultRule, FaultSyntaxError, parse
from repro.stg.library import ALL_EXAMPLES, muller_pipeline
from repro.ts import explore
from repro.ts.transition_system import TransitionSystem


@pytest.fixture(autouse=True)
def no_leftover_faults():
    """Every test starts and ends with a clean fault plan."""
    faults.clear()
    yield
    faults.clear()


def assert_no_orphans():
    """No worker process survives a finished portfolio call."""
    deadline = time.time() + 5.0
    while multiprocessing.active_children() and time.time() < deadline:
        time.sleep(0.05)  # terminated children may need a beat to reap
    assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------- #
# fault rules
# ---------------------------------------------------------------------- #

class TestFaultRules:
    def test_parse_roundtrip(self):
        text = "kill:engine=sat,attempt=0;delay:method=bdd,seconds=9"
        rules = parse(text)
        assert [r.action for r in rules] == ["kill", "delay"]
        assert rules[0].engine == "sat" and rules[0].attempt == 0
        assert rules[1].seconds == 9.0
        assert parse(";".join(r.spec() for r in rules)) == rules

    def test_parse_empty(self):
        assert parse("") == [] and parse(" ; ") == []

    @pytest.mark.parametrize("bad", [
        "explode:engine=sat", "kill:color=red", "kill:attempt=x",
        "delay:seconds", "stall:seconds=1"])
    def test_parse_rejects_typos_loudly(self, bad):
        with pytest.raises(FaultSyntaxError):
            parse(bad)

    def test_matching(self):
        rule = FaultRule("raise", slot="sat", max_attempt=1)
        assert rule.matches("sat", "sat", "bmc", 0)
        assert rule.matches("sat", "sat", "bmc", 1)
        assert not rule.matches("sat", "sat", "bmc", 2)
        assert not rule.matches("bdd", "bdd", "bdd", 0)

    def test_probabilistic_matching_is_deterministic(self):
        rule = FaultRule("raise", p=0.5, seed=7)
        draws = [rule.matches("s", "e", "m", i) for i in range(64)]
        assert any(draws) and not all(draws)
        assert draws == [rule.matches("s", "e", "m", i) for i in range(64)]
        other = FaultRule("raise", p=0.5, seed=8)
        assert draws != [other.matches("s", "e", "m", i) for i in range(64)]

    def test_env_var_plan(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "raise:engine=sat")
        assert [r.action for r in faults.active_rules()] == ["raise"]
        monkeypatch.setenv(faults.ENV_VAR, "")
        assert faults.active_rules() == []

    def test_install_overrides_env(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "raise:engine=sat")
        faults.install("kill:engine=bdd")
        assert [r.action for r in faults.active_rules()] == ["kill"]
        faults.clear()
        assert [r.action for r in faults.active_rules()] == ["raise"]

    def test_inline_fire_translates_kill_and_delay(self):
        faults.install("kill:slot=a;delay:slot=b")
        with pytest.raises(WorkerCrashError):
            faults.fire("a", "e", "m", 0, inline=True)
        with pytest.raises(EngineTimeoutError):
            faults.fire("b", "e", "m", 0, inline=True)


# ---------------------------------------------------------------------- #
# the worker pool
# ---------------------------------------------------------------------- #

def _deadlock_spec(model, **overrides):
    spec = dict(slot="sat", engine="sat", method="kinduction",
                fn=tasks.deadlock_kinduction,
                kwargs={"model": model, "max_k": 10})
    spec.update(overrides)
    return TaskSpec(**spec)


def _last_outcome(spec):
    """Race one single-rung ladder; the classified outcome of its rung."""
    return race({spec.slot: [spec]}).outcomes[-1]


def _spin():
    while True:
        pass


class TestWorkers:
    def test_run_task_returns_payload(self):
        stg = ALL_EXAMPLES["vme_read"]()
        winner = race({"sat": [_deadlock_spec(stg)]}).winner
        assert winner.payload["verdict"] == "deadlock-free"
        assert winner.payload["definitive"] is True
        assert_no_orphans()

    def test_deadline_overrun_is_classified(self):
        stg = ALL_EXAMPLES["vme_read"]()
        faults.install("delay:seconds=30")
        outcome = _last_outcome(_deadlock_spec(stg, deadline_s=0.5))
        assert outcome.status == "timeout"
        assert isinstance(outcome.error, EngineTimeoutError)
        assert outcome.error.deadline_s == 0.5
        assert_no_orphans()

    def test_spinning_worker_is_stopped_by_its_deadline(self):
        # the deadline is the only stop: a worker that never returns (and
        # never blocks) is classified when its deadline passes
        faults.install([])  # an ambient REPRO_FAULTS plan would interfere
        spec = TaskSpec(slot="spin", engine="spin", method="spin", fn=_spin,
                        deadline_s=1.0, max_attempts=1)
        started = time.perf_counter()
        result = race({"spin": [spec]})
        assert time.perf_counter() - started < 5.0
        assert [o.status for o in result.outcomes] == ["timeout"]
        assert result.stats["timeouts"] == 1
        assert "stalls" not in result.stats
        assert_no_orphans()

    def test_persistent_crash_is_classified_after_retries(self):
        stg = ALL_EXAMPLES["vme_read"]()
        faults.install("kill:max_attempt=99")
        outcome = _last_outcome(_deadlock_spec(stg))
        assert outcome.status == "crash"
        assert outcome.attempts == 3
        assert isinstance(outcome.error, WorkerCrashError)
        assert outcome.error.exitcode == faults.KILL_EXIT_CODE
        assert_no_orphans()

    def test_transient_crash_is_retried_transparently(self):
        stg = ALL_EXAMPLES["vme_read"]()
        faults.install("kill:attempt=0")  # first attempt only
        winner = race({"sat": [_deadlock_spec(stg)]}).winner
        assert winner.payload["verdict"] == "deadlock-free"

    def test_engine_errors_cross_the_process_boundary(self):
        # pin an empty plan: an ambient REPRO_FAULTS (the CI stress
        # matrix) would reclassify the engine error as a crash
        faults.install([])
        stg = ALL_EXAMPLES["vme_read"]()
        spec = TaskSpec(slot="explicit", engine="naive", method="explicit",
                        fn=tasks.deadlock_explicit,
                        kwargs={"model": stg, "max_states": 3},
                        max_attempts=1)
        outcome = _last_outcome(spec)
        assert outcome.status == "error"
        assert isinstance(outcome.error, StateExplosionError)
        assert outcome.error.bound == 3

    def test_ladder_degrades_from_timeout_to_cheaper_engine(self):
        stg = ALL_EXAMPLES["vme_read"]()
        faults.install("delay:method=kinduction,seconds=30")
        result = race({"sat": [
            _deadlock_spec(stg, deadline_s=0.5),
            TaskSpec(slot="sat", engine="sat", method="bmc",
                     fn=tasks.deadlock_bmc,
                     kwargs={"model": stg, "bound": 8}),
        ]})
        assert result.winner is None
        assert result.stats["degradations"] == 1
        assert result.outcomes[-1].spec.method == "bmc"
        assert result.outcomes[-1].payload["verdict"] == "unknown"
        assert_no_orphans()

    @pytest.mark.parametrize("fault", [
        "kill:attempt=0", "raise:max_attempt=1",
        "delay:method=kinduction", "kill:max_attempt=99"])
    def test_inline_race_classifies_like_worker_processes(self, fault):
        # one supervisor loop: the same ladder under the same fault plan
        # settles through the same outcomes in both execution modes
        stg = ALL_EXAMPLES["vme_read"]()
        ladder = [_deadlock_spec(stg, deadline_s=2.0),
                  TaskSpec(slot="sat", engine="sat", method="bmc",
                           fn=tasks.deadlock_bmc,
                           kwargs={"model": stg, "bound": 4})]
        faults.install(fault)
        runs = [race({"sat": ladder}, inline=inline)
                for inline in (False, True)]
        process, inline = ([(o.spec.method, o.status, o.attempts)
                            for o in r.outcomes] for r in runs)
        assert process == inline
        assert runs[0].stats == runs[1].stats
        assert_no_orphans()

    def test_race_cancels_losers_on_first_definitive_verdict(self):
        stg = ALL_EXAMPLES["vme_read"]()
        slow = TaskSpec(slot="slow", engine="sat", method="kinduction",
                        fn=tasks.deadlock_kinduction,
                        kwargs={"model": stg, "max_k": 10},
                        deadline_s=60.0)
        fast = TaskSpec(slot="fast", engine="sat", method="kinduction",
                        fn=tasks.deadlock_kinduction,
                        kwargs={"model": stg, "max_k": 10})
        faults.install("delay:slot=slow,seconds=60")
        result = race({"slow": [slow], "fast": [fast]})
        assert result.winner is not None
        assert result.winner.spec.slot == "fast"
        assert result.stats["cancellations"] == 1
        assert result.elapsed_s < 30.0  # did not wait out the delay
        assert_no_orphans()


# ---------------------------------------------------------------------- #
# verdict agreement: portfolio vs fault-free single engines
# ---------------------------------------------------------------------- #

CORPUS = sorted(ALL_EXAMPLES)

#: Fault-free single-engine reference verdicts, computed once per session.
_reference_cache = {}


def reference_verdict(name, query):
    """The explicit engine's fault-free answer (definitive everywhere on
    the corpus, and independent of the racing machinery under test)."""
    key = (name, query)
    if key not in _reference_cache:
        stg = ALL_EXAMPLES[name]()
        runner = {"deadlock": tasks.deadlock_explicit,
                  "csc": tasks.csc_explicit,
                  "consistency": tasks.consistency_explicit}[query]
        kwargs = {"max_states": 100_000}
        if query == "deadlock":
            _reference_cache[key] = runner(stg, **kwargs)["verdict"]
        else:
            _reference_cache[key] = runner(stg, **kwargs)["verdict"]
    return _reference_cache[key]


class TestVerdictAgreement:
    @pytest.mark.parametrize("name", CORPUS)
    @pytest.mark.parametrize("query", ["deadlock", "csc", "consistency"])
    def test_inline_portfolio_matches_single_engine(self, name, query):
        stg = ALL_EXAMPLES[name]()
        check = {"deadlock": check_deadlock, "csc": check_csc,
                 "consistency": check_consistency}[query]
        # inline rungs run with no deadline, so keep the bounded SAT
        # rungs small (conflicts on this corpus need at most 12 steps)
        verdict = check(stg, inline=True, bound=12)
        assert verdict.definitive
        assert verdict.verdict == reference_verdict(name, query)
        assert not verdict.flagged

    @pytest.mark.parametrize("query", ["deadlock", "csc", "consistency"])
    def test_process_portfolio_matches_single_engine(self, query):
        name = "vme_read"
        stg = ALL_EXAMPLES[name]()
        check = {"deadlock": check_deadlock, "csc": check_csc,
                 "consistency": check_consistency}[query]
        verdict = check(stg)
        assert verdict.verdict == reference_verdict(name, query)
        assert_no_orphans()

    @pytest.mark.parametrize("fault", [
        "kill:attempt=0",                      # every first attempt dies
        "kill:max_attempt=99,engine=sat",      # the sat slot always dies
        "raise:attempt=0",                     # every first attempt raises
        "raise:max_attempt=99,method=kinduction",
        "delay:slot=explicit,seconds=30",      # explicit overruns deadline
        "kill:p=0.5,seed=3,max_attempt=99",    # seeded probabilistic kills
    ])
    @pytest.mark.parametrize("query", ["deadlock", "csc"])
    def test_faulted_verdicts_are_bit_identical(self, fault, query):
        name = "vme_read"
        stg = ALL_EXAMPLES[name]()
        check = {"deadlock": check_deadlock, "csc": check_csc}[query]
        faults.install(fault)
        verdict = check(stg, deadline_s=5.0)
        faults.clear()
        assert verdict.verdict == reference_verdict(name, query), fault
        assert_no_orphans()

    @pytest.mark.parametrize("fault", [
        "kill:attempt=0", "raise:attempt=0", "delay:slot=explicit"])
    def test_faulted_inline_verdicts_are_bit_identical(self, fault):
        name = "vme_read_csc"
        stg = ALL_EXAMPLES[name]()
        faults.install(fault)
        verdict = check_csc(stg, inline=True, bound=10)
        assert verdict.verdict == reference_verdict(name, "csc")

    @pytest.mark.parametrize("inline", [False, True])
    def test_malformed_env_plan_fails_before_any_rung(self, monkeypatch,
                                                      inline):
        # a typo in REPRO_FAULTS is the caller's error, not an engine
        # error in every rung (which would concede "unknown")
        monkeypatch.setenv(faults.ENV_VAR, "explode:x")
        with pytest.raises(FaultSyntaxError):
            check_deadlock(ALL_EXAMPLES["vme_read"](), inline=inline)
        assert_no_orphans()

    def test_deadlock_is_found_and_witnessed(self):
        net = dining_philosophers(2)
        verdict = check_deadlock(net, inline=True)
        assert verdict.verdict == "deadlock"
        assert not verdict.flagged
        assert "dead_marking" in verdict.details

    def test_reach_agreement(self):
        net = dining_philosophers(2)
        dead = tasks.deadlock_explicit(net, max_states=10_000)
        target = dead["dead_marking"]
        verdict = check_reach(net, target, inline=True)
        assert verdict.verdict == "reached"
        assert not verdict  # a reachable target fails the property
        assert verdict.validator in ("token-game", None)
        missing = {p: 2 for p in list(target)[:1]}  # unreachable: 2 tokens
        verdict = check_reach(net, missing, inline=True)
        assert verdict.verdict == "unreachable"
        assert verdict

    def test_every_slot_dead_concedes_unknown_with_evidence(self):
        stg = ALL_EXAMPLES["vme_read"]()
        faults.install("kill:max_attempt=99,method=kinduction;"
                       "kill:max_attempt=99,method=explicit;"
                       "kill:max_attempt=99,method=bdd")
        verdict = check_deadlock(stg, inline=True, bound=8)
        assert verdict.verdict == "unknown"
        assert not verdict.definitive
        assert verdict.stats["crashes"] > 0
        assert verdict.details["partial"]  # bmc evidence survived
        assert verdict.evidence

    def test_cross_validation_flags_disagreement(self, monkeypatch):
        stg = ALL_EXAMPLES["vme_read"]()

        def lying_kinduction(model, max_k):
            return {"verdict": "deadlock", "definitive": True,
                    "method": "kinduction", "evidence": "fabricated",
                    "witness": ["DSr+", "DSr+"]}  # not fireable

        monkeypatch.setattr(tasks, "deadlock_kinduction", lying_kinduction)
        verdict = check_deadlock(stg, engines=["sat"], inline=True)
        assert verdict.verdict == "inconsistent"
        assert verdict.flagged
        assert "disagreement" in verdict.details

    def test_witness_free_lie_is_caught_by_independent_probe(self,
                                                             monkeypatch):
        net = dining_philosophers(2)  # has a reachable deadlock

        def lying_kinduction(model, max_k):
            return {"verdict": "deadlock-free", "definitive": True,
                    "method": "kinduction", "evidence": "fabricated"}

        monkeypatch.setattr(tasks, "deadlock_kinduction", lying_kinduction)
        verdict = check_deadlock(net, engines=["sat"], inline=True)
        assert verdict.verdict == "inconsistent"
        assert verdict.validator == "independent:bmc"
        assert "counter_evidence" in verdict.details


# ---------------------------------------------------------------------- #
# merged cross-process traces under fault injection
# ---------------------------------------------------------------------- #

#: The fault plans the verdict-stability matrix runs; merged traces must
#: stay schema-valid and fully attributed under every one of them.
FAULT_PLANS = [
    "kill:attempt=0",
    "kill:max_attempt=99,engine=sat",
    "raise:attempt=0",
    "raise:max_attempt=99,method=kinduction",
    "delay:slot=explicit,seconds=30",
    "kill:p=0.5,seed=3,max_attempt=99",
]


# ---------------------------------------------------------------------- #
# explicit runners: the explored graph, decoded only where reported
# ---------------------------------------------------------------------- #

def count_decodes(monkeypatch):
    """The codes ``CompiledNet.decode`` is called with, from now on."""
    calls = []
    decode = CompiledNet.decode

    def counting(self, code):
        calls.append(code)
        return decode(self, code)

    monkeypatch.setattr(CompiledNet, "decode", counting)
    return calls


def refuse_transition_system(self, initial):
    raise AssertionError("built a transition system")


class TestExplicitRunners:
    @pytest.mark.parametrize("model", [ALL_EXAMPLES["vme_read"],
                                       lambda: dining_philosophers(3)],
                             ids=["vme_read", "dining_philosophers_3"])
    def test_no_transition_system_is_built(self, model, monkeypatch):
        monkeypatch.setattr(TransitionSystem, "__init__",
                            refuse_transition_system)
        tasks.deadlock_explicit(model(), max_states=10_000)
        for cover in (False, True):
            tasks.reach_explicit(model(), {}, max_states=10_000,
                                 cover=cover)

    def test_deadlock_decodes_only_the_dead_states(self, monkeypatch):
        dead = sum(not out for out in explore(dining_philosophers(3)).arcs)
        assert dead == 1
        calls = count_decodes(monkeypatch)
        payload = tasks.deadlock_explicit(muller_pipeline(6),
                                          max_states=10_000)
        assert payload["verdict"] == "deadlock-free"
        assert calls == []
        payload = tasks.deadlock_explicit(dining_philosophers(3),
                                          max_states=10_000)
        assert payload["verdict"] == "deadlock"
        assert len(calls) == dead

    def test_reach_decodes_only_the_hit(self, monkeypatch):
        target = dict(explore(muller_pipeline(6)).marking(5).items())
        calls = count_decodes(monkeypatch)
        for cover in (False, True):
            payload = tasks.reach_explicit(muller_pipeline(6), target,
                                           max_states=10_000, cover=cover)
            assert payload["verdict"] == "reached"
            assert payload["final_marking"] == target
        assert len(calls) == 2
        payload = tasks.reach_explicit(muller_pipeline(6), {"nowhere": 1},
                                       max_states=10_000)
        assert payload["verdict"] == "unreachable"
        assert len(calls) == 2

    @pytest.mark.parametrize("explorer", ["compiled", "naive"])
    def test_reach_payloads_match_a_scan_of_decoded_markings(
            self, explorer, monkeypatch):
        if explorer == "naive":
            monkeypatch.setattr("repro.ts.builder.supports_compilation",
                                lambda net: False)
        graph = explore(ALL_EXAMPLES["vme_read"]())
        assert (graph.compiled is None) == (explorer == "naive")
        middle = dict(graph.marking(5).items())
        place = sorted(middle)[0]
        everything = {p: 1 for p in ALL_EXAMPLES["vme_read"]().net.places}
        targets = [middle, {place: 1}, everything, {}, {"nowhere": 1},
                   {**middle, "nowhere": 1}, {place: 2}]
        for target in targets:
            for cover in (False, True):
                # the reference decodes every state, in state order
                goal = Marking(target)
                hit = next((m for m in graph.markings()
                            if (m.covers(goal) if cover else m == goal)),
                           None)
                payload = tasks.reach_explicit(
                    ALL_EXAMPLES["vme_read"](), target, max_states=10_000,
                    cover=cover)
                if hit is None:
                    assert payload == {
                        "verdict": "unreachable", "definitive": True,
                        "method": "explicit",
                        "evidence": "target absent from all 14 reachable"
                                    " states",
                        "states": 14}, (target, cover)
                else:
                    assert payload == {
                        "verdict": "reached", "definitive": True,
                        "method": "explicit",
                        "evidence": "target %s among the 14 reachable"
                                    " states" % ("covered" if cover
                                                 else "present"),
                        "final_marking": dict(hit.items()),
                        "states": 14}, (target, cover)


class TestMergedTraces:
    @pytest.mark.parametrize("fault", FAULT_PLANS)
    def test_merged_trace_stays_valid_under_faults(self, fault):
        from repro import obs
        from repro.obs.analyze import lint_records

        stg = ALL_EXAMPLES["vme_read"]()
        faults.install(fault)
        obs.reset()
        obs.enable()
        sink = obs.add_sink(obs.MemorySink())
        try:
            verdict = check_deadlock(stg, deadline_s=5.0)
        finally:
            obs.remove_sink(sink)
            obs.reset()
        assert verdict.verdict == reference_verdict("vme_read", "deadlock")
        records = sink.records
        # every record of the merged parent+worker trace is repro-trace/1
        assert lint_records(records) == []
        assert [r for r in records if r["name"] == "portfolio.race"]
        # every worker the race ran is attributed, faulted or not
        tasks_seen = [r for r in records if r["name"] == "worker.task"]
        assert tasks_seen
        for record in tasks_seen:
            assert "slot" in record["tags"], record
            assert "attempt" in record["tags"], record
        assert_no_orphans()


# ---------------------------------------------------------------------- #
# engine selection and CLI
# ---------------------------------------------------------------------- #

class TestMethodTable:
    @pytest.mark.parametrize("query", sorted(tasks.QUERIES))
    def test_every_ladder_ends_in_the_bounded_method(self, query):
        row = tasks.QUERIES[query]
        for slot, methods in row.ladders.items():
            assert methods[-1] == row.bounded, (query, slot)
            assert row.bounded not in methods[:-1], (query, slot)
            for method in methods:  # every named method has a runner
                assert callable(getattr(tasks, "%s_%s" % (query, method)))

    @pytest.mark.parametrize("name", CORPUS)
    @pytest.mark.parametrize("query", ["deadlock", "csc", "consistency"])
    def test_single_slot_pick_proves_or_refutes(self, name, query):
        # what `repro check` runs without --portfolio: one slot, inline
        stg = ALL_EXAMPLES[name]()
        engine = tasks.single_slot(stg, query)
        methods, = tasks.ladders(query, [engine]).values()
        assert methods[0] != tasks.QUERIES[query].bounded
        check = {"deadlock": check_deadlock, "csc": check_csc,
                 "consistency": check_consistency}[query]
        verdict = check(stg, engines=[engine], inline=True)
        assert verdict.definitive
        assert verdict.verdict == reference_verdict(name, query)
        assert bool(verdict) == (verdict.verdict ==
                                 tasks.QUERIES[query].holds)


class TestIntegration:
    def test_choose_engine_portfolio_schedule(self):
        stg = ALL_EXAMPLES["vme_read"]()
        # the explicit slot is named after its engine; the net picks the
        # explorer inside it
        assert tasks.schedule(stg) == ("sat", "bdd", "explicit")
        assert tasks.schedule(dining_philosophers(2))[-1] == "explicit"

    def test_cli_check_single_slot(self, capsys):
        assert main(["check", "vme_read", "--query", "deadlock"]) == 0
        out = capsys.readouterr().out
        assert "deadlock-free" in out and "robustness:" in out

    def test_cli_check_portfolio_json(self, capsys):
        code = main(["check", "vme_read", "--query", "csc", "--portfolio",
                     "--json"])
        assert code == 1  # vme_read has the paper's CSC conflict
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro-run-report/1"
        assert doc["verdict"] == "conflict"
        assert doc["details"]["robustness"]["cancellations"] >= 0
        assert_no_orphans()

    def test_cli_check_with_faults_flag(self, capsys, monkeypatch):
        monkeypatch.delenv(faults.ENV_VAR, raising=False)
        code = main(["check", "vme_read_csc", "--query", "csc",
                     "--portfolio", "--faults", "kill:attempt=0",
                     "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "no-conflict"
        assert doc["details"]["robustness"]["crashes"] >= 1
        assert faults.active_rules() == []  # plan removed after the run
        assert_no_orphans()

    @pytest.mark.parametrize("source", ["env", "flag"])
    def test_cli_malformed_plan_is_a_usage_error(self, capsys, monkeypatch,
                                                 source):
        argv = ["check", "vme_read", "--portfolio"]
        if source == "env":
            monkeypatch.setenv(faults.ENV_VAR, "explode:x")
        else:
            monkeypatch.delenv(faults.ENV_VAR, raising=False)
            argv += ["--faults", "explode:engine=sat"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: unknown fault action")
        assert_no_orphans()

    def test_cli_check_reach_requires_target(self, capsys):
        assert main(["check", "vme_read", "--query", "reach"]) == 2

    def test_cli_sat_check_portfolio_engine(self, capsys):
        # sat-check is `check --engines sat --inline`
        code = main(["sat-check", "vme_read", "--property", "deadlock",
                     "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "deadlock-free"
        assert doc["command"] == "sat-check"
        assert doc["details"]["engine"] == "sat"
        assert doc["details"]["method"] == "kinduction"

    def test_cli_bdd_check_portfolio_engine(self, capsys):
        # bdd-check --query csc is `check --engines bdd --inline`
        code = main(["bdd-check", "vme_read_csc", "--query", "csc"])
        assert code == 0
        assert "no-conflict (winner: bdd/bdd" in capsys.readouterr().out

    def test_sat_check_json_reports_unknown_reason(self, capsys,
                                                   monkeypatch):
        # an unfinished induction must explain itself in the run report;
        # every bundled spec is decided at k=0, so stand in an undecided
        # k-induction (its partial payload closes the sat slot)
        def undecided(model, max_k):
            return {"verdict": "unknown", "definitive": False,
                    "method": "kinduction", "k": max_k,
                    "reason": "step-satisfiable",
                    "evidence": "k-induction undecided at k=%d" % max_k}

        monkeypatch.setattr(tasks, "deadlock_kinduction", undecided)
        code = main(["sat-check", "handshake_arbiter_free_choice",
                     "--property", "deadlock", "--bound", "3", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "unknown"
        assert doc["details"]["reason"] == "step-satisfiable"
        assert code == 1

    def test_portfolio_race_span_counts_robustness(self):
        from repro import obs
        stg = ALL_EXAMPLES["vme_read"]()
        faults.install("kill:attempt=0")
        obs.enable()
        sink = obs.add_sink(obs.MemorySink())
        try:
            check_deadlock(stg, inline=True)
        finally:
            obs.remove_sink(sink)
            obs.enable(False)
        spans = sink.spans("portfolio.race")
        assert spans and spans[0]["tags"]["verdict"] == "deadlock-free"
        assert spans[0]["counters"]["crashes"] >= 1
        assert spans[0]["counters"]["retries"] >= 1


# ---------------------------------------------------------------------- #
# budgets (satellite: one canonical constant, documented override)
# ---------------------------------------------------------------------- #

class TestBudgets:
    def test_derived_budgets_scale_from_the_default(self):
        from repro import budgets
        assert budgets.REDUCTION_STATE_BOUND == max(
            1, budgets.DEFAULT_STATE_BOUND // 10)
        assert budgets.DECOMPOSE_STATE_BOUND == max(
            1, budgets.DEFAULT_STATE_BOUND // 5)
        assert budgets.COMPOSE_STATE_BOUND == max(
            1, budgets.DEFAULT_STATE_BOUND // 2)

    def test_entry_points_share_the_canonical_default(self):
        import inspect
        from repro import budgets
        from repro.analysis.implementability import check_implementability
        from repro.tech.decompose import decompose
        from repro.ts.builder import build_reachability_graph

        def default_of(fn, name="max_states"):
            return inspect.signature(fn).parameters[name].default

        assert default_of(build_reachability_graph) == \
            budgets.DEFAULT_STATE_BOUND
        assert default_of(check_implementability) == \
            budgets.DEFAULT_STATE_BOUND
        assert default_of(decompose) == budgets.DECOMPOSE_STATE_BOUND

    def test_env_override_rejects_garbage(self, monkeypatch):
        from repro.budgets import _default_bound
        monkeypatch.setenv("REPRO_STATE_BOUND", "a lot")
        with pytest.raises(ValueError):
            _default_bound()
        monkeypatch.setenv("REPRO_STATE_BOUND", "-5")
        with pytest.raises(ValueError):
            _default_bound()
        monkeypatch.setenv("REPRO_STATE_BOUND", "123")
        assert _default_bound() == 123

    def test_state_explosion_carries_structured_attrs(self):
        from repro.ts import build_reachability_graph
        stg = ALL_EXAMPLES["vme_read"]()
        with pytest.raises(StateExplosionError) as err:
            build_reachability_graph(stg, max_states=3)
        assert err.value.bound == 3
        assert err.value.states is not None
