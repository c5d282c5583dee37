"""Speed-independence verification — the Figures 8 and 9 experiments."""

import os
import subprocess
import sys

import pytest

import repro
from repro import stg as stglib
from repro.errors import VerificationError
from repro.stg import vme_read, vme_read_csc, latch_controller
from repro.synth import (Gate, Netlist, resolve_csc, synthesize_complex_gates,
                         synthesize_gc, synthesize_sr)
from repro.tech import decompose
from repro.timing import apply_timing_assumption
from repro.ts import build_state_graph
from repro.verify import stable_internal_values, verify_circuit


def fig8a():
    """C-element implementation (Figure 8a)."""
    n = Netlist("fig8a", inputs=["DSr", "LDTACK"])
    n.add(Gate.classic_c_element("csc0", "DSr", "LDTACK", invert_b=True))
    n.add(Gate.comb("D", "LDTACK & csc0"))
    n.add(Gate.comb("LDS", "csc0 | D"))
    n.add(Gate.buffer("DTACK", "D"))
    return n


def fig8b():
    """Reset-dominant RS-latch implementation (Figure 8b)."""
    n = Netlist("fig8b", inputs=["DSr", "LDTACK"])
    n.add(Gate.sr_latch("csc0", "DSr & ~LDTACK", "~DSr", dominance="reset"))
    n.add(Gate.comb("D", "LDTACK & csc0"))
    n.add(Gate.comb("LDS", "csc0 | D"))
    n.add(Gate.buffer("DTACK", "D"))
    return n


def fig9a():
    """Two-input decomposition with multiple acknowledgment (Figure 9a)."""
    n = Netlist("fig9a", inputs=["DSr", "LDTACK"])
    n.add(Gate.comb("map0", "csc0 | ~LDTACK"))
    n.add(Gate.comb("csc0", "DSr & map0"))
    n.add(Gate.comb("D", "LDTACK & map0"))
    n.add(Gate.comb("LDS", "csc0 | D"))
    n.add(Gate.buffer("DTACK", "D"))
    return n


def fig9b():
    """Same decomposition but map0 only acknowledged by csc0 (Figure 9b) —
    the paper's hazardous variant."""
    n = Netlist("fig9b", inputs=["DSr", "LDTACK"])
    n.add(Gate.comb("map0", "csc0 | ~LDTACK"))
    n.add(Gate.comb("csc0", "DSr & map0"))
    n.add(Gate.comb("D", "LDTACK & csc0"))
    n.add(Gate.comb("LDS", "csc0 | D"))
    n.add(Gate.buffer("DTACK", "D"))
    return n


class TestPaperCircuits:
    def test_complex_gate_circuit_ok(self):
        netlist = synthesize_complex_gates(vme_read_csc())
        report = verify_circuit(netlist, vme_read())
        assert report.ok
        assert report.states == 16

    @pytest.mark.parametrize("maker", [fig8a, fig8b, fig9a])
    def test_hazard_free_circuits(self, maker):
        report = verify_circuit(maker(), vme_read())
        assert report.ok, report.summary()

    def test_fig9b_is_hazardous(self):
        report = verify_circuit(fig9b(), vme_read())
        assert not report.hazard_free
        hazard_signals = {h.signal for h in report.hazards}
        assert "map0" in hazard_signals
        # the witness the paper predicts: map0's falling excitation is
        # withdrawn by LDTACK- (nobody acknowledges it)
        assert any(h.signal == "map0" and h.by == "LDTACK-"
                   for h in report.hazards)

    def test_fig9b_stop_at_first(self):
        report = verify_circuit(fig9b(), vme_read(), stop_at_first=True)
        assert len(report.hazards) + len(report.failures) == 1


class TestConformance:
    def test_wrong_polarity_circuit_fails(self):
        n = Netlist("bad", inputs=["DSr", "LDTACK"])
        n.add(Gate.comb("LDS", "DSr"))  # fires LDS+ way too early? no: ok
        n.add(Gate.comb("D", "DSr"))    # D+ without waiting for LDTACK+
        n.add(Gate.buffer("DTACK", "D"))
        report = verify_circuit(n, vme_read())
        assert not report.conformant
        assert any(f.event == "D+" for f in report.failures)

    def test_missing_driver_raises(self):
        n = Netlist("partial", inputs=["DSr", "LDTACK"])
        n.add(Gate.comb("LDS", "DSr"))
        with pytest.raises(VerificationError):
            verify_circuit(n, vme_read())

    def test_undeclared_netlist_input_raises(self):
        spec = vme_read_csc()
        n = Netlist("extra_input", inputs=["DSr", "LDTACK", "X"])
        for gate in synthesize_complex_gates(spec).gates.values():
            n.add(gate)
        with pytest.raises(VerificationError, match="netlist input 'X'"):
            verify_circuit(n, spec)

    def test_gate_driving_a_spec_input_raises(self):
        spec = vme_read_csc()
        synthesised = synthesize_complex_gates(spec)
        n = Netlist("drives_input", inputs=["DSr"])
        for gate in synthesised.gates.values():
            n.add(gate)
        n.initial.update(synthesised.initial)
        n.add(Gate.comb("LDTACK", "LDS"))
        with pytest.raises(VerificationError,
                           match="drives specified input signal 'LDTACK'"):
            verify_circuit(n, spec)

    @pytest.mark.parametrize("initial, refused", [
        ({"DSr": 1, "csc0": 0}, "DSr"),   # a spec input
        ({"csc0": 0, "LDS": 1}, "LDS"),   # a spec output
        ({"csc0": 0, "cscO": 1}, "cscO"),  # no signal of the netlist
    ])
    def test_initial_internal_names_only_internal_signals(self, initial,
                                                          refused):
        # interface signals start from the spec's initial state, so only
        # internal signals take an override, and a key that names no
        # signal is an error rather than ignored
        with pytest.raises(VerificationError,
                           match="initial_internal names '%s'" % refused):
            verify_circuit(fig8a(), vme_read(), initial_internal=initial)

    def test_traces_are_replayable(self):
        report = verify_circuit(fig9b(), vme_read())
        hazard = report.hazards[0]
        assert hazard.trace[0] == "DSr+"  # every trace starts at reset


class TestInternalSettling:
    def test_stable_internal_values(self):
        netlist = fig9a()
        values = {"DSr": 0, "LDTACK": 0, "LDS": 0, "D": 0, "DTACK": 0,
                  "csc0": 0}
        settled = stable_internal_values(netlist, values, ["map0"])
        assert settled == {"map0": 1}  # LDTACK=0 -> map0 = csc0 + LDTACK' = 1

    def test_oscillating_internal_raises(self):
        n = Netlist("osc", inputs=["a"])
        n.add(Gate.comb("ring", "~ring"))
        with pytest.raises(VerificationError):
            stable_internal_values(n, {"a": 0, "ring": 0}, ["ring"])

    def test_explicit_initial_internal(self):
        report = verify_circuit(fig9a(), vme_read(),
                                initial_internal={"map0": 1, "csc0": 0})
        assert report.ok

    def test_missing_explicit_initial_raises(self):
        with pytest.raises(VerificationError):
            verify_circuit(fig9a(), vme_read(), initial_internal={})


class TestComposedTS:
    def test_keep_ts(self):
        report = verify_circuit(fig8a(), vme_read(), keep_ts=True)
        assert report.ts is not None
        assert len(report.ts) == report.states

    def test_latch_controller_roundtrip(self):
        stg = latch_controller()
        netlist = synthesize_complex_gates(stg)
        report = verify_circuit(netlist, stg, keep_ts=True)
        assert report.ok
        # the closed system has exactly the 8 specification states
        assert report.states == 8


ARCHS = {"cg": synthesize_complex_gates, "gc": synthesize_gc,
         "sr": synthesize_sr}


def mutex_element(spec):
    """The mutual-exclusion element for a two-client arbiter spec."""
    netlist = Netlist(spec.name + "_me", inputs=spec.inputs)
    for gate in Gate.mutex_pair(spec.outputs[0], spec.outputs[1],
                                spec.inputs[0], spec.inputs[1]):
        netlist.add(gate)
    return netlist


def stuck():
    """A READ-cycle circuit whose D never rises: the composition
    deadlocks once LDTACK+ has fired."""
    n = Netlist("stuck", inputs=["DSr", "LDTACK"])
    n.add(Gate.comb("LDS", "DSr"))
    n.add(Gate.comb("D", "0"))
    n.add(Gate.buffer("DTACK", "D"))
    return n


def golden_case(case):
    """``(netlist, spec, priorities)`` of a golden case id.

    ``synth/<spec>/<arch>`` and ``decompose/<spec>`` verify a bundled spec's
    circuit against the CSC-resolved spec it was synthesised from;
    ``<family>/<n>/<arch>`` a scalable family against itself.
    """
    family, *args = case.split("/")
    if family in ("synth", "decompose"):
        resolved = resolve_csc(stglib.ALL_EXAMPLES[args[0]]())
        if family == "decompose":
            return decompose(resolved), resolved, ()
        return ARCHS[args[1]](resolved), resolved, ()
    if family == "me":
        spec = stglib.mutex_controller()
        return mutex_element(spec), spec, ()
    if family == "fig":
        return {"8a": fig8a, "8b": fig8b, "9a": fig9a, "9b": fig9b,
                "stuck": stuck}[args[0]](), vme_read(), ()
    spec = vme_read()
    if family == "fig11a":
        timed = apply_timing_assumption(spec, "LDTACK-", "DSr+")
        netlist = synthesize_complex_gates(timed, name="fig11a")
        if args[0] == "timed":
            return netlist, timed, ()
        return netlist, spec, (("LDTACK-", "DSr+"),)
    if family == "fig11b":
        spec_b = spec.retarget_trigger("LDS-", "D-", "DSr-")
        netlist = synthesize_complex_gates(resolve_csc(spec_b), name="fig11b")
        return netlist, spec, (("D-", "LDS-"),)
    spec = getattr(stglib, family)(int(args[0]))
    return ARCHS[args[1]](spec), spec, ()


#: case -> (states, failures (event, trace) in order, deadlock count,
#: sorted hazards (signal, by, trace), hazards + failures under
#: stop_at_first), recorded with the expression-tree explorer that the
#: packed one replaced.
GOLDEN_REPORTS = {
    "synth/concurrent_latch_controller/cg": (27, [], 0, [], 0),
    "synth/concurrent_latch_controller/gc": (27, [], 0, [], 0),
    "synth/concurrent_latch_controller/sr": (27, [], 0, [], 0),
    "synth/handshake_arbiter_free_choice/cg": (7, [], 0, [], 0),
    "synth/handshake_arbiter_free_choice/gc": (7, [], 0, [], 0),
    "synth/handshake_arbiter_free_choice/sr": (7, [], 0, [], 0),
    "synth/latch_controller/cg": (8, [], 0, [], 0),
    "synth/latch_controller/gc": (8, [], 0, [], 0),
    "synth/latch_controller/sr": (8, [], 0, [], 0),
    "synth/mutex_controller/cg": (
        12,
        [],
        0,
        [
            ("a1", "a2+", "r2+ r1+"),
            ("a2", "a1+", "r2+ r1+"),
        ],
        1),
    "synth/mutex_controller/gc": (
        12,
        [],
        0,
        [
            ("a1", "a2+", "r2+ r1+"),
            ("a2", "a1+", "r2+ r1+"),
        ],
        1),
    "synth/mutex_controller/sr": (
        12,
        [],
        0,
        [
            ("a1", "a2+", "r2+ r1+"),
            ("a2", "a1+", "r2+ r1+"),
        ],
        1),
    "synth/vme_read/cg": (16, [], 0, [], 0),
    "synth/vme_read/gc": (16, [], 0, [], 0),
    "synth/vme_read/sr": (16, [], 0, [], 0),
    "synth/vme_read_csc/cg": (16, [], 0, [], 0),
    "synth/vme_read_csc/gc": (16, [], 0, [], 0),
    "synth/vme_read_csc/sr": (16, [], 0, [], 0),
    "synth/vme_read_write/cg": (29, [], 0, [], 0),
    "synth/vme_read_write/gc": (29, [], 0, [], 0),
    "synth/vme_read_write/sr": (29, [], 0, [], 0),
    "decompose/handshake_arbiter_free_choice": (7, [], 0, [], 0),
    "decompose/latch_controller": (8, [], 0, [], 0),
    "decompose/vme_read": (20, [], 0, [], 0),
    "decompose/vme_read_csc": (20, [], 0, [], 0),
    "me/mutex_controller": (12, [], 0, [], 0),
    "fig/8a": (16, [], 0, [], 0),
    "fig/8b": (16, [], 0, [], 0),
    "fig/9a": (20, [], 0, [], 0),
    "fig/9b": (
        28,
        [
            ("D+", "DSr+ csc0+ LDS+ LDTACK+ D+ DTACK+ DSr- csc0- D- LDS- "
                   "DTACK- DSr+ csc0+"),
            ("LDS+", "DSr+ csc0+ LDS+ LDTACK+ D+ DTACK+ DSr- csc0- D- LDS- "
                     "DTACK- DSr+ csc0+"),
            ("D+", "DSr+ csc0+ LDS+ LDTACK+ D+ DTACK+ DSr- csc0- D- DTACK- "
                   "DSr+ csc0+"),
        ],
        0,
        [
            ("D", "LDTACK-", "DSr+ csc0+ LDS+ LDTACK+ D+ DTACK+ DSr- csc0- "
                             "D- LDS- DTACK- DSr+ csc0+"),
            ("LDS", "csc0+", "DSr+ csc0+ LDS+ LDTACK+ D+ DTACK+ DSr- csc0- "
                             "D- DTACK- DSr+"),
            ("csc0", "map0-", "DSr+ csc0+ LDS+ LDTACK+ D+ DTACK+ DSr- csc0- "
                              "D- DTACK- DSr+"),
            ("csc0", "map0-", "DSr+ csc0+ LDS+ LDTACK+ D+ DTACK+ DSr- csc0- "
                              "D- LDS- DTACK- DSr+"),
            ("map0", "LDTACK-", "DSr+ csc0+ LDS+ LDTACK+ D+ DTACK+ DSr- "
                                "csc0- D- LDS-"),
            ("map0", "LDTACK-", "DSr+ csc0+ LDS+ LDTACK+ D+ DTACK+ DSr- "
                                "csc0- D- LDS- DTACK-"),
            ("map0", "LDTACK-", "DSr+ csc0+ LDS+ LDTACK+ D+ DTACK+ DSr- "
                                "csc0- D- LDS- DTACK- DSr+"),
            ("map0", "csc0+", "DSr+ csc0+ LDS+ LDTACK+ D+ DTACK+ DSr- csc0- "
                              "D- DTACK- DSr+"),
            ("map0", "csc0+", "DSr+ csc0+ LDS+ LDTACK+ D+ DTACK+ DSr- csc0- "
                              "D- LDS- DTACK- DSr+"),
        ],
        1),
    "fig/stuck": (4, [], 1, [], 0),
    "fig11a/timed": (12, [], 0, [], 0),
    "fig11a/priority": (
        13,
        [
            ("D+", "DSr+ LDS+ LDTACK+ D+ DTACK+ DSr- D- DTACK- DSr+"),
        ],
        0,
        [
            ("LDS", "DSr+", "DSr+ LDS+ LDTACK+ D+ DTACK+ DSr- D- DTACK-"),
        ],
        1),
    "fig11b/priority": (16, [], 0, [], 0),
    "muller_pipeline/4/cg": (32, [], 0, [], 0),
    "muller_pipeline/4/gc": (32, [], 0, [], 0),
    "muller_pipeline/8/cg": (512, [], 0, [], 0),
    "muller_pipeline/8/gc": (512, [], 0, [], 0),
    "muller_pipeline/10/cg": (2048, [], 0, [], 0),
    "muller_pipeline/10/gc": (2048, [], 0, [], 0),
    "parallel_handshakes/5/cg": (1024, [], 0, [], 0),
    "parallel_handshakes/5/gc": (1024, [], 0, [], 0),
    "sequencer/8/cg": (16, [], 0, [], 0),
    "sequencer/8/gc": (16, [], 0, [], 0),
}


class TestGoldenReports:
    @pytest.mark.parametrize("case", list(GOLDEN_REPORTS))
    def test_report_matches_recorded_values(self, case):
        netlist, spec, priorities = golden_case(case)
        report = verify_circuit(netlist, spec, priorities=priorities)
        first = verify_circuit(netlist, spec, priorities=priorities,
                               stop_at_first=True)
        got = (report.states,
               [(f.event, " ".join(f.trace)) for f in report.failures],
               len(report.deadlocks),
               sorted((h.signal, h.by, " ".join(h.trace))
                      for h in report.hazards),
               len(first.hazards) + len(first.failures))
        assert got == GOLDEN_REPORTS[case]


class TestDeterminism:
    def test_hazard_order_does_not_depend_on_hash_seed(self):
        """Hazards of one move come out in signal order, not in the
        iteration order of a set of names."""
        script = (
            "from test_verify import fig9b\n"
            "from repro.stg import vme_read\n"
            "from repro.verify import verify_circuit\n"
            "for h in verify_circuit(fig9b(), vme_read()).hazards:\n"
            "    print(h)\n")
        path = os.pathsep.join(
            [os.path.dirname(os.path.dirname(repro.__file__)),
             os.path.dirname(os.path.abspath(__file__))])
        outputs = []
        for seed in ("1", "4"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
            outputs.append(subprocess.run(
                [sys.executable, "-c", script], env=env, check=True,
                capture_output=True, text=True).stdout)
        assert outputs[0].count("hazard on") == 9
        assert outputs[0] == outputs[1]


class TestMoveOrder:
    def test_input_moves_follow_net_insertion_order(self):
        """Input moves are tried in the spec net's insertion order, which
        fixes the DFS order and so the reported traces.  Here the inputs
        were added as ``s`` then ``q``, against name order; the values
        were recorded with the marking-code explorer this one replaced."""
        spec = stglib.parallel_handshakes(2).rename_signals(
            {"r0": "s", "r1": "q", "a0": "x", "a1": "y"})
        netlist = Netlist("both", inputs=["q", "s"])
        netlist.add(Gate.comb("x", "s & q"))
        netlist.add(Gate.buffer("y", "q"))
        report = verify_circuit(netlist, spec)
        assert report.states == 16 and not report.deadlocks
        assert [str(h) for h in report.hazards] == [
            "hazard on x: excitation withdrawn by q- (trace: q+ y+ s+)",
            "hazard on x: excitation withdrawn by q+"
            " (trace: q+ y+ s+ x+ q- y-)"]
        assert [str(f) for f in report.failures] == [
            "conformance failure: circuit fired x- unexpectedly"
            " (trace: q+ y+ s+ x+ q-)",
            "conformance failure: circuit fired x- unexpectedly"
            " (trace: q+ y+ s+ x+ q- y-)"]
        first = verify_circuit(netlist, spec, stop_at_first=True)
        assert first.states == 8 and not first.failures
        assert [str(h) for h in first.hazards] == [
            "hazard on x: excitation withdrawn by q- (trace: q+ y+ s+)"]


class TestTokenGameBackEnd:
    """A spec outside the compiled domain is explored by the dict token
    game; the composition runs on its numbered graph the same way.  The
    memo does not key on the explorer, so the token game explores a copy
    of the spec."""

    @pytest.mark.parametrize("case", [
        *("synth/%s/cg" % name for name in sorted(stglib.ALL_EXAMPLES)),
        "muller_pipeline/4/cg", "fig/stuck"])
    def test_matches_compiled_back_end(self, case, monkeypatch):
        netlist, spec, _ = golden_case(case)
        copy = spec.copy()
        compiled = verify_circuit(netlist, spec, keep_ts=True)
        assert build_state_graph(spec).graph.compiled is not None
        asked = []
        monkeypatch.setattr("repro.ts.builder.supports_compilation",
                            lambda *args: asked.append(args) or False)
        dict_based = verify_circuit(netlist, copy, keep_ts=True)
        assert asked
        assert build_state_graph(copy).graph.compiled is None
        assert set(dict_based.ts.arcs()) == set(compiled.ts.arcs())
        compiled.ts = dict_based.ts = None
        assert dict_based == compiled


class TestRecordedResetValues:
    """Synthesised netlists carry each gate's reset value from the state
    graph they were synthesised from, and verification starts there."""

    @pytest.mark.parametrize("arch", sorted(ARCHS))
    @pytest.mark.parametrize("name", sorted(stglib.ALL_EXAMPLES))
    def test_bundled_specs_verify_against_original_spec(self, name, arch):
        spec = stglib.ALL_EXAMPLES[name]()
        resolved = resolve_csc(spec)
        netlist = ARCHS[arch](resolved)
        reset = build_state_graph(resolved).initial_values
        assert netlist.initial == {s: reset[s] for s in netlist.gates}
        report = verify_circuit(netlist, spec)
        # the mutex spec is not persistent: its grants must be arbitrated
        assert report.ok == (name != "mutex_controller"), report.summary()

    def test_sr_latches_start_from_resolved_reset_state(self):
        """The inserted latches hold any value when set and reset are both
        off; settling from 0 picked (csc0, csc1) = (0, 0), while the
        resolved spec starts at (1, 1)."""
        spec = stglib.concurrent_latch_controller()
        netlist = synthesize_sr(resolve_csc(spec))
        assert (netlist.initial["csc0"], netlist.initial["csc1"]) == (1, 1)
        report = verify_circuit(netlist, spec)
        assert report.ok and report.states == 27
        settled = verify_circuit(netlist, spec,
                                 initial_internal={"csc0": 0, "csc1": 0})
        assert [str(f) for f in settled.failures] == [
            "conformance failure: circuit fired Rout+ unexpectedly"
            " (trace: <initial>)"]

    def test_explicit_values_override_the_record(self):
        netlist = fig9a()
        netlist.initial["csc0"] = 1  # a wrong record is used...
        assert not verify_circuit(netlist, vme_read()).ok
        # ...unless initial_internal overrides it
        assert verify_circuit(netlist, vme_read(),
                              initial_internal={"csc0": 0, "map0": 1}).ok
        # with explicit values, unrecorded signals are not settled
        with pytest.raises(VerificationError):
            verify_circuit(netlist, vme_read(), initial_internal={"csc0": 0})

    def test_unrecorded_signals_settle_around_recorded_ones(self):
        netlist = fig9a()
        netlist.add(Gate.buffer("copy", "csc0"))
        netlist.initial["csc0"] = 1
        report = verify_circuit(netlist, vme_read(), keep_ts=True)
        _, values = report.ts.initial
        start = dict(zip(sorted(netlist.signals()), values))
        assert (start["csc0"], start["copy"], start["map0"]) == (1, 1, 1)

    def test_decomposition_records_graph_gates_only(self):
        resolved = resolve_csc(vme_read())
        netlist = decompose(resolved)
        graph = build_state_graph(resolved)
        assert netlist.initial == {s: graph.initial_values[s]
                                   for s in resolved.noninput_signals}
        assert "map0" in netlist.gates and "map0" not in netlist.initial


class TestGateCovers:
    """The cubes the explorer compiles gates into agree with
    ``BoolExpr.eval`` and ``Gate.next_value`` on every assignment."""

    NAMES = ["a", "b", "q"]

    def assignments(self):
        for values in range(1 << len(self.NAMES)):
            yield values, {n: (values >> i) & 1
                           for i, n in enumerate(self.NAMES)}

    @pytest.mark.parametrize("text", [
        "0", "1", "a", "~a", "a & ~a", "a | ~a", "~(a & b) | q",
        "~(a | ~b) & (q | a)", "(a | b) & (~a | q)", "~((a | b) & ~(b & q))",
        "a b' + q (a + b')"])
    def test_sum_of_products(self, text):
        from repro.boolmin import parse_expr
        from repro.verify.composition import _sop

        expr = parse_expr(text)
        cubes = _sop(expr, {n: 1 << i for i, n in enumerate(self.NAMES)})
        for values, env in self.assignments():
            assert any(values & m == v for m, v in cubes) == expr.eval(env)

    @pytest.mark.parametrize("gate", [
        Gate.comb("q", "a & (q | ~b)"),
        Gate.c_element("q", "a & b", "~a & ~b"),
        Gate.c_element("q", "a", "b"),
        Gate.sr_latch("q", "a", "b", dominance="reset"),
        Gate.sr_latch("q", "a", "b", dominance="set"),
    ], ids=lambda gate: gate.describe())
    def test_excitation_matches_next_value(self, gate):
        from repro.verify.composition import _excitation, _gate_covers

        bit = {n: 1 << i for i, n in enumerate(self.NAMES)}
        gates = [(bit["q"],) + _gate_covers(gate, bit)]
        for values, env in self.assignments():
            excited = gate.next_value(env) != env["q"]
            assert _excitation(values, gates) == (bit["q"] if excited else 0)
