"""Arbitration: mutex elements and non-persistent specifications."""

import pytest

from repro.analysis import check_implementability
from repro.stg import mutex_controller
from repro.synth import Gate, GateKind, Netlist
from repro.verify import verify_circuit


@pytest.fixture
def spec():
    return mutex_controller()


@pytest.fixture
def mutex_netlist():
    n = Netlist("mutex_impl", inputs=["r1", "r2"])
    g1, g2 = Gate.mutex_pair("a1", "a2", "r1", "r2")
    n.add(g1)
    n.add(g2)
    return n


class TestMutexGate:
    def test_pair_semantics(self):
        g1, g2 = Gate.mutex_pair("a1", "a2", "r1", "r2")
        env = {"r1": 1, "r2": 1, "a1": 0, "a2": 0}
        # both excited when both request and no grant given
        assert g1.next_value(env) == 1
        assert g2.next_value(env) == 1
        # once a1 granted, a2 stays low
        env["a1"] = 1
        assert g2.next_value(env) == 0

    def test_pair_marked_as_arbiter(self):
        g1, g2 = Gate.mutex_pair("a1", "a2", "r1", "r2")
        assert g1.arbiter and g2.arbiter
        assert g1.kind == GateKind.COMB

    def test_ordinary_gates_not_arbiter(self):
        assert not Gate.comb("z", "a").arbiter


class TestMutexController:
    def test_spec_nonpersistent(self, spec):
        report = check_implementability(spec)
        assert not report.persistent
        assert {v.kind for v in report.persistency_violations} == {"output"}

    def test_grants_mutually_exclusive_in_spec(self, spec):
        from repro.ts import build_state_graph

        sg = build_state_graph(spec)
        for i in range(len(sg)):
            assert not (sg.value(i, "a1") and sg.value(i, "a2"))

    def test_mutex_implementation_ok(self, spec, mutex_netlist):
        report = verify_circuit(mutex_netlist, spec)
        assert report.ok

    def test_grants_exclusive_in_implementation(self, spec, mutex_netlist):
        report = verify_circuit(mutex_netlist, spec, keep_ts=True)
        signals = sorted(set(mutex_netlist.signals()))
        idx = {s: i for i, s in enumerate(signals)}
        for (marking, values) in report.ts.states:
            assert not (values[idx["a1"]] and values[idx["a2"]])

    def test_plain_gates_hazardous(self, spec):
        plain = Netlist("plain", inputs=["r1", "r2"])
        plain.add(Gate.comb("a1", "r1 & ~a2"))
        plain.add(Gate.comb("a2", "r2 & ~a1"))
        report = verify_circuit(plain, spec)
        assert not report.hazard_free
