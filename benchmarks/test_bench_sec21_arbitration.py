"""Section 2.1 — persistency and arbitration.

Paper: "To illustrate the persistency property let us consider transitions
DSw+ and DSr+ ... assuming for a moment that they are output signals ...
Both are simultaneously enabled and disable each other after firing.  Such
behavior cannot be implemented without hazards unless special mutual
exclusion elements (arbiters) are used."

Two experiments:

* re-classifying DSr/DSw as outputs in the READ/WRITE STG produces
  exactly the predicted output-persistency violations;
* a resource-arbitration controller is non-persistent as an STG, cannot
  be implemented with plain gates, and verifies hazard-free once built
  around a mutual-exclusion element.
"""

from repro.analysis import check_implementability, persistency_violations
from repro.stg import SignalType, mutex_controller, vme_read_write
from repro.synth import Gate, Netlist
from repro.ts import build_state_graph
from repro.verify import verify_circuit

from conftest import per_round


def test_sec21_dsr_dsw_as_outputs(benchmark):
    stg = vme_read_write()
    stg.declare_signal("DSr", SignalType.OUTPUT)
    stg.declare_signal("DSw", SignalType.OUTPUT)
    sg = build_state_graph(stg)
    violations = benchmark(persistency_violations, sg)
    pairs = {(v.disabled, v.by) for v in violations}
    assert ("DSr+", "DSw+") in pairs and ("DSw+", "DSr+") in pairs
    assert all(v.kind == "output" for v in violations)
    print("\npersistency violations with DSr/DSw as outputs:")
    for v in violations:
        print("  ", v)


def test_sec21_mutex_spec_is_nonpersistent(benchmark):
    report = per_round(benchmark, check_implementability,
                       lambda: (mutex_controller(),))
    assert report.consistent and report.has_csc
    assert not report.persistent
    assert len(report.persistency_violations) == 2
    assert not report.implementable


def test_sec21_plain_gate_implementation_fails(benchmark):
    """Without an arbiter the grant gates glitch: a1 = r1 a2' and
    a2 = r2 a1' mutually withdraw their excitations."""
    plain = Netlist("plain", inputs=["r1", "r2"])
    plain.add(Gate.comb("a1", "r1 & ~a2"))
    plain.add(Gate.comb("a2", "r2 & ~a1"))
    report = per_round(benchmark, verify_circuit,
                       lambda: (plain, mutex_controller()))
    assert not report.hazard_free
    signals = {h.signal for h in report.hazards}
    assert signals == {"a1", "a2"}


def test_sec21_mutex_element_implementation_ok(benchmark):
    netlist = Netlist("mutex_impl", inputs=["r1", "r2"])
    g1, g2 = Gate.mutex_pair("a1", "a2", "r1", "r2")
    netlist.add(g1)
    netlist.add(g2)
    report = per_round(benchmark, verify_circuit,
                       lambda: (netlist, mutex_controller()))
    assert report.ok, report.summary()
    assert report.states == 12
