"""Figure 11 — circuits for the READ cycle after timing optimisation.

(a) assumption sep(LDTACK-, DSr+) < 0: the csc signal disappears and the
    control shrinks to three gates (D = DSr LDTACK, DTACK = D,
    LDS = DSr + D);
(b) requirement sep(D-, LDS-) < 0: LDS- is enabled right after DSr-
    instead of D-; a csc signal is still needed, but the circuit conforms
    to the original interface as long as physical design guarantees the
    separation;
(c) both constraints: the simplest circuit — LDS degenerates to a wire
    from DSr.
"""

from repro.analysis import check_implementability
from repro.boolmin import equivalent, parse_expr
from repro.stg import vme_read
from repro.synth import resolve_csc, synthesize_complex_gates
from repro.timing import (
    TimedMarkedGraph,
    apply_timing_assumption,
    validates_assumption,
)
from repro.verify import verify_circuit

from conftest import VME_ENV_DELAYS, per_round


def test_fig11a_circuit(benchmark):
    spec = vme_read()
    # applying the assumption checks liveness and safeness, which explores
    # the timed net; each round gets an unexplored copy
    timed = apply_timing_assumption(spec, "LDTACK-", "DSr+")

    def flow(timed):
        report = check_implementability(timed)
        assert report.implementable  # no csc signal needed any more
        return synthesize_complex_gates(timed, name="fig11a")

    netlist = per_round(benchmark, flow, lambda: (timed.copy(),))
    expected = {"D": "DSr & LDTACK", "DTACK": "D", "LDS": "DSr | D"}
    assert set(netlist.gates) == set(expected)
    for signal, text in expected.items():
        assert equivalent(netlist.gates[signal].expr, parse_expr(text))
    assert verify_circuit(netlist, timed).ok
    # the assumption is load-bearing: the untimed environment breaks it
    assert not verify_circuit(netlist, spec).ok
    print("\nFigure 11(a):\n" + netlist.to_eqn())


def test_fig11a_assumption_justified_by_delays(benchmark):
    """Section 5 flow: the physical delays prove sep(LDTACK-, DSr+) < 0."""
    tmg = TimedMarkedGraph(vme_read().net, VME_ENV_DELAYS)
    valid = benchmark(validates_assumption, tmg, "LDTACK-", "DSr+", -1)
    assert valid


def test_fig11b_circuit(benchmark):
    spec = vme_read()
    spec_b = spec.retarget_trigger("LDS-", "D-", "DSr-")

    def flow(spec_b):
        resolved = resolve_csc(spec_b)
        return resolved, synthesize_complex_gates(resolved, name="fig11b")

    resolved, netlist = per_round(benchmark, flow, lambda: (spec_b.copy(),))
    assert resolved.internal == ["csc0"]  # still needs a state signal
    assert verify_circuit(netlist, spec_b).ok
    # exported requirement sep(D-, LDS-) < 0 restores interface conformance
    report = verify_circuit(netlist, spec, priorities=[("D-", "LDS-")])
    assert report.ok, report.summary()
    print("\nFigure 11(b):\n" + netlist.to_eqn())


def test_fig11c_circuit(benchmark):
    spec = vme_read()
    spec_c = apply_timing_assumption(
        spec.retarget_trigger("LDS-", "D-", "DSr-"), "LDTACK-", "DSr+")

    def flow(spec_c):
        report = check_implementability(spec_c)
        assert report.implementable
        return synthesize_complex_gates(spec_c, name="fig11c")

    netlist = per_round(benchmark, flow, lambda: (spec_c.copy(),))
    # the simplest circuit: LDS is a wire from DSr
    assert equivalent(netlist.gates["LDS"].expr, parse_expr("DSr"))
    assert equivalent(netlist.gates["D"].expr, parse_expr("DSr & LDTACK"))
    assert equivalent(netlist.gates["DTACK"].expr, parse_expr("D"))
    assert verify_circuit(netlist, spec_c).ok
    print("\nFigure 11(c):\n" + netlist.to_eqn())


def test_fig11_gate_count_progression(benchmark):
    """Timing information monotonically simplifies the logic:
    untimed (4 gates, 8 literals) -> (a) 3 gates -> (c) 3 gates with a
    wire for LDS."""
    def counts(spec):
        untimed = synthesize_complex_gates(resolve_csc(spec))
        a = synthesize_complex_gates(
            apply_timing_assumption(spec, "LDTACK-", "DSr+"))
        c = synthesize_complex_gates(apply_timing_assumption(
            spec.retarget_trigger("LDS-", "D-", "DSr-"),
            "LDTACK-", "DSr+"))
        return untimed, a, c

    untimed, a, c = per_round(benchmark, counts, lambda: (vme_read(),))
    print("\nliterals: untimed=%d  11a=%d  11c=%d"
          % (untimed.literal_count(), a.literal_count(), c.literal_count()))
    assert untimed.gate_count() == 4
    assert a.gate_count() == 3
    assert c.gate_count() == 3
    assert a.literal_count() < untimed.literal_count()
    assert c.literal_count() < a.literal_count()
