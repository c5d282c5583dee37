"""Section 3.2 equations — the synthesized READ-cycle logic.

Paper:
    D     = LDTACK csc0
    LDS   = D + csc0
    DTACK = D
    csc0  = DSr (csc0 + LDTACK')
"""

from repro.boolmin import equivalent, parse_expr
from repro.stg import vme_read, vme_read_csc
from repro.synth import synthesize_complex_gates
from repro.verify import verify_circuit

from conftest import per_round

PAPER_EQUATIONS = {
    "D": "LDTACK csc0",
    "LDS": "D + csc0",
    "DTACK": "D",
    "csc0": "DSr (csc0 + LDTACK')",
}


def test_sec32_equations_match_paper(benchmark):
    netlist = per_round(benchmark, synthesize_complex_gates,
                        lambda: (vme_read_csc(),))
    print("\nSynthesized equations vs paper:")
    for signal in sorted(PAPER_EQUATIONS):
        ours = netlist.gates[signal].expr
        theirs = parse_expr(PAPER_EQUATIONS[signal])
        print("  %-6s ours: %-28s paper: %s"
              % (signal, ours, PAPER_EQUATIONS[signal]))
        assert equivalent(ours, theirs), signal


def test_sec32_complex_gate_circuit_is_si(benchmark):
    """Section 3.2's quoted theorem: one atomic complex gate per signal
    gives a speed-independent circuit."""
    netlist = synthesize_complex_gates(vme_read_csc())
    report = per_round(benchmark, verify_circuit,
                       lambda: (netlist, vme_read()))
    assert report.ok
    assert report.states == 16


def test_sec32_literal_cost(benchmark):
    netlist = per_round(benchmark, synthesize_complex_gates,
                        lambda: (vme_read_csc(),))
    # flat two-level form: D(2) + DTACK(1) + LDS(2) + csc0(4) = 9 literals;
    # the paper prints csc0 factored as DSr (csc0 + LDTACK') — 3 literals —
    # which is the same function (checked by the equivalence test above)
    assert netlist.literal_count() == 9
    assert netlist.gate_count() == 4
