"""Complex-gate synthesis: the Section 3.2 equations."""

import pytest

from repro.errors import CSCError
from repro.boolmin import equivalent, parse_expr
from repro.stg import sequencer, vme_read, vme_read_csc
from repro.synth import equations, synthesize_complex_gates
from repro.ts import build_state_graph


@pytest.fixture
def csc_netlist():
    return synthesize_complex_gates(vme_read_csc())


class TestPaperEquations:
    """Section 3.2 reports:
        D     = LDTACK csc0
        LDS   = D + csc0
        DTACK = D
        csc0  = DSr (csc0 + LDTACK')
    """

    PAPER = {
        "D": "LDTACK & csc0",
        "LDS": "D | csc0",
        "DTACK": "D",
        "csc0": "DSr & (csc0 | ~LDTACK)",
    }

    def test_gate_set(self, csc_netlist):
        assert set(csc_netlist.gates) == set(self.PAPER)

    @pytest.mark.parametrize("signal", sorted(PAPER))
    def test_equation_matches_paper_exactly(self, csc_netlist, signal):
        ours = csc_netlist.gates[signal].expr
        theirs = parse_expr(self.PAPER[signal])
        assert equivalent(ours, theirs), "%s: %s != %s" % (
            signal, ours, theirs)

    def test_equations_helper(self):
        eqs = equations(vme_read_csc())
        assert eqs["DTACK"] == "D"
        assert "csc0" in eqs["LDS"]


class TestErrorsAndEdges:
    def test_unresolved_csc_raises(self):
        with pytest.raises(CSCError):
            synthesize_complex_gates(vme_read())

    def test_netlist_inputs_are_spec_inputs(self, csc_netlist):
        assert csc_netlist.inputs == ["DSr", "LDTACK"]

    def test_accepts_prebuilt_state_graph(self):
        sg = build_state_graph(vme_read_csc())
        netlist = synthesize_complex_gates(sg)
        assert set(netlist.gates) == {"D", "LDS", "DTACK", "csc0"}

    def test_sequencer_equations(self):
        """Each x_i of a pure sequencer depends on its neighbours."""
        netlist = synthesize_complex_gates(sequencer(3))
        assert len(netlist.gates) == 3
        for gate in netlist.gates.values():
            assert gate.expr.support()  # never constant

    def test_implied_values_match_sg(self, csc_netlist):
        """The synthesized function agrees with the next-state value in
        every reachable state — the defining property of Section 3.2."""
        sg = build_state_graph(vme_read_csc())
        for i in range(len(sg)):
            env = {s: sg.value(i, s) for s in sg.signal_order}
            for signal, gate in csc_netlist.gates.items():
                assert gate.expr.eval(env) == sg.next_value(i, signal)
