"""Process-algebra translation (paper Section 6) and dummy contraction."""

import pytest

from repro.analysis import check_implementability
from repro.errors import ModelError
from repro.petri import is_free_choice, is_live, is_safe
from repro.procalg import (
    choice,
    compile_process,
    fall,
    first_edges,
    handshake,
    loop,
    par,
    rise,
    seq,
)
from repro.stg import contract_dummy_transitions
from repro.synth import resolve_csc, synthesize_complex_gates
from repro.verify import verify_circuit


class TestTerms:
    def test_sizes(self):
        assert rise("a").size() == 1
        assert seq(rise("a"), fall("a")).size() == 3
        assert handshake("c").size() == 5

    def test_operators(self):
        term = rise("a") >> rise("b")
        assert term.size() == 3
        both = rise("a") | rise("b")
        assert both.size() == 3

    def test_first_edges(self):
        term = choice(handshake("x"), seq(rise("y"), fall("y")))
        firsts = {(e.signal, e.direction) for e in first_edges(term)}
        assert firsts == {("x_r", "+"), ("y", "+")}


class TestCompilation:
    def test_top_level_must_be_loop(self):
        with pytest.raises(ModelError):
            compile_process(handshake("a"))

    def test_choice_requires_input_start(self):
        term = loop(choice(handshake("a", active=True),
                           handshake("b", active=True)))
        # a_r / b_r default to outputs -> rejected
        with pytest.raises(ModelError):
            compile_process(term)

    def test_sequential_handshakes(self):
        term = loop(seq(handshake("a", active=False), handshake("b")))
        stg = compile_process(term, inputs=["a_r", "b_a"])
        assert is_safe(stg.net) and is_live(stg.net)
        report = check_implementability(stg)
        assert report.consistent and report.persistent

    def test_parallel_compiles_with_dummies(self):
        term = loop(seq(handshake("a", active=False),
                        par(handshake("b"), handshake("c"))))
        stg = compile_process(term, inputs=["a_r", "b_a", "c_a"])
        dummies = [t for t in stg.net.transitions if t.startswith("eps")]
        assert len(dummies) == 2  # one fork, one join

    def test_linear_size(self):
        """The Section 6 claim: circuit (here: STG) size is linear in the
        description size."""
        points = []
        for k in (2, 4, 8, 16):
            term = loop(seq(*[handshake("c%d" % i) for i in range(k)]))
            stg = compile_process(term,
                                  inputs=["c%d_a" % i for i in range(k)])
            stats = stg.net.stats()
            points.append((term.size(), stats["places"]
                           + stats["transitions"]))
        ratios = [size / term_size for term_size, size in points]
        assert max(ratios) / min(ratios) < 1.2  # constant factor

    def test_choice_compiles_to_free_choice_net(self):
        term = loop(choice(handshake("x", active=False),
                           handshake("y", active=False)))
        stg = compile_process(term, inputs=["x_r", "y_r"])
        assert is_free_choice(stg.net)
        assert check_implementability(stg).implementable


class TestContraction:
    def test_contraction_removes_all_dummies(self):
        term = loop(seq(handshake("a", active=False),
                        par(handshake("b"), handshake("c"))))
        stg = compile_process(term, inputs=["a_r", "b_a", "c_a"])
        contracted = contract_dummy_transitions(stg)
        assert not [t for t in contracted.net.transitions
                    if t.startswith("eps")]
        assert is_safe(contracted.net) and is_live(contracted.net)

    def test_contraction_preserves_signal_traces(self):
        """The contracted STG is weakly bisimilar to the original: compare
        state graphs modulo dummy moves via reachable signal codes."""
        from repro.ts import build_state_graph

        term = loop(seq(handshake("a", active=False),
                        par(handshake("b"), handshake("c"))))
        stg = compile_process(term, inputs=["a_r", "b_a", "c_a"])
        contracted = contract_dummy_transitions(stg)
        sg1 = build_state_graph(stg)
        sg2 = build_state_graph(contracted)
        shared = sorted(contracted.signals)
        codes1 = {tuple(sg1.value(i, x) for x in shared)
                  for i in range(len(sg1))}
        codes2 = {tuple(sg2.value(i, x) for x in shared)
                  for i in range(len(sg2))}
        assert codes1 == codes2

    def test_full_flow_on_compiled_process(self):
        """process term -> STG -> contraction -> CSC -> circuit -> verify."""
        term = loop(seq(handshake("a", active=False),
                        par(handshake("b"), handshake("c"))))
        stg = compile_process(term, inputs=["a_r", "b_a", "c_a"])
        spec = contract_dummy_transitions(stg)
        resolved = resolve_csc(spec, max_signals=3)
        netlist = synthesize_complex_gates(resolved)
        report = verify_circuit(netlist, spec)
        assert report.ok, report.summary()
