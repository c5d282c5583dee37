"""Section 6 — other design techniques.

* **Burst-mode machines** (ref [28]): fundamental-mode synthesis with
  exact hazard-free two-level minimization (ref [22], Section 3.3), and
  the demonstration that fundamental-mode correctness does not imply
  speed independence;
* **Syntax-directed translation from process algebras** (refs [2, 17]):
  the compiled STG grows linearly with the source term.
"""

from repro.burstmode import (
    concur_mixer_bm,
    selector_bm,
    simple_handshake_bm,
    simulate_fundamental_mode,
    synthesize_burst_mode,
)
from repro.procalg import compile_process, handshake, loop, par, seq
from repro.stg import contract_dummy_transitions, parse_g
from repro.synth import Gate, Netlist, resolve_csc, synthesize_complex_gates
from repro.verify import verify_circuit

from conftest import per_round


def test_sec6_burst_mode_synthesis(benchmark):
    machine = selector_bm()

    def flow():
        netlist = synthesize_burst_mode(machine)
        assert simulate_fundamental_mode(machine, netlist) == []
        return netlist

    netlist = benchmark(flow)
    assert set(netlist.gates) == {"g1", "g2"}
    print("\n" + netlist.to_eqn())


def test_sec6_fundamental_mode_vs_speed_independence(benchmark):
    """Section 3.3: "the Fundamental mode is often too restrictive and in
    particular is not satisfied for logic implementing signal functions in
    synthesis using STGs" — a BM-correct cover fails SI verification."""
    machine = concur_mixer_bm()
    netlist = synthesize_burst_mode(machine)
    assert simulate_fundamental_mode(machine, netlist) == []
    celem = """
.model celem
.inputs a b
.outputs y
.graph
a+ y+
b+ y+
y+ a- b-
a- y-
b- y-
y- a+ b+
.marking { <y-,a+> <y-,b+> }
.end
"""
    si = Netlist("bm_as_si", inputs=["a", "b"])
    si.add(Gate.comb("y", netlist.gates["y"].expr))
    report = per_round(benchmark, verify_circuit,
                       lambda: (si, parse_g(celem)))
    assert not report.ok


def test_sec6_linear_size_translation(benchmark):
    """Section 6: "the size of the resulting circuit is linearly dependent
    on the size of the input description"."""

    def compile_family():
        rows = []
        for k in (2, 4, 8, 16):
            term = loop(seq(*[handshake("c%d" % i) for i in range(k)]))
            stg = compile_process(term,
                                  inputs=["c%d_a" % i for i in range(k)])
            stats = stg.net.stats()
            rows.append((term.size(),
                         stats["places"] + stats["transitions"]))
        return rows

    rows = benchmark(compile_family)
    print("\n term size | STG size")
    for t, s in rows:
        print(" %9d | %d" % (t, s))
    ratios = [s / t for t, s in rows]
    assert max(ratios) / min(ratios) < 1.2


def test_sec6_compiled_process_full_flow(benchmark):
    """Translated specifications feed the Section 2-3 pipeline unchanged."""
    term = loop(seq(handshake("a", active=False),
                    par(handshake("b"), handshake("c"))))

    def flow():
        stg = compile_process(term, inputs=["a_r", "b_a", "c_a"],
                              name="broadcast")
        spec = contract_dummy_transitions(stg)
        resolved = resolve_csc(spec, max_signals=3)
        netlist = synthesize_complex_gates(resolved)
        return spec, netlist

    spec, netlist = benchmark(flow)
    assert verify_circuit(netlist, spec).ok
