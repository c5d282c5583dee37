"""Figure 8 — implementations with latches.

(a) csc0 as a two-input C-element (one bubbled input) — "a popular
    asynchronous latch with the next state function c = ab + c(a + b)";
(b) csc0 as a standard reset-dominant RS latch.

Both must be conformant, hazard-free implementations of the READ cycle;
the automatically synthesized gC and RS netlists must be as well.
"""

from repro.stg import vme_read, vme_read_csc
from repro.synth import synthesize_gc, synthesize_sr
from repro.verify import verify_circuit

from conftest import fig8a_netlist, fig8b_netlist, per_round


def test_fig8a_c_element_implementation(benchmark):
    netlist = fig8a_netlist()
    report = per_round(benchmark, verify_circuit,
                       lambda: (netlist, vme_read()))
    assert report.ok, report.summary()
    print("\n" + netlist.to_eqn())


def test_fig8b_rs_latch_implementation(benchmark):
    netlist = fig8b_netlist()
    report = per_round(benchmark, verify_circuit,
                       lambda: (netlist, vme_read()))
    assert report.ok, report.summary()
    print("\n" + netlist.to_eqn())


def test_fig8_c_element_truth_function(benchmark):
    """c = ab + c(a+b) for the classic C-element (paper footnote)."""
    from repro.synth import Gate

    gate = Gate.classic_c_element("c", "a", "b")

    def check():
        for a in (0, 1):
            for b in (0, 1):
                for c in (0, 1):
                    expected = (a & b) | (c & (a | b))
                    assert gate.next_value({"a": a, "b": b, "c": c}) == expected
        return True

    assert benchmark(check)


def test_fig8_synthesized_gc_architecture(benchmark):
    netlist = per_round(benchmark, synthesize_gc, lambda: (vme_read_csc(),))
    report = verify_circuit(netlist, vme_read())
    assert report.ok, report.summary()


def test_fig8_synthesized_sr_architecture(benchmark):
    netlist = per_round(benchmark, synthesize_sr, lambda: (vme_read_csc(),))
    report = verify_circuit(netlist, vme_read())
    assert report.ok, report.summary()
