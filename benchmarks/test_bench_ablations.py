"""Ablations of the design choices DESIGN.md calls out.

Each ablation knocks out one ingredient the paper identifies as important
and measures the damage:

* **don't-cares in minimization** (§3.2: "it is crucial to make an
  efficient use of the don't care conditions derived from those binary
  codes not corresponding to any state of the SG");
* **BDD variable ordering** (§2.2: symbolic traversal compactness hinges
  on the encoding/ordering);
* **implementation architecture** (complex gate vs gC vs RS latch);
* **multiple acknowledgment in decomposition** (§3.4 — quantified via the
  hazard counts of Figure 9(a) vs 9(b)).
"""

from repro.bdd import SymbolicReachability
from repro.boolmin import literal_count, minimize
from repro.stg import parallel_handshakes, vme_read, vme_read_csc
from repro.synth import (
    derive_all_next_state_functions,
    synthesize_complex_gates,
    synthesize_gc,
    synthesize_sr,
)
from repro.ts import build_state_graph
from repro.verify import verify_circuit

from conftest import fig9a_netlist, fig9b_netlist, per_round


def test_ablation_dont_cares(benchmark):
    """Minimizing without the unreachable-code don't-cares inflates the
    cover."""
    sg = build_state_graph(vme_read_csc())
    fns = derive_all_next_state_functions(sg)

    def both():
        rows = []
        for signal, fn in sorted(fns.items()):
            with_dc = minimize(sorted(fn.onset), sorted(fn.offset), fn.width)
            # no don't-cares: every code outside the ON-set is OFF
            without_dc = minimize(sorted(fn.onset),
                                  sorted(fn.offset | fn.dcset), fn.width)
            rows.append((signal,
                         sum(literal_count(c) for c in with_dc),
                         sum(literal_count(c) for c in without_dc)))
        return rows

    rows = benchmark(both)
    print("\nsignal | literals with DC | literals without DC")
    total_with = total_without = 0
    for signal, w, wo in rows:
        print("  %-6s| %16d | %d" % (signal, w, wo))
        total_with += w
        total_without += wo
    assert total_with < total_without


def test_ablation_bdd_variable_order(benchmark):
    """Structural DFS ordering vs naive sorted order on 6 channels."""
    net = parallel_handshakes(6).net

    def both():
        sizes = {}
        for order in ("dfs", "sorted"):
            sym = SymbolicReachability(net, place_order=order)
            sym.reachable()
            sizes[order] = sym.bdd_size()
        return sizes

    sizes = benchmark(both)
    print("\nBDD nodes: dfs=%d sorted=%d" % (sizes["dfs"], sizes["sorted"]))
    assert sizes["dfs"] * 4 < sizes["sorted"]


def test_ablation_architectures(benchmark):
    """All three architectures are speed-independent; their costs differ."""
    spec = vme_read()

    def build():
        resolved = vme_read_csc()
        return {
            "complex": synthesize_complex_gates(resolved),
            "gc": synthesize_gc(resolved),
            "sr": synthesize_sr(resolved),
        }

    netlists = benchmark(build)
    print("\narchitecture | gates | literals | verified")
    for name, netlist in sorted(netlists.items()):
        ok = verify_circuit(netlist, spec).ok
        print("  %-10s | %5d | %8d | %s"
              % (name, netlist.gate_count(), netlist.literal_count(), ok))
        assert ok


def test_ablation_multiple_acknowledgment(benchmark):
    """Quantify Figure 9: the only netlist difference is one gate input,
    the behavioural difference is 9 hazards."""
    def both(spec):
        return (verify_circuit(fig9a_netlist(), spec),
                verify_circuit(fig9b_netlist(), spec))

    good, bad = per_round(benchmark, both, lambda: (vme_read(),))
    print("\nfig9a hazards: %d, fig9b hazards: %d"
          % (len(good.hazards), len(bad.hazards)))
    assert len(good.hazards) == 0
    assert len(bad.hazards) >= 5
