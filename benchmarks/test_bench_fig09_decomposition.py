"""Figure 9 — decomposition into two-input gates.

Paper: the synchronous decomposition map0 = csc0 + LDTACK',
csc0 = DSr map0 is hazard-free *only because* map0 is acknowledged by two
different gates (multiple acknowledgment) — variant (a).  The variant
where map0 feeds only csc0 — (b) — is hazardous.

The paper's figure for (b) is partially illegible in the source text; we
reconstruct it as the same factorization without the second reader (see
DESIGN.md).  The verifier confirms the paper's claim: (a) is speed
independent, (b) glitches on map0 when LDTACK- withdraws its excitation.
"""

from repro.stg import vme_read, vme_read_csc
from repro.tech import decompose, is_fully_mapped, map_netlist
from repro.verify import verify_circuit

from conftest import fig9a_netlist, fig9b_netlist, per_round


def test_fig9a_hazard_free(benchmark):
    report = per_round(benchmark, verify_circuit,
                       lambda: (fig9a_netlist(), vme_read()))
    assert report.ok, report.summary()


def test_fig9a_fully_mapped_two_input(benchmark):
    netlist = fig9a_netlist()
    mapping = benchmark(map_netlist, netlist)
    assert "complex" not in mapping.values()
    print("\nFigure 9(a) cell mapping:")
    for signal, cell in sorted(mapping.items()):
        print("  %-6s -> %s" % (signal, cell))


def test_fig9b_hazardous(benchmark):
    report = per_round(benchmark, verify_circuit,
                       lambda: (fig9b_netlist(), vme_read()))
    assert not report.hazard_free
    withdrawals = {(h.signal, h.by) for h in report.hazards}
    assert ("map0", "LDTACK-") in withdrawals
    print("\nFigure 9(b) hazards found:")
    for h in report.hazards[:4]:
        print("  ", h)


def test_fig9_multiple_acknowledgment_is_the_difference(benchmark):
    """The only difference between (a) and (b) is who reads map0."""
    a, b = fig9a_netlist(), fig9b_netlist()

    def readers(netlist):
        return {z for z, g in netlist.gates.items()
                if "map0" in g.inputs() and z != "map0"}

    ra, rb = benchmark(lambda: (readers(a), readers(b)))
    assert ra == {"csc0", "D"}
    assert rb == {"csc0"}


def test_fig9_automatic_decomposition_rediscovers_9a(benchmark):
    """Our Section 3.4 search (factorization + resubstitution + SI check)
    finds a hazard-free two-input netlist equivalent to Figure 9(a)."""
    netlist = per_round(benchmark, decompose, lambda: (vme_read_csc(),))
    assert is_fully_mapped(netlist)
    assert verify_circuit(netlist, vme_read()).ok
    readers = {z for z, g in netlist.gates.items()
               if "map0" in g.inputs() and z != "map0"}
    assert len(readers) >= 2  # multiple acknowledgment
    print("\nautomatically decomposed netlist:\n" + netlist.to_eqn())
