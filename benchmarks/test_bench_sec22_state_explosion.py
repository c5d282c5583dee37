"""Section 2.2 — techniques against the state-explosion problem.

The paper lists four weapons: symbolic BDD traversal, partial-order
(stubborn-set) reduction, structural invariants, and unfoldings.  This
benchmark regenerates the comparison on the scalable workload of ``n``
independent handshakes (state count 4^n) and asserts the qualitative
shape: explicit enumeration explodes, every other representation stays
polynomial (here: linear) in ``n``.
"""

import pytest

from repro.analysis import reduced_reachability
from repro.bdd import SymbolicReachability
from repro.petri import p_invariants, reachable_markings
from repro.stg import parallel_handshakes
from repro.ts import build_reachability_graph
from repro.unfold import unfold

from conftest import per_round

SIZES = (2, 3, 4)


def workload(n):
    return parallel_handshakes(n).net


@pytest.mark.parametrize("n", SIZES)
def test_explicit_enumeration(benchmark, n):
    ts = per_round(benchmark, build_reachability_graph,
                   lambda: (workload(n),))
    assert len(ts) == 4 ** n


@pytest.mark.parametrize("n", SIZES)
def test_symbolic_traversal(benchmark, n):
    net = workload(n)

    def traverse():
        sym = SymbolicReachability(net)
        sym.reachable()
        return sym

    sym = benchmark(traverse)
    assert sym.count() == 4 ** n
    # implicit representation stays linear in n
    assert sym.bdd_size() <= 10 * (4 * n) + 10


@pytest.mark.parametrize("n", SIZES)
def test_unfolding_prefix(benchmark, n):
    net = workload(n)
    prefix = benchmark(unfold, net)
    assert prefix.stats()["events"] == 4 * n  # linear, vs 4^n states


@pytest.mark.parametrize("n", SIZES)
def test_stubborn_reduction(benchmark, n):
    net = workload(n)
    reduced = benchmark(reduced_reachability, net)
    assert len(reduced) < 4 ** n
    assert not [m for m in reduced.states if not reduced.successors(m)]


def test_summary_table(benchmark):
    """Regenerate the qualitative comparison as a table."""

    def build_rows():
        result = []
        for n in SIZES:
            net = workload(n)
            explicit = len(reachable_markings(net))
            sym = SymbolicReachability(net)
            sym.reachable()
            events = unfold(net).stats()["events"]
            stub = len(reduced_reachability(net))
            result.append((n, explicit, sym.bdd_size(), events, stub))
        return result

    rows = benchmark(build_rows)
    print("\n  n | explicit states | BDD nodes | unfolding events |"
          " stubborn states")
    for row in rows:
        print("  %d | %15d | %9d | %16d | %15d" % row)
    # explosion vs containment
    growth_explicit = rows[-1][1] / rows[0][1]
    growth_bdd = rows[-1][2] / rows[0][2]
    growth_unf = rows[-1][3] / rows[0][3]
    assert growth_explicit >= 16
    assert growth_bdd < growth_explicit
    assert growth_unf < growth_explicit


def test_structural_invariants_scale(benchmark):
    """Invariant computation works directly on the structure — no state
    enumeration at all (Section 2.2's 'fast upper approximation')."""
    net = workload(4)
    invs = benchmark(p_invariants, net)
    assert len(invs) == 4  # one token-conservation invariant per channel
