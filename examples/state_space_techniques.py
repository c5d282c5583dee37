#!/usr/bin/env python
"""Fighting the state-explosion problem (Section 2.2).

Compares the four techniques the paper surveys on a scalable workload
(n independent four-phase handshakes, 4^n states):

* explicit reachability-graph enumeration;
* symbolic BDD traversal (with the structural variable-ordering
  heuristic, plus the naive sorted order for contrast);
* McMillan complete-prefix unfolding;
* stubborn-set partial-order reduction (deadlock-preserving);
* structural P-invariants (no state enumeration at all).

Run:  python examples/state_space_techniques.py [max_n]
"""

import sys
import time

from repro.analysis import reduced_reachability
from repro.bdd import SymbolicReachability
from repro.petri import p_invariants
from repro.stg import parallel_handshakes
from repro.ts import build_reachability_graph
from repro.unfold import unfold


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def main(max_n=5):
    header = ("  n |   states | explicit(s) | bdd nodes | bdd(s) "
              "| unf events | unf(s) | stubborn | stub(s)")
    print(header)
    print("-" * len(header))
    for n in range(1, max_n + 1):
        net = parallel_handshakes(n).net
        ts, t_explicit = timed(build_reachability_graph, net)

        def traverse():
            sym = SymbolicReachability(net)
            sym.reachable()
            return sym

        sym, t_bdd = timed(traverse)
        prefix, t_unf = timed(unfold, net)
        reduced, t_stub = timed(reduced_reachability, net)
        print("  %d | %8d | %11.4f | %9d | %6.4f | %10d | %6.4f |"
              " %8d | %6.4f"
              % (n, len(ts), t_explicit, sym.bdd_size(), t_bdd,
                 prefix.stats()["events"], t_unf, len(reduced), t_stub))
        assert sym.count() == len(ts)

    print("\nvariable-ordering ablation (n = 5):")
    net = parallel_handshakes(5).net
    for order in ("dfs", "sorted"):
        sym = SymbolicReachability(net, place_order=order)
        sym.reachable()
        print("  order=%-6s -> %5d BDD nodes" % (order, sym.bdd_size()))

    print("\nstructural invariants (n = 5, no state enumeration):")
    for inv in p_invariants(net):
        print("  ", " + ".join("M(%s)" % p for p in sorted(inv)), "= 1")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 5)
