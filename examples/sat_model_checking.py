#!/usr/bin/env python
"""SAT-based model checking without state graphs (repro.sat).

The paper's Section 2.2 names state explosion as the obstacle to STG
analysis; this example shows the subsystem that sidesteps it.  Three
demonstrations on the paper's own models:

1. **Deadlock refutation on the VME bus controller** — k-induction
   proves deadlock-freedom without enumerating the 14-state graph, and
   keeps proving it on Muller pipelines far past the point where
   explicit enumeration gets expensive (the state count doubles per
   stage; the proof cost grows with the *net*, not the state space).

2. **A CSC conflict found by BMC before state-graph construction** —
   two bounded unrollings of the READ-cycle token game, constrained to
   equal signal parities (same binary code) and different non-input
   excitation, reproduce the paper's Figure 4 conflict as a pair of
   replayable firing sequences.

3. **A shallow deadlock in a large state space** — dining philosophers:
   BMC digs out the "everyone took the left fork" deadlock; a step fires
   any set of independent transitions together, so it needs a single
   step.

Run:  python examples/sat_model_checking.py
"""

import time

from repro.petri import dining_philosophers, find_deadlocks
from repro.sat import (
    Proved,
    csc_conflict,
    find_deadlock,
    prove_deadlock_free,
)
from repro.stg import muller_pipeline, vme_read
from repro.ts import build_reachability_graph


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def deadlock_refutation():
    print("== 1. deadlock-freedom of the VME bus controller ==")
    stg = vme_read()
    verdict, seconds = timed(prove_deadlock_free, stg)
    assert isinstance(verdict, Proved)
    print("vme_read: proved deadlock-free by %d-induction in %.3fs"
          % (verdict.k, seconds))

    print("\nscaling on Muller pipelines (2^(n-1)*4 states):")
    print("   n |   states | sat proof (s) | explicit graph (s)")
    for n in (8, 10, 12, 14):
        stg = muller_pipeline(n)
        verdict, t_sat = timed(prove_deadlock_free, stg, 2)
        assert isinstance(verdict, Proved)
        ts, t_explicit = timed(build_reachability_graph, stg)
        print("  %2d | %8d | %13.3f | %18.3f"
              % (n, len(ts), t_sat, t_explicit))


def csc_before_state_graph():
    print("\n== 2. the Figure 4 CSC conflict, found by BMC ==")
    stg = vme_read()
    conflict, seconds = timed(csc_conflict, stg, 12)
    assert conflict is not None
    print("found in %.3fs (no state graph built):" % seconds)
    print("  %s" % conflict)
    print("  trace a: %s" % " ".join(conflict.trace_a.transitions))
    print("  trace b: %s" % " ".join(conflict.trace_b.transitions))
    print("  (both traces replay in the token game; the conflicting"
          " states share a binary code")
    print("   because their traces fire every signal an equal number of"
          " times mod 2)")


def shallow_deadlock():
    print("\n== 3. shallow deadlock, large state space (philosophers) ==")
    n = 8
    net = dining_philosophers(n)
    witness, seconds = timed(find_deadlock, net, 1)
    assert witness is not None
    print("deadlock after one step (%.3fs): %s"
          % (seconds, " ".join(witness.transitions)))
    # the SAT and explicit paths report dead markings identically
    print("dead marking: %r"
          % find_deadlocks(net, markings=[witness.final_marking])[0])


if __name__ == "__main__":
    deadlock_refutation()
    csc_before_state_graph()
    shallow_deadlock()
