"""repro.sat — SAT-based bounded model checking of Petri nets and STGs.

The paper's Section 2.2 names **state explosion** as the central obstacle
to analysing STGs: every property check in this library used to enumerate
the full reachability graph (explicitly, via the compiled bitvector
engine, or symbolically with BDDs).  This package opens the complementary
route pioneered for Petri nets by tools like SMPT: encode the token game
as propositional constraints and ask a SAT solver *targeted queries* —
finding counterexamples (BMC) or proofs (k-induction) without ever
materialising the state space.

Module map, with the SMPT and paper counterparts each one reproduces:

====================  ====================================================
module                role / counterpart
====================  ====================================================
:mod:`.cnf`           CNF construction, Tseitin transformation, variable
                      pools, DIMACS import/export.  Counterpart of SMPT's
                      SMT-LIB formula emission (``formula.smtlib()``),
                      but targeting plain propositional logic.
:mod:`.solver`        Pure-Python CDCL SAT solver: two-watched literals,
                      first-UIP clause learning, VSIDS activities, phase
                      saving, Luby restarts, incremental solving under
                      assumptions.  Replaces SMPT's external ``z3 -in``
                      subprocess (``solver.py``) so the subsystem has
                      zero dependencies.
:mod:`.encodings`     Unrolled token-game encoding of 1-safe nets: frame
                      axioms, ∅-conflict steps (any set of independent
                      transitions fires in one step), P-invariant
                      (state-equation over-approximation) pruning — SMPT's
                      ``smtlib_transitions_ordered`` plus the paper's
                      Section 2.2 approximation techniques.  The
                      :class:`~repro.sat.encodings.STGEncoding` subclass
                      adds signal parities and the rise/fall alternation
                      automaton for the STG-level queries.
:mod:`.bmc`           The one bound loop, over any encoding and target,
                      with replayed :class:`~repro.sat.bmc.Witness`
                      traces (SMPT's BMC loop in ``smpt.py``).
:mod:`.kinduction`    k-induction with simple-path refinement returning
                      ``Proved`` / ``Refuted(trace)`` / ``Unknown(k)``
                      (SMPT's ``kinduction.py``; SMPT's IC3 module has
                      no counterpart here).
:mod:`.queries`       User-facing predicates: ``reach_marking``,
                      ``find_deadlock``, ``prove_deadlock_free``,
                      ``prove_unreachable``, ``csc_conflict``,
                      ``consistency_violation`` — the paper's Section 2
                      property checks as SAT queries, and ``query_cnf``,
                      the CNF a bounded query solves at one bound.
====================  ====================================================

Quick start::

    from repro.stg import vme_read
    from repro.sat import csc_conflict, prove_deadlock_free

    stg = vme_read()
    assert prove_deadlock_free(stg)            # Proved, no state graph
    conflict = csc_conflict(stg, bound=12)     # the Figure 4 CSC conflict
    print(conflict)

Every witness is replayed through the token game before being returned,
and the cross-engine test suite (`tests/test_sat_engine.py`) locks the
verdicts to the explicit, compiled and BDD engines on the whole STG
library.  ``DEFAULT_BOUND`` (30 steps) and ``DEFAULT_MAX_K`` (15) are
the defaults of these queries and of :mod:`repro.portfolio`.
"""

from .bmc import BMC, DEFAULT_BOUND, Witness, deadlock_target, marking_target
from .cnf import CNF
from .encodings import SafeNetEncoding, STGEncoding, state_equation_refutes
from .kinduction import (
    DEFAULT_MAX_K,
    Proved,
    Refuted,
    Unknown,
    Verdict,
    k_induction,
)
from .queries import (
    SatCSCConflict,
    consistency_violation,
    csc_conflict,
    find_deadlock,
    prove_deadlock_free,
    prove_unreachable,
    query_cnf,
    reach_marking,
)
from .solver import Solver

__all__ = [
    "BMC", "DEFAULT_BOUND", "Witness", "deadlock_target", "marking_target",
    "CNF", "SafeNetEncoding", "STGEncoding",
    "state_equation_refutes",
    "DEFAULT_MAX_K", "Proved", "Refuted", "Unknown", "Verdict", "k_induction",
    "SatCSCConflict", "consistency_violation", "csc_conflict",
    "find_deadlock", "prove_deadlock_free", "prove_unreachable",
    "query_cnf", "reach_marking",
    "Solver",
]
