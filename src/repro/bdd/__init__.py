"""ROBDD engine, symbolic traversal and symbolic queries (Section 2.2).

A query engine only: :mod:`repro.bdd.queries` answers counts, deadlocks
and CSC conflicts on the characteristic function of the reachable set,
without enumerating it (``repro bdd-check`` on the command line, and the
``bdd`` slot of :mod:`repro.portfolio`).
"""

from .bdd import BDD, FALSE, TRUE
from .queries import (
    SymbolicCSC,
    find_deadlock,
    has_csc_conflict,
    has_deadlock,
    reachable_count,
)
from .symbolic import (
    structural_place_order,
    DenseSymbolicReachability,
    SymbolicReachability,
)

__all__ = [
    "BDD", "FALSE", "TRUE",
    "DenseSymbolicReachability", "SymbolicCSC",
    "SymbolicReachability", "find_deadlock",
    "has_csc_conflict", "has_deadlock", "reachable_count",
    "structural_place_order",
]
