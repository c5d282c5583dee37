"""ROBDD engine, symbolic traversal and symbolic queries (Section 2.2).

The package backs ``engine="bdd"`` of the unified engine framework
(:mod:`repro.ts.builder`) and the query layer of :mod:`repro.bdd.queries`
(``repro bdd-check`` on the command line).
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
    symbolic_marking_count,
)

__all__ = [
    "BDD", "FALSE", "TRUE",
    "DenseSymbolicReachability", "SymbolicCSC",
    "SymbolicReachability", "find_deadlock",
    "has_csc_conflict", "has_deadlock", "reachable_count",
    "structural_place_order", "symbolic_marking_count",
]
