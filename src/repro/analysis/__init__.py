"""Analysis and verification of STG specifications (paper Section 2)."""

from .implementability import (
    CSCConflict,
    ImplementabilityReport,
    PersistencyViolation,
    USCConflict,
    check_implementability,
    csc_conflicts,
    persistency_violations,
    usc_conflicts,
)
from .stubborn import (
    deadlocks_reduced,
    reduced_reachability,
    reduction_statistics,
    stubborn_set,
)

__all__ = [
    "CSCConflict", "ImplementabilityReport", "PersistencyViolation",
    "USCConflict", "check_implementability", "csc_conflicts",
    "persistency_violations", "usc_conflicts",
    "deadlocks_reduced", "reduced_reachability", "reduction_statistics",
    "stubborn_set",
]
