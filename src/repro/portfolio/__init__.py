"""Fault-tolerant portfolio orchestration: race the verdict engines.

No single engine dominates the paper's workloads: k-induction wins on
hard proofs, the BDD fixpoint on wide-but-regular state spaces, the
compiled explicit engine on small controllers, and BMC finds shallow
bugs fastest.  This package races engine/method combinations **in
supervised worker processes** and returns the first *definitive*
verdict — per-task deadlines, crash retry with exponential backoff,
degradation ladders onto cheaper engines, loser cancellation, and
cross-validation of the winner against independent evidence (a
disagreement is reported as an ``"inconsistent"`` verdict, never
resolved silently).

Layers, bottom up:

* :mod:`repro.portfolio.tasks` — the method table (which method answers
  which query, which methods are bounded, which verdict means the
  property holds), the slot schedule, and the normalised picklable
  runners with one verdict vocabulary per query;
* :mod:`repro.portfolio.faults` — deterministic, seedable fault
  injection (``REPRO_FAULTS``) that can kill, delay or poison any
  worker, so the recovery machinery is itself testable;
* :mod:`repro.portfolio.workers` — the supervisor: :func:`race` (worker
  processes, or in-process with ``inline=True``), :class:`TaskSpec`,
  classified :class:`TaskOutcome`;
* :mod:`repro.portfolio.portfolio` — the entry points re-exported
  here: :func:`check_deadlock`, :func:`check_reach`, :func:`check_csc`,
  :func:`check_consistency`, each returning a :class:`Verdict`.

The CLI front end is ``repro check`` (``repro check --help``), with
``repro sat-check`` and ``repro bdd-check`` as aliases pinned to one
engine.  See ``docs/portfolio.md`` for the guide.
"""

from .portfolio import (DEFAULT_BOUND, DEFAULT_MAX_K, PROBE_BOUND, Verdict,
                        check_consistency, check_csc, check_deadlock,
                        check_reach)
from .workers import (DEFAULT_DEADLINE_S, DEFAULT_MAX_ATTEMPTS, RaceResult,
                      TaskOutcome, TaskSpec, race)

__all__ = [
    "DEFAULT_BOUND",
    "DEFAULT_DEADLINE_S",
    "DEFAULT_MAX_ATTEMPTS",
    "DEFAULT_MAX_K",
    "PROBE_BOUND",
    "RaceResult",
    "TaskOutcome",
    "TaskSpec",
    "Verdict",
    "check_consistency",
    "check_csc",
    "check_deadlock",
    "check_reach",
    "race",
]
