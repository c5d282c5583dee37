"""Complete State Coding resolution (paper, Sections 2.1 and 3.1).

Two techniques from the paper are implemented:

* **State-signal insertion** (:func:`resolve_csc`): insert a new internal
  signal whose rising transition precedes one event and whose falling
  transition precedes another, so that the conflicting states receive
  different codes.  The paper's example inserts ``csc0+`` right before
  ``LDS+`` and ``csc0-`` right before ``D-``.  Candidate pairs are searched
  exhaustively over non-input events (delaying inputs is not allowed "for
  compositional reasons") and validated on the resulting state graph:
  consistency, safeness, CSC, persistency and liveness must all hold.
  Each candidate is explored once: persistency, liveness and the CSC
  conflict count all read that one state graph on its int codes, and
  markings are decoded only for the conflicts and violations reported.

* **Concurrency reduction** (:func:`resolve_by_concurrency_reduction`):
  remove the conflicting states themselves by ordering one event after
  another (the paper's alternative: "signal transition DTACK- can be
  delayed until LDS- fires").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..budgets import REDUCTION_STATE_BOUND
from ..errors import CSCError, ReproError
from ..petri.properties import is_live
from ..stg.stg import STG
from ..ts.state_graph import build_state_graph
from ..analysis.implementability import (
    check_implementability,
    csc_conflicts,
    persistency_violations,
)


@dataclass
class InsertionCandidate:
    """A validated (possibly partial) CSC-resolving insertion.

    ``rise_before`` / ``fall_before`` are comma-joined target event lists
    (a new transition instance is inserted before each target).
    ``conflicts`` counts the remaining CSC conflicts; 0 means the insertion
    fully restores complete state coding.
    """

    rise_before: str
    fall_before: str
    conflicts: int
    states: int
    stg: STG


def _noninput_transitions(stg: STG) -> List[str]:
    return sorted(
        t for t in stg.net.transitions
        if stg.type_of(stg.event_of(t).signal).is_noninput
    )


def _insertion_targets(stg: STG) -> List[Tuple[str, ...]]:
    """Candidate insertion points: every single non-input transition, plus
    every *group* of instances of the same base event (needed when the
    conflicting behaviour occurs in several branches, as in the READ/WRITE
    controller where csc0+ must precede both LDS+ instances)."""
    singles = [(t,) for t in _noninput_transitions(stg)]
    groups: dict = {}
    for t in _noninput_transitions(stg):
        groups.setdefault(stg.event_of(t).base(), []).append(t)
    multi = [tuple(sorted(ts)) for ts in groups.values() if len(ts) > 1]
    return singles + sorted(multi)


def _insertion_metrics(stg: STG, max_states: int) -> Optional[Tuple[int, int]]:
    """(csc conflict count, SG size) if the STG stays well-formed
    (bounded, consistent, persistent, live), else None.

    One exploration serves every check: liveness reads the state graph's
    numbered graph instead of exploring the net again.
    """
    try:
        sg = build_state_graph(stg, max_states=max_states)
    except ReproError:
        return None
    if persistency_violations(sg) or not is_live(sg.graph):
        return None
    return len(csc_conflicts(sg)), len(sg)


def enumerate_insertions(stg: STG, signal: str = "csc0",
                         max_states: int = REDUCTION_STATE_BOUND,
                         full_only: bool = True) -> List[InsertionCandidate]:
    """Single-signal insertions (rise/fall before non-input events) that
    keep the specification well-formed.

    With ``full_only`` (the default) only insertions that fully restore CSC
    are returned; otherwise partial resolutions (fewer conflicts than the
    input) are included.  Sorted best-first: fewest remaining conflicts,
    then smallest state graph, then lexicographic.
    """
    base = check_implementability(stg, max_states=max_states)
    base_conflicts = len(base.csc_conflicts)
    candidates: List[InsertionCandidate] = []
    targets = _insertion_targets(stg)
    for rise_before in targets:
        for fall_before in targets:
            if set(rise_before) & set(fall_before):
                continue
            try:
                attempt = stg.insert_signal(
                    signal, rise_before=list(rise_before),
                    fall_before=list(fall_before))
            except ReproError:
                continue
            metrics = _insertion_metrics(attempt, max_states)
            if metrics is None:
                continue
            conflicts, states = metrics
            if conflicts > 0 and (full_only or conflicts >= base_conflicts):
                continue
            candidates.append(InsertionCandidate(
                ",".join(rise_before), ",".join(fall_before),
                conflicts, states, attempt))
    candidates.sort(key=lambda c: (c.conflicts, c.states,
                                   c.rise_before, c.fall_before))
    return candidates


def resolve_csc(stg: STG, signal_prefix: str = "csc",
                max_signals: int = 4,
                max_states: int = REDUCTION_STATE_BOUND) -> STG:
    """Resolve all CSC conflicts by iterative state-signal insertion.

    Inserts ``csc0``, ``csc1``, ... (one rising and one falling transition
    each) until CSC holds.  At each step the candidate leaving the fewest
    conflicts (then the smallest state graph) is chosen; candidates that do
    not strictly reduce the conflict count are discarded, so the iteration
    always progresses.  Raises :class:`CSCError` if the search fails within
    ``max_signals`` insertions.
    """
    current = stg
    for k in range(max_signals):
        report = check_implementability(current, max_states=max_states)
        if report.consistent and report.has_csc:
            return current
        candidates = enumerate_insertions(
            current, signal="%s%d" % (signal_prefix, k),
            max_states=max_states, full_only=False)
        if not candidates:
            raise CSCError(
                "no single-signal insertion reduces the CSC conflicts of %r"
                % current.name)
        current = candidates[0].stg
    report = check_implementability(current, max_states=max_states)
    if report.consistent and report.has_csc:
        return current
    raise CSCError("CSC unresolved after %d signal insertions" % max_signals)


def resolve_by_concurrency_reduction(stg: STG,
                                     max_states: int = REDUCTION_STATE_BOUND) -> Tuple[STG, Tuple[str, str]]:
    """Resolve CSC by delaying one non-input event after another.

    Searches ordered pairs ``(first, second)`` where ``second`` is a
    non-input event, adds the ordering place ``first -> second`` (trying
    both initial markings of the place) and accepts the first candidate
    that is implementable and live.  Returns ``(new_stg, (first, second))``.
    """
    report = check_implementability(stg, max_states=max_states)
    if report.consistent and report.has_csc:
        return stg, ("", "")
    all_events = sorted(stg.net.transitions)
    targets = _noninput_transitions(stg)
    best: Optional[Tuple[int, str, str, STG]] = None
    for first in all_events:
        for second in targets:
            if first == second:
                continue
            for marked in (False, True):
                try:
                    attempt = stg.add_ordering_arc(first, second,
                                                   initially_marked=marked)
                except ReproError:
                    continue
                metrics = _insertion_metrics(attempt, max_states)
                if metrics is None or metrics[0] > 0:
                    continue
                states = metrics[1]
                key = (states, first, second)
                if best is None or key < (best[0], best[1], best[2]):
                    best = (states, first, second, attempt)
                break  # prefer the unmarked variant when both work
    if best is None:
        raise CSCError(
            "no single concurrency reduction resolves the CSC conflicts of %r"
            % stg.name)
    return best[3], (best[1], best[2])
