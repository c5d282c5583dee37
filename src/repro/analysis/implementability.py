"""Implementability analysis of STGs (paper, Section 2.1).

An STG is implementable as a speed-independent circuit iff:

* the underlying net is **bounded** (we require 1-safe);
* the STG is **consistent** — rising and falling transitions of every
  signal alternate along every path;
* **complete state coding (CSC)** holds — no two states with the same
  binary code enable different non-input signals;
* the STG is **persistent** — (a) no non-input signal transition can be
  disabled by another transition (output hazards), and (b) no input
  transition can be disabled by a non-input transition (input hazards).
  Input-by-input disabling is allowed: that is environment choice
  (Section 1.5).

This module computes all of these on the explicit state graph and returns
a structured report.  The checks read the state graph's int codes and
enabled masks per state number: states are grouped by int code and
compared by mask, and a report object — with its states decoded to
markings — is built only for what is reported.  Conflicts come out in
code order, then in the state graph's parity-propagation order;
persistency violations in state order, then transition order, then
``signal_order``.  For nets whose state graph is too large to build,
two query engines answer the CSC question alone without enumeration:
:func:`repro.sat.queries.csc_conflict` through bounded model checking (a
search, complete only up to its bound) and
:class:`repro.bdd.queries.SymbolicCSC` through the symbolic fixpoint (an
exact characteristic-function answer).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .. import obs
from ..budgets import DEFAULT_STATE_BOUND
from ..errors import ConsistencyError, UnboundedError
from ..stg.signals import FALL, RISE
from ..stg.stg import STG
from ..ts.state_graph import StateGraph, build_state_graph
from ..ts.transition_system import State


@dataclass(frozen=True)
class CSCConflict:
    """Two states sharing a binary code but enabling different non-input
    signals — the next-state function is ill-defined (Section 2.1)."""

    code: Tuple[int, ...]
    state_a: State
    state_b: State
    enabled_a: FrozenSetType = None  # type: ignore[assignment]
    enabled_b: FrozenSetType = None  # type: ignore[assignment]

    def __str__(self):
        return "CSC conflict at code %s between %r (%s) and %r (%s)" % (
            "".join(map(str, self.code)), self.state_a,
            sorted(self.enabled_a or ()), self.state_b,
            sorted(self.enabled_b or ()))


FrozenSetType = Optional[frozenset]


@dataclass(frozen=True)
class USCConflict:
    """Two distinct states sharing a binary code (Unique State Coding)."""

    code: Tuple[int, ...]
    state_a: State
    state_b: State


@dataclass(frozen=True)
class PersistencyViolation:
    """Event ``disabled`` was enabled in ``state`` but firing ``by``
    disabled it.  ``kind`` is "output" (hazard at a gate output) or
    "input" (hazard at a device input)."""

    state: State
    disabled: str   # event string, e.g. "LDS+"
    by: str         # event string of the disabling transition
    kind: str

    def __str__(self):
        return "%s persistency violation in %r: %s disabled by %s" % (
            self.kind, self.state, self.disabled, self.by)


@dataclass
class ImplementabilityReport:
    """Aggregate result of all implementability checks."""

    stg_name: str
    states: int = 0
    bounded: bool = False
    consistent: bool = False
    consistency_error: Optional[str] = None
    usc_conflicts: List[USCConflict] = field(default_factory=list)
    csc_conflicts: List[CSCConflict] = field(default_factory=list)
    persistency_violations: List[PersistencyViolation] = field(
        default_factory=list)

    @property
    def has_usc(self) -> bool:
        return self.consistent and not self.usc_conflicts

    @property
    def has_csc(self) -> bool:
        return self.consistent and not self.csc_conflicts

    @property
    def persistent(self) -> bool:
        return self.consistent and not self.persistency_violations

    @property
    def implementable(self) -> bool:
        """Speed-independent implementability: bounded, consistent, CSC and
        persistent (USC is not required — CSC suffices)."""
        return (self.bounded and self.consistent and self.has_csc
                and self.persistent)

    def summary(self) -> str:
        """Multi-line human-readable summary."""
        lines = [
            "Implementability report for %s" % self.stg_name,
            "  states:      %d" % self.states,
            "  bounded:     %s" % self.bounded,
            "  consistent:  %s%s" % (
                self.consistent,
                "" if self.consistent else " (%s)" % self.consistency_error),
            "  USC:         %s (%d conflicts)" % (self.has_usc,
                                                  len(self.usc_conflicts)),
            "  CSC:         %s (%d conflicts)" % (self.has_csc,
                                                  len(self.csc_conflicts)),
            "  persistent:  %s (%d violations)" % (
                self.persistent, len(self.persistency_violations)),
            "  implementable as SI circuit: %s" % self.implementable,
        ]
        return "\n".join(lines)


# ---------------------------------------------------------------------- #
# individual checks on a built state graph
# ---------------------------------------------------------------------- #

def _code_groups(sg: StateGraph) -> List[Tuple[int, List[int]]]:
    """State numbers sharing an int code, for every code with more than
    one state: in code order, each group in parity-propagation order."""
    groups: Dict[int, List[int]] = {}
    codes = sg.int_codes
    for i in sg.order:
        groups.setdefault(codes[i], []).append(i)
    return sorted((code, states) for code, states in groups.items()
                  if len(states) > 1)


def usc_conflicts(sg: StateGraph) -> List[USCConflict]:
    """All pairs of distinct states sharing a binary code."""
    result = []
    marking = sg.graph.marking
    for code, states in _code_groups(sg):
        vector = sg.code_tuple(code)
        for i in range(len(states)):
            for j in range(i + 1, len(states)):
                result.append(USCConflict(vector, marking(states[i]),
                                          marking(states[j])))
    return result


def csc_conflicts(sg: StateGraph) -> List[CSCConflict]:
    """All pairs of same-code states with different non-input excitation."""
    result = []
    marking = sg.graph.marking
    masks = sg.enabled_masks
    noninput = sg.noninput_mask
    for code, states in _code_groups(sg):
        signatures = [masks[s] & noninput for s in states]
        for i in range(len(states)):
            for j in range(i + 1, len(states)):
                if signatures[i] != signatures[j]:
                    result.append(CSCConflict(
                        sg.code_tuple(code),
                        marking(states[i]), marking(states[j]),
                        frozenset(sg.pairs(signatures[i])),
                        frozenset(sg.pairs(signatures[j]))))
    return result


def persistency_violations(sg: StateGraph) -> List[PersistencyViolation]:
    """All persistency violations (Section 2.1).

    An enabled event ``a`` (as a signal/direction pair) is disabled by
    firing ``b`` if no transition with ``a``'s signal and direction remains
    enabled afterwards.  Violations are classified:

    * ``a`` non-input: "output" violation (glitch at a gate output);
    * ``a`` input disabled by non-input ``b``: "input" violation;
    * ``a`` input disabled by input ``b``: allowed (environment choice).

    The events one firing disables come out in ``signal_order``.
    """
    stg = sg.stg
    masks = sg.enabled_masks
    noninput = sg.noninput_mask
    everything = (1 << (2 * len(sg.signal_order))) - 1
    # per transition: the enabled-mask bits whose loss is a violation
    watched = []
    for b in sg.events:
        if b.is_dummy:
            watched.append(0)
            continue
        own = 3 << (2 * sg.signal_order.index(b.signal))
        reach = everything if stg.type_of(b.signal).is_noninput else noninput
        watched.append(reach & ~own)
    result = []
    for i, out in enumerate(sg.graph.arcs):
        here = masks[i]
        if not here:
            continue
        for t, j in out:
            lost = here & ~masks[j] & watched[t]
            while lost:
                low = lost & -lost
                lost ^= low
                bit = low.bit_length() - 1
                result.append(PersistencyViolation(
                    sg.graph.marking(i),
                    sg.signal_order[bit >> 1] + (FALL if bit & 1 else RISE),
                    str(sg.events[t]),
                    "output" if low & noninput else "input"))
    return result


def check_implementability(stg: STG,
                           max_states: int = DEFAULT_STATE_BOUND
                           ) -> ImplementabilityReport:
    """Run the full battery of Section 2.1 checks and return a report."""
    report = ImplementabilityReport(stg_name=stg.name)
    with obs.span("analysis.implementability", stg=stg.name) as span:
        try:
            sg = build_state_graph(stg, max_states=max_states)
        except UnboundedError as exc:
            report.bounded = False
            report.consistency_error = str(exc)
            span.annotate(verdict="unbounded")
            return report
        except ConsistencyError as exc:
            report.bounded = True
            report.consistent = False
            report.consistency_error = str(exc)
            span.annotate(verdict="inconsistent")
            return report
        report.bounded = True
        report.consistent = True
        report.states = len(sg)
        report.usc_conflicts = usc_conflicts(sg)
        report.csc_conflicts = csc_conflicts(sg)
        report.persistency_violations = persistency_violations(sg)
        span.add("states", report.states)
        span.add("usc_conflicts", len(report.usc_conflicts))
        span.add("csc_conflicts", len(report.csc_conflicts))
        span.add("persistency_violations",
                 len(report.persistency_violations))
        span.annotate(
            verdict="implementable" if report.implementable
            else "not-implementable")
    return report
