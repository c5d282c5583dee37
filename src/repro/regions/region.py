"""Regions of transition systems (paper, Section 4, ref [8]).

A *region* is a set of states such that every event crosses its boundary
uniformly: all arcs of the event enter the set, or all exit it, or none
crosses it.  Regions correspond to places of a Petri net generating the
transition system; *excitation regions* correspond to transitions.

This module provides the region predicate, the gradient classification and
the minimal-region expansion search used by PN synthesis
(:mod:`repro.regions.synthesis`).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..ts.transition_system import Event, State, TransitionSystem

ENTER = "enter"
EXIT = "exit"
NOCROSS = "nocross"


def event_gradient(ts: TransitionSystem, region: FrozenSet[State],
                   event: Event) -> Optional[str]:
    """Crossing classification of an event w.r.t. a state set.

    Returns ``ENTER``, ``EXIT`` or ``NOCROSS`` when uniform, None when the
    event violates the region condition.
    """
    n_enter = n_exit = n_in = n_out = 0
    for s, e, t in ts.arcs():
        if e != event:
            continue
        src = s in region
        dst = t in region
        if not src and dst:
            n_enter += 1
        elif src and not dst:
            n_exit += 1
        elif src and dst:
            n_in += 1
        else:
            n_out += 1
    if n_enter and not (n_exit or n_in or n_out):
        return ENTER
    if n_exit and not (n_enter or n_in or n_out):
        return EXIT
    if not n_enter and not n_exit:
        return NOCROSS
    return None


def is_region(ts: TransitionSystem, candidate: Iterable[State]) -> bool:
    """True iff the state set is a region (every event uniform)."""
    region = frozenset(candidate)
    return all(event_gradient(ts, region, e) is not None for e in ts.events)


def excitation_region(ts: TransitionSystem, event: Event) -> FrozenSet[State]:
    """States in which the event is enabled (``ER(e)``)."""
    return frozenset(ts.states_with_event(event))


def _violation_fixes(ts: TransitionSystem, region: FrozenSet[State],
                     event: Event) -> List[FrozenSet[State]]:
    """Minimal ways to grow ``region`` towards legality for one event.

    Three strategies (each may be impossible):

    * make the event non-crossing: absorb sources of entering arcs and
      targets of exiting arcs;
    * make it entering: absorb targets of outside arcs (only if no arc
      exits or lies inside);
    * make it exiting: absorb sources of outside arcs (only if no arc
      enters or lies inside).
    """
    entering: List[Tuple[State, State]] = []
    exiting: List[Tuple[State, State]] = []
    inside: List[Tuple[State, State]] = []
    outside: List[Tuple[State, State]] = []
    for s, e, t in ts.arcs():
        if e != event:
            continue
        src, dst = s in region, t in region
        if not src and dst:
            entering.append((s, t))
        elif src and not dst:
            exiting.append((s, t))
        elif src and dst:
            inside.append((s, t))
        else:
            outside.append((s, t))

    fixes: List[FrozenSet[State]] = []
    # non-crossing
    grow = {s for s, _ in entering} | {t for _, t in exiting}
    if grow:
        fixes.append(region | grow)
    # all-entering
    if not exiting and not inside and entering:
        grow = {t for _, t in outside}
        if grow:
            fixes.append(region | grow)
    # all-exiting
    if not entering and not inside and exiting:
        grow = {s for s, _ in outside}
        if grow:
            fixes.append(region | grow)
    return [f for f in fixes if f != region]


def minimal_regions_containing(ts: TransitionSystem,
                               seed: Iterable[State],
                               limit: int = 100_000) -> List[FrozenSet[State]]:
    """All minimal regions containing ``seed`` (expansion search).

    Starting from the seed, repeatedly pick a violating event and branch on
    the legalization strategies; legal sets that are proper subsets of the
    state space are collected and filtered for minimality.
    """
    all_states = frozenset(ts.states)
    start = frozenset(seed)
    results: List[FrozenSet[State]] = []
    seen: Set[FrozenSet[State]] = set()
    stack: List[FrozenSet[State]] = [start]
    visited = 0
    while stack:
        candidate = stack.pop()
        if candidate in seen or candidate == all_states:
            continue
        seen.add(candidate)
        visited += 1
        if visited > limit:
            break
        violating = None
        for e in sorted(ts.events):
            if event_gradient(ts, candidate, e) is None:
                violating = e
                break
        if violating is None:
            results.append(candidate)
            continue
        stack.extend(_violation_fixes(ts, candidate, violating))
    minimal: List[FrozenSet[State]] = []
    for r in sorted(results, key=len):
        if not any(m < r for m in minimal):
            minimal.append(r)
    return minimal


def all_minimal_preregions(ts: TransitionSystem) -> Dict[Event, List[FrozenSet[State]]]:
    """Minimal pre-regions of every event.

    A pre-region of ``e`` is a region that ``e`` exits; every minimal
    pre-region contains ``ER(e)``, so the expansion starts there.
    """
    result: Dict[Event, List[FrozenSet[State]]] = {}
    for event in sorted(ts.events):
        er = excitation_region(ts, event)
        regions = minimal_regions_containing(ts, er)
        result[event] = [
            r for r in regions
            if event_gradient(ts, r, event) == EXIT
        ]
    return result


def excitation_closure_holds(ts: TransitionSystem,
                             preregions: Optional[Dict[Event, List[FrozenSet[State]]]] = None
                             ) -> Tuple[bool, Dict[Event, FrozenSet[State]]]:
    """Excitation closure: for every event, the intersection of its
    pre-regions equals its excitation region.

    Returns ``(holds, {event: intersection})``.
    """
    if preregions is None:
        preregions = all_minimal_preregions(ts)
    holds = True
    intersections: Dict[Event, FrozenSet[State]] = {}
    for event in sorted(ts.events):
        regions = preregions.get(event, [])
        if not regions:
            holds = False
            intersections[event] = frozenset(ts.states)
            continue
        inter = frozenset(ts.states)
        for r in regions:
            inter &= r
        intersections[event] = inter
        if inter != excitation_region(ts, event):
            holds = False
    return holds, intersections
