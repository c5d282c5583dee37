"""Partial-order reduction with stubborn sets (paper, Section 2.2).

Valmari's stubborn-set method explores only a subset of the enabled
transitions at each marking while preserving all deadlocks.  The closure
rules implemented here are the classic ones for ordinary nets:

* if ``t`` in the set is *enabled*, every transition in structural conflict
  with ``t`` (sharing an input place) joins the set;
* if ``t`` in the set is *disabled*, all producers of one insufficiently
  marked input place of ``t`` join the set (the "necessary enabling set").

The reduced state space contains every deadlock of the full one; the
benchmark suite measures the reduction factor on the scalable workloads.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..budgets import DEFAULT_STATE_BOUND
from ..errors import StateExplosionError
from ..petri.marking import Marking
from ..petri.net import PetriNet
from ..petri.token_game import enabled_transitions, fire, is_enabled
from ..ts.transition_system import TransitionSystem


def stubborn_set(net: PetriNet, marking: Marking,
                 seed: Optional[str] = None) -> Set[str]:
    """Compute a stubborn set at ``marking``.

    Returns the empty set at a deadlock.  The seed (first transition) is
    the lexicographically smallest enabled transition unless given.
    """
    enabled = enabled_transitions(net, marking)
    if not enabled:
        return set()
    if seed is None:
        seed = enabled[0]
    stubborn: Set[str] = {seed}
    worklist: List[str] = [seed]
    while worklist:
        t = worklist.pop()
        if is_enabled(net, marking, t):
            # add all structural conflicts of t
            for p in net.pre(t):
                for rival in net.postset(p):
                    if rival not in stubborn:
                        stubborn.add(rival)
                        worklist.append(rival)
        else:
            # pick one insufficiently marked input place, add its producers
            scapegoat = None
            for p in sorted(net.pre(t)):
                if marking.get(p) < net.pre(t)[p]:
                    scapegoat = p
                    break
            if scapegoat is None:
                continue
            for producer in net.preset(scapegoat):
                if producer not in stubborn:
                    stubborn.add(producer)
                    worklist.append(producer)
    return stubborn


def reduced_reachability(net: PetriNet,
                         max_states: int = DEFAULT_STATE_BOUND) -> TransitionSystem:
    """Stubborn-set-reduced state space (deadlock preserving)."""
    initial = net.initial_marking
    ts = TransitionSystem(initial)
    stack = [initial]
    seen = {initial}
    while stack:
        marking = stack.pop()
        chosen = stubborn_set(net, marking)
        for t in sorted(chosen):
            if not is_enabled(net, marking, t):
                continue
            succ = fire(net, marking, t, check=False)
            ts.add_arc(marking, t, succ)
            if succ not in seen:
                if len(seen) >= max_states:
                    raise StateExplosionError(
                        "reduced reachability exceeded %d states" % max_states,
                        bound=max_states, states=len(seen)
                    )
                seen.add(succ)
                stack.append(succ)
    return ts


def deadlocks_reduced(net: PetriNet,
                      max_states: int = DEFAULT_STATE_BOUND) -> List[Marking]:
    """Deadlocks found in the stubborn-set-reduced state space.

    Stubborn-set theory guarantees this is exactly the set of reachable
    deadlocks of the full state space.
    """
    ts = reduced_reachability(net, max_states)
    return sorted(
        (m for m in ts.states if not ts.successors(m)),
        key=repr,
    )


def reduction_statistics(net: PetriNet,
                         max_states: int = DEFAULT_STATE_BOUND) -> Dict[str, int]:
    """Full vs reduced state/arc counts — the Section 2.2 comparison."""
    from ..ts.builder import build_reachability_graph

    full = build_reachability_graph(net, max_states=max_states,
                                    require_safe=False)
    reduced = reduced_reachability(net, max_states=max_states)
    return {
        "full_states": len(full),
        "full_arcs": full.arc_count(),
        "reduced_states": len(reduced),
        "reduced_arcs": reduced.arc_count(),
    }
