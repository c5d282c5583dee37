"""Behavioural properties of Petri nets.

Implements the checks listed in Section 2.1 of the paper that concern the
underlying net (independent of the signal interpretation):

* **boundedness / safeness** — the state space is finite, and (for
  implementability as a circuit) every place holds at most one token;
* **deadlock freedom**;
* **liveness** (every transition can always eventually fire again) and
  *home markings*.

Boundedness is decided by the Karp–Miller coverability graph of
:mod:`repro.petri.coverability`.  Every other check reads the reachability
graph of :func:`repro.ts.builder.build_reachability_graph`: the compiled
engine's on 1-safe ordinary nets, the naive engine's on weighted ones
and, with ``require_safe=False``, on k-bounded ones.  A net that is not
1-safe is proved bounded first, so an unbounded net raises
:class:`~repro.errors.UnboundedError` instead of exhausting the state
budget.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Set

from ..budgets import DEFAULT_STATE_BOUND
from ..errors import UnboundedError
from .coverability import build_coverability_graph
from .marking import Marking
from .net import PetriNet
from .token_game import enabled_transitions

if TYPE_CHECKING:
    from ..ts.transition_system import TransitionSystem


def _reachability_graph(net: PetriNet,
                        max_states: int) -> TransitionSystem:
    """The reachability graph every check below reads.

    The default build stops with :class:`UnboundedError` at the first
    firing that breaks 1-safeness; such a net is then proved bounded by
    the Karp–Miller graph before the naive engine explores its k-bounded
    state space.
    """
    # deferred: repro.ts imports the Petri-net kernel at module level
    from ..ts.builder import build_reachability_graph

    try:
        return build_reachability_graph(net, max_states)
    except UnboundedError:
        pass
    coverability = build_coverability_graph(net, max_states)
    if not coverability.is_bounded():
        raise UnboundedError("net is unbounded: places %r can hold"
                             " arbitrarily many tokens"
                             % coverability.unbounded_places())
    return build_reachability_graph(net, max_states, require_safe=False)


def reachable_markings(net: PetriNet,
                       max_states: int = DEFAULT_STATE_BOUND) -> Set[Marking]:
    """The set of reachable markings (explicit)."""
    return set(_reachability_graph(net, max_states).states)


def is_bounded(net: PetriNet, max_states: int = DEFAULT_STATE_BOUND) -> bool:
    """True iff the reachability set is finite (Karp–Miller graph of at
    most ``max_states`` nodes)."""
    return build_coverability_graph(net, max_states).is_bounded()


def bound(net: PetriNet, max_states: int = DEFAULT_STATE_BOUND) -> int:
    """The bound of the net: max token count of any place in any reachable
    marking.  Raises ``UnboundedError`` for unbounded nets."""
    markings = _reachability_graph(net, max_states).states
    best = 0
    for m in markings:
        for _, n in m.items():
            if n > best:
                best = n
    return best


def is_safe(net: PetriNet, max_states: int = DEFAULT_STATE_BOUND) -> bool:
    """True iff the net is 1-bounded (safe)."""
    try:
        return bound(net, max_states) <= 1
    except UnboundedError:
        return False


def unsafe_witness(net: PetriNet,
                   max_states: int = DEFAULT_STATE_BOUND) -> Optional[Marking]:
    """A reachable marking with a place holding >1 token, or None."""
    for m in _reachability_graph(net, max_states).states:
        if not m.is_safe():
            return m
    return None


def find_deadlocks(net: PetriNet,
                   max_states: int = DEFAULT_STATE_BOUND,
                   markings: Optional[Iterable[Marking]] = None
                   ) -> List[Marking]:
    """All dead markings (no transition enabled), in one report format.

    With the default ``markings=None`` every reachable marking is
    checked.  Passing a ``markings`` iterable instead filters *those*
    markings for deadness — this is how query engines that do not
    enumerate the state space (e.g. the SAT path:
    ``find_deadlocks(net, markings=[witness.final_marking])`` with a
    :class:`repro.sat.bmc.Witness`) report through the same interface as
    the explicit one.
    """
    if markings is None:
        graph = _reachability_graph(net, max_states)
        dead = (m for m in graph.states if not graph.successors(m))
    else:
        dead = (m for m in markings if not enabled_transitions(net, m))
    return sorted(dead, key=lambda m: repr(m))


def is_deadlock_free(net: PetriNet,
                     max_states: int = DEFAULT_STATE_BOUND) -> bool:
    """True iff no reachable marking is dead."""
    return not find_deadlocks(net, max_states)


def _strongly_connected_bottom(graph: TransitionSystem):
    """Tarjan SCC; returns (scc_index per marking, list of sccs, bottom flags)."""
    index: Dict[Marking, int] = {}
    low: Dict[Marking, int] = {}
    on_stack: Set[Marking] = set()
    stack: List[Marking] = []
    sccs: List[List[Marking]] = []
    scc_of: Dict[Marking, int] = {}
    counter = [0]

    def strongconnect(root: Marking) -> None:
        # iterative Tarjan to avoid recursion limits on big graphs
        work = [(root, iter(graph.successors(root)))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for _, w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(graph.successors(w))))
                    advanced = True
                    break
                elif w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                component = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    component.append(w)
                    scc_of[w] = len(sccs)
                    if w == v:
                        break
                sccs.append(component)

    for m in graph.states:
        if m not in index:
            strongconnect(m)

    bottom = [True] * len(sccs)
    for m, _, w in graph.arcs():
        if scc_of[w] != scc_of[m]:
            bottom[scc_of[m]] = False
    return scc_of, sccs, bottom


def is_live(net: PetriNet, max_states: int = DEFAULT_STATE_BOUND) -> bool:
    """L4-liveness: from every reachable marking, every transition can
    eventually fire.

    Checked on the reachability graph: every bottom strongly connected
    component must contain an occurrence of every transition.
    """
    graph = _reachability_graph(net, max_states)
    scc_of, sccs, bottom = _strongly_connected_bottom(graph)
    all_transitions = set(net.transitions)
    for idx, component in enumerate(sccs):
        if not bottom[idx]:
            continue
        fired = set()
        for m in component:
            for t, succ in graph.successors(m):
                if scc_of[succ] == idx:
                    fired.add(t)
        if fired != all_transitions:
            return False
    return True


def home_markings(net: PetriNet,
                  max_states: int = DEFAULT_STATE_BOUND) -> Set[Marking]:
    """Markings reachable from every reachable marking.

    For a strongly connected reachability graph this is the whole set; in
    general it is the union of bottom SCCs if there is exactly one bottom
    SCC, and empty otherwise.
    """
    graph = _reachability_graph(net, max_states)
    scc_of, sccs, bottom = _strongly_connected_bottom(graph)
    bottoms = [i for i, b in enumerate(bottom) if b]
    if len(bottoms) != 1:
        return set()
    return set(sccs[bottoms[0]])


def is_reversible(net: PetriNet,
                  max_states: int = DEFAULT_STATE_BOUND) -> bool:
    """True iff the initial marking is a home marking (cyclic behaviour)."""
    return net.initial_marking in home_markings(net, max_states)
