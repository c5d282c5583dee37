"""Behavioural properties of Petri nets.

Implements the checks listed in Section 2.1 of the paper that concern the
underlying net (independent of the signal interpretation):

* **boundedness / safeness** — the state space is finite, and (for
  implementability as a circuit) every place holds at most one token;
* **deadlock freedom**;
* **liveness** (every transition can always eventually fire again) and
  *home markings*.

Boundedness is decided by the Karp–Miller coverability graph of
:mod:`repro.petri.coverability`.  Every other check reads the numbered
graph of :func:`repro.ts.builder.explore`: the compiled explorer's on
1-safe ordinary nets, the naive explorer's on weighted ones and, with
``require_safe=False``, on k-bounded ones.  A net that is not 1-safe is
proved bounded first, so an unbounded net raises
:class:`~repro.errors.UnboundedError` instead of exhausting the state
budget.  The checks run on state numbers and decode only the markings
they return; :func:`is_live` also accepts a graph already explored.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Optional, Set, Union

from ..budgets import DEFAULT_STATE_BOUND
from ..errors import UnboundedError
from .coverability import build_coverability_graph
from .marking import Marking
from .net import PetriNet
from .token_game import enabled_transitions

if TYPE_CHECKING:
    from ..ts.builder import NumberedGraph


def _reachability_graph(net: PetriNet, max_states: int) -> NumberedGraph:
    """The numbered graph every check below reads.

    The default exploration stops with :class:`UnboundedError` at the
    first firing that breaks 1-safeness; such a net is then proved
    bounded by the Karp–Miller graph before the naive explorer explores
    its k-bounded state space.
    """
    # deferred: repro.ts imports the Petri-net kernel at module level
    from ..ts.builder import explore

    try:
        return explore(net, max_states)
    except UnboundedError:
        pass
    coverability = build_coverability_graph(net, max_states)
    if not coverability.is_bounded():
        raise UnboundedError("net is unbounded: places %r can hold"
                             " arbitrarily many tokens"
                             % coverability.unbounded_places())
    return explore(net, max_states, require_safe=False)


def reachable_markings(net: PetriNet,
                       max_states: int = DEFAULT_STATE_BOUND) -> Set[Marking]:
    """The set of reachable markings (explicit)."""
    return set(_reachability_graph(net, max_states).markings())


def is_bounded(net: PetriNet, max_states: int = DEFAULT_STATE_BOUND) -> bool:
    """True iff the reachability set is finite (Karp–Miller graph of at
    most ``max_states`` nodes)."""
    return build_coverability_graph(net, max_states).is_bounded()


def bound(net: PetriNet, max_states: int = DEFAULT_STATE_BOUND) -> int:
    """The bound of the net: max token count of any place in any reachable
    marking.  Raises ``UnboundedError`` for unbounded nets."""
    graph = _reachability_graph(net, max_states)
    return max((graph.tokens(i, p) for i in range(len(graph))
                for p in net.places), default=0)


def is_safe(net: PetriNet, max_states: int = DEFAULT_STATE_BOUND) -> bool:
    """True iff the net is 1-bounded (safe)."""
    try:
        return bound(net, max_states) <= 1
    except UnboundedError:
        return False


def unsafe_witness(net: PetriNet,
                   max_states: int = DEFAULT_STATE_BOUND) -> Optional[Marking]:
    """A reachable marking with a place holding >1 token, or None."""
    graph = _reachability_graph(net, max_states)
    for i in range(len(graph)):
        if any(graph.tokens(i, p) > 1 for p in net.places):
            return graph.marking(i)
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
        dead = (graph.marking(i) for i, out in enumerate(graph.arcs)
                if not out)
    else:
        dead = (m for m in markings if not enabled_transitions(net, m))
    return sorted(dead, key=lambda m: repr(m))


def is_deadlock_free(net: PetriNet,
                     max_states: int = DEFAULT_STATE_BOUND) -> bool:
    """True iff no reachable marking is dead."""
    return not find_deadlocks(net, max_states)


def _bottom_components(graph: NumberedGraph) -> List[List[int]]:
    """The bottom strongly connected components of a numbered graph, as
    lists of state numbers (iterative Tarjan, no recursion limit)."""
    arcs = graph.arcs
    count = len(arcs)
    index = [-1] * count
    low = [0] * count
    component = [-1] * count
    stack: List[int] = []
    components: List[List[int]] = []
    counter = 0
    for root in range(count):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, 0)]
        while work:
            v, k = work[-1]
            out = arcs[v]
            if k < len(out):
                work[-1] = (v, k + 1)
                w = out[k][1]
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    work.append((w, 0))
                elif component[w] < 0 and index[w] < low[v]:
                    # w is still on the stack: same component as v
                    low[v] = index[w]
                continue
            work.pop()
            if work:
                u = work[-1][0]
                if low[v] < low[u]:
                    low[u] = low[v]
            if low[v] == index[v]:
                members = []
                while True:
                    w = stack.pop()
                    component[w] = len(components)
                    members.append(w)
                    if w == v:
                        break
                components.append(members)
    bottom = [True] * len(components)
    for v, out in enumerate(arcs):
        c = component[v]
        for _, w in out:
            if component[w] != c:
                bottom[c] = False
                break
    return [members for members, is_bottom in zip(components, bottom)
            if is_bottom]


def is_live(model: Union[PetriNet, NumberedGraph],
            max_states: int = DEFAULT_STATE_BOUND) -> bool:
    """L4-liveness: from every reachable marking, every transition can
    eventually fire.

    ``model`` is a net, or its graph already explored by
    :func:`repro.ts.builder.explore` (a state graph's ``graph``), which
    is then read as it is.  Checked on the graph: in every bottom
    strongly connected component, the arcs fire every transition.
    """
    if isinstance(model, PetriNet):
        graph = _reachability_graph(model, max_states)
    else:
        graph = model
    arcs = graph.arcs
    everything = (1 << len(graph.transitions)) - 1
    for members in _bottom_components(graph):
        fired = 0
        for v in members:
            for t, _ in arcs[v]:
                fired |= 1 << t
        if fired != everything:
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
    bottoms = _bottom_components(graph)
    if len(bottoms) != 1:
        return set()
    return {graph.marking(v) for v in bottoms[0]}


def is_reversible(net: PetriNet,
                  max_states: int = DEFAULT_STATE_BOUND) -> bool:
    """True iff the initial marking is a home marking (cyclic behaviour)."""
    bottoms = _bottom_components(_reachability_graph(net, max_states))
    return len(bottoms) == 1 and 0 in bottoms[0]
