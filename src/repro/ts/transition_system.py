"""Abstract transition systems (paper, Section 1.4).

A Transition System (TS) is a directed graph whose arcs are labelled with
events.  TSs generated from Petri nets have markings as states (then called
reachability graphs); labelling states with binary signal codes turns them
into state graphs (:mod:`repro.ts.state_graph`).
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Hashable, Iterable, List, Set, Tuple

from ..errors import ModelError

State = Hashable
Event = str


class TransitionSystem:
    """A labelled transition system with a distinguished initial state."""

    def __init__(self, initial: State):
        self.initial: State = initial
        self._succ: Dict[State, List[Tuple[Event, State]]] = {initial: []}
        self._pred: Dict[State, List[Tuple[Event, State]]] = {initial: []}
        self.events: Set[Event] = set()

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    def add_state(self, state: State) -> None:
        """Add a state (idempotent)."""
        if state not in self._succ:
            self._succ[state] = []
            self._pred[state] = []

    def add_arc(self, source: State, event: Event, target: State) -> None:
        """Add an arc; creates endpoint states as needed."""
        self.add_state(source)
        self.add_state(target)
        self._succ[source].append((event, target))
        self._pred[target].append((event, source))
        self.events.add(event)

    @classmethod
    def from_adjacency(cls, initial: State,
                       adjacency: Dict[State, List[Tuple[Event, State]]]
                       ) -> "TransitionSystem":
        """Bulk constructor from a complete adjacency map.

        States are inserted in the mapping's iteration order (``initial``
        first); arcs keep their per-state list order.  This is how
        :func:`repro.ts.builder.build_reachability_graph`
        materialises an explored graph — equivalent to calling
        :meth:`add_arc` per arc, minus the per-arc bookkeeping.
        """
        ts = cls(initial)
        succ = ts._succ
        pred = ts._pred
        events = ts.events
        for state in adjacency:
            if state not in succ:
                succ[state] = []
                pred[state] = []
        for state, arcs in adjacency.items():
            out = succ[state]
            for event, target in arcs:
                if target not in succ:
                    succ[target] = []
                    pred[target] = []
                out.append((event, target))
                pred[target].append((event, state))
                events.add(event)
        return ts

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    @property
    def states(self) -> List[State]:
        """All states (insertion order)."""
        return list(self._succ)

    def __len__(self) -> int:
        return len(self._succ)

    def __contains__(self, state: State) -> bool:
        return state in self._succ

    def successors(self, state: State) -> List[Tuple[Event, State]]:
        """Outgoing arcs ``(event, target)`` of a state."""
        return list(self._succ[state])

    def predecessors(self, state: State) -> List[Tuple[Event, State]]:
        """Incoming arcs ``(event, source)`` of a state."""
        return list(self._pred[state])

    def enabled(self, state: State) -> List[Event]:
        """Events labelling some outgoing arc of ``state`` (sorted)."""
        return sorted({e for e, _ in self._succ[state]})

    def arcs(self) -> Iterable[Tuple[State, Event, State]]:
        """Iterate over all arcs."""
        for s, succs in self._succ.items():
            for e, t in succs:
                yield (s, e, t)

    def arc_count(self) -> int:
        """Total number of arcs."""
        return sum(len(v) for v in self._succ.values())

    def is_deterministic(self) -> bool:
        """No state has two outgoing arcs with the same event."""
        for succs in self._succ.values():
            events = [e for e, _ in succs]
            if len(events) != len(set(events)):
                return False
        return True

    def states_with_event(self, event: Event) -> List[State]:
        """Source states of arcs labelled ``event`` (the excitation region
        of the event in region terminology)."""
        return [s for s, succs in self._succ.items()
                if any(e == event for e, _ in succs)]

    def fire(self, state: State, event: Event) -> State:
        """The (unique) successor of ``state`` under ``event``."""
        targets = [t for e, t in self._succ[state] if e == event]
        if not targets:
            raise ModelError("event %r not enabled in state %r" % (event, state))
        if len(set(targets)) > 1:
            raise ModelError("nondeterministic event %r in state %r"
                             % (event, state))
        return targets[0]

    # ------------------------------------------------------------------ #
    # transformations
    # ------------------------------------------------------------------ #

    def relabel(self, mapping: Callable[[Event], Event]) -> "TransitionSystem":
        """New TS with every event relabelled through ``mapping``."""
        ts = TransitionSystem(self.initial)
        for s in self._succ:
            ts.add_state(s)
        for s, e, t in self.arcs():
            ts.add_arc(s, mapping(e), t)
        return ts

    def restricted_to(self, keep: Set[State]) -> "TransitionSystem":
        """Sub-TS induced by ``keep`` (must contain the initial state)."""
        if self.initial not in keep:
            raise ModelError("restriction must keep the initial state")
        ts = TransitionSystem(self.initial)
        for s in self._succ:
            if s in keep:
                ts.add_state(s)
        for s, e, t in self.arcs():
            if s in keep and t in keep:
                ts.add_arc(s, e, t)
        return ts

    def reachable_part(self) -> "TransitionSystem":
        """Sub-TS reachable from the initial state."""
        seen = {self.initial}
        stack = [self.initial]
        while stack:
            s = stack.pop()
            for _, t in self._succ[s]:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        return self.restricted_to(seen)

    # ------------------------------------------------------------------ #
    # equivalences
    # ------------------------------------------------------------------ #

    def bisimilar(self, other: "TransitionSystem") -> bool:
        """Strong bisimilarity of the initial states (partition refinement
        on the disjoint union)."""
        # disjoint-union state space
        union: List[Tuple[int, State]] = [(0, s) for s in self._succ]
        union += [(1, s) for s in other._succ]
        systems = (self, other)

        def succs(tagged: Tuple[int, State]):
            tag, s = tagged
            return [(e, (tag, t)) for e, t in systems[tag]._succ[s]]

        # initial partition: single block
        block_of: Dict[Tuple[int, State], int] = {u: 0 for u in union}
        changed = True
        while changed:
            changed = False
            signatures: Dict[Tuple[int, State], FrozenSet] = {}
            for u in union:
                signatures[u] = frozenset(
                    (e, block_of[v]) for e, v in succs(u)
                )
            # refine
            keys: Dict[Tuple[int, FrozenSet], int] = {}
            new_block: Dict[Tuple[int, State], int] = {}
            for u in union:
                key = (block_of[u], signatures[u])
                if key not in keys:
                    keys[key] = len(keys)
                new_block[u] = keys[key]
            if new_block != block_of:
                block_of = new_block
                changed = True
        return block_of[(0, self.initial)] == block_of[(1, other.initial)]

    def trace_equivalent(self, other: "TransitionSystem") -> bool:
        """Language equality for deterministic TSs (synchronous product
        walk); raises :class:`ModelError` if either TS is nondeterministic."""
        if not (self.is_deterministic() and other.is_deterministic()):
            raise ModelError("trace equivalence requires determinism")
        seen = {(self.initial, other.initial)}
        stack = [(self.initial, other.initial)]
        while stack:
            a, b = stack.pop()
            ea = {e: t for e, t in self._succ[a]}
            eb = {e: t for e, t in other._succ[b]}
            if set(ea) != set(eb):
                return False
            for e, ta in ea.items():
                pair = (ta, eb[e])
                if pair not in seen:
                    seen.add(pair)
                    stack.append(pair)
        return True

    def __repr__(self):
        return "TransitionSystem(|S|=%d, |E|=%d, |A|=%d)" % (
            len(self), len(self.events), self.arc_count())
