"""Karp–Miller coverability analysis.

The paper's implementability checklist starts with "boundedness of the PN
to guarantee that the specified state space is finite" (Section 2.1).  The
Karp–Miller coverability graph decides this for *arbitrary* nets by
accelerating strictly-growing loops to the symbolic token count ω; it is
the only boundedness decider of the library
(:func:`repro.petri.properties.is_bounded`).

The construction: explore markings over ``N ∪ {ω}``; whenever a new node
strictly covers one of its ancestors, every strictly larger component is
promoted to ω.  The resulting graph is finite and answers boundedness,
per-place bounds, and transition quasi-liveness.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..budgets import DEFAULT_STATE_BOUND
from ..errors import StateExplosionError
from .net import PetriNet

OMEGA = float("inf")
"""The symbolic 'arbitrarily many tokens' count."""


class OmegaMarking:
    """A marking over ``N ∪ {ω}``, immutable and hashable."""

    __slots__ = ("_tokens", "_key")

    def __init__(self, tokens: Dict[str, float]):
        cleaned = {p: n for p, n in tokens.items() if n}
        self._tokens = cleaned
        self._key = tuple(sorted(cleaned.items()))

    def get(self, place: str) -> float:
        """Token count of a place (possibly ω)."""
        return self._tokens.get(place, 0)

    def items(self):
        """Iterate over (place, count) pairs (sorted)."""
        return iter(self._key)

    def covers(self, other: "OmegaMarking") -> bool:
        """Pointwise >= comparison."""
        return all(self.get(p) >= n for p, n in other.items())

    def strictly_covers(self, other: "OmegaMarking") -> bool:
        """Covers and differs somewhere."""
        return self.covers(other) and self._key != other._key

    def has_omega(self) -> bool:
        """True iff some component is ω."""
        return any(n == OMEGA for _, n in self._key)

    def __eq__(self, other):
        return isinstance(other, OmegaMarking) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        parts = []
        for p, n in self._key:
            parts.append("%s:%s" % (p, "ω" if n == OMEGA else int(n)))
        return "{%s}" % ", ".join(parts)


class CoverabilityGraph:
    """The Karp–Miller tree folded into a graph."""

    def __init__(self, net: PetriNet):
        self.net = net
        self.initial: Optional[OmegaMarking] = None
        self.nodes: Set[OmegaMarking] = set()
        self.arcs: List[Tuple[OmegaMarking, str, OmegaMarking]] = []

    def is_bounded(self) -> bool:
        """True iff no node contains an ω component."""
        return not any(node.has_omega() for node in self.nodes)

    def place_bound(self, place: str) -> float:
        """Max token count of a place over all nodes (ω if unbounded)."""
        return max((node.get(place) for node in self.nodes), default=0)

    def unbounded_places(self) -> List[str]:
        """Places whose bound is ω."""
        return sorted(p for p in self.net.places
                      if self.place_bound(p) == OMEGA)

    def quasi_live_transitions(self) -> Set[str]:
        """Transitions that occur on some arc (fireable at least once)."""
        return {t for _, t, _ in self.arcs}

    def dead_transitions(self) -> List[str]:
        """Transitions that can never fire from the initial marking."""
        return sorted(set(self.net.transitions)
                      - self.quasi_live_transitions())


def build_coverability_graph(net: PetriNet,
                             max_nodes: int = DEFAULT_STATE_BOUND
                             ) -> CoverabilityGraph:
    """Karp–Miller coverability graph of an arbitrary Petri net."""
    graph = CoverabilityGraph(net)
    initial = OmegaMarking({p: float(net.places[p].tokens)
                            for p in net.places})
    graph.initial = initial
    graph.nodes.add(initial)
    # stack of (marking, ancestor chain)
    stack: List[Tuple[OmegaMarking, Tuple[OmegaMarking, ...]]] = [
        (initial, (initial,))
    ]
    while stack:
        marking, ancestors = stack.pop()
        for t in sorted(net.transitions):
            pre = net.pre(t)
            if not all(marking.get(p) >= w for p, w in pre.items()):
                continue
            tokens: Dict[str, float] = {p: n for p, n in marking.items()}
            for p, w in pre.items():
                if tokens.get(p, 0) != OMEGA:
                    tokens[p] = tokens.get(p, 0) - w
            for p, w in net.post(t).items():
                if tokens.get(p, 0) != OMEGA:
                    tokens[p] = tokens.get(p, 0) + w
            successor = OmegaMarking(tokens)
            # acceleration: promote strictly-growing components to ω
            for ancestor in ancestors:
                if successor.strictly_covers(ancestor):
                    accelerated = {p: n for p, n in successor.items()}
                    for p, n in successor.items():
                        if n > ancestor.get(p):
                            accelerated[p] = OMEGA
                    successor = OmegaMarking(accelerated)
            graph.arcs.append((marking, t, successor))
            if successor not in graph.nodes:
                if len(graph.nodes) >= max_nodes:
                    raise StateExplosionError(
                        "coverability graph exceeded %d nodes" % max_nodes,
                        bound=max_nodes, states=len(graph.nodes))
                graph.nodes.add(successor)
                stack.append((successor, ancestors + (successor,)))
    return graph
