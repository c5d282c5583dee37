"""Maximum time separation of events in timed marked graphs
(paper, Sections 2.1 and 5, ref [12] Hulgaard et al.).

Model: a live safe **marked graph** whose transitions carry delay intervals
``[d_min, d_max]`` (time from enabling to firing, max-plus semantics):

    τ(t, k) = max over input places p (τ(producer(p), k - m0(p))) + d(t)

The *maximum separation* ``sep(a_i, b_j) = max over delay choices of
(τ(a, i) − τ(b, j))`` is computed **exactly** on a finite unrolling:

For a fixed source-to-``a`` path ``P``, the objective
``Σ_P d − τ_b(d)`` is non-decreasing in ``d_v`` for ``v ∈ P`` (raising it
adds 1 to the first term and at most 1 to the second) and non-increasing
for ``v ∉ P`` — so the maximising assignment is ``d = max`` on ``P`` and
``d = min`` elsewhere, and::

    sep(a, b) = max over paths P ending at a of [ Σ_P d_max − τ_b(d_P) ]

Paths are enumerated explicitly (fine for the controller-sized graphs of
the paper); cyclic behaviour is handled by unrolling occurrences until the
separation value stabilises across successive occurrence indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..errors import ModelError
from ..petri.net import PetriNet
from ..petri.structure import is_marked_graph

Occurrence = Tuple[str, int]


@dataclass
class TimedMarkedGraph:
    """A marked graph with per-transition delay intervals."""

    net: PetriNet
    delays: Dict[str, Tuple[float, float]]

    def __post_init__(self):
        if not is_marked_graph(self.net):
            raise ModelError("time separation analysis requires a marked graph")
        for t in self.net.transitions:
            if t not in self.delays:
                raise ModelError("missing delay interval for transition %r" % t)
            lo, hi = self.delays[t]
            if lo < 0 or hi < lo:
                raise ModelError("bad delay interval %r for %r"
                                 % (self.delays[t], t))

    def dependencies(self) -> List[Tuple[str, str, int]]:
        """Edges ``(producer, consumer, tokens)`` through each place."""
        edges = []
        for p in sorted(self.net.places):
            (producer,) = self.net.preset(p)
            (consumer,) = self.net.postset(p)
            edges.append((producer, consumer, self.net.places[p].tokens))
        return edges


class UnrolledGraph:
    """Acyclic occurrence graph of a timed marked graph.

    Node ``(t, k)`` is the k-th firing of ``t`` (k >= 0); the edge through
    place ``p`` with ``m`` initial tokens links ``(producer, k - m)`` to
    ``(consumer, k)``.  Occurrences with no predecessors are enabled at
    time 0.
    """

    def __init__(self, tmg: TimedMarkedGraph, horizon: int):
        self.tmg = tmg
        self.horizon = horizon
        self.preds: Dict[Occurrence, List[Occurrence]] = {}
        edges = tmg.dependencies()
        for k in range(horizon):
            for t in sorted(tmg.net.transitions):
                node = (t, k)
                self.preds[node] = []
        for producer, consumer, tokens in edges:
            for k in range(horizon):
                j = k - tokens
                if j >= 0:
                    self.preds[(consumer, k)].append((producer, j))
        # topological order (Kahn); a live marked graph unrolls to a DAG
        succs: Dict[Occurrence, List[Occurrence]] = {n: [] for n in self.preds}
        indeg: Dict[Occurrence, int] = {n: 0 for n in self.preds}
        for node, preds in self.preds.items():
            for p in preds:
                succs[p].append(node)
                indeg[node] += 1
        ready = sorted(n for n, d in indeg.items() if d == 0)
        self.topo: List[Occurrence] = []
        while ready:
            node = ready.pop()
            self.topo.append(node)
            for s in succs[node]:
                indeg[s] -= 1
                if indeg[s] == 0:
                    ready.append(s)
        if len(self.topo) != len(self.preds):
            raise ModelError("unrolled graph is cyclic — the marked graph "
                             "has a token-free cycle (not live)")

    def delay(self, node: Occurrence, use_max: bool) -> float:
        """One endpoint of the node's delay interval."""
        lo, hi = self.tmg.delays[node[0]]
        return hi if use_max else lo

    def earliest_latest(self, use_max: bool) -> Dict[Occurrence, float]:
        """Firing times with all delays at min (or max): one extreme corner."""
        times: Dict[Occurrence, float] = {}
        for node in self.topo:
            base = max((times[p] for p in self.preds[node]), default=0.0)
            times[node] = base + self.delay(node, use_max)
        return times

    def firing_time(self, target: Occurrence,
                    on_path: Set[Occurrence]) -> float:
        """τ(target) with delays at max on ``on_path`` and min elsewhere."""
        times: Dict[Occurrence, float] = {}
        for node in self.topo:
            base = max((times[p] for p in self.preds[node]), default=0.0)
            times[node] = base + self.delay(node, node in on_path)
        return times[target]

    def paths_to(self, target: Occurrence,
                 limit: int = 200_000) -> Iterator[Tuple[Occurrence, ...]]:
        """All maximal backward paths (source .. target), bounded."""
        count = 0
        stack: List[List[Occurrence]] = [[target]]
        while stack:
            path = stack.pop()
            node = path[-1]
            preds = self.preds[node]
            if not preds:
                count += 1
                if count > limit:
                    raise ModelError("path enumeration limit exceeded")
                yield tuple(reversed(path))
                continue
            for p in preds:
                stack.append(path + [p])


def max_separation_unrolled(tmg: TimedMarkedGraph,
                            a: Occurrence, b: Occurrence,
                            horizon: Optional[int] = None) -> float:
    """Exact ``max(τ(a) − τ(b))`` on the unrolled occurrence graph."""
    if horizon is None:
        horizon = max(a[1], b[1]) + 1
    graph = UnrolledGraph(tmg, horizon)
    best = None
    for path in graph.paths_to(a):
        on_path = set(path)
        sum_max = sum(graph.delay(v, True) for v in path)
        tb = graph.firing_time(b, on_path)
        value = sum_max - tb
        if best is None or value > best:
            best = value
    if best is None:
        raise ModelError("no path to occurrence %r" % (a,))
    return best


def max_separation(tmg: TimedMarkedGraph, a: str, b: str,
                   occurrence_offset: int = 0,
                   start: int = 2, max_unroll: int = 12,
                   tolerance: float = 1e-9) -> float:
    """Steady-state maximum separation ``max(τ(a_k+offset) − τ(b_k))``.

    Computed for increasing occurrence index ``k`` until two successive
    values agree (the separation of a strongly connected timed marked
    graph is eventually periodic — Hulgaard et al.).
    """
    previous: Optional[float] = None
    value: Optional[float] = None
    for k in range(start, max_unroll):
        ka = k + occurrence_offset
        if ka < 0 or k < 0:
            continue
        value = max_separation_unrolled(tmg, (a, ka), (b, k),
                                        horizon=max(ka, k) + 1)
        if previous is not None and abs(value - previous) <= tolerance:
            return value
        previous = value
    if value is None:
        raise ModelError("no occurrence index explored")
    return value


def validates_assumption(tmg: TimedMarkedGraph, early: str, late: str,
                         occurrence_offset: int = 0) -> bool:
    """True iff ``sep(early, late) < 0`` holds for the given delays — i.e.
    the relative-timing assumption used for logic optimisation is justified
    by the physical delays (the Section 5 flow)."""
    return max_separation(tmg, early, late,
                          occurrence_offset=occurrence_offset) < 0
