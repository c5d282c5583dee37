"""Reachability-graph construction (the "token game" of Section 1.2-1.4).

:func:`explore` plays the token game from the initial marking and
returns a :class:`NumberedGraph`: states numbered in BFS discovery
order, each with its arcs as ``(transition index, successor number)``
in sorted transition order.  :func:`build_reachability_graph`
materialises that graph as a
:class:`~repro.ts.transition_system.TransitionSystem` whose states are
markings and whose arcs are labelled with transition names.  For safe
nets a violation of 1-safeness raises
:class:`~repro.errors.UnboundedError`.

The net picks the explorer (see ``docs/engines.md`` for the user guide).
:func:`choose_engine` is the only place the rule lives:

* ``"compiled"`` — the bitvector BFS of :mod:`repro.petri.compiled`:
  markings are machine ints, enabling is two bitwise ops, and the enabled
  set is maintained incrementally across firings.  Runs whenever the net
  is ordinary (weight-1) with a 1-safe initial marking and
  ``require_safe`` holds.  Each exploration compiles the net once, and
  the graph keeps the compilation; its states stay int codes, and a
  :class:`~repro.petri.marking.Marking` is decoded only when read.
* ``"naive"`` — the dict-backed token game, for everything else:
  weighted arcs and, with ``require_safe=False``, k-bounded nets.  Its
  states are markings.

Both explorers number the same states in the same order and list the
same arcs, so their transition systems are **bit-identical** (BFS level
order, transitions fired in sorted name order per state), and every
downstream consumer — state-graph codes, regions, CSC, synthesis,
verification, the net properties — is oblivious to the choice.

:func:`explore` memoises the graph it returns on the net, so the
analysis, the synthesis and the verification of one specification share
one exploration, one compilation and one list of decoded markings.  The
memo is keyed on what determines the graph: the net's structure
version, its initial marking and ``require_safe``, which also fix the
explorer.  Any change to one of them explores again.

Questions that need only an answer — a count, a deadlock, a CSC
conflict — go to the query engines instead (:mod:`repro.bdd.queries`,
:mod:`repro.sat.queries`, or :mod:`repro.portfolio` to pick and race
them), which never enumerate the state space.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

from .. import obs
from ..budgets import DEFAULT_STATE_BOUND
from ..errors import StateExplosionError, UnboundedError
from ..petri.compiled import CompiledNet, supports_compilation
from ..petri.marking import Marking
from ..petri.net import PetriNet
from ..petri.token_game import enabled_transitions, fire
from ..stg.stg import STG
from .transition_system import TransitionSystem


def choose_engine(model: Union[PetriNet, STG],
                  require_safe: bool = True) -> str:
    """The explorer :func:`explore` runs for ``model``.

    ``"compiled"`` whenever the net is ordinary with a 1-safe initial
    marking and ``require_safe`` holds (markings fit machine ints; ~5-8x
    faster than the dict token game), else ``"naive"`` (the only explorer
    of weighted arcs and k-bounded nets).
    """
    net = model.net if isinstance(model, STG) else model
    if require_safe and supports_compilation(net):
        return "compiled"
    return "naive"


class NumberedGraph:
    """An explored reachability graph with numbered states.

    ``states[i]`` is the explorer's own state, numbered in BFS discovery
    order from the initial state 0: an int code from the compiled
    explorer (``compiled`` is the
    :class:`~repro.petri.compiled.CompiledNet` it explored with), a
    :class:`~repro.petri.marking.Marking` from the naive one
    (``compiled`` is None).  ``arcs[i]`` lists state ``i``'s arcs as
    ``(transition index, successor number)`` in sorted transition order,
    and ``transitions[t]`` names transition ``t`` (the net's transitions,
    sorted).  Markings and the transition system are decoded only when
    read; :meth:`markings` is the one decoded list.

    A graph is memoised on its net and shared by every caller of
    :func:`explore`, so its lists are read-only.  ``labelling`` is the
    memo of :class:`~repro.ts.state_graph.StateGraph`'s parity
    propagation, kept with the graph it labels.
    """

    __slots__ = ("states", "arcs", "transitions", "compiled", "labelling",
                 "_markings")

    def __init__(self, states: List[Union[int, Marking]],
                 arcs: List[List[Tuple[int, int]]], transitions: List[str],
                 compiled: Optional[CompiledNet] = None):
        self.states = states
        self.arcs = arcs
        self.transitions = transitions
        self.compiled = compiled
        self.labelling = None
        self._markings: Optional[List[Marking]] = None

    def __len__(self) -> int:
        return len(self.states)

    def arc_count(self) -> int:
        """Total number of arcs."""
        return sum(map(len, self.arcs))

    def marking(self, number: int) -> Marking:
        """The marking of state ``number``: read from :meth:`markings`
        once that list is decoded, else decoded alone."""
        if self._markings is not None:
            return self._markings[number]
        state = self.states[number]
        return state if self.compiled is None else self.compiled.decode(state)

    def markings(self) -> List[Marking]:
        """Every state's marking, by state number (decoded once; a shared
        list, not to be mutated)."""
        if self._markings is None:
            if self.compiled is None:
                self._markings = self.states
            else:
                decode = self.compiled.decode
                self._markings = [decode(code) for code in self.states]
        return self._markings

    def tokens(self, number: int, place: str) -> int:
        """Tokens on ``place`` in state ``number``, read without decoding."""
        state = self.states[number]
        if self.compiled is None:
            return state.get(place)
        return (state >> self.compiled.place_bit[place]) & 1

    def transition_system(self) -> TransitionSystem:
        """The graph as a transition system over markings: states in
        number order, arcs labelled with transition names."""
        markings = self.markings()
        names = self.transitions
        adjacency = {
            markings[i]: [(names[t], markings[j]) for t, j in out]
            for i, out in enumerate(self.arcs)
        }
        return TransitionSystem.from_adjacency(markings[0], adjacency)


def explore(model: Union[PetriNet, STG],
            max_states: int = DEFAULT_STATE_BOUND,
            require_safe: bool = True) -> NumberedGraph:
    """Breadth-first exploration of a Petri net or STG from its initial
    marking, as a :class:`NumberedGraph`.

    The explorer is the one :func:`choose_engine` picks for the net; both
    number the same states in the same order.  ``require_safe=False``
    explores k-bounded nets instead of raising :class:`UnboundedError`;
    more than ``max_states`` markings raise :class:`StateExplosionError`.

    The graph, with the compilation and the markings it holds, lives as
    long as the net: it is memoised on the net and returned again while
    the net's structure, its initial marking and ``require_safe`` stay the
    same (the three fix the explorer, so a hit does not ask
    :func:`choose_engine`).  A memoised graph answers any ``max_states``
    at least as large as the graph; a smaller bound raises the
    :class:`StateExplosionError` a fresh exploration would raise.  The
    graph is shared, so callers must not mutate it.

    When :func:`repro.obs.enabled`, every exploration runs under an
    ``engine.build`` span tagged with the explorer and net, counting
    ``states`` / ``arcs`` and gauging ``states_per_sec``; a memo hit
    opens no span and adds ``build_cache_hits`` to the enclosing one
    (see ``docs/observability.md``).
    """
    net = model.net if isinstance(model, STG) else model
    initial = net.initial_marking
    key = (net._structure_version, initial, require_safe)
    cached = getattr(net, "_graph_cache", None)
    if cached is not None and cached[0] == key:
        graph = cached[1]
        obs.add("build_cache_hits")
        # a fresh BFS fails on discovering state number max(max_states, 1)
        reached = max(max_states, 1)
        if len(graph) > reached:
            raise StateExplosionError(
                "reachability graph exceeded %d states" % max_states,
                bound=max_states, states=reached)
        return graph
    if choose_engine(net, require_safe) == "compiled":
        graph = _traced_build(
            "compiled", net,
            lambda: _explore_compiled(net, initial, max_states))
    else:
        graph = _traced_build(
            "naive", net,
            lambda: _explore_naive(net, initial, max_states, require_safe))
    net._graph_cache = (key, graph)
    return graph


def build_reachability_graph(model: Union[PetriNet, STG],
                             max_states: int = DEFAULT_STATE_BOUND,
                             require_safe: bool = True) -> TransitionSystem:
    """Breadth-first reachability graph of a Petri net or STG from its
    initial marking: :func:`explore`, materialised.

    Arc labels are transition names (for an STG these are the canonical
    event strings such as ``"LDS+"`` or ``"LDS+/2"``).  ``max_states``
    and ``require_safe`` are as for :func:`explore`.
    """
    return explore(model, max_states, require_safe).transition_system()


def _traced_build(engine: str, net: PetriNet, build) -> NumberedGraph:
    """Run one explorer thunk under an ``engine.build`` span.

    Disabled, this is one boolean check plus the plain ``build()`` call
    — the graph is never re-measured; enabled, the span records the
    ``states`` / ``arcs`` counters and a ``states_per_sec`` gauge.
    """
    if not obs.enabled():
        return build()
    with obs.span("engine.build", engine=engine, net=net.name) as span:
        graph = build()
        states = len(graph)
        span.add("states", states)
        span.add("arcs", graph.arc_count())
        elapsed = span.elapsed()
        if elapsed > 0.0:
            span.set_gauge("states_per_sec", states / elapsed)
    return graph


def _explore_compiled(net: PetriNet, initial: Marking,
                      max_states: int) -> NumberedGraph:
    """Bitvector BFS with incremental enabled-set maintenance, on a
    compilation of ``net`` made for this exploration."""
    with obs.span("engine.compile", engine="compiled",
                  net=net.name) as span:
        compiled = CompiledNet(net)
        span.add("places", len(compiled.places))
        span.add("transitions", len(compiled.transitions))
    root = compiled.encode(initial)
    pre_masks = compiled.pre_masks
    post_masks = compiled.post_masks
    enabled_after = compiled.enabled_after

    # BFS entirely on integer states: ``codes`` grows while it is walked,
    # so it is both the queue and the discovery order
    number = {root: 0}
    codes = [root]
    enabled = [compiled.enabled_mask(root)]
    arcs: List[List[Tuple[int, int]]] = []
    # live heartbeat progress for portfolio workers (repro.obs.remote):
    # the provider reads the growing state list, so it costs nothing here
    tracking = obs.enabled()
    if tracking:
        obs.push_progress(lambda: {"states": len(codes)})
    try:
        for i, code in enumerate(codes):
            mask = enabled[i]
            out = []
            bits = mask
            while bits:
                low = bits & -bits
                bits ^= low
                index = low.bit_length() - 1
                stripped = code & ~pre_masks[index]
                post = post_masks[index]
                conflict = stripped & post
                if conflict:
                    raise compiled.unbounded_error(code, index, conflict)
                succ = stripped | post
                j = number.get(succ)
                if j is None:
                    j = len(codes)
                    if j >= max_states:
                        raise StateExplosionError(
                            "reachability graph exceeded %d states"
                            % max_states, bound=max_states, states=j)
                    number[succ] = j
                    codes.append(succ)
                    enabled.append(enabled_after(mask, index, succ))
                out.append((index, j))
            arcs.append(out)
    finally:
        if tracking:
            obs.pop_progress()
    return NumberedGraph(codes, arcs, compiled.transitions, compiled)


def _explore_naive(net: PetriNet, initial: Marking, max_states: int,
                   require_safe: bool) -> NumberedGraph:
    """The dict-backed token game (any weights, k-bounded nets)."""
    transitions = sorted(net.transitions)
    index_of = {t: i for i, t in enumerate(transitions)}
    number = {initial: 0}
    markings = [initial]
    arcs: List[List[Tuple[int, int]]] = []
    tracking = obs.enabled()
    if tracking:
        obs.push_progress(lambda: {"states": len(markings)})
    try:
        for marking in markings:
            out = []
            for t in enabled_transitions(net, marking):
                succ = fire(net, marking, t, check=False)
                if require_safe and not succ.is_safe():
                    offenders = [p for p, n in succ.items() if n > 1]
                    raise UnboundedError(
                        "firing %r from %r violates 1-safeness at %r"
                        % (t, marking, offenders)
                    )
                j = number.get(succ)
                if j is None:
                    j = len(markings)
                    if j >= max_states:
                        raise StateExplosionError(
                            "reachability graph exceeded %d states"
                            % max_states, bound=max_states, states=j)
                    number[succ] = j
                    markings.append(succ)
                out.append((index_of[t], j))
            arcs.append(out)
    finally:
        if tracking:
            obs.pop_progress()
    return NumberedGraph(markings, arcs, transitions)
