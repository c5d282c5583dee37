"""Reachability-graph construction (the "token game" of Section 1.2-1.4).

Builds a :class:`~repro.ts.transition_system.TransitionSystem` whose states
are markings and whose arcs are labelled with transition names.  For safe
nets a violation of 1-safeness raises
:class:`~repro.errors.UnboundedError`.

There is one builder, :func:`build_reachability_graph`, and the net picks
its explorer (see ``docs/engines.md`` for the user guide).
:func:`choose_engine` is the only place the rule lives:

* ``"compiled"`` — the bitvector BFS of :mod:`repro.petri.compiled`:
  markings are machine ints, enabling is two bitwise ops, and the enabled
  set is maintained incrementally across firings.  Runs whenever the net
  is ordinary (weight-1) with a 1-safe initial marking and
  ``require_safe`` holds.
* ``"naive"`` — the dict-backed token game, for everything else: weighted
  arcs and, with ``require_safe=False``, k-bounded nets.

Both explorers produce **bit-identical** transition systems: the same
states, the same arcs in the same insertion order (BFS level order,
transitions fired in sorted name order per state), so every downstream
consumer — state-graph codes, regions, CSC, synthesis, verification — is
oblivious to the choice.

Questions that need only an answer — a count, a deadlock, a CSC
conflict — go to the query engines instead (:mod:`repro.bdd.queries`,
:mod:`repro.sat.queries`, or :mod:`repro.portfolio` to pick and race
them), which never enumerate the state space.
"""

from __future__ import annotations

from typing import Union

from .. import obs
from ..budgets import DEFAULT_STATE_BOUND
from ..errors import StateExplosionError, UnboundedError
from ..petri.compiled import compile_net, supports_compilation
from ..petri.net import PetriNet
from ..petri.token_game import enabled_transitions, fire
from ..stg.stg import STG
from .transition_system import TransitionSystem


def choose_engine(model: Union[PetriNet, STG],
                  require_safe: bool = True) -> str:
    """The explorer :func:`build_reachability_graph` runs for ``model``.

    ``"compiled"`` whenever the net is ordinary with a 1-safe initial
    marking and ``require_safe`` holds (markings fit machine ints; ~5-8x
    faster than the dict token game), else ``"naive"`` (the only explorer
    of weighted arcs and k-bounded nets).
    """
    net = model.net if isinstance(model, STG) else model
    if require_safe and supports_compilation(net):
        return "compiled"
    return "naive"


def build_reachability_graph(model: Union[PetriNet, STG],
                             max_states: int = DEFAULT_STATE_BOUND,
                             require_safe: bool = True) -> TransitionSystem:
    """Breadth-first reachability graph of a Petri net or STG from its
    initial marking.

    Arc labels are transition names (for an STG these are the canonical
    event strings such as ``"LDS+"`` or ``"LDS+/2"``).  The explorer is the
    one :func:`choose_engine` picks for the net; both give the same graph.
    ``require_safe=False`` explores k-bounded nets instead of raising
    :class:`UnboundedError`; more than ``max_states`` markings raise
    :class:`StateExplosionError`.

    When :func:`repro.obs.enabled`, every build runs under an
    ``engine.build`` span tagged with the explorer and net, counting
    ``states`` / ``arcs`` and gauging ``states_per_sec``
    (see ``docs/observability.md``).
    """
    net = model.net if isinstance(model, STG) else model
    if choose_engine(net, require_safe) == "compiled":
        return _traced_build(
            "compiled", net, lambda: _build_compiled(net, max_states))
    return _traced_build(
        "naive", net, lambda: _build_naive(net, max_states, require_safe))


def _traced_build(engine: str, net: PetriNet, build) -> TransitionSystem:
    """Run one graph-builder thunk under an ``engine.build`` span.

    Disabled, this is one boolean check plus the plain ``build()`` call
    — the graph is never re-measured; enabled, the span records the
    ``states`` / ``arcs`` counters and a ``states_per_sec`` gauge.
    """
    if not obs.enabled():
        return build()
    with obs.span("engine.build", engine=engine, net=net.name) as span:
        ts = build()
        states = len(ts)
        span.add("states", states)
        span.add("arcs", ts.arc_count())
        elapsed = span.elapsed()
        if elapsed > 0.0:
            span.set_gauge("states_per_sec", states / elapsed)
    return ts


def _build_compiled(net: PetriNet, max_states: int) -> TransitionSystem:
    """Bitvector BFS with incremental enabled-set maintenance."""
    compiled = compile_net(net)
    root = compiled.encode(net.initial_marking)
    pre_masks = compiled.pre_masks
    post_masks = compiled.post_masks
    names = compiled.transitions
    enabled_after = compiled.enabled_after

    # BFS entirely on integer states; arcs recorded as transition indices.
    arcs_of = {root: []}
    seen = {root}
    frontier = [(root, compiled.enabled_mask(root))]
    # live heartbeat progress for portfolio workers (repro.obs.remote):
    # the provider reads the growing seen-set, so it costs nothing here
    tracking = obs.enabled()
    if tracking:
        obs.push_progress(lambda: {"states": len(seen)})
    try:
        while frontier:
            next_frontier = []
            for code, enabled in frontier:
                arcs = arcs_of[code]
                bits = enabled
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
                    arcs.append((index, succ))
                    if succ not in seen:
                        if len(seen) >= max_states:
                            raise StateExplosionError(
                                "reachability graph exceeded %d states"
                                % max_states,
                                bound=max_states, states=len(seen))
                        seen.add(succ)
                        arcs_of[succ] = []
                        next_frontier.append(
                            (succ, enabled_after(enabled, index, succ)))
            frontier = next_frontier
    finally:
        if tracking:
            obs.pop_progress()

    # Decode once per state and materialise the TransitionSystem in the
    # exact insertion order the naive engine would have produced:
    # discovery (BFS) order for states, sorted transition order per state.
    decode = compiled.decode
    marking_of = {code: decode(code) for code in arcs_of}
    adjacency = {
        marking_of[code]: [(names[index], marking_of[succ])
                           for index, succ in arcs]
        for code, arcs in arcs_of.items()
    }
    return TransitionSystem.from_adjacency(marking_of[root], adjacency)


def _build_naive(net: PetriNet, max_states: int,
                 require_safe: bool) -> TransitionSystem:
    """The original dict-backed token game (any weights, k-bounded nets)."""
    initial = net.initial_marking
    ts = TransitionSystem(initial)
    frontier = [initial]
    seen = {initial}
    tracking = obs.enabled()
    if tracking:
        obs.push_progress(lambda: {"states": len(seen)})
    try:
        while frontier:
            next_frontier = []
            for marking in frontier:
                for t in enabled_transitions(net, marking):
                    succ = fire(net, marking, t, check=False)
                    if require_safe and not succ.is_safe():
                        offenders = [p for p, n in succ.items() if n > 1]
                        raise UnboundedError(
                            "firing %r from %r violates 1-safeness at %r"
                            % (t, marking, offenders)
                        )
                    ts.add_arc(marking, t, succ)
                    if succ not in seen:
                        if len(seen) >= max_states:
                            raise StateExplosionError(
                                "reachability graph exceeded %d states"
                                % max_states,
                                bound=max_states, states=len(seen)
                            )
                        seen.add(succ)
                        next_frontier.append(succ)
            frontier = next_frontier
    finally:
        if tracking:
            obs.pop_progress()
    return ts
