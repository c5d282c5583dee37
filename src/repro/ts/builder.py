"""Reachability-graph construction (the "token game" of Section 1.2-1.4).

Builds a :class:`~repro.ts.transition_system.TransitionSystem` whose states
are markings and whose arcs are labelled with transition names.  For safe
nets a violation of 1-safeness raises
:class:`~repro.errors.UnboundedError`.

This is the hub of the unified engine framework (see ``docs/engines.md``
for the user guide).  Three **graph-building** engines are provided:

* ``"compiled"`` — the bitvector engine of
  :mod:`repro.petri.compiled`: markings are machine ints, enabling is two
  bitwise ops, and the enabled set is maintained incrementally across
  firings.  Requires an ordinary (weight-1) net and a safe initial
  marking.
* ``"bdd"`` — the symbolic engine of :mod:`repro.bdd.symbolic`: a
  chained cube-update frontier fixpoint first computes the reachable
  set as a characteristic function (deciding 1-safety and the state
  budget *before* any enumeration), then materialises it with the
  compiled engine's BFS.  Requires an ordinary net and a safe initial
  marking.
* ``"naive"`` — the original dict-backed token game; works for any
  weighted net and, with ``require_safe=False``, for k-bounded ones.

``engine="auto"`` (the default) delegates to :func:`choose_engine`, which
picks the compiled engine whenever it is applicable and falls back to the
naive one otherwise.  All graph-building engines produce **bit-identical**
transition systems: the same states, the same arcs in the same insertion
order (BFS level order, transitions fired in sorted name order per
state), so every downstream consumer — state-graph codes, regions, CSC,
synthesis, verification — is oblivious to the choice.

The ``"bdd"`` engine has query variants too
(:mod:`repro.bdd.queries`: ``reachable_count``, ``find_deadlock``,
``SymbolicCSC``) that answer without materialising anything —
prefer those over graph construction when only the answer is needed.
"""

from __future__ import annotations

from typing import Optional, Union

from .. import obs
from ..bdd.symbolic import SymbolicReachability
from ..budgets import DEFAULT_STATE_BOUND
from ..errors import ModelError, StateExplosionError, UnboundedError
from ..petri.compiled import compile_net, supports_compilation
from ..petri.marking import Marking
from ..petri.net import PetriNet
from ..petri.token_game import enabled_transitions, fire
from ..stg.stg import STG
from .transition_system import TransitionSystem

ENGINES = ("auto", "compiled", "naive", "bdd")


def choose_engine(model: Union[PetriNet, STG],
                  initial: Optional[Marking] = None,
                  require_safe: bool = True) -> str:
    """The ``engine="auto"`` selection heuristic, exposed for callers.

    Answers "which engine should *build* the transition system":
    ``"compiled"`` whenever the net is ordinary with a safe initial
    marking (markings fit machine ints; ~5-8x faster than the dict token
    game), else ``"naive"`` (the only engine covering weighted arcs and
    k-bounded exploration).
    """
    net = model.net if isinstance(model, STG) else model
    if initial is None:
        initial = net.initial_marking
    if require_safe and supports_compilation(net, initial):
        return "compiled"
    return "naive"


def build_reachability_graph(model: Union[PetriNet, STG],
                             max_states: int = DEFAULT_STATE_BOUND,
                             require_safe: bool = True,
                             initial: Optional[Marking] = None,
                             engine: str = "auto") -> TransitionSystem:
    """Breadth-first reachability graph of a Petri net or STG.

    Arc labels are transition names (for an STG these are the canonical
    event strings such as ``"LDS+"`` or ``"LDS+/2"``).

    ``engine`` selects the exploration engine: ``"auto"``, ``"compiled"``,
    ``"naive"`` or ``"bdd"`` build the graph (bit-identically).
    See the module docstring and ``docs/engines.md``.  Requesting the
    compiled or bdd engine for a model outside its domain raises
    :class:`ModelError`.

    When :func:`repro.obs.enabled`, every build runs under an
    ``engine.build`` span tagged with the resolved engine and net,
    counting ``states`` / ``arcs`` and gauging ``states_per_sec``
    (see ``docs/observability.md``).
    """
    net = model.net if isinstance(model, STG) else model
    if initial is None:
        initial = net.initial_marking
    if engine == "auto":
        engine = choose_engine(net, initial, require_safe=require_safe)
    if engine == "compiled":
        if not require_safe:
            raise ModelError(
                "compiled engine only explores safe state spaces"
                " (require_safe=False needs engine='naive')")
        return _traced_build(
            "compiled", net,
            lambda: _build_compiled(net, initial, max_states))
    if engine == "naive":
        return _traced_build(
            "naive", net,
            lambda: _build_naive(net, initial, max_states, require_safe))
    if engine == "bdd":
        if not require_safe:
            raise ModelError(
                "bdd engine only explores safe state spaces"
                " (require_safe=False needs engine='naive')")
        return _traced_build(
            "bdd", net, lambda: _build_bdd(net, initial, max_states))
    raise ModelError(
        "unknown engine %r (expected one of %s)" % (engine, ENGINES))


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


def _build_compiled(net: PetriNet, initial: Marking,
                    max_states: int) -> TransitionSystem:
    """Bitvector BFS with incremental enabled-set maintenance."""
    compiled = compile_net(net, initial)
    root = compiled.initial
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


def _build_bdd(net: PetriNet, initial: Marking,
               max_states: int) -> TransitionSystem:
    """Symbolic fixpoint first, explicit materialisation second."""
    sym = SymbolicReachability(net, initial=initial)
    return sym.to_transition_system(max_states)


def _build_naive(net: PetriNet, initial: Marking, max_states: int,
                 require_safe: bool) -> TransitionSystem:
    """The original dict-backed token game (any weights, k-bounded nets)."""
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
