"""The method table and the normalised engine runners the portfolio races.

:data:`QUERIES` is the only place that knows which method answers which
query.  Per query it names the verdict that means the property holds,
the *bounded* method (it only finds counterexamples, so its miss is
``unknown``, never a proof) and, per engine slot, the ladder of methods
the slot runs, strongest first.  The ladders the portfolio races
(:func:`ladders`), the slot ``repro check`` runs alone
(:func:`single_slot`), the truth value of a
:class:`~repro.portfolio.Verdict` and every CLI exit code derive from
it; :func:`schedule` orders the slots.

The runner of method ``m`` for query ``q`` is the function ``q_m`` of
this module (:func:`bind`), looked up each time a race is built, so
tests and profilers can rebind it.  Each returns a plain-data *payload*
dict — only strings, numbers, lists and dicts, so the result survives
the pickle trip back from a worker process unchanged.  All runners for
the same query speak one verdict vocabulary (below), which is what makes
first-answer-wins sound: any winner reports the same verdict string the
others would have.

========== =============================================== ==============
query      definitive verdicts                             partial verdict
========== =============================================== ==============
deadlock   ``deadlock`` / ``deadlock-free``                ``unknown``
reach      ``reached`` / ``unreachable``                   ``unknown``
csc        ``conflict`` / ``no-conflict``                  ``unknown``
consistency ``violation`` / ``consistent``                 ``unknown``
========== =============================================== ==============

Payload keys: ``verdict`` (vocabulary above), ``definitive`` (bool —
``False`` marks bounded evidence that must not win the race),
``method`` (the engine/method that produced it), plus method-specific
evidence: ``witness`` (firing sequence), ``dead_marking`` /
``final_marking`` (place → tokens), ``k`` and ``reason`` (k-induction),
``states`` (explicit exploration), ``evidence`` (one-line human
summary).

Runners never catch :class:`~repro.errors.StateExplosionError` or
domain errors — classification is the supervisor's job
(:mod:`repro.portfolio.workers`), and the structured attributes on the
exception carry the budget numbers it needs.
"""

from __future__ import annotations

import inspect
from typing import Callable, Dict, NamedTuple, Sequence, Tuple, Union

from ..errors import ModelError
from ..petri.marking import Marking
from ..petri.net import PetriNet
from ..stg.stg import STG

Model = Union[PetriNet, STG]


class Query(NamedTuple):
    """One row of :data:`QUERIES`."""

    #: The verdict that means the property holds.
    holds: str
    #: The method that only finds counterexamples: its miss is ``unknown``.
    bounded: str
    #: Engine slot -> the methods its ladder runs, strongest first.
    ladders: Dict[str, Tuple[str, ...]]


#: The method table (see the module docstring).
QUERIES: Dict[str, Query] = {
    "deadlock": Query("deadlock-free", "bmc", {
        "sat": ("kinduction", "bmc"),
        "bdd": ("bdd", "bmc"),
        "explicit": ("explicit", "bmc")}),
    "reach": Query("unreachable", "bmc", {
        "sat": ("kinduction", "bmc"),
        "explicit": ("explicit", "bmc")}),
    "csc": Query("no-conflict", "sat", {
        "sat": ("sat",),
        "bdd": ("bdd", "sat"),
        "explicit": ("explicit", "sat")}),
    "consistency": Query("consistent", "sat", {
        "sat": ("sat",),
        "explicit": ("explicit", "sat")}),
}

#: The engine each method runs on; ``explicit`` runs on the graph engine
#: its schedule entry names.
_ENGINE = {"kinduction": "sat", "bmc": "sat", "sat": "sat", "bdd": "bdd"}


def schedule(model: Model) -> Tuple[str, ...]:
    """The engine slots the portfolio races, ordered by predicted win.

    The SAT query engine first (cheapest definitive answers on the
    library corpus), then ``"bdd"`` when the net is in the symbolic
    domain (ordinary arcs, safe initial marking), then the graph engine
    :func:`repro.ts.choose_engine` picks, as the exhaustive anchor.
    """
    from ..ts.builder import choose_engine

    net = _net_of(model)
    slots = ["sat"]
    if net.has_ordinary_arcs() and net.initial_marking.is_safe():
        slots.append("bdd")
    slots.append(choose_engine(net))
    return tuple(slots)


def ladders(query: str, engines: Sequence[str], cover: bool = False
            ) -> Dict[str, Tuple[str, Tuple[str, ...]]]:
    """The ladders to race for ``query`` over the schedule ``engines``.

    Maps each slot to its schedule entry and its methods, strongest
    first.  The graph engines (``compiled``, ``naive``, ``explicit``)
    share the ``explicit`` slot; slots without a ladder for the query
    are skipped.  A ``cover`` reach target drops k-induction, which can
    only prove exact markings unreachable.
    """
    if query not in QUERIES:
        raise ModelError("unknown portfolio query %r" % query)
    out: Dict[str, Tuple[str, Tuple[str, ...]]] = {}
    for engine in engines:
        slot = "explicit" if engine in ("compiled", "naive", "explicit") \
            else engine
        methods = tuple(m for m in QUERIES[query].ladders.get(slot, ())
                        if not (cover and m == "kinduction"))
        if methods and slot not in out:
            out[slot] = (engine, methods)
    if not out:
        raise ModelError("no engine in %r can answer the %r query"
                         % (tuple(engines), query))
    return out


def single_slot(model: Model, query: str, cover: bool = False) -> str:
    """The schedule entry ``repro check`` runs alone: the first slot whose
    head method is not bounded, so that its answer can prove the property
    as well as refute it.  The graph engine that closes every schedule
    always qualifies."""
    slots = ladders(query, schedule(model), cover)
    return next(engine for engine, methods in slots.values()
                if methods[0] != QUERIES[query].bounded)


def engine_of(method: str, entry: str) -> str:
    """The engine ``method`` runs on in the slot of schedule ``entry``."""
    return _ENGINE.get(method, entry)


def bind(query: str, method: str, model: Model,
         options: dict) -> Tuple[Callable[..., dict], dict]:
    """The runner of ``method`` for ``query`` and its keyword arguments:
    the model plus those of ``options`` (``max_states``, ``max_k``,
    ``bound``, ``target``, ``cover``) that its signature names."""
    fn = globals()["%s_%s" % (query, method)]
    params = inspect.signature(fn).parameters
    kwargs = {k: v for k, v in options.items() if k in params}
    kwargs["model"] = model
    return fn, kwargs


def _net_of(model: Model) -> PetriNet:
    return model.net if isinstance(model, STG) else model


def _marking_dict(marking: Marking) -> Dict[str, int]:
    return {p: n for p, n in marking.items()}


def _payload(verdict: str, definitive: bool, method: str,
             evidence: str, **extra) -> dict:
    payload = {"verdict": verdict, "definitive": definitive,
               "method": method, "evidence": evidence}
    payload.update(extra)
    return payload


# ---------------------------------------------------------------------- #
# deadlock
# ---------------------------------------------------------------------- #

def deadlock_explicit(model: Model, max_states: int) -> dict:
    """Exhaustive graph construction; definitive in both directions."""
    from ..ts.builder import build_reachability_graph

    ts = build_reachability_graph(model, max_states=max_states)
    dead = sorted((s for s in ts.states if not ts.successors(s)),
                  key=repr)
    if dead:
        return _payload(
            "deadlock", True, "explicit",
            "explicit exploration found %d dead marking(s) among %d"
            " states" % (len(dead), len(ts)),
            dead_marking=_marking_dict(dead[0]), states=len(ts))
    return _payload(
        "deadlock-free", True, "explicit",
        "explicit exploration of all %d states found no dead marking"
        % len(ts), states=len(ts))


def deadlock_bdd(model: Model) -> dict:
    """Symbolic fixpoint; definitive in both directions."""
    from ..bdd.queries import find_deadlock

    dead = find_deadlock(model)
    if dead is not None:
        return _payload(
            "deadlock", True, "bdd",
            "symbolic fixpoint found a dead marking",
            dead_marking=_marking_dict(dead))
    return _payload(
        "deadlock-free", True, "bdd",
        "symbolic fixpoint proved deadlock freedom")


def deadlock_kinduction(model: Model, max_k: int) -> dict:
    """k-induction: proof, replayed refutation, or explained Unknown."""
    from ..sat.kinduction import Proved, Refuted
    from ..sat.queries import prove_deadlock_free

    outcome = prove_deadlock_free(model, max_k=max_k)
    if isinstance(outcome, Proved):
        return _payload(
            "deadlock-free", True, "kinduction",
            "proved deadlock-free by %d-induction" % outcome.k,
            k=outcome.k)
    if isinstance(outcome, Refuted):
        witness = outcome.witness
        return _payload(
            "deadlock", True, "kinduction",
            "k-induction base case refuted at k=%d" % outcome.k,
            k=outcome.k, witness=list(witness.transitions),
            dead_marking=_marking_dict(witness.final_marking))
    return _payload(
        "unknown", False, "kinduction",
        "k-induction undecided at k=%d (%s)" % (outcome.k, outcome.reason),
        k=outcome.k, reason=outcome.reason)


def deadlock_bmc(model: Model, bound: int) -> dict:
    """Bounded search: a found witness is definitive, a miss is not."""
    from ..sat.queries import find_deadlock

    witness = find_deadlock(model, bound=bound)
    if witness is not None:
        return _payload(
            "deadlock", True, "bmc",
            "BMC found a deadlock trace of %d transitions" % len(witness),
            witness=list(witness.transitions),
            dead_marking=_marking_dict(witness.final_marking))
    return _payload(
        "unknown", False, "bmc",
        "no deadlock within %d steps (bounded)" % bound, k=bound)


# ---------------------------------------------------------------------- #
# reach
# ---------------------------------------------------------------------- #

def _target_marking(target: Dict[str, int]) -> Marking:
    return Marking(target)


def reach_explicit(model: Model, target: Dict[str, int],
                   max_states: int, cover: bool = False) -> dict:
    """Exhaustive membership test; definitive in both directions."""
    from ..ts.builder import build_reachability_graph

    goal = _target_marking(target)
    ts = build_reachability_graph(model, max_states=max_states)
    if cover:
        hit = next((s for s in ts.states if s.covers(goal)), None)
    else:
        hit = goal if goal in ts else None
    if hit is not None:
        return _payload(
            "reached", True, "explicit",
            "target %s among the %d reachable states"
            % ("covered" if cover else "present", len(ts)),
            final_marking=_marking_dict(hit), states=len(ts))
    return _payload(
        "unreachable", True, "explicit",
        "target absent from all %d reachable states" % len(ts),
        states=len(ts))


def reach_kinduction(model: Model, target: Dict[str, int],
                     max_k: int) -> dict:
    """k-induction unreachability proof (exact targets only)."""
    from ..sat.kinduction import Proved, Refuted
    from ..sat.queries import prove_unreachable

    outcome = prove_unreachable(model, _target_marking(target),
                                max_k=max_k)
    if isinstance(outcome, Proved):
        return _payload(
            "unreachable", True, "kinduction",
            "proved unreachable by %d-induction" % outcome.k, k=outcome.k)
    if isinstance(outcome, Refuted):
        witness = outcome.witness
        return _payload(
            "reached", True, "kinduction",
            "k-induction base case reached the target at k=%d" % outcome.k,
            k=outcome.k, witness=list(witness.transitions),
            final_marking=_marking_dict(witness.final_marking))
    return _payload(
        "unknown", False, "kinduction",
        "k-induction undecided at k=%d (%s)" % (outcome.k, outcome.reason),
        k=outcome.k, reason=outcome.reason)


def reach_bmc(model: Model, target: Dict[str, int], bound: int,
              cover: bool = False) -> dict:
    """Bounded search for a trace into the target."""
    from ..sat.queries import reach_marking

    witness = reach_marking(model, _target_marking(target), bound=bound,
                            partial=cover)
    if witness is not None:
        return _payload(
            "reached", True, "bmc",
            "BMC reached the target in %d transitions" % len(witness),
            witness=list(witness.transitions),
            final_marking=_marking_dict(witness.final_marking))
    return _payload(
        "unknown", False, "bmc",
        "target not reached within %d steps (bounded)" % bound, k=bound)


# ---------------------------------------------------------------------- #
# CSC
# ---------------------------------------------------------------------- #

def csc_explicit(model: STG, max_states: int) -> dict:
    """State-graph CSC check; definitive in both directions."""
    from ..analysis.implementability import csc_conflicts
    from ..ts.state_graph import build_state_graph

    sg = build_state_graph(model, max_states=max_states)
    conflicts = csc_conflicts(sg)
    if conflicts:
        return _payload(
            "conflict", True, "explicit",
            "state graph exposes %d CSC conflict pair(s)" % len(conflicts),
            conflicts=len(conflicts), states=len(sg))
    return _payload(
        "no-conflict", True, "explicit",
        "all %d state codes separate non-input excitation" % len(sg),
        states=len(sg))


def csc_bdd(model: STG) -> dict:
    """Symbolic CSC characteristic function; definitive both ways."""
    from ..bdd.queries import SymbolicCSC

    analysis = SymbolicCSC(model)
    if analysis.has_conflict():
        count = analysis.conflict_count()
        return _payload(
            "conflict", True, "bdd",
            "symbolic CSC function covers %d conflicting code(s)" % count,
            conflicts=count)
    return _payload(
        "no-conflict", True, "bdd",
        "symbolic CSC function is empty (no conflicting codes)")


def csc_sat(model: STG, bound: int) -> dict:
    """Bounded two-copy search: a found conflict is definitive."""
    from ..sat.queries import csc_conflict

    conflict = csc_conflict(model, bound=bound)
    if conflict is not None:
        return _payload(
            "conflict", True, "sat",
            "BMC pair search found a CSC conflict",
            witness=list(conflict.trace_a.transitions),
            witness_b=list(conflict.trace_b.transitions))
    return _payload(
        "unknown", False, "sat",
        "no CSC conflict within %d steps (bounded)" % bound, k=bound)


# ---------------------------------------------------------------------- #
# consistency
# ---------------------------------------------------------------------- #

def consistency_explicit(model: STG, max_states: int) -> dict:
    """State-graph construction decides consistency completely (it also
    catches cross-path divergence no single trace can witness)."""
    from ..errors import ConsistencyError
    from ..ts.state_graph import build_state_graph

    try:
        sg = build_state_graph(model, max_states=max_states)
    except ConsistencyError as exc:
        return _payload(
            "violation", True, "explicit",
            "state-graph coding failed: %s" % exc)
    return _payload(
        "consistent", True, "explicit",
        "consistent signal codes across all %d states" % len(sg),
        states=len(sg))


def consistency_sat(model: STG, bound: int) -> dict:
    """Bounded single-trace search: a found violation is definitive."""
    from ..sat.queries import consistency_violation

    witness = consistency_violation(model, bound=bound)
    if witness is not None:
        return _payload(
            "violation", True, "sat",
            "BMC found a same-direction double firing",
            witness=list(witness.transitions))
    return _payload(
        "unknown", False, "sat",
        "no single-trace violation within %d steps (bounded)" % bound,
        k=bound)
