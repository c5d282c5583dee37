"""Fault-tolerant portfolio checks: race the engines, trust no winner.

This is the orchestration layer over :mod:`repro.portfolio.workers`.
Each ``check_*`` entry point asks :func:`repro.portfolio.tasks.schedule`
which engines to race for the model at hand, builds one *degradation
ladder* per engine slot from the method table
(:data:`repro.portfolio.tasks.QUERIES`: strongest method first, bounded
fallback last), races the ladders in supervised worker processes, and
wraps the first definitive answer in a :class:`Verdict`.

The winner is then **cross-validated** before being reported:

* a witness trace is replayed through the token game
  (:mod:`repro.petri.token_game`) and its final state checked against
  the claimed property (``validator="token-game"``);
* a claimed dead marking is checked for enabled transitions
  (``validator="dead-marking"``);
* witness-free verdicts (proofs, empty fixpoints) are probed by a cheap
  bounded query on an *independent* engine — a probe that finds a
  counterexample within its small bound exposes the winner
  (``validator="independent:<method>"``; a bounded miss confirms
  nothing and disagrees with nothing).

A failed validation **downgrades the verdict to** ``"inconsistent"``
(``Verdict.flagged`` is set and both answers are kept in
``details``) — a disagreement between engines is a finding, never
silently resolved in either direction.  When no slot produces a
definitive answer the portfolio concedes ``"unknown"`` and reports the
partial evidence it gathered (bounded misses, final depths).

``inline=True`` runs the same ladders through the same supervisor loop
in-process, one slot after another — no worker processes, same
classification and degradation semantics (fault injection included, see
:func:`repro.portfolio.faults.fire`) — for platforms or tests where
forking is unwanted.

Telemetry: each race runs under a ``portfolio.race`` span carrying the
query, the slot schedule, the robustness counters (``attempts``,
``retries``, ``timeouts``, ``crashes``, ``errors``, ``degradations``,
``cancellations``) and the final verdict.  In process mode the workers'
own span trees and heartbeat events stream back over their result pipes
and are merged under the ``portfolio.race`` span with
slot/engine/attempt attribution (:mod:`repro.obs.remote`), so a
``--trace`` file attributes the race's wall-clock to named worker-side
engine spans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .. import obs
from ..budgets import DEFAULT_STATE_BOUND
from ..errors import ModelError, StateExplosionError, UnboundedError
from ..petri.marking import Marking
from ..petri.net import PetriNet
from ..petri.token_game import enabled_transitions, fire_sequence
from ..sat import DEFAULT_BOUND, DEFAULT_MAX_K
from ..stg.stg import STG
from . import tasks
from .workers import (DEFAULT_DEADLINE_S, RaceResult, TaskOutcome, TaskSpec,
                      race)

Model = Union[PetriNet, STG]

#: Bound for the independent cross-validation probe: deliberately small —
#: the probe is a smoke test for gross engine disagreement, not a second
#: full verification run.
PROBE_BOUND = 6


@dataclass
class Verdict:
    """The portfolio's answer to one query, with its provenance.

    ``verdict`` uses the per-query vocabulary of
    :mod:`repro.portfolio.tasks` plus ``"inconsistent"`` (engines
    disagreed — see ``flagged``).  ``engine``/``method`` identify the
    winning rung, ``validator`` how the answer was cross-checked,
    ``attempts``/``degradations`` and the full ``stats`` dict how much
    fault tolerance was needed to get it, and ``details`` the winner's
    raw payload (witness, markings, depths) plus any disagreement
    evidence.
    """

    query: str
    verdict: str
    engine: str = "portfolio"
    method: str = ""
    definitive: bool = False
    flagged: bool = False
    evidence: str = ""
    witness: Optional[List[str]] = None
    validator: Optional[str] = None
    elapsed_s: float = 0.0
    attempts: int = 0
    degradations: int = 0
    stats: Dict[str, int] = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    def __bool__(self) -> bool:
        """True exactly when the verdict is the query's holds-verdict in
        :data:`repro.portfolio.tasks.QUERIES`: ``deadlock-free``,
        ``unreachable``, ``no-conflict`` or ``consistent``."""
        return self.verdict == tasks.QUERIES[self.query].holds


def _net_of(model: Model) -> PetriNet:
    return model.net if isinstance(model, STG) else model


def _ladders(model: Model, query: str, engines: Sequence[str],
             options: dict, deadline_s: float) -> Dict[str, List[TaskSpec]]:
    """One degradation ladder of tasks per slot, read off the method
    table (:func:`repro.portfolio.tasks.ladders`)."""
    ladders: Dict[str, List[TaskSpec]] = {}
    slots = tasks.ladders(query, engines, options.get("cover", False))
    for slot, methods in slots.items():
        ladders[slot] = []
        for method in methods:
            fn, kwargs = tasks.bind(query, method, model, options)
            ladders[slot].append(TaskSpec(
                slot=slot, engine=tasks.engine_of(method),
                method=method, fn=fn, kwargs=kwargs, deadline_s=deadline_s))
    return ladders


# -- cross-validation --------------------------------------------------- #

def _replay(net: PetriNet, trace: Sequence[str]) -> Optional[Marking]:
    """Token-game replay; None when the trace is not fireable."""
    try:
        return fire_sequence(net, net.initial_marking, list(trace))
    except (ModelError, UnboundedError):
        return None


def _marking(target: Dict[str, int]) -> Marking:
    return Marking(target)


def _same_marking(a: Marking, b: Marking) -> bool:
    return a.covers(b) and b.covers(a)


def _validate_witness(model: Model, query: str, payload: dict,
                      options: dict) -> Optional[bool]:
    """Replay the winner's witness; None when there is nothing to replay."""
    net = _net_of(model)
    verdict = payload["verdict"]
    witness = payload.get("witness")
    if witness is not None:
        final = _replay(net, witness)
        if final is None:
            return False
        if query == "deadlock" and verdict == "deadlock":
            return not enabled_transitions(net, final)
        if query == "reach" and verdict == "reached":
            goal = _marking(options["target"])
            return final.covers(goal) if options["cover"] \
                else _same_marking(final, goal)
        if query == "csc" and verdict == "conflict":
            other = payload.get("witness_b")
            return other is None or _replay(net, other) is not None
        return True  # fireable trace; query-specific claim not replayable
    dead = payload.get("dead_marking")
    if query == "deadlock" and verdict == "deadlock" and dead is not None:
        return not enabled_transitions(net, _marking(dead))
    return None


def _probe(model: Model, query: str, verdict: str,
           options: dict) -> Optional[Tuple[str, dict]]:
    """Probe a witness-free holds-verdict (a proof, an empty fixpoint)
    with the query's bounded method at :data:`PROBE_BOUND`, which could
    expose it by finding a counterexample; returns (probe_name, payload),
    or None when the verdict carries nothing a probe could contradict."""
    row = tasks.QUERIES[query]
    if verdict != row.holds:
        return None
    fn, kwargs = tasks.bind(query, row.bounded, model,
                            dict(options, bound=PROBE_BOUND))
    return "independent:" + row.bounded, fn(**kwargs)


def _cross_validate(model: Model, query: str, winner: TaskOutcome,
                    verdict: Verdict, options: dict) -> None:
    """Check the winner against independent evidence; downgrade on
    disagreement (mutates ``verdict`` in place)."""
    payload = verdict.details
    replayed = _validate_witness(model, query, payload, options)
    if replayed is True:
        verdict.validator = "dead-marking" \
            if payload.get("witness") is None else "token-game"
        return
    if replayed is False:
        verdict.details["disagreement"] = (
            "witness from %s/%s does not replay to the claimed %s"
            % (winner.spec.engine, winner.spec.method, payload["verdict"]))
        verdict.verdict = "inconsistent"
        verdict.flagged = True
        verdict.validator = "token-game"
        return
    try:
        probed = _probe(model, query, payload["verdict"], options)
    except (StateExplosionError, UnboundedError, ModelError):
        probed = None  # the probe itself failed: nothing to compare
    if probed is None:
        return
    name, counter = probed
    verdict.validator = name
    if counter.get("definitive") and counter["verdict"] != \
            payload["verdict"]:
        verdict.details["disagreement"] = (
            "%s found %r within bound %d but %s/%s claimed %r"
            % (name, counter["verdict"], PROBE_BOUND, winner.spec.engine,
               winner.spec.method, payload["verdict"]))
        verdict.details["counter_evidence"] = counter
        verdict.verdict = "inconsistent"
        verdict.flagged = True


# -- the entry points --------------------------------------------------- #

def _check(model: Model, query: str, *,
           engines: Optional[Sequence[str]] = None,
           max_states: int = DEFAULT_STATE_BOUND,
           max_k: int = DEFAULT_MAX_K,
           bound: int = DEFAULT_BOUND,
           deadline_s: float = DEFAULT_DEADLINE_S,
           inline: bool = False,
           cross_validate: bool = True,
           target: Optional[Dict[str, int]] = None,
           cover: bool = False) -> Verdict:
    # what the runners may read (tasks.bind passes each only its own)
    options = {"max_states": max_states, "max_k": max_k, "bound": bound}
    if target is not None:
        options.update(target=target, cover=cover)
    ladders = _ladders(model, query, engines or tasks.schedule(model),
                       options, deadline_s)
    with obs.span("portfolio.race", query=query,
                  slots=",".join(ladders),
                  mode="inline" if inline else "process") as span:
        result = race(ladders, inline=inline)
        verdict = _assemble(model, query, result, cross_validate, options)
        span.annotate(verdict=verdict.verdict, engine=verdict.engine,
                      method=verdict.method, flagged=verdict.flagged)
    return verdict


def _assemble(model: Model, query: str, result: RaceResult,
              cross_validate: bool, options: dict) -> Verdict:
    winner = result.winner
    if winner is None:
        partials = [o for o in result.outcomes if o.status == "partial"]
        evidence = "; ".join(o.payload["evidence"] for o in partials) \
            or "every engine slot failed before producing evidence"
        verdict = Verdict(query=query, verdict="unknown",
                          evidence=evidence, elapsed_s=result.elapsed_s,
                          attempts=result.stats["attempts"],
                          degradations=result.stats["degradations"],
                          stats=dict(result.stats))
        verdict.details["partial"] = [o.payload for o in partials]
        verdict.details["failures"] = [
            "%s: %s" % (o.spec.label(), o.error)
            for o in result.outcomes if o.error is not None]
        return verdict
    payload = dict(winner.payload or {})
    if "target" in options:
        payload.setdefault("target", dict(options["target"]))
    verdict = Verdict(query=query, verdict=payload["verdict"],
                      engine=winner.spec.engine,
                      method=winner.spec.method, definitive=True,
                      evidence=payload.get("evidence", ""),
                      witness=payload.get("witness"),
                      elapsed_s=result.elapsed_s,
                      attempts=result.stats["attempts"],
                      degradations=result.stats["degradations"],
                      stats=dict(result.stats), details=payload)
    if cross_validate:
        # a named phase of the race span: witness replay plus the
        # independent probe, so the merged trace attributes the
        # post-race tail as validation work rather than a black hole
        with obs.span("portfolio.validate", query=query) as vspan:
            _cross_validate(model, query, winner, verdict, options)
            vspan.annotate(validator=verdict.validator or "none",
                           flagged=verdict.flagged)
    return verdict


def check_deadlock(model: Model, **options) -> Verdict:
    """Race the engines on "is any dead marking reachable?".

    Returns a :class:`Verdict` whose ``verdict`` is ``"deadlock"``,
    ``"deadlock-free"``, ``"unknown"`` or ``"inconsistent"`` (truthy
    exactly when deadlock freedom was established).  Options —
    ``engines`` (slot override), ``max_states``, ``max_k``, ``bound``,
    ``deadline_s``, ``inline``, ``cross_validate`` —
    are shared by all four checks, see :func:`_check`.
    """
    return _check(model, "deadlock", **options)


def check_reach(model: Model, target: Dict[str, int],
                cover: bool = False, **options) -> Verdict:
    """Race the engines on "is the target marking reachable?".

    ``target`` maps place names to token counts; with ``cover=True`` any
    reachable marking covering it counts (and unreachability proofs are
    skipped — only the explicit engine can then answer negatively).
    Verdicts: ``"reached"``, ``"unreachable"``, ``"unknown"``,
    ``"inconsistent"`` — truthy exactly when the target is unreachable.
    """
    return _check(model, "reach", target=dict(target), cover=cover,
                  **options)


def check_csc(stg: STG, **options) -> Verdict:
    """Race the engines on complete state coding of an STG.

    Verdicts: ``"conflict"``, ``"no-conflict"``, ``"unknown"``,
    ``"inconsistent"`` — truthy exactly when CSC holds.
    """
    return _check(stg, "csc", **options)


def check_consistency(stg: STG, **options) -> Verdict:
    """Race the engines on signal-transition consistency of an STG.

    Verdicts: ``"violation"``, ``"consistent"``, ``"unknown"``,
    ``"inconsistent"`` — truthy exactly when the STG is consistent.
    """
    return _check(stg, "consistency", **options)
