"""Bounded model checking: find a firing sequence to a bad state.

A bounded query is an *encoding* plus a *target*: the encoding unrolls
the token game (anything with ``net``, ``cnf`` and ``ensure_steps``),
the target names the assumption literals that must hold at one frame.
:meth:`BMC.run`, the one bound loop, asks for growing ``k``: *is there
a firing sequence of at most* ``k`` *steps from the initial marking to
a frame satisfying the target?*  Each bound adds one step to the shared
unrolling and one incremental solver call under assumptions — learnt
clauses and variable activities carry over between bounds, which is
where the CDCL solver's incremental interface pays off.

:meth:`BMC.run` returns the first satisfying frame; the query decodes
it into a :class:`Witness` carrying the firing sequence **and** the
replayed markings: every witness is re-executed through the real token
game (:func:`repro.petri.token_game.fire_safe`) before being returned,
so a BMC result is never an artifact of the encoding.  ``None`` means
"no such trace within the bound" — a bounded verdict, not a proof (for
proofs see :mod:`repro.sat.kinduction`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence

from .. import obs
from ..petri.marking import Marking
from ..petri.net import PetriNet
from ..petri.token_game import fire_safe
from .encodings import SafeNetEncoding
from .solver import ClauseFeeder, Solver

DEFAULT_BOUND = 30

#: ``target(encoding, frame)``: the literals that must hold at ``frame``.
TargetFn = Callable[[Any, int], Sequence[int]]


@dataclass
class Witness:
    """A concrete counterexample trace found by BMC.

    ``transitions`` is the flattened firing sequence; ``steps`` groups it
    per unrolling step: each step is the sorted ∅-conflict set of
    transitions fired together, which may hold more than one, and empty
    stutter steps are already dropped.  ``markings`` is the replayed
    trajectory, one marking per transition, with ``markings[0]`` the
    initial marking and ``markings[-1]`` the state satisfying the target.
    ``bound`` is the number of steps unrolled, so ``len(transitions)``
    may exceed it.  A witness is truthy even when it fires nothing.
    """

    transitions: List[str]
    steps: List[List[str]] = field(repr=False)
    markings: List[Marking] = field(repr=False)
    bound: int = 0

    @property
    def final_marking(self) -> Marking:
        return self.markings[-1]


def replay_witness(net: PetriNet, encoding: SafeNetEncoding, model_value,
                   frame: int) -> Witness:
    """Decode the fired steps of a satisfying assignment and replay them.

    Stutter steps are dropped; every remaining transition is fired through
    :func:`~repro.petri.token_game.fire_safe`, so the returned markings
    are token-game truth, not solver output.  ``encoding`` is one
    unrolling of ``net`` (the CSC query replays each of its two).
    """
    steps = []
    for step in range(frame):
        fired = encoding.decode_step(model_value, step)
        if fired:
            steps.append(fired)
    marking = net.initial_marking
    markings = [marking]
    transitions: List[str] = []
    for fired in steps:
        for t in fired:
            marking = fire_safe(net, marking, t)
            markings.append(marking)
            transitions.append(t)
    return Witness(transitions=transitions, steps=steps,
                   markings=markings, bound=frame)


class BMC:
    """An incremental bounded-model-checking run over one encoding.

    The encoding's clauses are streamed into a private solver as the
    unrolling grows; :meth:`run` drives the bound loop for a target
    predicate expressed as assumption literals.
    """

    def __init__(self, encoding):
        self.encoding = encoding
        self.net: PetriNet = encoding.net
        self.solver = Solver()
        self._feed = ClauseFeeder(self.solver, encoding.cnf)
        self._feed()

    def solve_at(self, target: TargetFn, frame: int) -> bool:
        """One solver call: can the target hold at exactly ``frame``?"""
        self.encoding.ensure_steps(frame)
        self._feed()
        assumptions = list(target(self.encoding, frame))
        self._feed()  # target construction may add definition clauses
        return self.solver.solve(assumptions)

    def run(self, target: TargetFn, bound: int = DEFAULT_BOUND,
            start: int = 0) -> Optional[int]:
        """The first frame in ``start..bound`` at which the target holds
        (the solver keeps its model for :meth:`witness`), or None.

        When :func:`repro.obs.enabled`, the whole bound loop runs under
        a ``sat.bmc`` span counting ``bounds_explored`` (the per-call
        ``sat.solve`` spans nest inside it).
        """
        with obs.span("sat.bmc", net=self.net.name, bound=bound) as span:
            for k in range(start, bound + 1):
                span.add("bounds_explored")
                if self.solve_at(target, k):
                    span.annotate(result="witness", k=k)
                    return k
            span.annotate(result="no-trace")
        return None

    def witness(self, frame: int) -> Witness:
        """Decode and replay the model of the last (SAT) solver call."""
        return replay_witness(self.net, self.encoding,
                              self.solver.model_value, frame)


# ---------------------------------------------------------------------- #
# target predicates
# ---------------------------------------------------------------------- #

def deadlock_target(encoding: SafeNetEncoding, frame: int) -> Sequence[int]:
    """Target: no transition enabled at ``frame``."""
    return [encoding.deadlock_lit(frame)]


def marking_target(target: Marking, partial: bool = False) -> TargetFn:
    """Target factory: the frame equals (or covers, if ``partial``) the
    given marking."""
    def fn(encoding: SafeNetEncoding, frame: int) -> Sequence[int]:
        return encoding.marking_lits(frame, target, partial=partial)
    return fn
