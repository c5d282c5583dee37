"""User-facing SAT queries: reachability, deadlock, CSC, consistency.

These are the entry points the rest of the library calls.  Each query
answers one targeted question about a net or STG **without building its
state graph** — the whole point of the subsystem (paper, Section 2.2:
state explosion is the obstacle; SMPT's BMC/k-induction is the modern
answer).  Counterexamples are replayed through the token game before
being returned, so callers can hand witness markings straight to the
explicit machinery (e.g. :func:`repro.petri.properties.find_deadlocks`
with its ``markings`` parameter uses the same reporting format for SAT
and explicit results).

Bounded queries (``find_deadlock``, ``reach_marking``, ``csc_conflict``,
``consistency_violation``) return a witness or ``None`` ("nothing within
the bound"); proof queries (``prove_deadlock_free``,
``prove_unreachable``) return the three-valued
:class:`~repro.sat.kinduction.Proved` / ``Refuted`` / ``Unknown``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional, Tuple, Union

from .. import obs
from ..petri.marking import Marking
from ..petri.net import PetriNet
from ..petri.token_game import enabled_transitions
from ..stg.stg import STG
from .bmc import (
    BMC,
    DEFAULT_BOUND,
    Witness,
    deadlock_target,
    marking_target,
    replay_witness,
)
from .cnf import CNF
from .encodings import STGEncoding, state_equation_refutes
from .kinduction import DEFAULT_MAX_K, Proved, Verdict, k_induction
from .solver import ClauseFeeder, Solver


def _net_of(model: Union[PetriNet, STG]) -> PetriNet:
    return model.net if isinstance(model, STG) else model


def _validate_target(net: PetriNet, target: Marking) -> None:
    """Reject unknown places up front, before any screening step can
    mask a typo'd target as an innocuous negative verdict."""
    from ..errors import ModelError

    for p in target.places():
        if p not in net.places:
            raise ModelError("unknown place %r in target marking" % p)


# ---------------------------------------------------------------------- #
# reachability and deadlock
# ---------------------------------------------------------------------- #

def reach_marking(model: Union[PetriNet, STG], target: Marking,
                  bound: int = DEFAULT_BOUND,
                  partial: bool = False) -> Optional[Witness]:
    """A firing sequence reaching ``target`` within ``bound`` steps.

    ``partial=True`` asks for a marking *covering* the target (only the
    marked places are constrained).  Exact queries are first screened by
    the state-equation over-approximation: a target breaking a
    P-invariant is rejected without touching the solver.
    """
    net = _net_of(model)
    _validate_target(net, target)
    if not partial and state_equation_refutes(net, target):
        return None
    return BMC(net).run(marking_target(target, partial=partial), bound)


def find_deadlock(model: Union[PetriNet, STG],
                  bound: int = DEFAULT_BOUND) -> Optional[Witness]:
    """A firing sequence into a dead marking, or None within the bound."""
    return BMC(_net_of(model)).run(deadlock_target, bound)


def prove_deadlock_free(model: Union[PetriNet, STG],
                        max_k: int = DEFAULT_MAX_K) -> Verdict:
    """k-induction verdict on deadlock freedom.

    ``Proved`` — no reachable marking is dead; ``Refuted`` — the witness
    trace ends in a dead marking; ``Unknown`` — undecided at ``max_k``.
    """
    return k_induction(_net_of(model), deadlock_target, max_k=max_k)


def prove_unreachable(model: Union[PetriNet, STG], target: Marking,
                      max_k: int = DEFAULT_MAX_K) -> Verdict:
    """k-induction verdict on unreachability of an exact marking."""
    net = _net_of(model)
    _validate_target(net, target)
    if state_equation_refutes(net, target):
        return Proved(0)
    return k_induction(net, marking_target(target), max_k=max_k)


# ---------------------------------------------------------------------- #
# CSC
# ---------------------------------------------------------------------- #

@dataclass
class SatCSCConflict:
    """A CSC conflict found by BMC: two reachable states with the same
    binary code but different non-input excitation.

    Code equality is established on *parity vectors* (state code =
    initial code XOR parity), so no state-graph construction or initial
    value computation is needed.  Both traces replay from the initial
    marking; the excitation signatures are recomputed in the token game.
    """

    trace_a: Witness
    trace_b: Witness
    enabled_a: FrozenSet[Tuple[str, str]]
    enabled_b: FrozenSet[Tuple[str, str]]

    @property
    def marking_a(self) -> Marking:
        return self.trace_a.final_marking

    @property
    def marking_b(self) -> Marking:
        return self.trace_b.final_marking

    def __str__(self):
        return ("CSC conflict between %r (%s) and %r (%s)"
                % (self.marking_a, sorted("".join(e) for e in self.enabled_a),
                   self.marking_b, sorted("".join(e) for e in self.enabled_b)))


def _noninput_signature(stg: STG,
                        marking: Marking) -> FrozenSet[Tuple[str, str]]:
    """Enabled (signal, direction) pairs of non-input signals."""
    result = set()
    for t in enabled_transitions(stg.net, marking):
        event = stg.event_of(t)
        if event.is_dummy:
            continue
        if stg.type_of(event.signal).is_noninput:
            result.add(event.base())
    return frozenset(result)


def csc_pair_lits(stg: STG, cnf: CNF, enc_a: STGEncoding,
                  enc_b: STGEncoding, frame: int) -> Tuple[list, int]:
    """The CSC constraint over a pair of unrollings at one frame.

    Returns ``(equal_lits, different_lit)``: the literals forcing the two
    copies' parity vectors (hence binary codes) to agree on every signal,
    and the literal true iff some non-input signal's excitation differs.
    :func:`csc_conflict` assumes them per bound; the CLI's ``--dimacs``
    dump asserts them as clauses — one constraint definition for both.
    """
    from ..stg.signals import FALL, RISE

    equal = []
    for s in stg.signals:
        xor = cnf.new_xor(enc_a.parity_var(frame, s),
                          enc_b.parity_var(frame, s))
        equal.append(-xor)
    diffs = []
    for s in stg.signals:
        if not stg.type_of(s).is_noninput:
            continue
        for d in (RISE, FALL):
            diffs.append(cnf.new_xor(enc_a.excitation_lit(frame, s, d),
                                     enc_b.excitation_lit(frame, s, d)))
    return equal, cnf.new_or(diffs)


def csc_conflict(stg: STG,
                 bound: int = DEFAULT_BOUND) -> Optional[SatCSCConflict]:
    """Search for a CSC conflict by BMC over a *pair* of unrollings.

    Two independent copies of the token game run from the initial
    marking; the query asks for a bound ``k`` at which their parity
    vectors agree on **every** signal (same binary code) while some
    non-input signal is excited in one copy but not the other.  Thanks to
    stuttering, a bound-``k`` call covers all trace pairs of at most ``k``
    steps each.
    """
    noninput = [s for s in stg.signals if stg.type_of(s).is_noninput]
    if not noninput:
        return None
    cnf = CNF()
    enc_a = STGEncoding(stg, cnf=cnf, prefix="A.")
    enc_b = STGEncoding(stg, cnf=cnf, prefix="B.")
    solver = Solver()
    feed = ClauseFeeder(solver, cnf)

    with obs.span("sat.csc", net=stg.net.name, bound=bound) as span:
        for k in range(bound + 1):
            span.add("bounds_explored")
            enc_a.ensure_steps(k)
            enc_b.ensure_steps(k)
            # same binary code, different non-input excitation signature
            equal, different = csc_pair_lits(stg, cnf, enc_a, enc_b, k)
            assumptions = equal + [different]
            feed()
            if solver.solve(assumptions):
                span.annotate(result="conflict", k=k)
                trace_a = replay_witness(stg.net, enc_a,
                                         solver.model_value, k)
                trace_b = replay_witness(stg.net, enc_b,
                                         solver.model_value, k)
                return SatCSCConflict(
                    trace_a=trace_a, trace_b=trace_b,
                    enabled_a=_noninput_signature(stg,
                                                  trace_a.final_marking),
                    enabled_b=_noninput_signature(stg,
                                                  trace_b.final_marking))
        span.annotate(result="no-conflict")
    return None


# ---------------------------------------------------------------------- #
# consistency
# ---------------------------------------------------------------------- #

def consistency_violation(stg: STG,
                          bound: int = DEFAULT_BOUND) -> Optional[Witness]:
    """A firing sequence on which some signal fires twice in the same
    direction with no opposite transition in between.

    This is the single-trace form of STG inconsistency (the explicit
    checker additionally detects *cross-path* divergence, where two
    branches imply different initial values; a trace witnessing that
    cannot exist on one path, so this query reports the dominant,
    replayable class of violations).  The last step of the returned
    witness holds the offending transition; independent transitions
    fired in the same step may follow it in the flattened sequence.
    """
    return BMC(stg, track_consistency=True).run(
        lambda enc, frame: [enc.violation_lit(frame - 1)], bound, start=1)
