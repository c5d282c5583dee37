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

Each bounded query is defined once, as an encoding, a target and a
first frame (:func:`_problem`).  The query runs that problem through
:meth:`repro.sat.bmc.BMC.run`, and :func:`query_cnf` writes the same
problem at one bound as a CNF (``repro sat-check --dimacs``), so the
dump is satisfiable exactly when the query finds a counterexample.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Tuple, Union

from ..errors import ModelError
from ..petri.marking import Marking
from ..petri.net import PetriNet
from ..petri.token_game import enabled_transitions
from ..stg.signals import FALL, RISE
from ..stg.stg import STG
from .bmc import (
    BMC,
    DEFAULT_BOUND,
    TargetFn,
    Witness,
    deadlock_target,
    marking_target,
    replay_witness,
)
from .cnf import CNF
from .encodings import SafeNetEncoding, STGEncoding, state_equation_refutes
from .kinduction import DEFAULT_MAX_K, Proved, Verdict, k_induction


def _net_of(model: Union[PetriNet, STG]) -> PetriNet:
    return model.net if isinstance(model, STG) else model


def _validate_target(net: PetriNet, target: Marking) -> None:
    """Reject unknown places up front, before any screening step can
    mask a typo'd target as an innocuous negative verdict."""
    for p in target.places():
        if p not in net.places:
            raise ModelError("unknown place %r in target marking" % p)


# ---------------------------------------------------------------------- #
# the bounded problems
# ---------------------------------------------------------------------- #

class CSCPairEncoding:
    """The two-copy CSC problem: two :class:`STGEncoding` unrollings of
    one STG over one shared CNF, unrolled in lockstep.  Each copy may
    stutter on its own, so frame ``k`` covers every pair of traces of
    at most ``k`` steps each; :func:`csc_pair_lits` is the target."""

    def __init__(self, stg: STG):
        self.stg = stg
        self.net = stg.net
        self.cnf = CNF()
        self.a = STGEncoding(stg, cnf=self.cnf, prefix="A.")
        self.b = STGEncoding(stg, cnf=self.cnf, prefix="B.")

    def ensure_steps(self, n: int) -> None:
        """Unroll both copies, ``A`` first, to at least ``n`` steps."""
        self.a.ensure_steps(n)
        self.b.ensure_steps(n)


def csc_pair_lits(pair: CSCPairEncoding, frame: int) -> List[int]:
    """The CSC target at ``frame``: the copies' parity vectors (hence
    binary codes) agree on every signal, one literal per signal, and the
    last literal says some non-input signal's excitation differs
    (constant false without non-input signals)."""
    stg, cnf, a, b = pair.stg, pair.cnf, pair.a, pair.b
    equal = [-cnf.new_xor(a.parity_var(frame, s), b.parity_var(frame, s))
             for s in stg.signals]
    diffs = [cnf.new_xor(a.excitation_lit(frame, s, d),
                         b.excitation_lit(frame, s, d))
             for s in stg.signals if stg.type_of(s).is_noninput
             for d in (RISE, FALL)]
    return equal + [cnf.new_or(diffs)]


def _problem(model: Union[PetriNet, STG], query: str,
             target: Optional[Marking] = None,
             partial: bool = False) -> Tuple[object, TargetFn, int]:
    """One bounded query as ``(encoding, target, first frame)``: what
    :meth:`BMC.run` solves for the query and what :func:`query_cnf`
    writes.  A signal-level query refuses a bare net here."""
    if query in ("csc", "consistency") and not isinstance(model, STG):
        raise ModelError("the %s query needs an STG, not a bare net"
                         % query)
    if query == "deadlock":
        return SafeNetEncoding(_net_of(model)), deadlock_target, 0
    if query == "reach":
        return (SafeNetEncoding(_net_of(model)),
                marking_target(target, partial=partial), 0)
    if query == "csc":
        return CSCPairEncoding(model), csc_pair_lits, 0
    if query == "consistency":
        # the step into the frame fired a signal twice in one direction
        return (STGEncoding(model, track_consistency=True),
                lambda enc, frame: [enc.violation_lit(frame - 1)], 1)
    raise ModelError("unknown bounded SAT query %r" % query)


def _bounded_witness(model: Union[PetriNet, STG], query: str, bound: int,
                     **reach) -> Optional[Witness]:
    """The replayed witness of a single-unrolling problem's first
    satisfying frame up to ``bound``, or None."""
    encoding, target, start = _problem(model, query, **reach)
    bmc = BMC(encoding)
    frame = bmc.run(target, bound, start=start)
    return None if frame is None else bmc.witness(frame)


def query_cnf(model: Union[PetriNet, STG], query: str, bound: int,
              target: Optional[Marking] = None,
              partial: bool = False) -> CNF:
    """The CNF a bounded query (``deadlock``, ``reach``, ``csc`` or
    ``consistency``) solves at ``bound``: its encoding unrolled to
    ``bound`` steps, with its target literals at that frame asserted as
    unit clauses (a constant-false unit where the query starts later).

    Stutter steps make "at frame ``bound``" the same as "within
    ``bound`` steps", so the CNF is satisfiable iff the query, run to
    the same bound, returns a counterexample.
    """
    encoding, target_fn, start = _problem(model, query, target, partial)
    encoding.ensure_steps(bound)
    cnf = encoding.cnf
    lits = target_fn(encoding, bound) if bound >= start \
        else [cnf.new_or([])]
    for lit in lits:
        cnf.add_clause(lit)
    return cnf


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
    return _bounded_witness(net, "reach", bound, target=target,
                            partial=partial)


def find_deadlock(model: Union[PetriNet, STG],
                  bound: int = DEFAULT_BOUND) -> Optional[Witness]:
    """A firing sequence into a dead marking, or None within the bound."""
    return _bounded_witness(model, "deadlock", bound)


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


def csc_conflict(stg: STG,
                 bound: int = DEFAULT_BOUND) -> Optional[SatCSCConflict]:
    """Search for a CSC conflict by BMC over a *pair* of unrollings
    (:class:`CSCPairEncoding`).

    Two independent copies of the token game run from the initial
    marking; the query asks for a bound ``k`` at which their parity
    vectors agree on **every** signal (same binary code) while some
    non-input signal is excited in one copy but not the other
    (:func:`csc_pair_lits`).  Thanks to stuttering, a bound-``k`` call
    covers all trace pairs of at most ``k`` steps each.
    """
    pair, target, start = _problem(stg, "csc")
    if not any(stg.type_of(s).is_noninput for s in stg.signals):
        return None
    bmc = BMC(pair)
    frame = bmc.run(target, bound, start=start)
    if frame is None:
        return None
    trace_a, trace_b = (replay_witness(stg.net, copy,
                                       bmc.solver.model_value, frame)
                        for copy in (pair.a, pair.b))
    return SatCSCConflict(
        trace_a=trace_a, trace_b=trace_b,
        enabled_a=_noninput_signature(stg, trace_a.final_marking),
        enabled_b=_noninput_signature(stg, trace_b.final_marking))


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
    A bare :class:`~repro.petri.net.PetriNet` raises
    :class:`~repro.errors.ModelError`.
    """
    return _bounded_witness(stg, "consistency", bound)
