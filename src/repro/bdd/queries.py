"""Symbolic queries: answers about the state space without materialising it.

The graph builder of :mod:`repro.ts.builder` pays for every marking;
the functions here answer the common questions on the BDD
characteristic function instead, mirroring :mod:`repro.sat.queries` (the
bounded-model-checking query engine) with exact fixpoint semantics:

* :func:`reachable_count` — how many markings are reachable;
* :func:`find_deadlock` / :func:`has_deadlock` — reachable dead markings;
* :class:`SymbolicCSC` / :func:`has_csc_conflict` — a *characteristic
  function* of the CSC-conflicting binary codes of an STG.

The CSC encoding borrows the parity trick of
:class:`repro.sat.encodings.STGEncoding`: the symbolic state is the
marking extended with one *parity* bit per signal (number of that
signal's transitions fired so far, mod 2).  Two reachable states carry
the same binary code iff their parity vectors coincide (code = initial
code XOR parity), so codes can be compared without knowing the initial
signal values — and the conflict characteristic function lives over the
parity variables alone.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from .. import obs
from ..errors import ModelError
from ..petri.marking import Marking
from ..petri.net import PetriNet
from ..stg.signals import FALL, RISE
from ..stg.stg import STG
from .bdd import BDD, FALSE, FLIP, CubeUpdate
from .symbolic import (
    DenseSymbolicReachability,
    SymbolicReachability,
    find_safety_clash,
    marking_update,
    raise_unsafe,
    structural_place_order,
    traced_traversal,
)

Model = Union[PetriNet, STG]


def _net_of(model: Model) -> PetriNet:
    return model.net if isinstance(model, STG) else model


def reachable_count(model: Model, encoding: str = "naive",
                    place_order: str = "dfs") -> int:
    """Number of reachable markings of a Petri net or STG, symbolically.

    ``encoding="naive"`` uses one BDD variable per place;
    ``encoding="dense"`` uses the SM-component encoding of Section 2.2
    (the count is then over dense *codes*).  No marking is ever
    enumerated, so the answer is available at sizes where the explicit
    engines blow their state budget.
    """
    net = _net_of(model)
    if encoding == "naive":
        return SymbolicReachability(net, place_order=place_order).count()
    if encoding == "dense":
        return DenseSymbolicReachability(net).count()
    raise ModelError("unknown encoding %r (expected 'naive' or 'dense')"
                     % encoding)


def find_deadlock(model: Model, place_order: str = "dfs"
                  ) -> Optional[Marking]:
    """One reachable dead marking, or None if the model is deadlock-free.

    Unlike :func:`repro.sat.queries.find_deadlock` this is a complete
    fixpoint answer, not a bounded search — a ``None`` here is a proof.
    """
    net = _net_of(model)
    return SymbolicReachability(net, place_order=place_order).find_deadlock()


def has_deadlock(model: Model) -> bool:
    """True iff some reachable marking enables no transition."""
    return find_deadlock(model) is not None


class SymbolicCSC:
    """Symbolic Complete State Coding check for an STG (Section 2.1).

    The symbolic state is ``(marking, parity)``: one BDD variable per
    place plus one per signal (the signal's transition-count parity).
    Transitions update the marking exactly as in
    :class:`~repro.bdd.symbolic.SymbolicReachability` and complement the
    parity bit of their signal (dummy events touch no parity).

    A CSC conflict exists iff some parity vector (equivalently: some
    binary code) is shared by two reachable states with different
    non-input excitation.  :meth:`conflict_chf` returns the
    characteristic function of exactly those parity vectors — the whole
    check runs on characteristic functions, with no state graph and no
    state enumeration.
    """

    #: Prefix of the per-signal parity variables in the BDD.
    PARITY_PREFIX = "code:"

    def __init__(self, stg: STG, place_order: str = "dfs"):
        net = stg.net
        if not net.has_ordinary_arcs():
            raise ModelError("symbolic CSC requires arc weights of 1")
        if not net.initial_marking.is_safe():
            raise ModelError("symbolic CSC requires a 1-safe initial marking")
        self.stg = stg
        self.net = net
        if place_order == "dfs":
            self.places = structural_place_order(net)
        elif place_order == "sorted":
            self.places = sorted(net.places)
        else:
            raise ModelError("unknown place_order %r" % place_order)
        self.signals: List[str] = list(stg.signals)
        self.parity_var: Dict[str, str] = {
            s: self.PARITY_PREFIX + s for s in self.signals
        }
        self.bdd = BDD(self.places + [self.parity_var[s]
                                      for s in self.signals])
        self._reached: Optional[int] = None
        self._chf: Optional[int] = None

    # -- traversal ------------------------------------------------------ #

    def transition_update(self, transition: str) -> CubeUpdate:
        """The safe-guarded marking update of one transition, plus the
        complement of its signal's parity bit (none for a dummy)."""
        entries = marking_update(self.net, transition)
        event = self.stg.event_of(transition)
        if not event.is_dummy:
            entries[self.parity_var[event.signal]] = (None, FLIP)
        return self.bdd.cube_update(entries)

    def reachable(self) -> int:
        """BDD of reachable ``(marking, parity)`` pairs.

        The traversal uses the safe-guarded updates, so it doubles as
        the safety decision procedure: a non-1-safe STG raises
        :class:`~repro.errors.UnboundedError` with a genuinely reachable
        witness (CSC is only defined on safe STGs).
        """
        if self._reached is not None:
            return self._reached
        init_cube = {p: 1 if self.net.initial_marking.get(p) else 0
                     for p in self.places}
        for s in self.signals:
            init_cube[self.parity_var[s]] = 0
        init = self.bdd.from_cube(init_cube)
        updates = [self.transition_update(t)
                   for t in sorted(self.net.transitions)]
        reached = traced_traversal(
            self.bdd, init, updates, engine="bdd", net=self.net.name,
            query="csc", signals=len(self.signals))
        clash = find_safety_clash(self.bdd, self.net, reached, self.places)
        if clash is not None:
            t, assignment = clash
            raise_unsafe(self.net, t,
                         Marking({p: 1 for p, v in assignment.items() if v}))
        self._reached = reached
        return self._reached

    # -- the conflict characteristic function --------------------------- #

    def excitation(self, signal: str, direction: str) -> int:
        """BDD (over place variables) of markings exciting the event.

        A signal/direction pair is excited in a marking iff some
        transition labelled with it is enabled — the symbolic counterpart
        of :meth:`repro.ts.state_graph.StateGraph.enabled_signals`.
        """
        bdd = self.bdd
        parts = []
        for t in sorted(self.net.transitions):
            event = self.stg.event_of(t)
            if event.is_dummy or event.signal != signal \
                    or event.direction != direction:
                continue
            parts.append(bdd.conj([bdd.var(p)
                                   for p in sorted(self.net.pre(t))]))
        return bdd.disj(parts)

    def conflict_chf(self) -> int:
        """Characteristic function of the CSC-conflicting parity vectors.

        For each non-input signal/direction pair ``e`` and the reachable
        relation ``R(marking, parity)``, a parity vector ``v`` is
        conflicting iff some state with parity ``v`` excites ``e`` while
        another does not::

            chf(v) = ∨_e (∃m. R(m,v) ∧ E_e(m)) ∧ (∃m. R(m,v) ∧ ¬E_e(m))

        The STG has complete state coding iff the result is the constant
        0; otherwise each satisfying assignment is a binary code (relative
        to the initial one) witnessing a conflict.
        """
        if self._chf is not None:
            return self._chf
        bdd = self.bdd
        reached = self.reachable()
        with obs.span("bdd.csc", engine="bdd",
                      net=self.net.name) as span:
            chf = FALSE
            noninput = [s for s in self.signals
                        if self.stg.type_of(s).is_noninput]
            for signal in noninput:
                for direction in (RISE, FALL):
                    span.add("excitation_checks")
                    excited = self.excitation(signal, direction)
                    some = bdd.exists(bdd.apply_and(reached, excited),
                                      self.places)
                    none = bdd.exists(
                        bdd.apply_and(reached, bdd.apply_not(excited)),
                        self.places)
                    chf = bdd.apply_or(chf, bdd.apply_and(some, none))
            span.annotate(conflict=chf != FALSE)
            span.set_gauge("peak_nodes", bdd.node_count())
        self._chf = chf
        return chf

    def has_conflict(self) -> bool:
        """True iff the STG violates Complete State Coding."""
        return self.conflict_chf() != FALSE

    def conflict_count(self) -> int:
        """Number of distinct conflicting binary codes."""
        chf = self.conflict_chf()
        others = len(self.bdd.variables) - len(self.signals)
        return self.bdd.satcount(chf) >> others

    def conflict_parities(self) -> List[Tuple[int, ...]]:
        """The conflicting parity vectors, ordered by ``stg.signals``.

        Each vector XORed with the initial binary code gives a conflicting
        state code of the explicit check
        (:func:`repro.analysis.implementability.csc_conflicts`).
        """
        chf = self.conflict_chf()
        names = [self.parity_var[s] for s in self.signals]
        if chf == FALSE:
            return []
        return sorted(tuple(a[n] for n in names)
                      for a in self.bdd.sat_over(chf, names))


def has_csc_conflict(stg: STG) -> bool:
    """True iff the STG has a CSC conflict (symbolic fixpoint check)."""
    return SymbolicCSC(stg).has_conflict()
