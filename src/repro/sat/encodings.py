"""Net-to-CNF encodings: the unrolled token game of a 1-safe net.

This is the translation layer between the Petri-net kernel and the SAT
solver.  A :class:`SafeNetEncoding` unrolls the token game of an ordinary
(weight-1) 1-safe net for a growing number of steps:

* one Boolean *marking variable* per place per frame (``m[i][p]`` — place
  ``p`` carries a token after ``i`` steps);
* one *firing variable* per transition per step (``f[i][t]`` — ``t``
  fires in step ``i``);
* *enabling* clauses ``f[i][t] -> m[i][p]`` for every input place, plus
  *contact-freedom* ``f[i][t] -> not m[i][p]`` for every pure output
  place (safe-net firing semantics — witnesses replay under
  :func:`repro.petri.token_game.fire_safe`);
* *frame axioms*: ``m[i+1][p] <-> produced(p) or (m[i][p] and not
  consumed(p))`` — a place is marked afterwards iff some producer fired,
  or it was marked and no pure consumer fired.

A step is a *∅-conflict* set of transitions (Heljanko, CONCUR 2001):
only *conflicting* pairs — transitions sharing an input or an output
place — are forbidden, so any number of independent transitions fire in
one step.  Every such step replays sequentially in any order, which
keeps witnesses checkable in the token game while reaching deep states
with far fewer frames.  A step may also fire nothing (a stutter), so a
bound-``k`` query covers all shorter traces too.

Every frame is additionally constrained by the net's minimal
P-invariants (:func:`repro.petri.structure.p_invariants`) where they
translate to unit or exactly-one clauses: this is the *state-equation
over-approximation* of the reachability set (paper, Section 2.2) pushed
into the CNF, and it is what makes k-induction complete enough to prove
deadlock-freedom on the library nets.  The same invariants power
:func:`state_equation_refutes` — a solver-free unreachability test run
before any unrolling.

The :class:`STGEncoding` subclass adds the signal interpretation needed
by the CSC and consistency queries: per-frame signal *parity* bits (the
binary code of a state relative to the initial code) and a per-signal
rise/fall alternation automaton.

**Scope caveat** — the encoding implements the *contact-free (safe-net)
semantics*: a transition whose firing would put a second token on a
place is simply not fireable.  On 1-safe nets this coincides exactly
with the ordinary token game (locked down by the cross-engine tests);
on a net that is **not** 1-safe the two diverge — the explicit engines
raise :class:`~repro.errors.UnboundedError` where this encoding
silently explores the contact-free restriction, so a ``Proved`` verdict
there speaks about the restricted game only.  Whether a net is 1-safe
is itself a behavioural property (only the *initial* marking can be
checked statically, and is); callers with doubts should confirm
safeness first (:func:`repro.petri.properties.is_safe` or the
Karp-Miller test).  Witness traces are immune to the caveat: every one
is replayed through :func:`~repro.petri.token_game.fire_safe` before
being returned.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..errors import ModelError, UnboundedError
from ..petri.marking import Marking
from ..petri.net import PetriNet
from ..petri.structure import p_invariants
from ..stg.signals import RISE
from ..stg.stg import STG
from .cnf import CNF

def state_equation_refutes(net: PetriNet, target: Marking) -> bool:
    """Solver-free unreachability test from the P-invariant dual of the
    state equation.

    Every reachable marking conserves the weighted token count of every
    P-invariant; a target that breaks one cannot be reached, no matter the
    bound.  Returns True when the target is *provably unreachable* (False
    means "unknown — ask the solver").
    """
    initial = net.initial_marking
    for inv in p_invariants(net):
        expected = sum(w * initial.get(p) for p, w in inv.items())
        if sum(w * target.get(p) for p, w in inv.items()) != expected:
            return True
    return False


class SafeNetEncoding:
    """Incrementally unrolled CNF encoding of a 1-safe net's token game.

    ``frames()`` is the number of markings encoded so far (initially 1 —
    the anchor frame); :meth:`add_step` appends one transition step.  All
    clauses are appended to :attr:`cnf`; a solver loop feeds them
    incrementally (see :class:`repro.sat.bmc.BMC`).
    """

    def __init__(self, net: PetriNet, cnf: Optional[CNF] = None,
                 anchor_initial: bool = True,
                 prefix: str = ""):
        if not net.has_ordinary_arcs():
            raise ModelError(
                "SAT encoding requires an ordinary (weight-1) net")
        initial = net.initial_marking
        if not initial.is_safe():
            raise UnboundedError(
                "SAT encoding requires a 1-safe initial marking")
        for p in initial.places():
            if p not in net.places:
                raise ModelError("unknown place %r in initial marking" % p)
        self.net = net
        self.cnf = cnf if cnf is not None else CNF()
        self.prefix = prefix
        self.places: List[str] = sorted(net.places)
        self.transitions: List[str] = sorted(net.transitions)
        self._pre: Dict[str, Tuple[str, ...]] = {}
        self._post: Dict[str, Tuple[str, ...]] = {}
        # pure consumers/producers per place (self-loops keep the token)
        self._consumers: Dict[str, List[str]] = {p: [] for p in self.places}
        self._producers: Dict[str, List[str]] = {p: [] for p in self.places}
        for t in self.transitions:
            pre = tuple(sorted(net.pre(t)))
            post = tuple(sorted(net.post(t)))
            self._pre[t] = pre
            self._post[t] = post
            for p in pre:
                if p not in net.post(t):
                    self._consumers[p].append(t)
            for p in post:
                self._producers[p].append(t)
        # per-frame marking vars and per-step firing vars
        self._marking_vars: List[Dict[str, int]] = []
        self._fire_vars: List[Dict[str, int]] = []
        self._enabled_cache: Dict[Tuple[int, str], int] = {}
        self._deadlock_cache: Dict[int, int] = {}
        self._invariants: List[Dict[str, int]] = p_invariants(net)
        self._initial = initial
        self._push_frame()
        if anchor_initial:
            for p in self.places:
                var = self._marking_vars[0][p]
                self.cnf.add_clause(var if initial.get(p) else -var)

    # ------------------------------------------------------------------ #
    # variables
    # ------------------------------------------------------------------ #

    def frames(self) -> int:
        """Number of marking frames encoded (steps + 1)."""
        return len(self._marking_vars)

    def steps(self) -> int:
        """Number of transition steps encoded."""
        return len(self._fire_vars)

    def marking_var(self, frame: int, place: str) -> int:
        """CNF variable of ``place`` at ``frame``."""
        return self._marking_vars[frame][place]

    def fire_var(self, step: int, transition: str) -> int:
        """CNF variable of ``transition`` firing in ``step``."""
        return self._fire_vars[step][transition]

    def _push_frame(self) -> None:
        frame = len(self._marking_vars)
        self._marking_vars.append({
            p: self.cnf.new_var("%sm%d[%s]" % (self.prefix, frame, p))
            for p in self.places
        })
        self._constrain_invariants(frame)

    def _constrain_invariants(self, frame: int) -> None:
        """Add the invariant clauses that have a direct CNF form."""
        mvars = self._marking_vars[frame]
        for inv in self._invariants:
            if any(w != 1 for w in inv.values()):
                continue
            count = sum(self._initial.get(p) for p in inv)
            lits = [mvars[p] for p in sorted(inv)]
            if count == 0:
                for lit in lits:
                    self.cnf.add_clause(-lit)
            elif count == 1:
                self.cnf.exactly_one(lits)
            elif count == len(lits):
                for lit in lits:
                    self.cnf.add_clause(lit)

    # ------------------------------------------------------------------ #
    # unrolling
    # ------------------------------------------------------------------ #

    def add_step(self) -> int:
        """Unroll one more step; returns the index of the new step."""
        step = len(self._fire_vars)
        cnf = self.cnf
        fire = {
            t: cnf.new_var("%sf%d[%s]" % (self.prefix, step, t))
            for t in self.transitions
        }
        self._fire_vars.append(fire)
        current = self._marking_vars[step]
        self._push_frame()
        succ = self._marking_vars[step + 1]

        for t in self.transitions:
            f = fire[t]
            for p in self._pre[t]:
                cnf.add_clause(-f, current[p])  # enabling
            for p in self._post[t]:
                if p not in self.net.pre(t):
                    cnf.add_clause(-f, -current[p])  # contact-freedom

        self._forbid_conflicting_pairs(fire)

        for p in self.places:
            self._frame_axiom(current[p], succ[p],
                              [fire[t] for t in self._producers[p]],
                              [fire[t] for t in self._consumers[p]])
        return step

    def ensure_steps(self, n: int) -> None:
        """Unroll until at least ``n`` steps are encoded."""
        while self.steps() < n:
            self.add_step()

    def _forbid_conflicting_pairs(self, fire: Dict[str, int]) -> None:
        """∅-conflict step: no two fired transitions may share an input
        place (they would race for its token) or an output place (their
        tokens would collide in a safe net)."""
        ts = self.transitions
        for i in range(len(ts)):
            pre_i = set(self._pre[ts[i]])
            post_i = set(self._post[ts[i]])
            for j in range(i + 1, len(ts)):
                if pre_i.intersection(self._pre[ts[j]]) or \
                        post_i.intersection(self._post[ts[j]]):
                    self.cnf.add_clause(-fire[ts[i]], -fire[ts[j]])

    def _frame_axiom(self, now: int, nxt: int,
                     producers: List[int], consumers: List[int]) -> None:
        """``nxt <-> OR(producers) | (now & ~OR(consumers))``."""
        cnf = self.cnf
        if not producers and not consumers:
            cnf.iff_lit(nxt, now)
            return
        prod = producers[0] if len(producers) == 1 else (
            cnf.new_or(producers) if producers else None)
        cons = consumers[0] if len(consumers) == 1 else (
            cnf.new_or(consumers) if consumers else None)
        if prod is None:
            # nxt <-> now & ~cons
            cnf.add_clause(-nxt, now)
            cnf.add_clause(-nxt, -cons)
            cnf.add_clause(nxt, -now, cons)
        elif cons is None:
            # nxt <-> prod | now
            cnf.add_clause(-nxt, prod, now)
            cnf.add_clause(nxt, -prod)
            cnf.add_clause(nxt, -now)
        else:
            cnf.add_clause(-nxt, prod, now)
            cnf.add_clause(-nxt, prod, -cons)
            cnf.add_clause(nxt, -prod)
            cnf.add_clause(nxt, -now, cons)

    # ------------------------------------------------------------------ #
    # query literals
    # ------------------------------------------------------------------ #

    def enabled_lit(self, frame: int, transition: str) -> int:
        """Literal true iff ``transition`` is enabled (all input places
        marked) at ``frame``; memoized per (frame, transition)."""
        key = (frame, transition)
        lit = self._enabled_cache.get(key)
        if lit is None:
            mvars = self._marking_vars[frame]
            pre = self._pre[transition]
            if len(pre) == 1:
                lit = mvars[pre[0]]
            else:
                lit = self.cnf.new_and([mvars[p] for p in pre])
            self._enabled_cache[key] = lit
        return lit

    def deadlock_lit(self, frame: int) -> int:
        """Literal true iff no transition is enabled at ``frame``."""
        lit = self._deadlock_cache.get(frame)
        if lit is None:
            lit = self.cnf.new_and(
                [-self.enabled_lit(frame, t) for t in self.transitions])
            self._deadlock_cache[frame] = lit
        return lit

    def marking_lits(self, frame: int, target: Marking,
                     partial: bool = False) -> List[int]:
        """Assumption literals pinning ``frame`` to ``target``.

        ``partial`` requires only the marked places (a *cover* query);
        otherwise the frame must equal the target exactly.
        """
        mvars = self._marking_vars[frame]
        lits = []
        for p in self.places:
            tokens = target.get(p)
            if tokens > 1:
                raise UnboundedError(
                    "target marking is not 1-safe at place %r" % p)
            if tokens:
                lits.append(mvars[p])
            elif not partial:
                lits.append(-mvars[p])
        for p in target.places():
            if p not in self.net.places:
                raise ModelError("unknown place %r in target marking" % p)
        return lits

    def distinct_frames(self, i: int, j: int) -> None:
        """Assert that frames ``i`` and ``j`` encode different markings
        (the simple-path constraint of k-induction)."""
        diffs = [
            self.cnf.new_xor(self._marking_vars[i][p],
                             self._marking_vars[j][p])
            for p in self.places
        ]
        self.cnf.add_clause(*diffs)

    # ------------------------------------------------------------------ #
    # model decoding
    # ------------------------------------------------------------------ #

    def decode_marking(self, model_value, frame: int) -> Marking:
        """Read a frame's marking out of a satisfying assignment
        (``model_value`` is :meth:`repro.sat.solver.Solver.model_value`)."""
        mvars = self._marking_vars[frame]
        return Marking({p: 1 for p in self.places if model_value(mvars[p])})

    def decode_step(self, model_value, step: int) -> List[str]:
        """Transitions fired in a step (sorted; [] for a stutter step)."""
        fire = self._fire_vars[step]
        return [t for t in self.transitions if model_value(fire[t])]


class STGEncoding(SafeNetEncoding):
    """A :class:`SafeNetEncoding` with the signal interpretation on top.

    Adds, per frame and per signal:

    * a *parity* bit — the number of this signal's transitions fired so
      far, mod 2.  Two frames carry the same binary code iff their parity
      vectors coincide (state code = initial code XOR parity), which lets
      the CSC query compare codes without knowing the initial values;
    * optionally (``track_consistency=True``) a rise/fall alternation
      automaton: ``seen`` (some event of the signal fired) and ``last``
      (the most recent one was rising), from which a per-step *violation*
      literal flags two same-direction events with no opposite event in
      between — the single-trace form of an STG consistency violation.
    """

    def __init__(self, stg: STG, cnf: Optional[CNF] = None,
                 anchor_initial: bool = True,
                 track_consistency: bool = False,
                 prefix: str = ""):
        self.stg = stg
        self.signals: List[str] = stg.signals
        self.track_consistency = track_consistency
        # transitions grouped by signal/direction, resolved before the
        # base constructor runs the first _push_frame
        self._rising: Dict[str, List[str]] = {s: [] for s in self.signals}
        self._falling: Dict[str, List[str]] = {s: [] for s in self.signals}
        for t in sorted(stg.net.transitions):
            event = stg.event_of(t)
            if event.is_dummy:
                continue
            group = self._rising if event.direction == RISE else self._falling
            group[event.signal].append(t)
        self._parity_vars: List[Dict[str, int]] = []
        self._seen_vars: List[Dict[str, int]] = []
        self._last_vars: List[Dict[str, int]] = []
        self._violation_vars: List[int] = []
        super().__init__(stg.net, cnf=cnf, anchor_initial=anchor_initial,
                         prefix=prefix)
        # frame 0: parity all zero; alternation automaton empty
        for s in self.signals:
            self.cnf.add_clause(-self._parity_vars[0][s])
            if track_consistency:
                self.cnf.add_clause(-self._seen_vars[0][s])

    # ------------------------------------------------------------------ #

    def _push_frame(self) -> None:
        super()._push_frame()
        frame = self.frames() - 1
        cnf = self.cnf
        self._parity_vars.append({
            s: cnf.new_var("%spar%d[%s]" % (self.prefix, frame, s))
            for s in self.signals
        })
        if self.track_consistency:
            self._seen_vars.append({
                s: cnf.new_var("%sseen%d[%s]" % (self.prefix, frame, s))
                for s in self.signals
            })
            self._last_vars.append({
                s: cnf.new_var("%slast%d[%s]" % (self.prefix, frame, s))
                for s in self.signals
            })

    def add_step(self) -> int:
        step = super().add_step()
        cnf = self.cnf
        fire = self._fire_vars[step]
        violations: List[int] = []
        for s in self.signals:
            rise_lits = [fire[t] for t in self._rising[s]]
            fall_lits = [fire[t] for t in self._falling[s]]
            fired_rise = self._or_lit(rise_lits)
            fired_fall = self._or_lit(fall_lits)
            fired = self._or_lit([lit for lit in (fired_rise, fired_fall)
                                  if lit is not None])
            par, par_next = (self._parity_vars[step][s],
                             self._parity_vars[step + 1][s])
            if fired is None:
                cnf.iff_lit(par_next, par)
            else:
                # parity tracking needs at most one event of the signal
                # per step: two instances of the same signal transition
                # may be structurally independent
                cnf.at_most_one(rise_lits + fall_lits)
                cnf.iff_xor(par_next, par, fired)
            if not self.track_consistency:
                continue
            seen, seen_next = (self._seen_vars[step][s],
                               self._seen_vars[step + 1][s])
            last, last_next = (self._last_vars[step][s],
                               self._last_vars[step + 1][s])
            if fired is None:
                cnf.iff_lit(seen_next, seen)
                cnf.iff_lit(last_next, last)
                continue
            cnf.iff_or(seen_next, [seen, fired])
            # last' = rising fired ? 1 : (falling fired ? 0 : last)
            if fired_rise is not None:
                cnf.implies(fired_rise, last_next)
            if fired_fall is not None:
                cnf.implies(fired_fall, -last_next)
            cnf.add_clause(fired, -last_next, last)
            cnf.add_clause(fired, last_next, -last)
            # two same-direction events without the opposite in between
            if fired_rise is not None:
                violations.append(cnf.new_and([fired_rise, seen, last]))
            if fired_fall is not None:
                violations.append(cnf.new_and([fired_fall, seen, -last]))
        if self.track_consistency:
            self._violation_vars.append(
                self.cnf.new_or(violations) if violations
                else self.cnf.tseitin(("or",)))
        return step

    def _or_lit(self, lits: List[int]) -> Optional[int]:
        if not lits:
            return None
        if len(lits) == 1:
            return lits[0]
        return self.cnf.new_or(lits)

    # ------------------------------------------------------------------ #
    # query literals
    # ------------------------------------------------------------------ #

    def parity_var(self, frame: int, signal: str) -> int:
        """Parity bit of ``signal`` at ``frame``."""
        return self._parity_vars[frame][signal]

    def violation_lit(self, step: int) -> int:
        """Literal: an alternation violation happened in ``step``."""
        if not self.track_consistency:
            raise ModelError("encoding built without track_consistency")
        return self._violation_vars[step]

    def excitation_lit(self, frame: int, signal: str, direction: str) -> int:
        """Literal: some transition of ``signal`` in ``direction`` is
        enabled at ``frame``."""
        group = self._rising if direction == RISE else self._falling
        lits = [self.enabled_lit(frame, t) for t in group[signal]]
        if not lits:
            return self.cnf.tseitin(("or",))  # constant false
        if len(lits) == 1:
            return lits[0]
        return self.cnf.new_or(lits)
