"""Symbolic (BDD-based) reachability of safe Petri nets (paper,
Section 2.2).

The package's query engine: :class:`SymbolicReachability` answers
questions about the state space (``count``, ``find_deadlock``,
``safety_violation``, membership) on the characteristic-function
representation, without ever enumerating markings; the wrappers in
:mod:`repro.bdd.queries` expose this per model.  When the graph itself is
needed, :func:`repro.ts.builder.build_reachability_graph` enumerates it
explicitly.

Two state encodings are provided, mirroring the paper's discussion:

* **naive** — one boolean variable per place ("can be too costly for
  large designs");
* **dense** — the SM-component encoding: each state-machine component of
  an SM cover carries exactly one token, so its marked place is encoded in
  ``ceil(log2(k))`` bits.  For the reduced READ/WRITE net of Figure 6 the
  characteristic function of the reachable markings becomes the constant 1
  — reproduced in the benchmark suite.

Every traversal is one least fixpoint over current-state variables
only.  Each transition is a *cube update* (:meth:`repro.bdd.bdd.BDD.image`):
its enabling cube is a cofactor and its effect sets the touched
variables, so untouched places pass through and no next-state variables,
renaming or relational product are needed.  Transitions fire in
*chaining* order (Pastor, Cortadella and Roig, "Symbolic analysis of
bounded Petri nets", IEEE Trans. Computers 50(5), 2001): within one
iteration the states a transition reaches feed the transitions after it,
so far fewer iterations than BFS layers are needed.  The naive update is
safe-guarded — a firing that would put a second token on a place is
disabled — so the fixpoint is exactly the 1-safe token game, and it
doubles as the 1-safety decision procedure.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..errors import ModelError, UnboundedError
from ..petri.marking import Marking
from ..petri.net import PetriNet
from ..petri.structure import DenseEncoding
from .bdd import BDD, FALSE, TRUE, CubeUpdate


def structural_place_order(net: PetriNet) -> List[str]:
    """Variable-ordering heuristic: DFS over the net graph from the
    initially marked places, so that tightly coupled places (e.g. the four
    places of one handshake) get adjacent BDD variables.  Variable order is
    the single biggest lever on BDD size (Bryant); the benchmark suite
    demonstrates the gap against the naive sorted order."""
    order: List[str] = []
    seen = set()
    roots = sorted(p for p in net.places if net.places[p].tokens) or \
        sorted(net.places)
    stack = list(reversed(roots))
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        if node in net.places:
            order.append(node)
        neighbours = sorted(net.postset(node)) + sorted(net.preset(node))
        stack.extend(reversed([n for n in neighbours if n not in seen]))
    for p in sorted(net.places):
        if p not in seen:
            order.append(p)
    return order


def marking_update(net: PetriNet, transition: str
                   ) -> Dict[str, Tuple[Optional[int], int]]:
    """The safe-guarded cube update of one transition over place variables.

    Every input place must be marked and every output place outside the
    preset must be empty; afterwards the output places are marked and
    the other input places empty.  The update thus models exactly the
    1-safe token game — a would-be unsafe firing is disabled, not capped
    — which is what the safety decision procedure traverses.  Entries are
    ``{place: (required, new)}`` for :meth:`repro.bdd.bdd.BDD.cube_update`.
    """
    pre = set(net.pre(transition))
    post = set(net.post(transition))
    return {p: (1 if p in pre else 0, 1 if p in post else 0)
            for p in pre | post}


def chained_fixpoint(bdd: BDD, init: int,
                     updates: Sequence[CubeUpdate]) -> int:
    """Least fixpoint of the reachable set, firing in chaining order.

    Each iteration applies every update, in order, to the frontier; the
    states an update adds join the frontier at once, so the updates after
    it fire from them within the same iteration.  Everything an iteration
    added is the next frontier.
    """
    reached = init
    frontier = init
    iterations = 0
    while frontier != FALSE:
        iterations += 1
        before = reached
        for update in updates:
            new = bdd.ite(reached, FALSE, bdd.image(frontier, update))
            if new != FALSE:
                reached = bdd.apply_or(reached, new)
                frontier = bdd.apply_or(frontier, new)
        frontier = bdd.ite(before, FALSE, reached)
    # one call per fixpoint: attaches to the enclosing traversal span
    # (no-op when the obs layer is disabled or no span is active)
    obs.add("image_iterations", iterations)
    return reached


def traced_traversal(bdd: BDD, init: int, updates: Sequence[CubeUpdate],
                     **tags) -> int:
    """Run :func:`chained_fixpoint` under the ``bdd.fixpoint`` span.

    Every traversal of the package — naive, dense and CSC — runs through
    here, so one span name covers them all.  The span snapshots the
    manager's work counters around the fixpoint: the per-traversal
    ``ite_lookups`` / ``ite_hits`` deltas, the resulting
    ``cache_hit_rate``, and the ``peak_nodes`` gauge (the node table
    only grows, so its size is the peak).  The fixpoint's
    ``image_iterations`` counter lands on the same span via
    :func:`repro.obs.add`.  The manager's :meth:`~repro.bdd.bdd.BDD.stats`
    doubles as the heartbeat progress provider while the traversal runs
    (live node counts for portfolio workers, see
    :mod:`repro.obs.remote`).  Disabled, this is a single boolean check
    plus the plain fixpoint call.
    """
    if not obs.enabled():
        return chained_fixpoint(bdd, init, updates)
    lookups = bdd.ite_lookups
    hits = bdd.ite_hits
    with obs.span("bdd.fixpoint", **tags) as span:
        obs.push_progress(bdd.stats)
        try:
            result = chained_fixpoint(bdd, init, updates)
        finally:
            obs.pop_progress()
        d_lookups = bdd.ite_lookups - lookups
        d_hits = bdd.ite_hits - hits
        span.add("ite_lookups", d_lookups)
        span.add("ite_hits", d_hits)
        span.set_gauge("cache_hit_rate",
                       d_hits / d_lookups if d_lookups else 0.0)
        span.set_gauge("peak_nodes", bdd.node_count())
        span.set_gauge("result_nodes", bdd.size(result))
    return result


class SymbolicReachability:
    """Symbolic reachability with the naive one-variable-per-place encoding.

    The traversal starts from the net's initial marking, which must be
    1-safe.  It is safe-guarded: on a net that is not 1-safe every query
    raises :class:`UnboundedError`, except :meth:`safety_violation`,
    which returns the witness.  :class:`repro.bdd.queries.SymbolicCSC`
    extends the state (:meth:`_extra_state`, :meth:`transition_update`).
    """

    #: The ``encoding`` tag of the ``bdd.fixpoint`` span.
    ENCODING = "naive"

    def __init__(self, net: PetriNet, place_order: str = "dfs"):
        if not net.has_ordinary_arcs():
            raise ModelError("symbolic traversal requires arc weights of 1")
        if not net.initial_marking.is_safe():
            raise ModelError("symbolic traversal requires a 1-safe initial"
                             " marking")
        self.net = net
        if place_order == "dfs":
            self.places = structural_place_order(net)
        elif place_order == "sorted":
            self.places = sorted(net.places)
        else:
            raise ModelError("unknown place_order %r" % place_order)
        self._extra = self._extra_state()
        self.bdd = BDD(self.places + list(self._extra))
        self._reached: Optional[int] = None
        self._violation: Optional[Tuple[str, Marking]] = None
        self._violation_known = False

    # -- encodings ------------------------------------------------------ #

    def _extra_state(self) -> Dict[str, int]:
        """Variables after the places, with their initial values."""
        return {}

    def _cube(self, marking: Marking) -> Dict[str, int]:
        return {p: 1 if marking.get(p) else 0 for p in self.places}

    def marking_to_bdd(self, marking: Marking) -> int:
        """The characteristic function of a single safe marking."""
        return self.bdd.from_cube(self._cube(marking))

    def transition_update(self, transition: str) -> CubeUpdate:
        """One transition's safe-guarded cube update (see
        :func:`marking_update`)."""
        return self.bdd.cube_update(marking_update(self.net, transition))

    # -- traversal ------------------------------------------------------ #

    def _fixpoint(self) -> int:
        """The safe-guarded fixpoint: every state of the 1-safe token
        game (the whole reachable set when the net is 1-safe)."""
        if self._reached is None:
            bdd = self.bdd
            init = bdd.from_cube({**self._cube(self.net.initial_marking),
                                  **self._extra})
            updates = [self.transition_update(t)
                       for t in sorted(self.net.transitions)]
            self._reached = traced_traversal(
                bdd, init, updates, engine="bdd", net=self.net.name,
                encoding=self.ENCODING, places=len(self.places))
        return self._reached

    def reachable(self) -> int:
        """BDD over the state variables of all reachable states.

        Raises :class:`UnboundedError` (the naive engine's witness
        message) unless the net is 1-safe.
        """
        self.assert_safe()
        return self._fixpoint()

    def count(self) -> int:
        """Number of reachable markings."""
        return self.bdd.satcount(self.reachable())

    def bdd_size(self) -> int:
        """Node count of the reachable-set BDD."""
        return self.bdd.size(self.reachable())

    def contains(self, marking: Marking) -> bool:
        """True iff the marking is reachable (membership in the BDD)."""
        return self.bdd.eval(self.reachable(), self._cube(marking)) == TRUE

    def deadlocks(self) -> int:
        """BDD of reachable dead markings."""
        bdd = self.bdd
        enabled_any = bdd.disj([
            bdd.conj([bdd.var(p) for p in self.net.pre(t)])
            for t in sorted(self.net.transitions)
        ])
        return bdd.apply_and(self.reachable(), bdd.apply_not(enabled_any))

    # -- query variants (no materialisation) ---------------------------- #

    def _marking_of(self, assignment: Dict[str, int]) -> Marking:
        return Marking({p: 1 for p in self.places if assignment.get(p)})

    def find_deadlock(self) -> Optional[Marking]:
        """One reachable dead marking, or None if the net is deadlock-free.

        Raises :class:`UnboundedError` for non-1-safe nets.
        """
        dead = self.deadlocks()
        if dead == FALSE:
            return None
        return self._marking_of(self.bdd.pick(dead, self.places))

    def safety_violation(self) -> Optional[Tuple[str, Marking]]:
        """A 1-safeness violation witness, or None if the net is safe.

        Returns ``(transition, marking)`` where ``marking`` is reachable
        *in the real token game* and enables ``transition`` while some
        output place outside its preset is already marked — firing would
        put a second token there.  The traversal behind the answer uses
        the safe-guarded updates (unsafe firings are disabled instead
        of capped), so every visited marking is genuinely reachable; and
        since the first unsafe firing of any run happens from exactly
        such a marking, the test is an exact safety decision procedure.
        On a safe net the guarded fixpoint *is* the reachable set, which
        every other query reads.
        """
        if not self._violation_known:
            bdd, net, reached = self.bdd, self.net, self._fixpoint()
            for t in sorted(net.transitions):
                pre = set(net.pre(t))
                extra = sorted(set(net.post(t)) - pre)
                if not extra:
                    continue
                enabling = bdd.cube_update({p: (1, 1) for p in pre})
                clash = bdd.apply_and(bdd.image(reached, enabling),
                                      bdd.disj([bdd.var(p) for p in extra]))
                if clash != FALSE:
                    self._violation = (
                        t, self._marking_of(bdd.pick(clash, self.places)))
                    break
            self._violation_known = True
        return self._violation

    def assert_safe(self) -> None:
        """Raise :class:`UnboundedError` (with the same witness message as
        the naive engine) unless the net is 1-safe."""
        violation = self.safety_violation()
        if violation is not None:
            t, marking = violation
            offenders = [p for p in sorted(set(self.net.post(t)))
                         if marking.get(p) and p not in self.net.pre(t)]
            raise UnboundedError(
                "firing %r from %r violates 1-safeness at %r"
                % (t, marking, offenders))


class DenseSymbolicReachability:
    """Symbolic reachability with the SM-component dense encoding (§2.2),
    over the net's SM cover (:func:`repro.petri.structure.sm_cover`)."""

    def __init__(self, net: PetriNet):
        if not net.has_ordinary_arcs():
            raise ModelError("symbolic traversal requires arc weights of 1")
        self.net = net
        self.encoding = DenseEncoding(net)
        self.bdd = BDD(self.encoding.variables)
        self._reached: Optional[int] = None

    # -- encodings ------------------------------------------------------ #

    def marking_to_bdd(self, marking: Marking) -> int:
        """Characteristic function of a marking in the dense encoding."""
        cube = self.encoding.encode(marking)
        return self.bdd.from_cube({self.encoding.variables[bit]: int(value)
                                   for bit, value in enumerate(cube)
                                   if value != "-"})

    def transition_update(self, transition: str) -> CubeUpdate:
        """One transition's cube update over the dense variables.

        In each SM component it touches, the transition consumes from
        exactly one place and produces into exactly one place: the
        component's bits must hold the input place's code and are set to
        the output place's code.  Bits of untouched components pass
        through.
        """
        pre = set(self.net.pre(transition))
        post = set(self.net.post(transition))
        entries: Dict[str, Tuple[Optional[int], int]] = {}
        for component, bits, codes in self.encoding.groups:
            pre_in = sorted(pre & component.places)
            post_in = sorted(post & component.places)
            if not pre_in and not post_in:
                continue
            if len(pre_in) != 1 or len(post_in) != 1:
                raise ModelError(
                    "transition %r does not cross component %r exactly"
                    " once" % (transition, sorted(component.places)))
            source, target = codes[pre_in[0]], codes[post_in[0]]
            for offset, bit in enumerate(reversed(bits)):
                entries[self.encoding.variables[bit]] = (
                    (source >> offset) & 1, (target >> offset) & 1)
        return self.bdd.cube_update(entries)

    # -- traversal ------------------------------------------------------ #

    def reachable(self) -> int:
        """BDD of reachable codes over the dense variables."""
        if self._reached is None:
            bdd = self.bdd
            init = self.marking_to_bdd(self.net.initial_marking)
            updates = [self.transition_update(t)
                       for t in sorted(self.net.transitions)]
            self._reached = traced_traversal(
                bdd, init, updates, engine="bdd", net=self.net.name,
                encoding="dense", bits=self.encoding.width)
        return self._reached

    def characteristic_is_constant_true(self) -> bool:
        """The paper's punchline for the reduced READ/WRITE net: with the
        dense encoding the characteristic function of the reachability set
        reduces to the constant 1."""
        return self.reachable() == TRUE

    def count(self) -> int:
        """Number of reachable dense codes."""
        return self.bdd.satcount(self.reachable())

    def bdd_size(self) -> int:
        """Node count of the dense reachable-set BDD."""
        return self.bdd.size(self.reachable())

