"""Symbolic (BDD-based) reachability of safe Petri nets — the ``"bdd"``
backend of the unified engine framework (paper, Section 2.2).

This module is no longer a standalone demo: it is one of the engines
behind :func:`repro.ts.builder.build_reachability_graph` (``auto`` /
``compiled`` / ``naive`` / ``bdd``).  It serves two roles:

* **query engine** — :class:`SymbolicReachability` answers questions
  about the state space (``count``, ``find_deadlock``,
  ``safety_violation``, membership) on the characteristic-function
  representation, without ever enumerating markings; the wrappers in
  :mod:`repro.bdd.queries` expose this per model.
* **graph engine** — :meth:`SymbolicReachability.to_transition_system`
  decides 1-safety and the state budget on the fixpoint, then
  materialises the graph with the compiled engine's BFS, so the
  :class:`~repro.ts.transition_system.TransitionSystem` that
  ``build_reachability_graph(engine="bdd")`` returns is bit-identical
  (same states, same arcs, same insertion order) to the ``naive`` and
  ``compiled`` engines.

Two state encodings are provided, mirroring the paper's discussion:

* **naive** — one boolean variable per place ("can be too costly for
  large designs");
* **dense** — the SM-component encoding: each state-machine component of
  an SM cover carries exactly one token, so its marked place is encoded in
  ``ceil(log2(k))`` bits.  For the reduced READ/WRITE net of Figure 6 the
  characteristic function of the reachable markings becomes the constant 1
  — reproduced in the benchmark suite.

The traversal is a least fixpoint on the *frontier set* (only newly
reached markings are passed to the image computation).  The transition
relation is **partitioned**: one small relation per transition over just
the places it touches, so the image quantifies and renames only those
variables and untouched places pass through unchanged.  The monolithic
disjunction the paper describes ("iterative application of the transition
function ... until the fixed point is reached") is kept as
``relation="monolithic"`` for ablation studies.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from .. import obs
from ..budgets import DEFAULT_STATE_BOUND
from ..errors import ModelError, StateExplosionError, UnboundedError
from ..petri.marking import Marking
from ..petri.net import PetriNet
from ..petri.structure import DenseEncoding, SMComponent, sm_cover
from .bdd import BDD, FALSE, TRUE

#: Relation styles accepted by the symbolic engines.
RELATION_STYLES = ("partitioned", "monolithic")


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


#: A partitioned-relation entry: transition name, relation BDD over the
#: touched current/next variables, the touched current variables to
#: quantify, and the primed-to-current rename map.
PartitionedRelation = Tuple[str, int, List[str], Dict[str, str]]


def marking_relation_parts(bdd: BDD, net: PetriNet, transition: str,
                           safe: bool = False) -> Tuple[List[int], List[str]]:
    """The marking part of one transition's relation over place variables.

    Returns ``(literals, touched_places)`` where the literals are the
    enabling cube over current variables plus the post/consumed updates
    over primed variables.  With ``safe=True`` the enabling cube also
    requires every output place outside the preset to be empty — the
    relation then models exactly the 1-safe token game (a would-be unsafe
    firing is simply disabled), which is what the safety decision
    procedure traverses.
    """
    pre = set(net.pre(transition))
    post = set(net.post(transition))
    parts = [bdd.var(p) for p in sorted(pre)]
    if safe:
        parts.extend(bdd.nvar(p) for p in sorted(post - pre))
    for p in sorted(pre | post):
        nxt = p + "'"
        parts.append(bdd.var(nxt) if p in post else bdd.nvar(nxt))
    return parts, sorted(pre | post)


def find_safety_clash(bdd: BDD, net: PetriNet, reached: int,
                      places: Sequence[str]
                      ) -> Optional[Tuple[str, Dict[str, int]]]:
    """First (transition, place-assignment) in ``reached`` whose firing
    would put a second token somewhere, or None.  ``reached`` must be the
    *safe-guarded* fixpoint (see :func:`marking_relation_parts`), so the
    returned marking is genuinely reachable in the real token game."""
    for t in sorted(net.transitions):
        pre = set(net.pre(t))
        extra = sorted(set(net.post(t)) - pre)
        if not extra:
            continue
        enabled = bdd.conj([bdd.var(p) for p in sorted(pre)])
        clash = bdd.apply_and(bdd.apply_and(reached, enabled),
                              bdd.disj([bdd.var(p) for p in extra]))
        if clash != FALSE:
            return t, bdd.pick(clash, places)
    return None


def raise_unsafe(net: PetriNet, transition: str, marking: Marking) -> None:
    """Raise :class:`UnboundedError` with the naive engine's message."""
    offenders = [p for p in sorted(set(net.post(transition)))
                 if marking.get(p) and p not in net.pre(transition)]
    raise UnboundedError(
        "firing %r from %r violates 1-safeness at %r"
        % (transition, marking, offenders))


def _frontier_fixpoint(bdd: BDD, init: int,
                       partitioned: Sequence[PartitionedRelation]) -> int:
    """Least fixpoint of the reachable set by frontier-set image steps.

    Each iteration computes ``Img(frontier) = ∨_t ∃touched_t . frontier ∧
    T_t`` (renamed back to current variables) and extends the reached set
    with it; only the genuinely new part becomes the next frontier.
    """
    reached = init
    frontier = init
    iterations = 0
    while frontier != FALSE:
        iterations += 1
        parts = []
        for _name, relation, current, rename_back in partitioned:
            part = bdd.and_exists(frontier, relation, current)
            if rename_back:
                part = bdd.rename(part, rename_back)
            parts.append(part)
        image = bdd.disj(parts)
        frontier = bdd.apply_and(image, bdd.apply_not(reached))
        reached = bdd.apply_or(reached, image)
    # one call per fixpoint: attaches to the enclosing traversal span
    # (no-op when the obs layer is disabled or no span is active)
    obs.add("image_iterations", iterations)
    return reached


def traced_traversal(name: str, bdd: BDD, compute: Callable[[], int],
                     **tags) -> int:
    """Run one symbolic traversal under an observability span.

    Wraps ``compute()`` in an :func:`repro.obs.span` named ``name`` and
    snapshots the manager's work counters around it: the per-traversal
    ``ite_lookups`` / ``ite_hits`` deltas, the resulting
    ``cache_hit_rate``, and the ``peak_nodes`` gauge (the node table
    only grows, so its size is the peak).  The fixpoint's
    ``image_iterations`` counter lands on the same span via
    :func:`repro.obs.add`.  The manager's :meth:`~repro.bdd.bdd.BDD.stats`
    doubles as the heartbeat progress provider while the traversal runs
    (live node counts for portfolio workers, see
    :mod:`repro.obs.remote`).  Disabled, this is a single boolean check
    plus the plain ``compute()`` call.
    """
    if not obs.enabled():
        return compute()
    lookups = bdd.ite_lookups
    hits = bdd.ite_hits
    with obs.span(name, **tags) as span:
        obs.push_progress(bdd.stats)
        try:
            result = compute()
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

    ``initial`` overrides the net's initial marking (it must be 1-safe and
    mark only known places); ``relation`` selects ``"partitioned"``
    (default) or ``"monolithic"`` image computation.
    """

    def __init__(self, net: PetriNet, place_order: str = "dfs",
                 initial: Optional[Marking] = None,
                 relation: str = "partitioned"):
        if not net.has_ordinary_arcs():
            raise ModelError("symbolic traversal requires arc weights of 1")
        if relation not in RELATION_STYLES:
            raise ModelError("unknown relation style %r (expected one of %s)"
                             % (relation, RELATION_STYLES))
        self.net = net
        self.relation = relation
        if initial is None:
            initial = net.initial_marking
        for p in initial.places():
            if p not in net.places:
                raise ModelError("unknown place %r in initial marking" % p)
        if not initial.is_safe():
            raise ModelError("symbolic traversal requires a 1-safe initial"
                             " marking")
        self.initial = initial
        if place_order == "dfs":
            self.places = structural_place_order(net)
        elif place_order == "sorted":
            self.places = sorted(net.places)
        else:
            raise ModelError("unknown place_order %r" % place_order)
        variables: List[str] = []
        for p in self.places:
            variables.append(p)          # current-state variable
            variables.append(p + "'")    # next-state variable
        self.bdd = BDD(variables)
        self._reached: Optional[int] = None
        self._partitioned: Optional[List[PartitionedRelation]] = None
        self._monolithic: Optional[int] = None
        self._violation: Optional[Tuple[str, Marking]] = None
        self._violation_known = False

    # -- encodings ------------------------------------------------------ #

    def marking_to_bdd(self, marking: Marking) -> int:
        """The characteristic function of a single safe marking."""
        return self.bdd.from_cube(
            {p: 1 if marking.get(p) else 0 for p in self.places}
        )

    def partitioned_relations(self) -> List[PartitionedRelation]:
        """Per-transition relations over just the touched places.

        Each entry is ``(name, T_t, touched_current, rename_back)`` where
        ``T_t = ∧_{p∈pre} x_p ∧ ∧_{p∈post} x'_p ∧ ∧_{p∈pre∖post} ¬x'_p``.
        Untouched places carry no frame constraint — the image computation
        leaves them alone, which is what makes the partitioned traversal
        cheap on nets whose transitions are local (the common case for
        handshake circuits).
        """
        if self._partitioned is not None:
            return self._partitioned
        self._partitioned = self._relations(safe=False)
        return self._partitioned

    def _relations(self, safe: bool) -> List[PartitionedRelation]:
        bdd = self.bdd
        result: List[PartitionedRelation] = []
        for t in sorted(self.net.transitions):
            parts, touched = marking_relation_parts(bdd, self.net, t,
                                                    safe=safe)
            rename_back = {p + "'": p for p in touched}
            result.append((t, bdd.conj(parts), touched, rename_back))
        return result

    def transition_relation(self) -> int:
        """Monolithic relation T(x, x') = ∨_t enabled_t(x) ∧ update_t(x, x')
        with explicit frame constraints for untouched places — the form the
        paper describes; kept for the relation-style ablation."""
        if self._monolithic is not None:
            return self._monolithic
        bdd = self.bdd
        relations = []
        for t, relation, touched, _rename in self.partitioned_relations():
            parts = [relation]
            touched_set = set(touched)
            for p in self.places:
                if p in touched_set:
                    continue
                # frame: x_p' == x_p
                same = bdd.apply_not(bdd.apply_xor(bdd.var(p),
                                                   bdd.var(p + "'")))
                parts.append(same)
            relations.append(bdd.conj(parts))
        self._monolithic = bdd.disj(relations)
        return self._monolithic

    # -- traversal ------------------------------------------------------ #

    def reachable(self) -> int:
        """BDD over the current-state variables of all reachable markings."""
        if self._reached is not None:
            return self._reached

        def compute() -> int:
            bdd = self.bdd
            init = self.marking_to_bdd(self.initial)
            if self.relation == "partitioned":
                return _frontier_fixpoint(bdd, init,
                                          self.partitioned_relations())
            relation = self.transition_relation()
            rename_back = {p + "'": p for p in self.places}
            monolithic = [("*", relation, list(self.places), rename_back)]
            return _frontier_fixpoint(bdd, init, monolithic)

        reached = traced_traversal(
            "bdd.fixpoint", self.bdd, compute, engine="bdd",
            net=self.net.name, encoding="naive", relation=self.relation,
            places=len(self.places))
        self._reached = reached
        return reached

    def count(self) -> int:
        """Number of reachable markings."""
        reached = self.reachable()
        # quantify away primed variables (they are unconstrained in R)
        primed = [p + "'" for p in self.places]
        core = self.bdd.exists(reached, primed)
        return self.bdd.satcount(core) >> len(primed)

    #: Query-style alias: the reachable-marking count without enumeration.
    reachable_count = count

    def bdd_size(self) -> int:
        """Node count of the reachable-set BDD."""
        return self.bdd.size(self.reachable())

    def contains(self, marking: Marking) -> bool:
        """True iff the marking is reachable (membership in the BDD)."""
        env = {p: 1 if marking.get(p) else 0 for p in self.places}
        for p in self.places:
            env[p + "'"] = 0
        return self.bdd.eval(self.reachable(), env) == TRUE

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

        Raises :class:`UnboundedError` for non-1-safe nets (the capped
        symbolic semantics would silently misreport them otherwise).
        """
        self.assert_safe()
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
        the safe-guarded relations (unsafe firings are disabled instead
        of capped), so every visited marking is genuinely reachable; and
        since the first unsafe firing of any run happens from exactly
        such a marking, the test is an exact safety decision procedure.
        On a safe net the guarded fixpoint *is* the reachable set, so the
        extra traversal is reused rather than recomputed.
        """
        if self._violation_known:
            return self._violation
        bdd = self.bdd
        init = self.marking_to_bdd(self.initial)
        safe_reached = traced_traversal(
            "bdd.safety", bdd,
            lambda: _frontier_fixpoint(bdd, init,
                                       self._relations(safe=True)),
            engine="bdd", net=self.net.name)
        clash = find_safety_clash(bdd, self.net, safe_reached, self.places)
        if clash is None:
            self._violation = None
            if self._reached is None:
                # safe net: the guarded and unguarded fixpoints coincide
                self._reached = safe_reached
        else:
            t, assignment = clash
            self._violation = (t, self._marking_of(assignment))
        self._violation_known = True
        return self._violation

    def assert_safe(self) -> None:
        """Raise :class:`UnboundedError` (with the same witness message as
        the naive engine) unless the net is 1-safe from ``initial``."""
        violation = self.safety_violation()
        if violation is not None:
            raise_unsafe(self.net, *violation)

    # -- materialisation ------------------------------------------------ #

    def to_transition_system(self, max_states: int = DEFAULT_STATE_BOUND):
        """Materialise the symbolic fixpoint as an explicit
        :class:`~repro.ts.transition_system.TransitionSystem`.

        The symbolic phase decides the questions that make explicit
        enumeration safe to attempt — 1-safety (:class:`UnboundedError`
        with a witness otherwise) and the state budget
        (:class:`StateExplosionError` *before* any enumeration).  The
        explicit phase is the compiled engine's BFS of
        :mod:`repro.ts.builder`, so the result is bit-identical to the
        ``naive`` and ``compiled`` engines; every marking it enumerates
        is cross-checked against the reachable BDD.
        """
        # deferred: repro.ts.builder imports this module at module level
        from ..ts.builder import _build_compiled

        self.assert_safe()
        total = self.count()
        if total > max_states:
            raise StateExplosionError(
                "reachability graph exceeded %d states (symbolic count: %d)"
                % (max_states, total), bound=max_states, states=total)
        ts = _build_compiled(self.net, self.initial, max_states)
        for marking in ts.states:
            if not self.contains(marking):
                raise ModelError(
                    "internal error: explicit replay reached"
                    " %r outside the symbolic fixpoint" % marking)
        return ts


class DenseSymbolicReachability:
    """Symbolic reachability with the SM-component dense encoding (§2.2)."""

    def __init__(self, net: PetriNet,
                 cover: Optional[List[SMComponent]] = None,
                 relation: str = "partitioned"):
        if relation not in RELATION_STYLES:
            raise ModelError("unknown relation style %r (expected one of %s)"
                             % (relation, RELATION_STYLES))
        self.net = net
        self.relation = relation
        self.encoding = DenseEncoding(net, cover)
        variables: List[str] = []
        for v in self.encoding.variables:
            variables.append(v)
            variables.append(v + "'")
        self.bdd = BDD(variables)
        self._reached: Optional[int] = None
        self._partitioned: Optional[List[PartitionedRelation]] = None

    # -- encodings ------------------------------------------------------ #

    def _cube_to_bdd(self, cube: str, primed: bool) -> int:
        assignment = {}
        for bit, value in enumerate(cube):
            if value == "-":
                continue
            name = self.encoding.variables[bit] + ("'" if primed else "")
            assignment[name] = int(value)
        return self.bdd.from_cube(assignment)

    def marking_to_bdd(self, marking: Marking) -> int:
        """Characteristic function of a marking in the dense encoding."""
        return self._cube_to_bdd(self.encoding.encode(marking), primed=False)

    def partitioned_relations(self) -> List[PartitionedRelation]:
        """Per-transition relations over the dense variables.

        For each SM component the transition consumes from exactly one
        place and produces into exactly one place of the component; bits of
        untouched components are left unconstrained (the image computation
        passes them through, replacing the frame terms of the monolithic
        relation).
        """
        if self._partitioned is not None:
            return self._partitioned
        result: List[PartitionedRelation] = []
        for t in sorted(self.net.transitions):
            pre = set(self.net.pre(t))
            post = set(self.net.post(t))
            parts: List[int] = []
            touched_bits: Set[int] = set()
            for component, bits, codes in self.encoding.groups:
                pre_in = sorted(pre & component.places)
                post_in = sorted(post & component.places)
                if not pre_in and not post_in:
                    continue
                if len(pre_in) != 1 or len(post_in) != 1:
                    raise ModelError(
                        "transition %r does not cross component %r exactly"
                        " once" % (t, sorted(component.places)))
                touched_bits.update(bits)
                parts.append(self._bits_equal(bits, codes[pre_in[0]],
                                              primed=False))
                parts.append(self._bits_equal(bits, codes[post_in[0]],
                                              primed=True))
            touched = [self.encoding.variables[b] for b in
                       sorted(touched_bits)]
            rename_back = {v + "'": v for v in touched}
            result.append((t, self.bdd.conj(parts), touched, rename_back))
        self._partitioned = result
        return result

    def transition_relation(self) -> int:
        """Monolithic dense relation (per-transition disjuncts plus frame
        constraints for the bits of untouched components)."""
        bdd = self.bdd
        relations = []
        for t, relation, touched, _rename in self.partitioned_relations():
            parts = [relation]
            touched_set = set(touched)
            for v in self.encoding.variables:
                if v in touched_set:
                    continue
                same = bdd.apply_not(
                    bdd.apply_xor(bdd.var(v), bdd.var(v + "'")))
                parts.append(same)
            relations.append(bdd.conj(parts))
        return bdd.disj(relations)

    def _bits_equal(self, bits: Sequence[int], code: int, primed: bool) -> int:
        parts = []
        for offset, bit in enumerate(reversed(list(bits))):
            name = self.encoding.variables[bit] + ("'" if primed else "")
            value = (code >> offset) & 1
            parts.append(self.bdd.var(name) if value else self.bdd.nvar(name))
        return self.bdd.conj(parts)

    # -- traversal ------------------------------------------------------ #

    def reachable(self) -> int:
        """BDD of reachable codes over the dense current-state variables."""
        if self._reached is not None:
            return self._reached

        def compute() -> int:
            bdd = self.bdd
            init = self.marking_to_bdd(self.net.initial_marking)
            if self.relation == "partitioned":
                return _frontier_fixpoint(bdd, init,
                                          self.partitioned_relations())
            relation = self.transition_relation()
            rename_back = {v + "'": v for v in self.encoding.variables}
            monolithic = [("*", relation, list(self.encoding.variables),
                           rename_back)]
            return _frontier_fixpoint(bdd, init, monolithic)

        reached = traced_traversal(
            "bdd.fixpoint", self.bdd, compute, engine="bdd",
            net=self.net.name, encoding="dense", relation=self.relation,
            bits=self.encoding.width)
        self._reached = reached
        return reached

    def characteristic_is_constant_true(self) -> bool:
        """The paper's punchline for the reduced READ/WRITE net: with the
        dense encoding the characteristic function of the reachability set
        reduces to the constant 1."""
        primed = [v + "'" for v in self.encoding.variables]
        core = self.bdd.exists(self.reachable(), primed)
        return core == TRUE

    def count(self) -> int:
        """Number of reachable dense codes."""
        primed = [v + "'" for v in self.encoding.variables]
        core = self.bdd.exists(self.reachable(), primed)
        return self.bdd.satcount(core) >> len(primed)

    #: Query-style alias: the reachable-code count without enumeration.
    reachable_count = count

    def bdd_size(self) -> int:
        """Node count of the dense reachable-set BDD."""
        return self.bdd.size(self.reachable())


def symbolic_marking_count(net: PetriNet, encoding: str = "naive") -> int:
    """Convenience: number of reachable markings via symbolic traversal.

    Delegates to :func:`repro.bdd.queries.reachable_count` (so non-1-safe
    nets raise :class:`UnboundedError` rather than being silently
    miscounted).  Note that with the dense encoding the count is over
    *codes*; places sharing code bits may alias if the SM cover's
    components overlap.
    """
    from .queries import reachable_count

    return reachable_count(net, encoding=encoding)
