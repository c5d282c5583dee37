"""Implementation verification: circuit ⊗ environment composition
(paper, Section 2.1 "implementation verification" and Section 3.4).

The closed system is explored explicitly under speed-independent
semantics:

* the **environment** behaves as the STG specification: it may fire any
  enabled *input* transition;
* each **gate** of the netlist is *excited* when its next-value function
  differs from its current output; an excited gate may fire at any time
  (unbounded gate delays);
* when a gate drives an **interface** signal, its firing must be enabled in
  the specification — otherwise the circuit produced an output the
  environment does not expect (**conformance failure**);
* an excited gate whose excitation is *withdrawn* by another event without
  having fired is a **hazard** (a potential glitch) — this is the
  semi-modularity / persistency criterion the paper uses throughout
  (e.g. to reject the decomposition of Figure 9(b)).

Relative-timing assumptions (Section 5) are supported as *priority pairs*
``(early, late)``: in any state where both events are firable, the late
one is pruned — the lazy-transition semantics used for the Figure 11
circuits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..boolmin.expr import BoolExpr, Const, Not, Or, Var
from ..budgets import COMPOSE_STATE_BOUND
from ..errors import StateExplosionError, VerificationError
from ..petri.marking import Marking
from ..stg.signals import FALL, RISE
from ..stg.stg import STG
from ..synth.netlist import Gate, GateKind, Netlist
from ..ts.state_graph import build_state_graph
from ..ts.transition_system import TransitionSystem

CompositionState = Tuple[Marking, Tuple[int, ...]]


@dataclass(frozen=True)
class Hazard:
    """Gate ``signal`` was excited in ``state`` and firing ``by`` withdrew
    the excitation before the gate fired."""

    signal: str
    by: str
    trace: Tuple[str, ...]

    def __str__(self):
        return "hazard on %s: excitation withdrawn by %s (trace: %s)" % (
            self.signal, self.by, " ".join(self.trace) or "<initial>")


@dataclass(frozen=True)
class ConformanceFailure:
    """The circuit fired ``event`` in a state where the specification does
    not allow it."""

    event: str
    trace: Tuple[str, ...]

    def __str__(self):
        return "conformance failure: circuit fired %s unexpectedly" \
            " (trace: %s)" % (self.event, " ".join(self.trace) or "<initial>")


@dataclass
class VerificationReport:
    """Result of composing a netlist with its specification."""

    netlist_name: str
    spec_name: str
    states: int = 0
    hazards: List[Hazard] = field(default_factory=list)
    failures: List[ConformanceFailure] = field(default_factory=list)
    deadlocks: List[CompositionState] = field(default_factory=list)
    ts: Optional[TransitionSystem] = None

    @property
    def hazard_free(self) -> bool:
        return not self.hazards

    @property
    def conformant(self) -> bool:
        return not self.failures

    @property
    def deadlock_free(self) -> bool:
        return not self.deadlocks

    @property
    def ok(self) -> bool:
        """Speed independent and conformant."""
        return self.hazard_free and self.conformant and self.deadlock_free

    def summary(self) -> str:
        """Multi-line human-readable verdict."""
        lines = [
            "Verification of %s against %s" % (self.netlist_name,
                                               self.spec_name),
            "  composed states: %d" % self.states,
            "  conformant:      %s (%d failures)" % (self.conformant,
                                                     len(self.failures)),
            "  hazard-free:     %s (%d hazards)" % (self.hazard_free,
                                                    len(self.hazards)),
            "  deadlock-free:   %s" % self.deadlock_free,
            "  speed-independent implementation: %s" % self.ok,
        ]
        for h in self.hazards[:5]:
            lines.append("    " + str(h))
        for f in self.failures[:5]:
            lines.append("    " + str(f))
        return "\n".join(lines)


def stable_internal_values(netlist: Netlist, values: Dict[str, int],
                           internal: Sequence[str],
                           max_iterations: int = 100) -> Dict[str, int]:
    """Settle internal (non-spec) gate outputs to a stable fixpoint given
    fixed interface values.  Raises VerificationError on oscillation."""
    env = dict(values)
    for name in internal:
        env.setdefault(name, 0)
    for _ in range(max_iterations):
        changed = False
        for name in internal:
            new = netlist.gates[name].next_value(env)
            if new != env[name]:
                env[name] = new
                changed = True
        if not changed:
            return {name: env[name] for name in internal}
    raise VerificationError(
        "internal signals %r do not settle for the initial interface values"
        % list(internal))


def _sop(expr: BoolExpr, bit: Mapping[str, int],
         positive: bool = True) -> List[Tuple[int, int]]:
    """``expr`` (its complement unless ``positive``) as a sum of
    ``(mask, value)`` cubes over a packed value vector: a cube holds for
    ``values`` iff ``values & mask == value``.

    The cover follows the expression's structure: negations are pushed to
    the variables and products are distributed over sums, dropping
    contradictory products.  No truth table is enumerated.
    """
    if isinstance(expr, Const):
        return [(0, 0)] if bool(expr.value) == positive else []
    if isinstance(expr, Var):
        b = bit[expr.name]
        return [(b, b if positive else 0)]
    if isinstance(expr, Not):
        return _sop(expr.arg, bit, not positive)
    parts = [_sop(arg, bit, positive) for arg in expr.args]
    if isinstance(expr, Or) == positive:  # a sum, or a complemented product
        return [cube for part in parts for cube in part]
    product = [(0, 0)]
    for part in parts:
        product = [(m1 | m2, v1 | v2) for m1, v1 in product for m2, v2 in part
                   if not (v1 ^ v2) & m1 & m2]
    return product


def _gate_covers(gate: Gate, bit: Mapping[str, int]):
    """``(set cover, reset cover, reset dominant)`` of a gate over the
    packed value vector.

    A gate with output 0 is excited iff its set cover holds (and, if reset
    dominant, its reset cover does not); with output 1 iff its reset cover
    holds (and, if set dominant, its set cover does not) — the semantics of
    :meth:`Gate.next_value`.  A ``COMB`` gate ``next = f`` is the
    set-dominant latch with set ``f`` and reset 1.
    """
    if gate.kind == GateKind.COMB:
        return _sop(gate.expr, bit), [(0, 0)], False
    return (_sop(gate.set_expr, bit), _sop(gate.reset_expr, bit),
            gate.kind == GateKind.SR_LATCH and gate.dominance == "reset")


def _excitation(values: int, gates) -> int:
    """Mask of the gates excited under a packed value vector: those whose
    next value differs from their output.  ``gates`` holds ``(bit,) +``
    :func:`_gate_covers` per gate."""
    mask = 0
    for b, set_cover, reset_cover, reset_dominant in gates:
        if values & b:
            if any(values & m == v for m, v in reset_cover) and (
                    reset_dominant
                    or not any(values & m == v for m, v in set_cover)):
                mask |= b
        elif any(values & m == v for m, v in set_cover) and not (
                reset_dominant
                and any(values & m == v for m, v in reset_cover)):
            mask |= b
    return mask


def _dependents(gates, bits: Sequence[int]):
    """Per signal bit, the gates whose excitation can change when that
    signal flips: the gates whose covers read it, plus the gate that
    drives it.  ``{bit: (mask, gates)}`` over ``(bit,) +``
    :func:`_gate_covers` tuples, in signal order."""
    result = {}
    for b in bits:
        group = [gate for gate in gates
                 if gate[0] == b or any(m & b for cover in gate[1:3]
                                        for m, _ in cover)]
        mask = 0
        for gate in group:
            mask |= gate[0]
        result[b] = (mask, group)
    return result


def verify_circuit(netlist: Netlist, spec: STG,
                   priorities: Sequence[Tuple[str, str]] = (),
                   initial_internal: Optional[Mapping[str, int]] = None,
                   max_states: int = COMPOSE_STATE_BOUND,
                   stop_at_first: bool = False,
                   keep_ts: bool = False) -> VerificationReport:
    """Explore the circuit ⊗ environment composition and report hazards,
    conformance failures and deadlocks.

    ``priorities`` lists relative-timing assumptions ``(early, late)`` as
    event strings (e.g. ``("LDTACK-", "DSr+")``): whenever both are
    firable, the late one is pruned.

    The environment is the specification's state graph, which lives as
    long as the spec's net, like its compilation: a spec that was
    analysed or synthesised from is not explored again.  A composed state
    is one int, a value vector (bit ``i`` the ``i``-th signal in sorted
    order) above the spec state number.  The environment's moves are the
    spec state's input arcs, and a gate driving an interface signal moves
    along the spec arc of a matching transition.  Each gate is compiled
    once per call into ``(mask, value)`` cubes over the vector: a ``COMB``
    expression is expanded structurally into a sum of products, latch
    gates get their set and reset covers.  The mask of excited gates is
    computed once per distinct value vector, from the predecessor's mask
    by re-evaluating only the gates that read the flipped signal and the
    gate that drives it, and shared by the move generator and the hazard
    check: the hazards of a move are ``before & ~after & ~fired &
    ~arbiters``, reported in signal order.  Deadlocked states and
    ``keep_ts`` nodes are decoded to ``(Marking, values)`` pairs, with the
    values in sorted signal order.

    The netlist must match the specification's interface: every non-input
    signal of the spec is driven by a gate, no spec input is, and every
    netlist input is a spec signal; a mismatch raises
    :class:`VerificationError`.

    Reset values: interface signals start from the specification's
    initial state.  Internal signals take the values the synthesis
    recorded in ``netlist.initial``, overridden by ``initial_internal``,
    whose every key must name an internal signal (a gate output that is
    not a spec signal) or :class:`VerificationError` is raised.  An
    internal signal left without a value is settled by
    :func:`stable_internal_values` (hand-built netlists, decomposition
    temporaries), or raises :class:`VerificationError` when
    ``initial_internal`` was given.
    """
    netlist.validate()
    sg = build_state_graph(spec)
    spec_signals = set(spec.signals)
    internal = [s for s in netlist.gates if s not in spec_signals]
    for s in spec.noninput_signals:
        if s not in netlist.gates:
            raise VerificationError(
                "netlist does not drive specified non-input signal %r" % s)
    for s in spec.inputs:
        if s in netlist.gates:
            raise VerificationError(
                "netlist drives specified input signal %r" % s)
    for s in netlist.inputs:
        if s not in spec_signals:
            raise VerificationError(
                "netlist input %r is not a signal of the specification" % s)
    for s in initial_internal or ():
        if s not in internal:
            raise VerificationError(
                "initial_internal names %r, which is not an internal signal"
                " of the netlist" % s)

    initial_values: Dict[str, int] = {
        s: sg.initial_values[s] for s in spec_signals
    }
    initial_values.update((s, netlist.initial[s]) for s in internal
                          if s in netlist.initial)
    if initial_internal is not None:
        initial_values.update(initial_internal)
        missing = [s for s in internal if s not in initial_values]
        if missing:
            raise VerificationError("missing initial values for %r" % missing)
    else:
        initial_values.update(stable_internal_values(
            netlist, initial_values,
            [s for s in internal if s not in initial_values]))

    signals = sorted(set(netlist.signals()) | spec_signals)
    bit = {s: 1 << i for i, s in enumerate(signals)}
    name_of = {b: s for s, b in bit.items()}
    initial_vector = 0
    for s in signals:
        if initial_values[s]:
            initial_vector |= bit[s]
    gates = [(bit[s],) + _gate_covers(netlist.gates[s], bit)
             for s in sorted(netlist.gates)]
    dependents = _dependents(gates, list(name_of))
    arbiters = 0
    for s, gate in netlist.gates.items():
        if gate.arbiter:
            # mutual-exclusion element halves resolve their conflict
            # internally (paper, Section 2.1): exempt from the hazard check
            arbiters |= bit[s]

    # the environment: spec state numbers below ``shift`` bits of a
    # composed state, the value vector above them
    graph = sg.graph
    spec_arcs = graph.arcs
    shift = len(graph).bit_length()
    low_mask = (1 << shift) - 1
    # spec move tables by transition index: the input transitions and, per
    # gate and direction, the matching transitions (None for internal
    # gates), each in net insertion order
    index_of = {t: i for i, t in enumerate(graph.transitions)}
    spec_events = [(index_of[t], spec.event_of(t))
                   for t in spec.net.transitions]
    input_moves = [
        (t, bit[ev.signal], ev.is_rising, ev.signal + ev.direction)
        for t, ev in spec_events
        if not ev.is_dummy and not spec.type_of(ev.signal).is_noninput
    ]
    match_table: Dict[Tuple[str, str], List[int]] = {}
    for t, ev in spec_events:
        if not ev.is_dummy:
            match_table.setdefault(ev.base(), []).append(t)
    gate_moves = {}
    for s in netlist.gates:
        if s in spec_signals:
            rise = match_table.get((s, RISE), [])
            fall = match_table.get((s, FALL), [])
        else:
            rise = fall = None
        gate_moves[bit[s]] = (s + RISE, rise, s + FALL, fall)

    excitations: Dict[int, int] = {initial_vector: _excitation(
        initial_vector, gates)}

    def decode(state: int) -> CompositionState:
        values = state >> shift
        return (graph.marking(state & low_mask),
                tuple((values >> i) & 1 for i in range(len(signals))))

    initial = initial_vector << shift
    parent: Dict[int, Tuple[Optional[int], str]] = {initial: (None, "")}

    def trace_of(state: int) -> Tuple[str, ...]:
        events: List[str] = []
        cursor = state
        while cursor is not None:
            prev, ev = parent[cursor]
            if prev is not None:
                events.append(ev)
            cursor = prev
        return tuple(reversed(events))

    report = VerificationReport(netlist.name, spec.name)
    report.ts = TransitionSystem(decode(initial)) if keep_ts else None
    stack = [initial]
    seen_hazards: Set[Tuple[int, str, int]] = set()
    while stack:
        state = stack.pop()
        number = state & low_mask
        values = state >> shift
        before = excitations[values]
        successors = dict(spec_arcs[number])
        # the moves (event, successor or None for a failure, fired bit):
        # enabled input transitions of the spec, then excited gates in
        # signal order
        moves = [(event, ((values | b if rising else values & ~b) << shift)
                  | successors[t], b)
                 for t, b, rising, event in input_moves if t in successors]
        bits = before
        while bits:
            b = bits & -bits
            bits ^= b
            rise, rise_matches, fall, fall_matches = gate_moves[b]
            event, matches = (fall, fall_matches) if values & b \
                else (rise, rise_matches)
            flipped = state ^ (b << shift)
            if matches is None:
                moves.append((event, flipped, b))
                continue
            # an interface gate must be matched by an enabled spec
            # transition
            matched = False
            for t in matches:
                j = successors.get(t)
                if j is not None:
                    moves.append((event, flipped ^ number ^ j, b))
                    matched = True
            if not matched:
                moves.append((event, None, b))
        # apply relative-timing priorities
        if priorities:
            present = {ev for ev, _, _ in moves}
            pruned = {late for early, late in priorities
                      if early in present and late in present}
            moves = [m for m in moves if m[0] not in pruned]
        if not moves:
            report.deadlocks.append(decode(state))
            continue
        for event, successor, fired in moves:
            if successor is None:
                report.failures.append(ConformanceFailure(
                    event, trace_of(state)))
                if stop_at_first:
                    report.states = len(parent)
                    return report
                continue
            # hazard check: every gate excited before must stay excited
            # after, unless it is the one that fired
            after_values = successor >> shift
            after = excitations.get(after_values)
            if after is None:
                changed, group = dependents[values ^ after_values]
                after = excitations[after_values] = (
                    before & ~changed) | _excitation(after_values, group)
            withdrawn = before & ~after & ~fired & ~arbiters
            while withdrawn:
                b = withdrawn & -withdrawn
                withdrawn ^= b
                key = (b, event, state)
                if key not in seen_hazards:
                    seen_hazards.add(key)
                    report.hazards.append(Hazard(
                        name_of[b], event, trace_of(state)))
                    if stop_at_first:
                        report.states = len(parent)
                        return report
            if report.ts is not None:
                report.ts.add_arc(decode(state), event, decode(successor))
            if successor not in parent:
                if len(parent) >= max_states:
                    raise StateExplosionError(
                        "composition exceeded %d states" % max_states,
                        bound=max_states, states=len(parent))
                parent[successor] = (state, event)
                stack.append(successor)
    report.states = len(parent)
    return report
