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
from ..petri.compiled import compile_net, supports_compilation
from ..petri.marking import Marking
from ..petri.token_game import enabled_unchecked, fire
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

    A composed state is two ints: the specification marking as the
    compiled engine's code, and a value vector whose bit ``i`` is the
    ``i``-th signal in sorted order.  When the spec net is outside the
    compiled domain (:func:`~repro.petri.compiled.supports_compilation`),
    the dict token game plays the marking half instead.  Each gate is
    compiled once per call into ``(mask, value)`` cubes over the vector:
    a ``COMB`` expression is expanded structurally into a sum of products,
    latch gates get their set and reset covers.  The mask of excited gates
    is computed once per distinct value vector and shared by the move
    generator and the hazard check: the hazards of a move are
    ``before & ~after & ~fired & ~arbiters``, reported in signal order.
    Deadlocked states and ``keep_ts`` nodes are decoded to ``(Marking,
    values)`` pairs, with the values in sorted signal order.

    Reset values: interface signals start from the specification's
    initial state.  Internal signals take the values the synthesis
    recorded in ``netlist.initial``, overridden by ``initial_internal``.
    An internal signal left without a value is settled by
    :func:`stable_internal_values` (hand-built netlists, decomposition
    temporaries), or raises :class:`VerificationError` when
    ``initial_internal`` was given.
    """
    netlist.validate()
    # only the interface's initial values are read: the spec graph is
    # dropped here, before the composition is explored
    spec_values = build_state_graph(spec).initial_values
    spec_signals = set(spec.signals)
    internal = [s for s in netlist.gates if s not in spec_signals]
    for s in spec.noninput_signals:
        if s not in netlist.gates:
            raise VerificationError(
                "netlist does not drive specified non-input signal %r" % s)

    initial_values: Dict[str, int] = {
        s: spec_values[s] for s in spec_signals
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
    arbiters = 0
    for s, gate in netlist.gates.items():
        if gate.arbiter:
            # mutual-exclusion element halves resolve their conflict
            # internally (paper, Section 2.1): exempt from the hazard check
            arbiters |= bit[s]

    # the marking half: compiled codes, or the dict token game outside the
    # compiled domain.  step() returns the successor, None when disabled.
    spec_net = spec.net
    if supports_compilation(spec_net):
        compiled = compile_net(spec_net)
        root = compiled.encode(spec.initial_marking)
        transition_key = compiled.transition_bit.__getitem__
        decode_marking = compiled.decode
        pre_masks = compiled.pre_masks

        def step(code: int, index: int):
            pre = pre_masks[index]
            if code & pre != pre:
                return None
            successor, conflict = compiled.fire_index(code, index)
            if conflict:
                # cannot happen for a spec whose state graph was built with
                # require_safe=True (every composition marking is
                # spec-reachable); fail loudly rather than truncate
                raise compiled.unbounded_error(code, index, conflict)
            return successor
    else:
        root = spec.initial_marking

        def transition_key(t):
            return t

        def decode_marking(marking):
            return marking

        def step(marking: Marking, t: str):
            if not enabled_unchecked(spec_net, marking, t):
                return None
            return fire(spec_net, marking, t, check=False)

    # spec-net move tables, resolved once instead of per composed state:
    # input transitions (net insertion order) and, per gate and direction,
    # the matching spec transitions (None for internal gates).
    spec_events = [(t, spec.event_of(t)) for t in spec_net.transitions]
    input_moves = [
        (transition_key(t), bit[ev.signal], ev.is_rising,
         ev.signal + ev.direction)
        for t, ev in spec_events
        if not ev.is_dummy and not spec.type_of(ev.signal).is_noninput
    ]
    match_table: Dict[Tuple[str, str], List] = {}
    for t, ev in spec_events:
        if not ev.is_dummy:
            match_table.setdefault(ev.base(), []).append(transition_key(t))
    gate_moves = {}
    for s in netlist.gates:
        if s in spec_signals:
            rise = match_table.get((s, RISE), [])
            fall = match_table.get((s, FALL), [])
        else:
            rise = fall = None
        gate_moves[bit[s]] = (s + RISE, rise, s + FALL, fall)

    excitations: Dict[int, int] = {}

    def excited(values: int) -> int:
        mask = excitations.get(values)
        if mask is None:
            mask = excitations[values] = _excitation(values, gates)
        return mask

    def moves(state, excited_now: int):
        """(event, successor or None for a failure, fired signal's bit)."""
        marking, values = state
        result = []
        # environment moves: enabled input transitions of the spec
        for key, b, rising, event in input_moves:
            successor = step(marking, key)
            if successor is not None:
                result.append((event, (successor, values | b if rising
                                       else values & ~b), b))
        # gate moves, in signal order
        bits = excited_now
        while bits:
            b = bits & -bits
            bits ^= b
            rise, rise_matches, fall, fall_matches = gate_moves[b]
            event, matches = (fall, fall_matches) if values & b \
                else (rise, rise_matches)
            flipped = values ^ b
            if matches is None:
                result.append((event, (marking, flipped), b))
                continue
            # an interface gate must be matched by an enabled spec
            # transition
            matched = False
            for key in matches:
                successor = step(marking, key)
                if successor is not None:
                    result.append((event, (successor, flipped), b))
                    matched = True
            if not matched:
                result.append((event, None, b))
        # apply relative-timing priorities
        if priorities:
            present = {ev for ev, _, _ in result}
            pruned = {late for early, late in priorities
                      if early in present and late in present}
            result = [m for m in result if m[0] not in pruned]
        return result

    def decode(state) -> CompositionState:
        marking, values = state
        return (decode_marking(marking),
                tuple((values >> i) & 1 for i in range(len(signals))))

    initial = (root, initial_vector)
    parent: Dict[Tuple, Tuple[Optional[Tuple], str]] = {initial: (None, "")}

    def trace_of(state) -> Tuple[str, ...]:
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
    seen_hazards: Set[Tuple[int, str, Tuple]] = set()
    while stack:
        state = stack.pop()
        before = excited(state[1])
        state_moves = moves(state, before)
        if not state_moves:
            report.deadlocks.append(decode(state))
            continue
        for event, successor, fired in state_moves:
            if successor is None:
                report.failures.append(ConformanceFailure(
                    event, trace_of(state)))
                if stop_at_first:
                    report.states = len(parent)
                    return report
                continue
            # hazard check: every gate excited before must stay excited
            # after, unless it is the one that fired
            withdrawn = before & ~excited(successor[1]) & ~fired & ~arbiters
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
