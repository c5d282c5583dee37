"""Burst-mode machines (paper, Section 6, ref [28]).

"Burst-mode machines work under the so-called fundamental mode assumption,
i.e. after each burst of input events accepted by the system, the
environment allows the circuit to stabilize before reacting to the output
events.  This assumption is realistic for many applications and enables
the utilization of combinational logic minimization methods for
synchronous circuits with ad-hoc extensions to prevent hazardous
behavior."

A machine is a graph of abstract states; each arc carries an *input burst*
(a non-empty set of input signal edges) and an *output burst* (a possibly
empty set of output edges).  Well-formedness (checked by
:meth:`BurstModeMachine.validate`):

* signal values are consistent along every path (edges alternate);
* the **maximal set property**: no input burst leaving a state is a
  subset of another one leaving the same state (otherwise the machine
  could not tell whether the burst is complete);
* determinism: at most one arc per (state, input burst).

Synthesis (:func:`repro.burstmode.synthesis.synthesize_burst_mode`) uses
the hazard-free minimizer of :mod:`repro.boolmin.hazardfree`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..errors import ModelError

Burst = FrozenSet[Tuple[str, str]]  # {(signal, "+"|"-"), ...}


def burst(*edges: str) -> Burst:
    """Parse ``burst("a+", "b-")`` into a burst value."""
    result = set()
    for edge in edges:
        signal, direction = edge[:-1], edge[-1]
        if direction not in "+-" or not signal:
            raise ModelError("bad burst edge %r" % edge)
        result.add((signal, direction))
    return frozenset(result)


def format_burst(b: Burst) -> str:
    """Human-readable rendering of a burst."""
    return " ".join(sorted(s + d for s, d in b)) or "(empty)"


@dataclass(frozen=True)
class BMTransition:
    """A burst-mode arc: on ``input_burst``, emit ``output_burst`` and move."""

    source: str
    input_burst: Burst
    output_burst: Burst
    target: str


class BurstModeMachine:
    """A burst-mode specification."""

    def __init__(self, name: str, inputs: Iterable[str],
                 outputs: Iterable[str], initial_state: str,
                 initial_values: Optional[Dict[str, int]] = None):
        self.name = name
        self.inputs = sorted(inputs)
        self.outputs = sorted(outputs)
        self.initial_state = initial_state
        self.initial_values = {s: 0 for s in self.inputs + self.outputs}
        if initial_values:
            self.initial_values.update(initial_values)
        self.transitions: List[BMTransition] = []
        self.states: Set[str] = {initial_state}

    def add_transition(self, source: str, input_burst_edges: Iterable[str],
                       output_burst_edges: Iterable[str],
                       target: str) -> BMTransition:
        """Add an arc; bursts are given as edge strings (``"a+"``)."""
        t = BMTransition(source, burst(*input_burst_edges),
                         burst(*output_burst_edges), target)
        if not t.input_burst:
            raise ModelError("input burst of %s -> %s must be non-empty"
                             % (source, target))
        for signal, _ in t.input_burst:
            if signal not in self.inputs:
                raise ModelError("%r is not an input" % signal)
        for signal, _ in t.output_burst:
            if signal not in self.outputs:
                raise ModelError("%r is not an output" % signal)
        self.transitions.append(t)
        self.states.add(source)
        self.states.add(target)
        return t

    # ------------------------------------------------------------------ #
    # semantics
    # ------------------------------------------------------------------ #

    def outgoing(self, state: str) -> List[BMTransition]:
        """Arcs leaving a state."""
        return [t for t in self.transitions if t.source == state]

    def state_values(self) -> Dict[str, Dict[str, int]]:
        """Signal values on entry to each reachable state.

        Propagated from the initial state; raises :class:`ModelError` on
        inconsistency (a signal entering a state with two different
        values via different paths, or a burst edge with wrong polarity).
        """
        values: Dict[str, Dict[str, int]] = {
            self.initial_state: dict(self.initial_values)
        }
        worklist = [self.initial_state]
        while worklist:
            state = worklist.pop()
            env = values[state]
            for t in self.outgoing(state):
                after = dict(env)
                for signal, direction in sorted(t.input_burst | t.output_burst):
                    expected = 0 if direction == "+" else 1
                    if after[signal] != expected:
                        raise ModelError(
                            "polarity error: %s%s leaving state %s where"
                            " %s=%d" % (signal, direction, state, signal,
                                        after[signal]))
                    after[signal] = 1 - expected
                if t.target in values:
                    if values[t.target] != after:
                        raise ModelError(
                            "state %r entered with inconsistent values"
                            % t.target)
                else:
                    values[t.target] = after
                    worklist.append(t.target)
        return values

    def validate(self) -> None:
        """Check polarity consistency, the maximal set property and
        determinism."""
        self.state_values()
        for state in sorted(self.states):
            arcs = self.outgoing(state)
            for i, a in enumerate(arcs):
                for b in arcs[i + 1:]:
                    if a.input_burst == b.input_burst:
                        raise ModelError(
                            "state %r is nondeterministic on burst %s"
                            % (state, format_burst(a.input_burst)))
                    if a.input_burst < b.input_burst or \
                            b.input_burst < a.input_burst:
                        raise ModelError(
                            "maximal set property violated in state %r:"
                            " burst %s is a subset of %s"
                            % (state, format_burst(
                                min(a.input_burst, b.input_burst, key=len)),
                               format_burst(
                                max(a.input_burst, b.input_burst, key=len))))

    def reachable_states(self) -> Set[str]:
        """States reachable from the initial state."""
        return set(self.state_values())

    def __repr__(self):
        return "BurstModeMachine(%r, states=%d, transitions=%d)" % (
            self.name, len(self.states), len(self.transitions))
