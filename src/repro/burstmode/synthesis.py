"""Burst-mode synthesis with hazard-free two-level logic
(paper Sections 3.3 and 6; refs [22, 28]).

Strategy (the classic Huffman-style flow, restricted to *output-coded*
machines):

* the total state is the vector of input and output values; each abstract
  state must be uniquely identified by its entry code (machines needing
  extra state variables raise :class:`SynthesisError`);
* for every burst-mode arc and every output ``z``, the input burst induces
  a specified multiple-input-change transition of ``f_z`` from the state's
  entry code to the code with the inputs flipped — static if ``z`` is not
  in the output burst, dynamic otherwise;
* while the output burst settles (outputs flip one at a time, in any
  order), every intermediate code adds a single-point stability
  requirement;
* each ``f_z`` is minimized with the exact Nowick–Dill hazard-free
  minimizer; the resulting SOP is realised as one (complex) gate with
  output feedback, exactly like the Section 3 circuits.

A fundamental-mode simulator (:func:`simulate_fundamental_mode`) replays
every specified burst and checks that the circuit settles to the expected
total state.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import SynthesisError
from ..boolmin.expr import from_cubes
from ..boolmin.hazardfree import (
    InputTransition,
    check_cover_hazard_free,
    minimize_hazard_free,
)
from ..synth.netlist import Gate, Netlist
from .machine import BurstModeMachine


def _variables(machine: BurstModeMachine) -> List[str]:
    return machine.inputs + machine.outputs


def _code(values: Dict[str, int], variables: Sequence[str]) -> Tuple[int, ...]:
    return tuple(values[v] for v in variables)


def derive_transitions(machine: BurstModeMachine
                       ) -> Dict[str, List[InputTransition]]:
    """The specified input transitions of each output's next-state
    function.

    Raises :class:`SynthesisError` if two abstract states share an entry
    code (the machine then needs dedicated state variables, which this
    output-coded flow does not add).
    """
    machine.validate()
    variables = _variables(machine)
    entry = machine.state_values()
    codes: Dict[Tuple[int, ...], str] = {}
    for state, values in entry.items():
        code = _code(values, variables)
        if code in codes and codes[code] != state:
            raise SynthesisError(
                "states %r and %r share entry code %s — the machine is not"
                " output-coded; insert state variables first"
                % (codes[code], state, code))
        codes[code] = state

    per_output: Dict[str, List[InputTransition]] = {
        z: [] for z in machine.outputs
    }
    for t in machine.transitions:
        start_values = dict(entry[t.source])
        mid_values = dict(start_values)
        for signal, direction in t.input_burst:
            mid_values[signal] = 1 if direction == "+" else 0
        start = _code(start_values, variables)
        mid = _code(mid_values, variables)
        flipped = {signal for signal, _ in t.output_burst}
        for z in machine.outputs:
            old = start_values[z]
            new = 1 - old if z in flipped else old
            per_output[z].append(InputTransition(start, mid, old, new))
        # output-burst settling: every interleaving prefix of the output
        # burst must be a stable point of every function
        for k in range(len(flipped) + 1):
            for subset in itertools.combinations(sorted(flipped), k):
                point_values = dict(mid_values)
                for signal in subset:
                    point_values[signal] = 1 - point_values[signal]
                point = _code(point_values, variables)
                for z in machine.outputs:
                    target = (1 - start_values[z]) if z in flipped \
                        else start_values[z]
                    per_output[z].append(
                        InputTransition(point, point, target, target))
    # every state entry code must be a stable point as well
    for state, values in entry.items():
        point = _code(values, variables)
        for z in machine.outputs:
            v = values[z]
            per_output[z].append(InputTransition(point, point, v, v))
    return per_output


def synthesize_burst_mode(machine: BurstModeMachine,
                          name: Optional[str] = None) -> Netlist:
    """Hazard-free two-level implementation of an output-coded burst-mode
    machine: one SOP gate (with output feedback) per output signal."""
    variables = _variables(machine)
    per_output = derive_transitions(machine)
    netlist = Netlist(name or (machine.name + "_bm"),
                      inputs=machine.inputs)
    for z in machine.outputs:
        cover = minimize_hazard_free(per_output[z], len(variables))
        problems = check_cover_hazard_free(cover, per_output[z])
        if problems:
            raise SynthesisError("cover for %r not hazard-free: %s"
                                 % (z, problems[:3]))
        netlist.add(Gate.comb(z, from_cubes(cover, variables)))
    netlist.validate()
    return netlist


def simulate_fundamental_mode(machine: BurstModeMachine,
                              netlist: Netlist,
                              max_settle: int = 50) -> List[str]:
    """Replay every reachable burst in fundamental mode.

    For each abstract state and outgoing arc: apply the input burst, let
    the gates settle (round-robin evaluation), and compare the settled
    outputs with the machine's target state.  Returns a list of
    discrepancy descriptions (empty = the circuit implements the machine).
    """
    entry = machine.state_values()
    problems: List[str] = []
    for state in sorted(machine.reachable_states()):
        for t in machine.outgoing(state):
            env = dict(entry[state])
            for signal, direction in t.input_burst:
                env[signal] = 1 if direction == "+" else 0
            settled = False
            for _ in range(max_settle):
                changed = False
                for z in machine.outputs:
                    new = netlist.gates[z].next_value(env)
                    if new != env[z]:
                        env[z] = new
                        changed = True
                if not changed:
                    settled = True
                    break
            if not settled:
                problems.append("oscillation after burst %s in state %s"
                                % (sorted(t.input_burst), state))
                continue
            expected = entry[t.target]
            for z in machine.outputs:
                if env[z] != expected[z]:
                    problems.append(
                        "state %s, burst %s: output %s settled to %d,"
                        " expected %d" % (state, sorted(t.input_burst),
                                          z, env[z], expected[z]))
    return problems
