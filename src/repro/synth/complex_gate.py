"""Complex-gate logic synthesis (paper, Section 3.2).

Implements each non-input signal as a single atomic complex gate computing
its minimized next-state function — the architecture for which the paper
quotes the classic result: *any circuit implementing the next-state
function of each signal with only one atomic complex gate is speed
independent*.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..stg.stg import STG
from ..ts.state_graph import build_state_graph
from .netlist import Gate, Netlist
from .nextstate import derive_all_next_state_functions


def synthesize_complex_gates(sg_or_stg, name: Optional[str] = None) -> Netlist:
    """Synthesize a complex-gate netlist from an STG or a prebuilt SG.

    Raises :class:`~repro.errors.CSCError` if the specification violates
    complete state coding (resolve with
    :func:`repro.synth.csc.resolve_csc` first).
    """
    if isinstance(sg_or_stg, STG):
        sg = build_state_graph(sg_or_stg)
    else:
        sg = sg_or_stg
    stg = sg.stg
    netlist = Netlist(name or (stg.name + "_cg"), inputs=stg.inputs)
    for signal, fn in sorted(derive_all_next_state_functions(sg).items()):
        netlist.add(Gate.comb(signal, fn.minimized_expr()))
        netlist.initial[signal] = sg.initial_values[signal]
    netlist.validate()
    return netlist


def equations(sg_or_stg) -> Dict[str, str]:
    """Convenience: signal -> minimized equation string (eqn style)."""
    netlist = synthesize_complex_gates(sg_or_stg)
    return {out: str(g.expr) for out, g in netlist.gates.items()}
