"""A restricted-fan-in gate library (paper, Section 3.4).

The paper's decomposition experiments target a "two inputs gate library":
this module models such a library — combinational cells with at most two
inputs (with optional input bubbles), plus the sequential cells used in
Figure 8 (C-element, RS latch).  Matching is semantic: a gate function is
canonicalised by truth table over its support and looked up.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Dict, List, Optional, Sequence, Tuple

from ..boolmin.expr import BoolExpr
from ..synth.netlist import GateKind, Netlist


@dataclass(frozen=True)
class Cell:
    """A library cell: name, input count, truth table (LSB = all-zero row)."""

    name: str
    ninputs: int
    table: int
    area: float = 1.0


def _table_of(fn, ninputs: int) -> int:
    table = 0
    for i in range(1 << ninputs):
        bits = [(i >> (ninputs - 1 - k)) & 1 for k in range(ninputs)]
        if fn(*bits):
            table |= 1 << i
    return table


TWO_INPUT_LIBRARY: List[Cell] = [
    Cell("buf", 1, _table_of(lambda a: a, 1), 0.5),
    Cell("inv", 1, _table_of(lambda a: 1 - a, 1), 0.5),
    Cell("and2", 2, _table_of(lambda a, b: a & b, 2)),
    Cell("or2", 2, _table_of(lambda a, b: a | b, 2)),
    Cell("nand2", 2, _table_of(lambda a, b: 1 - (a & b), 2)),
    Cell("nor2", 2, _table_of(lambda a, b: 1 - (a | b), 2)),
    Cell("and2b1", 2, _table_of(lambda a, b: a & (1 - b), 2)),
    Cell("or2b1", 2, _table_of(lambda a, b: a | (1 - b), 2)),
    Cell("xor2", 2, _table_of(lambda a, b: a ^ b, 2)),
    Cell("xnor2", 2, _table_of(lambda a, b: 1 - (a ^ b), 2)),
]
"""The paper's two-input combinational library (Figure 9)."""

SEQUENTIAL_CELLS = ["c2", "c2b1", "sr_latch"]
"""Sequential cells assumed available for Figure 8 style implementations."""


def match_combinational(expr: BoolExpr,
                        library: Sequence[Cell] = TWO_INPUT_LIBRARY
                        ) -> Optional[Tuple[Cell, Tuple[str, ...]]]:
    """Match an expression against the library.

    Returns ``(cell, input_signals)`` with inputs ordered to realise the
    function, or None if no cell implements it (support too large or shape
    missing).
    """
    support = sorted(expr.support())
    if len(support) > 2:
        return None
    for inputs in permutations(support):
        table = 0
        n = max(1, len(inputs))
        for i in range(1 << n):
            env = {name: (i >> (n - 1 - k)) & 1
                   for k, name in enumerate(inputs)}
            if not inputs:  # constant
                env = {}
            if expr.eval(env):
                table |= 1 << i
        for cell in library:
            if cell.ninputs == n and cell.table == table:
                return cell, tuple(inputs)
    return None


def map_netlist(netlist: Netlist,
                library: Sequence[Cell] = TWO_INPUT_LIBRARY
                ) -> Dict[str, str]:
    """Map every gate of a netlist to a cell name.

    Combinational gates map through :func:`match_combinational`;
    C-elements map to ``c2``/``c2b1``/generalized (``gc``), SR latches to
    ``sr_latch``.  Gates with more than two inputs map to ``"complex"`` —
    meaning decomposition (Section 3.4) is still required.
    """
    mapping: Dict[str, str] = {}
    for out in sorted(netlist.gates):
        gate = netlist.gates[out]
        if gate.kind == GateKind.COMB:
            hit = match_combinational(gate.expr, library)
            mapping[out] = hit[0].name if hit else "complex"
        elif gate.kind == GateKind.C_ELEMENT:
            ninputs = len(gate.inputs())
            mapping[out] = "c2" if ninputs <= 2 else "gc"
        else:
            mapping[out] = "sr_latch"
    return mapping


def is_fully_mapped(netlist: Netlist,
                    library: Sequence[Cell] = TWO_INPUT_LIBRARY) -> bool:
    """True iff no gate maps to ``"complex"``."""
    return "complex" not in map_netlist(netlist, library).values()
