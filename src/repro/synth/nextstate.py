"""Next-state function derivation (paper, Section 3.2).

For each non-input signal ``z`` the states of the SG are classified into
excitation regions ``ER(z+)``, ``ER(z-)`` and quiescent regions ``QR(z+)``,
``QR(z-)``; the next-state function is::

    f_z(s) = 1  if s in ER(z+) | QR(z+)
             0  if s in ER(z-) | QR(z-)
             -  if the code s corresponds to no state (don't care)

If the same binary code requires both 1 and 0 the function is ill-defined:
that is precisely a CSC conflict and raises :class:`~repro.errors.CSCError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..errors import CSCError
from ..boolmin.cube import Cube, minterm_to_int
from ..boolmin.expr import BoolExpr, from_cubes
from ..boolmin.quine_mccluskey import minimize
from ..ts.state_graph import StateGraph


@dataclass
class NextStateFunction:
    """An incompletely specified function over the SG's signal codes.

    Minterm integers use the SG's ``signal_order`` with the first signal as
    the most significant bit.
    """

    signal: str
    variables: List[str]
    onset: Set[int] = field(default_factory=set)
    offset: Set[int] = field(default_factory=set)

    @property
    def width(self) -> int:
        return len(self.variables)

    @property
    def dcset(self) -> Set[int]:
        """Codes not reachable in the SG: the don't-cares of the Section
        3.2 table.  Minimisation does not read this set; it takes the ON
        and OFF codes and leaves every other code free."""
        universe = set(range(1 << self.width))
        return universe - self.onset - self.offset

    def value(self, code: Tuple[int, ...]) -> Optional[int]:
        """1, 0 or None (don't-care) for a binary code."""
        m = minterm_to_int(code)
        if m in self.onset:
            return 1
        if m in self.offset:
            return 0
        return None

    def minimized_cubes(self) -> List[Cube]:
        """Minimal SOP cover (every code outside ON and OFF is free)."""
        return minimize(sorted(self.onset), sorted(self.offset), self.width)

    def minimized_expr(self) -> BoolExpr:
        """Minimal SOP as a boolean expression over the signal names."""
        return from_cubes(self.minimized_cubes(), self.variables)


def derive_next_state_function(sg: StateGraph, signal: str) -> NextStateFunction:
    """Derive ``f_signal`` from the state graph.

    Raises :class:`CSCError` naming the conflicting states if two states
    share a code but imply different next values for the signal.
    """
    fn = NextStateFunction(signal=signal, variables=list(sg.signal_order))
    implied: Dict[int, Tuple[int, object]] = {}
    for state in sg.states:
        code = minterm_to_int(sg.code(state))
        value = sg.next_value(state, signal)
        previous = implied.get(code)
        if previous is not None and previous[0] != value:
            raise CSCError(
                "CSC conflict for signal %r: states %r and %r share code"
                " %s but imply next values %d and %d"
                % (signal, previous[1], state,
                   format(code, "0%db" % fn.width), previous[0], value)
            )
        implied[code] = (value, state)
        (fn.onset if value else fn.offset).add(code)
    return fn


def derive_all_next_state_functions(sg: StateGraph) -> Dict[str, NextStateFunction]:
    """Next-state functions of every non-input signal."""
    return {
        z: derive_next_state_function(sg, z)
        for z in sg.stg.noninput_signals
    }


def next_state_table(sg: StateGraph, signal: str,
                     states: Optional[Sequence] = None) -> List[Tuple[str, str, str]]:
    """The Section 3.2 illustration table: ``(code, region, f value)`` rows.

    ``region`` is one of ``ER(z+)``, ``QR(z+)``, ``ER(z-)``, ``QR(z-)``.
    ``states`` defaults to all states in BFS order.
    """
    if states is None:
        states = sg.states
    rows = []
    for state in states:
        code = "".join(map(str, sg.code(state)))
        if sg.excited(state, signal):
            region = "ER(%s%s)" % (signal,
                                   "+" if sg.value(state, signal) == 0 else "-")
        else:
            region = "QR(%s%s)" % (signal,
                                   "+" if sg.value(state, signal) == 1 else "-")
        rows.append((code, region, str(sg.next_value(state, signal))))
    return rows
