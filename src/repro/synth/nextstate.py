"""Next-state function derivation (paper, Section 3.2).

For each non-input signal ``z`` the states of the SG are classified into
excitation regions ``ER(z+)``, ``ER(z-)`` and quiescent regions ``QR(z+)``,
``QR(z-)``; the next-state function is::

    f_z(s) = 1  if s in ER(z+) | QR(z+)
             0  if s in ER(z-) | QR(z-)
             -  if the code s corresponds to no state (don't care)

If the same binary code requires both 1 and 0 the function is ill-defined:
that is precisely a CSC conflict and raises :class:`~repro.errors.CSCError`.

The ON- and OFF-sets are read straight from the state graph's int codes
(``StateGraph.int_codes``, which are already minterm integers) and
enabled masks (``StateGraph.enabled_masks``), one pass per signal: no
marking is decoded except the two that name the states of a CSC
conflict.  :meth:`StateGraph.signal_bits` gives the bits those passes
test, as it does for the gC and RS covers of :mod:`repro.synth.latch`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from operator import not_
from typing import Dict, List, Optional, Set, Tuple

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

    A state's next value is 1 with ``signal+`` enabled, 0 with
    ``signal-`` enabled, and the signal's code bit otherwise.  Raises
    :class:`CSCError` naming the conflicting states if two states share
    a code but imply different next values for the signal.
    """
    fn = NextStateFunction(signal=signal, variables=list(sg.signal_order))
    bit, rise, fall = sg.signal_bits(signal)
    codes = sg.int_codes
    nexts = [1 if mask & rise or code & bit and not mask & fall else 0
             for code, mask in zip(codes, sg.enabled_masks)]
    fn.onset = set(compress(codes, nexts))
    fn.offset = set(compress(codes, map(not_, nexts)))
    if fn.onset & fn.offset:
        _raise_conflict(sg, fn, nexts)
    return fn


def _raise_conflict(sg: StateGraph, fn: NextStateFunction,
                    nexts: List[int]) -> None:
    """Raise the :class:`CSCError` of the first state, in state-number
    order, whose next value differs from that of the last earlier state
    with its code; only those two markings are decoded."""
    implied: Dict[int, Tuple[int, int]] = {}
    for i, (code, value) in enumerate(zip(sg.int_codes, nexts)):
        previous = implied.get(code)
        if previous is not None and previous[0] != value:
            raise CSCError(
                "CSC conflict for signal %r: states %r and %r share code"
                " %s but imply next values %d and %d"
                % (fn.signal, sg.graph.marking(previous[1]),
                   sg.graph.marking(i), format(code, "0%db" % fn.width),
                   previous[0], value)
            )
        implied[code] = (value, i)


def derive_all_next_state_functions(sg: StateGraph) -> Dict[str, NextStateFunction]:
    """Next-state functions of every non-input signal."""
    return {
        z: derive_next_state_function(sg, z)
        for z in sg.stg.noninput_signals
    }


def next_state_table(sg: StateGraph,
                     signal: str) -> List[Tuple[str, str, str]]:
    """The Section 3.2 illustration table: one ``(code, region, f value)``
    row per state, in state-number order.

    ``region`` is one of ``ER(z+)``, ``QR(z+)``, ``ER(z-)``, ``QR(z-)``:
    the signal is excited where its next value differs from its value.
    """
    rows = []
    for i, word in enumerate(sg.int_codes):
        value = sg.value(i, signal)
        next_value = sg.next_value(i, signal)
        if next_value != value:
            region = "ER(%s%s)" % (signal, "+" if value == 0 else "-")
        else:
            region = "QR(%s%s)" % (signal, "+" if value == 1 else "-")
        rows.append(("".join(map(str, sg.code_tuple(word))), region,
                     str(next_value)))
    return rows
