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
conflict.  :func:`signal_bits` gives the bits those passes test; the
gC and RS covers of :mod:`repro.synth.latch` use it too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from operator import not_
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


def signal_bits(sg: StateGraph, signal: str) -> Tuple[int, int, int]:
    """``(code_bit, rise_bit, fall_bit)`` of a signal: its bit in the
    int codes and the bits of ``signal+`` and ``signal-`` in the enabled
    masks.  Raises :class:`KeyError` for a signal the SG does not code."""
    try:
        k = sg.signal_order.index(signal)
    except ValueError:
        raise KeyError(signal) from None
    rise = 1 << (2 * k)
    return 1 << (len(sg.signal_order) - 1 - k), rise, rise << 1


def derive_next_state_function(sg: StateGraph, signal: str) -> NextStateFunction:
    """Derive ``f_signal`` from the state graph.

    A state's next value is 1 with ``signal+`` enabled, 0 with
    ``signal-`` enabled, and the signal's code bit otherwise.  Raises
    :class:`CSCError` naming the conflicting states if two states share
    a code but imply different next values for the signal.
    """
    fn = NextStateFunction(signal=signal, variables=list(sg.signal_order))
    bit, rise, fall = signal_bits(sg, signal)
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
