"""Binary-coded state graphs of STGs (paper, Sections 1.4 and 3.2).

A *state graph* (SG) is the reachability graph of an STG with every state
labelled by a binary vector of signal values.  The labelling is computed by
parity propagation from the initial state; failure to find a consistent
labelling (rising/falling transitions of some signal do not alternate)
raises :class:`~repro.errors.ConsistencyError`.

The SG sits on the explorer's numbered graph
(:class:`~repro.ts.builder.NumberedGraph`), and everything it computes is
kept per state number as ints: the binary code (``int_codes``, first
signal of ``signal_order`` the most significant bit, so int order is
code order) and the mask of enabled ``(signal, direction)`` pairs
(``enabled_masks``).  Every per-state query takes a state number; a
report that prints a state decodes its marking itself, with
``sg.graph.marking(i)``.

The SG also provides the region machinery of Section 3.2, as sets of
state numbers:

* ``ER(z+)`` / ``ER(z-)`` — positive/negative *excitation regions*: states
  in which a ``z+`` (``z-``) transition is enabled;
* ``QR(z+)`` / ``QR(z-)`` — *quiescent regions*: states where z is stable
  at 1 (0);
* the *next-state value* of a signal in a state (the incompletely
  specified function that logic synthesis minimises).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..errors import ConsistencyError
from ..stg.signals import FALL, RISE, SignalEvent
from ..stg.stg import STG
from .builder import DEFAULT_STATE_BOUND, NumberedGraph, explore


class StateGraph:
    """A reachability graph of an STG with binary signal codes.

    Per state number ``i`` of ``graph``: ``int_codes[i]`` is the binary
    code and ``enabled_masks[i]`` the mask of the enabled ``(signal,
    direction)`` pairs (dummy events excluded); :meth:`signal_bits` names
    a signal's bits in both.  ``order`` lists the state numbers in
    parity-propagation order.  These lists are shared with every state
    graph of the same graph, signal order and events, and are read-only.
    The states are ``range(len(sg))``; ``graph.marking(i)`` decodes one.
    """

    def __init__(self, stg: STG, graph: NumberedGraph,
                 signal_order: Optional[Sequence[str]] = None):
        self.stg = stg
        self.graph = graph
        self.signal_order: List[str] = (
            list(signal_order) if signal_order is not None else stg.signals
        )
        if sorted(self.signal_order) != sorted(stg.signals):
            raise ConsistencyError("signal_order must be a permutation of the"
                                   " STG's signals")
        self._index = {s: i for i, s in enumerate(self.signal_order)}
        #: the signal event of each transition index of ``graph``
        self.events: List[SignalEvent] = [
            stg.event_of(t) for t in graph.transitions]
        #: the enabled-mask bits of every non-input signal
        self.noninput_mask = 0
        for s in self.signal_order:
            if stg.type_of(s).is_noninput:
                _, rise, fall = self.signal_bits(s)
                self.noninput_mask |= rise | fall
        self._tuples: Dict[int, Tuple[int, ...]] = {}
        # the propagation is memoised on the (shared, memoised) graph: a
        # second state graph of the same net, signal order and events
        # reuses its read-only lists
        key = (tuple(self.signal_order), tuple(self.events))
        memo = graph.labelling
        if memo is None or memo[0] != key:
            memo = graph.labelling = (key, self._propagate())
        initial_values, self.int_codes, self.enabled_masks, self.order = \
            memo[1]
        self.initial_values: Dict[str, int] = dict(initial_values)

    # ------------------------------------------------------------------ #
    # code assignment
    # ------------------------------------------------------------------ #

    def _propagate(self) -> Tuple[Dict[str, int], List[int], List[int],
                                  List[int]]:
        """Parity propagation on integer bitvectors, depth first from the
        initial state: the initial values, the int codes, the enabled
        masks and the propagation order.

        A state's parity word has a signal's bit set iff the signal has
        switched an odd number of times on the way there, so propagating
        an event is one XOR.  The direction of each event fixes its
        signal's initial value; a clash there, or a state reached with
        two parities, is an inconsistent STG.  The enabled masks are
        collected on the same walk.
        """
        flips, falls, pairs = [], [], []
        for event in self.events:
            if event.is_dummy:
                flips.append(0)
                falls.append(0)
                pairs.append(0)
                continue
            flip, rise, fall = self.signal_bits(event.signal)
            flips.append(flip)
            falls.append(0 if event.is_rising else flip)
            pairs.append(rise if event.is_rising else fall)
        arcs = self.graph.arcs
        parity = [-1] * len(arcs)
        masks = [0] * len(arcs)
        parity[0] = 0
        order = [0]
        stack = [0]
        # signal bit -> (initial value at that bit, witness transition)
        initial: Dict[int, Tuple[int, int]] = {}
        while stack:
            i = stack.pop()
            p = parity[i]
            mask = 0
            for t, j in arcs[i]:
                flip = flips[t]
                if flip:
                    mask |= pairs[t]
                    # a rising edge leaves value 0 and a falling one 1;
                    # value = initial XOR parity fixes the initial value
                    required = (p & flip) ^ falls[t]
                    known = initial.get(flip)
                    if known is None:
                        initial[flip] = (required, t)
                    elif known[0] != required:
                        names = self.graph.transitions
                        raise ConsistencyError(
                            "signal %r: transitions %r and %r imply different"
                            " initial values — rising/falling edges do not"
                            " alternate" % (self.events[t].signal,
                                            names[known[1]], names[t])
                        )
                    q = p ^ flip
                else:
                    q = p
                seen = parity[j]
                if seen < 0:
                    parity[j] = q
                    order.append(j)
                    stack.append(j)
                elif seen != q:
                    raise ConsistencyError(
                        "state %r reached with different switching"
                        " parities — inconsistent STG"
                        % (self.graph.marking(j),)
                    )
            masks[i] = mask
        word = 0
        for required, _ in initial.values():
            word |= required
        initial_values = {s: 1 if word & self.signal_bits(s)[0] else 0
                          for s in self.signal_order}
        return initial_values, [word ^ p for p in parity], masks, order

    def signal_bits(self, signal: str) -> Tuple[int, int, int]:
        """``(code_bit, rise_bit, fall_bit)`` of a signal: its bit in the
        int codes and the bits of ``signal+`` and ``signal-`` in the
        enabled masks.  Raises :class:`KeyError` for a signal the SG does
        not code.

        This is the one statement of the layout: ``signal_order[k]`` of
        ``n`` signals has code bit ``n-1-k`` (the first signal the most
        significant, so int order is code order) and mask bits ``2k``
        (rise) and ``2k+1`` (fall).  :meth:`code_tuple` and
        :meth:`pairs` read codes and masks back.
        """
        k = self._index[signal]
        rise = 1 << (2 * k)
        return 1 << (len(self.signal_order) - 1 - k), rise, rise << 1

    def code_tuple(self, word: int) -> Tuple[int, ...]:
        """An int code as a per-signal tuple (ordered by ``signal_order``)."""
        code = self._tuples.get(word)
        if code is None:
            top = len(self.signal_order) - 1
            code = tuple((word >> (top - k)) & 1
                         for k in range(len(self.signal_order)))
            self._tuples[word] = code
        return code

    def pairs(self, mask: int) -> Set[Tuple[str, str]]:
        """The ``(signal, direction)`` pairs of an enabled mask."""
        result = set()
        while mask:
            low = mask & -mask
            mask ^= low
            bit = low.bit_length() - 1
            result.add((self.signal_order[bit >> 1],
                        FALL if bit & 1 else RISE))
        return result

    def __len__(self) -> int:
        return len(self.graph)

    # ------------------------------------------------------------------ #
    # per-state queries, by state number
    # ------------------------------------------------------------------ #

    def value(self, number: int, signal: str) -> int:
        """Value of a signal in state ``number``."""
        return 1 if self.int_codes[number] & self.signal_bits(signal)[0] else 0

    def next_value(self, number: int, signal: str) -> int:
        """The next-state value of a signal in state ``number`` (Section
        3.2):

        * 1 in ``ER(z+) ∪ QR(z+)``,
        * 0 in ``ER(z-) ∪ QR(z-)``.
        """
        bit, rise, fall = self.signal_bits(signal)
        mask = self.enabled_masks[number]
        if mask & rise:
            return 1
        if mask & fall:
            return 0
        return 1 if self.int_codes[number] & bit else 0

    def code_str(self, number: int,
                 groups: Optional[Sequence[Sequence[str]]] = None) -> str:
        """Render state ``number``'s code like the paper's Figure 4:
        ``"10.11*.0"``.

        ``groups`` optionally partitions the signals with dots; enabled
        signals get an asterisk after their bit.
        """
        if groups is None:
            groups = [self.signal_order]
        enabled = {s for s, _ in self.pairs(self.enabled_masks[number])}
        return ".".join(
            "".join(str(self.value(number, s)) + ("*" if s in enabled else "")
                    for s in group)
            for group in groups)

    # ------------------------------------------------------------------ #
    # excitation and quiescent regions (Section 3.2)
    # ------------------------------------------------------------------ #

    def excitation_region(self, signal: str, direction: str) -> Set[int]:
        """``ER(z+)`` or ``ER(z-)``: the numbers of the states where a
        transition of the signal in the given direction is enabled."""
        _, rise, fall = self.signal_bits(signal)
        bit = rise if direction == RISE else fall
        return {i for i, mask in enumerate(self.enabled_masks) if mask & bit}

    def quiescent_region(self, signal: str, direction: str) -> Set[int]:
        """``QR(z+)``: the numbers of the states where z is stable 1
        (``QR(z-)``: stable 0)."""
        bit, rise, fall = self.signal_bits(signal)
        stable, opposite = (bit, fall) if direction == RISE else (0, rise)
        masks = self.enabled_masks
        return {i for i, word in enumerate(self.int_codes)
                if word & bit == stable and not masks[i] & opposite}


def build_state_graph(stg: STG,
                      max_states: int = DEFAULT_STATE_BOUND,
                      signal_order: Optional[Sequence[str]] = None,
                      require_safe: bool = True) -> StateGraph:
    """Build the binary-coded state graph of an STG.

    Raises :class:`~repro.errors.UnboundedError` for non-safe STGs
    (pass ``require_safe=False`` for k-bounded nets, e.g. after dummy
    contraction) and :class:`~repro.errors.ConsistencyError` for
    inconsistent ones.  The numbered graph comes from
    :func:`~repro.ts.builder.explore` (see :mod:`repro.portfolio` for
    the query layer).
    """
    graph = explore(stg, max_states=max_states, require_safe=require_safe)
    return StateGraph(stg, graph, signal_order=signal_order)
