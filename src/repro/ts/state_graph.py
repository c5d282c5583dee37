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
(``enabled_masks``).  The Marking-keyed views — ``ts``, ``states``,
``initial`` and ``codes`` — are decoded on first read, so a caller that
needs only counts or initial values decodes no marking.

The SG also provides the region machinery of Section 3.2:

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
from .transition_system import State, TransitionSystem


class StateGraph:
    """A reachability graph of an STG with binary signal codes.

    Per state number ``i`` of ``graph``: ``int_codes[i]`` is the binary
    code, bit ``n-1-k`` the value of ``signal_order[k]``;
    ``enabled_masks[i]`` has bit ``2k`` set when a rising and bit
    ``2k+1`` when a falling transition of ``signal_order[k]`` is enabled
    (dummy events excluded).  ``order`` lists the state numbers in
    parity-propagation order, the order of ``codes``.  These lists are
    shared with every state graph of the same graph, signal order and
    events, and are read-only.
    """

    def __init__(self, stg: STG, graph: NumberedGraph,
                 signal_order: Optional[Sequence[str]] = None):
        self.stg = stg
        self.graph = graph
        self.signal_order: List[str] = (
            list(signal_order) if signal_order is not None else stg.signals
        )
        if set(self.signal_order) != set(stg.signals):
            raise ConsistencyError("signal_order must be a permutation of the"
                                   " STG's signals")
        self._index = {s: i for i, s in enumerate(self.signal_order)}
        #: the signal event of each transition index of ``graph``
        self.events: List[SignalEvent] = [
            stg.event_of(t) for t in graph.transitions]
        #: the enabled-mask bits of every non-input signal
        self.noninput_mask = 0
        for k, s in enumerate(self.signal_order):
            if stg.type_of(s).is_noninput:
                self.noninput_mask |= 3 << (2 * k)
        self._ts: Optional[TransitionSystem] = None
        self._codes: Optional[Dict[State, Tuple[int, ...]]] = None
        self._number: Optional[Dict[State, int]] = None
        self._tuples: Dict[int, Tuple[int, ...]] = {}
        self._enabled_events: Dict[int, List[SignalEvent]] = {}
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
        top = len(self.signal_order) - 1
        flips, falls, pairs = [], [], []
        for event in self.events:
            if event.is_dummy:
                flips.append(0)
                falls.append(0)
                pairs.append(0)
                continue
            k = self._index[event.signal]
            flip = 1 << (top - k)
            flips.append(flip)
            falls.append(0 if event.is_rising else flip)
            pairs.append(1 << (2 * k + (0 if event.is_rising else 1)))
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
        initial_values = {s: (word >> (top - k)) & 1
                          for k, s in enumerate(self.signal_order)}
        return initial_values, [word ^ p for p in parity], masks, order

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

    # ------------------------------------------------------------------ #
    # Marking-keyed views, decoded on first read
    # ------------------------------------------------------------------ #

    @property
    def ts(self) -> TransitionSystem:
        """The graph as a transition system over markings."""
        if self._ts is None:
            self._ts = self.graph.transition_system()
        return self._ts

    @property
    def states(self) -> List[State]:
        """All states (markings) in BFS order."""
        return list(self.graph.markings())

    def __len__(self) -> int:
        return len(self.graph)

    @property
    def initial(self) -> State:
        return self.graph.marking(0)

    @property
    def codes(self) -> Dict[State, Tuple[int, ...]]:
        """Binary code of every state, in parity-propagation order."""
        if self._codes is None:
            markings = self.graph.markings()
            self._codes = {markings[i]: self.code_tuple(self.int_codes[i])
                           for i in self.order}
        return self._codes

    def _number_of(self, state: State) -> int:
        """The state number of a marking."""
        if self._number is None:
            self._number = {
                m: i for i, m in enumerate(self.graph.markings())}
        return self._number[state]

    # ------------------------------------------------------------------ #
    # basic queries
    # ------------------------------------------------------------------ #

    def code(self, state: State) -> Tuple[int, ...]:
        """Binary code of a state (ordered by ``signal_order``)."""
        return self.codes[state]

    def value(self, state: State, signal: str) -> int:
        """Value of a signal in a state."""
        return self.codes[state][self._index[signal]]

    def enabled_events(self, state: State) -> List[SignalEvent]:
        """Signal events labelling outgoing arcs of a state (memoized)."""
        i = self._number_of(state)
        cached = self._enabled_events.get(i)
        if cached is None:
            events = self.events
            cached = sorted({events[t] for t, _ in self.graph.arcs[i]},
                            key=lambda e: e.sort_key())
            self._enabled_events[i] = cached
        return cached

    def enabled_signals(self, state: State,
                        noninput_only: bool = False) -> Set[Tuple[str, str]]:
        """Set of ``(signal, direction)`` pairs enabled in a state."""
        mask = self.enabled_masks[self._number_of(state)]
        if noninput_only:
            mask &= self.noninput_mask
        return self.pairs(mask)

    def code_str(self, state: State,
                 groups: Optional[Sequence[Sequence[str]]] = None,
                 mark_enabled: bool = True) -> str:
        """Render a state code like the paper's Figure 4: ``"10.11*.0"``.

        ``groups`` optionally partitions the signals with dots; enabled
        signals get an asterisk after their bit when ``mark_enabled``.
        """
        if groups is None:
            groups = [self.signal_order]
        enabled = {s for s, _ in self.enabled_signals(state)} if mark_enabled \
            else set()
        chunks = []
        for group in groups:
            bits = []
            for s in group:
                bits.append(str(self.value(state, s)))
                if s in enabled:
                    bits.append("*")
            chunks.append("".join(bits))
        return ".".join(chunks)

    def states_by_code(self) -> Dict[Tuple[int, ...], List[State]]:
        """Group states by binary code, in parity-propagation order."""
        groups: Dict[Tuple[int, ...], List[State]] = {}
        for state, code in self.codes.items():
            groups.setdefault(code, []).append(state)
        return groups

    # ------------------------------------------------------------------ #
    # excitation and quiescent regions (Section 3.2)
    # ------------------------------------------------------------------ #

    def _pair_bit(self, signal: str, direction: str) -> int:
        k = self._index.get(signal)
        if k is None or direction not in (RISE, FALL):
            return 0
        return 1 << (2 * k + (direction == FALL))

    def excitation_region(self, signal: str, direction: str) -> Set[State]:
        """``ER(z+)`` or ``ER(z-)``: states where a transition of the signal
        in the given direction is enabled (a fresh set per call)."""
        bit = self._pair_bit(signal, direction)
        markings = self.graph.markings()
        return {markings[i] for i, mask in enumerate(self.enabled_masks)
                if mask & bit}

    def quiescent_region(self, signal: str, direction: str) -> Set[State]:
        """``QR(z+)``: states where z is stable 1 (``QR(z-)``: stable 0)."""
        stable = 1 if direction == RISE else 0
        shift = len(self.signal_order) - 1 - self._index[signal]
        opposite = self._pair_bit(signal, FALL if direction == RISE else RISE)
        markings = self.graph.markings()
        masks = self.enabled_masks
        return {markings[i] for i, word in enumerate(self.int_codes)
                if (word >> shift) & 1 == stable and not masks[i] & opposite}

    def next_value(self, state: State, signal: str) -> int:
        """The next-state value of a signal in a state (Section 3.2):

        * 1 in ``ER(z+) ∪ QR(z+)``,
        * 0 in ``ER(z-) ∪ QR(z-)``.
        """
        i = self._number_of(state)
        k = self._index[signal]
        enabled = (self.enabled_masks[i] >> (2 * k)) & 3
        if enabled:
            return 1 if enabled & 1 else 0
        return (self.int_codes[i] >> (len(self.signal_order) - 1 - k)) & 1

    def excited(self, state: State, signal: str) -> bool:
        """True iff the signal's next value differs from its current value —
        i.e. the state is in an excitation region of the signal."""
        return self.next_value(state, signal) != self.value(state, signal)


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
