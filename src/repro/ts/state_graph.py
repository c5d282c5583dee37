"""Binary-coded state graphs of STGs (paper, Sections 1.4 and 3.2).

A *state graph* (SG) is the reachability graph of an STG with every state
labelled by a binary vector of signal values.  The labelling is computed by
parity propagation from the initial state; failure to find a consistent
labelling (rising/falling transitions of some signal do not alternate)
raises :class:`~repro.errors.ConsistencyError`.

The SG also provides the region machinery of Section 3.2:

* ``ER(z+)`` / ``ER(z-)`` — positive/negative *excitation regions*: states
  in which a ``z+`` (``z-``) transition is enabled;
* ``QR(z+)`` / ``QR(z-)`` — *quiescent regions*: states where z is stable
  at 1 (0);
* the *next-state value* of a signal in a state (the incompletely
  specified function that logic synthesis minimises).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..errors import ConsistencyError
from ..stg.signals import FALL, RISE, SignalEvent
from ..stg.stg import STG
from .builder import DEFAULT_STATE_BOUND, build_reachability_graph
from .transition_system import State, TransitionSystem


class StateGraph:
    """A reachability graph of an STG with binary signal codes."""

    def __init__(self, stg: STG, ts: TransitionSystem,
                 signal_order: Optional[Sequence[str]] = None):
        self.stg = stg
        self.ts = ts
        self.signal_order: List[str] = (
            list(signal_order) if signal_order is not None else stg.signals
        )
        if set(self.signal_order) != set(stg.signals):
            raise ConsistencyError("signal_order must be a permutation of the"
                                   " STG's signals")
        self._index = {s: i for i, s in enumerate(self.signal_order)}
        self.codes: Dict[State, Tuple[int, ...]] = {}
        self.initial_values: Dict[str, int] = {}
        self._enabled_events: Dict[State, List[SignalEvent]] = {}
        self._regions: Optional[Dict[Tuple[str, str], Set[State]]] = None
        self._assign_codes()

    # ------------------------------------------------------------------ #
    # code assignment
    # ------------------------------------------------------------------ #

    def _assign_codes(self) -> None:
        """Parity propagation on integer bitvectors.

        Parities are packed into a single int per state (bit ``i`` is the
        switching parity of ``signal_order[i]``), the same bitvector trick
        the compiled reachability engine uses for markings, so propagating
        an event is one XOR instead of tuple surgery.  The public
        ``codes`` mapping still holds per-signal tuples.
        """
        n = len(self.signal_order)
        # event metadata per transition name, resolved once
        event_bit: Dict[str, Tuple[SignalEvent, int, bool]] = {}
        for tname in self.ts.events:
            event = self.stg.event_of(tname)
            if event.is_dummy:
                event_bit[tname] = (event, -1, False)
            else:
                event_bit[tname] = (event, self._index[event.signal],
                                    event.is_rising)
        parity: Dict[State, int] = {self.ts.initial: 0}
        init: Dict[str, Tuple[int, str]] = {}  # signal -> (value, witness)
        stack = [self.ts.initial]
        while stack:
            state = stack.pop()
            p = parity[state]
            for tname, succ in self.ts.successors(state):
                event, idx, rising = event_bit[tname]
                if idx < 0:
                    q = p
                else:
                    bit = (p >> idx) & 1
                    q = p ^ (1 << idx)
                    # the source value of the signal is fixed by direction:
                    # a+ requires value 0 before, so init = parity (since
                    # value = init XOR parity); a- requires value 1 before.
                    required = bit if rising else 1 - bit
                    prev = init.get(event.signal)
                    if prev is None:
                        init[event.signal] = (required, tname)
                    elif prev[0] != required:
                        raise ConsistencyError(
                            "signal %r: transitions %r and %r imply different"
                            " initial values — rising/falling edges do not"
                            " alternate" % (event.signal, prev[1], tname)
                        )
                known = parity.get(succ)
                if known is not None:
                    if known != q:
                        raise ConsistencyError(
                            "state %r reached with different switching"
                            " parities — inconsistent STG" % (succ,)
                        )
                else:
                    parity[succ] = q
                    stack.append(succ)
        self.initial_values = {
            s: init.get(s, (0, ""))[0] for s in self.signal_order
        }
        init_vec = tuple(self.initial_values[s] for s in self.signal_order)
        # decode packed parities back to per-signal tuples; memoized by
        # parity word since distinct states share few distinct parities
        decoded: Dict[int, Tuple[int, ...]] = {}
        for state, p in parity.items():
            code = decoded.get(p)
            if code is None:
                code = tuple(iv ^ ((p >> i) & 1)
                             for i, iv in enumerate(init_vec))
                decoded[p] = code
            self.codes[state] = code

    # ------------------------------------------------------------------ #
    # basic queries
    # ------------------------------------------------------------------ #

    @property
    def states(self) -> List[State]:
        return self.ts.states

    def __len__(self) -> int:
        return len(self.ts)

    @property
    def initial(self) -> State:
        return self.ts.initial

    def code(self, state: State) -> Tuple[int, ...]:
        """Binary code of a state (ordered by ``signal_order``)."""
        return self.codes[state]

    def value(self, state: State, signal: str) -> int:
        """Value of a signal in a state."""
        return self.codes[state][self._index[signal]]

    def enabled_events(self, state: State) -> List[SignalEvent]:
        """Signal events labelling outgoing arcs of a state (memoized —
        the region queries below scan these per signal)."""
        cached = self._enabled_events.get(state)
        if cached is None:
            cached = sorted(
                {self.stg.event_of(t) for t in self.ts.enabled(state)},
                key=lambda e: e.sort_key(),
            )
            self._enabled_events[state] = cached
        return cached

    def enabled_signals(self, state: State,
                        noninput_only: bool = False) -> Set[Tuple[str, str]]:
        """Set of ``(signal, direction)`` pairs enabled in a state."""
        result = set()
        for event in self.enabled_events(state):
            if event.is_dummy:
                continue
            if noninput_only and not self.stg.type_of(event.signal).is_noninput:
                continue
            result.add(event.base())
        return result

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
        """Group states by binary code (the key map for USC/CSC checks)."""
        groups: Dict[Tuple[int, ...], List[State]] = {}
        for state, code in self.codes.items():
            groups.setdefault(code, []).append(state)
        return groups

    # ------------------------------------------------------------------ #
    # excitation and quiescent regions (Section 3.2)
    # ------------------------------------------------------------------ #

    def excitation_region(self, signal: str, direction: str) -> Set[State]:
        """``ER(z+)`` or ``ER(z-)``: states where a transition of the signal
        in the given direction is enabled (a fresh set per call)."""
        if self._regions is None:
            # one pass over the graph builds every region (memoized like
            # the enabled events it is made of)
            regions: Dict[Tuple[str, str], Set[State]] = {}
            for state in self.ts.states:
                for pair in self.enabled_signals(state):
                    regions.setdefault(pair, set()).add(state)
            self._regions = regions
        return set(self._regions.get((signal, direction), ()))

    def quiescent_region(self, signal: str, direction: str) -> Set[State]:
        """``QR(z+)``: states where z is stable 1 (``QR(z-)``: stable 0)."""
        stable_value = 1 if direction == RISE else 0
        opposite = FALL if direction == RISE else RISE
        er_opp = self.excitation_region(signal, opposite)
        return {
            state for state in self.ts.states
            if self.value(state, signal) == stable_value and state not in er_opp
        }

    def next_value(self, state: State, signal: str) -> int:
        """The next-state value of a signal in a state (Section 3.2):

        * 1 in ``ER(z+) ∪ QR(z+)``,
        * 0 in ``ER(z-) ∪ QR(z-)``.
        """
        value = self.value(state, signal)
        for s, d in self.enabled_signals(state):
            if s == signal:
                return 1 if d == RISE else 0
        return value

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
    inconsistent ones.  The reachability graph comes from
    :func:`~repro.ts.builder.build_reachability_graph` (see
    :mod:`repro.portfolio` for the query layer).
    """
    ts = build_reachability_graph(stg, max_states=max_states,
                                  require_safe=require_safe)
    return StateGraph(stg, ts, signal_order=signal_order)
