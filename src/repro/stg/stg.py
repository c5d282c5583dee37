"""Signal Transition Graphs: Petri nets whose transitions are interpreted
as rising/falling edges of circuit signals (paper, Section 1).

An :class:`STG` owns a :class:`~repro.petri.net.PetriNet` and a signal
declaration (inputs / outputs / internal / dummy).  Transition names follow
the event syntax ``sig+``, ``sig-``, ``sig+/k``; the attached label is the
parsed :class:`~repro.stg.signals.SignalEvent`.

Structural editing operations used by synthesis live here as well:

* :meth:`STG.insert_signal` — insert a new internal signal's rising/falling
  transitions "right before" chosen events (the paper's csc0 insertion,
  Section 3.1);
* :meth:`STG.add_ordering_arc` — concurrency reduction / timing arc: a
  fresh place ordering one event after another (Sections 2.1 and 5);
* :meth:`STG.retarget_trigger` — replace one trigger of an event by another
  (the paper's Figure 11(b) optimisation: "start enabling of LDS- right
  after DSr- instead of D-").
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..errors import ModelError
from ..petri.marking import Marking
from ..petri.net import PetriNet
from .signals import FALL, RISE, SignalEvent, SignalType


class STG:
    """A Signal Transition Graph."""

    def __init__(self, name: str = "stg",
                 inputs: Iterable[str] = (),
                 outputs: Iterable[str] = (),
                 internal: Iterable[str] = (),
                 dummy: Iterable[str] = ()):
        self.name = name
        self.net = PetriNet(name)
        self.signal_types: Dict[str, SignalType] = {}
        for s in inputs:
            self.declare_signal(s, SignalType.INPUT)
        for s in outputs:
            self.declare_signal(s, SignalType.OUTPUT)
        for s in internal:
            self.declare_signal(s, SignalType.INTERNAL)
        for s in dummy:
            self.declare_signal(s, SignalType.DUMMY)
        self._place_counter = 0

    # ------------------------------------------------------------------ #
    # declarations and construction
    # ------------------------------------------------------------------ #

    def declare_signal(self, signal: str, kind: SignalType) -> None:
        """Declare (or re-classify) a signal."""
        self.signal_types[signal] = kind

    @property
    def signals(self) -> List[str]:
        """All declared signal names, sorted."""
        return sorted(self.signal_types)

    def signals_of_type(self, *kinds: SignalType) -> List[str]:
        """Declared signals of the given kinds, sorted."""
        return sorted(s for s, k in self.signal_types.items() if k in kinds)

    @property
    def inputs(self) -> List[str]:
        return self.signals_of_type(SignalType.INPUT)

    @property
    def outputs(self) -> List[str]:
        return self.signals_of_type(SignalType.OUTPUT)

    @property
    def internal(self) -> List[str]:
        return self.signals_of_type(SignalType.INTERNAL)

    @property
    def noninput_signals(self) -> List[str]:
        """Signals the circuit must implement (outputs + internal)."""
        return self.signals_of_type(SignalType.OUTPUT, SignalType.INTERNAL)

    def type_of(self, signal: str) -> SignalType:
        """Classification of a declared signal."""
        if signal not in self.signal_types:
            raise ModelError("undeclared signal %r" % signal)
        return self.signal_types[signal]

    def is_input_event(self, transition: str) -> bool:
        """True if the transition's signal is an input."""
        event = self.event_of(transition)
        return self.type_of(event.signal) == SignalType.INPUT

    def add_event(self, event) -> str:
        """Add a transition for a signal event (string or SignalEvent).

        Returns the transition name (the canonical event string).
        """
        if not isinstance(event, SignalEvent):
            event = SignalEvent.parse(str(event))
        if event.signal not in self.signal_types:
            raise ModelError("undeclared signal %r in event %s"
                             % (event.signal, event))
        name = str(event)
        self.net.add_transition(name, event)
        return name

    def fresh_place(self, prefix: str = "p") -> str:
        """Add a place with a fresh generated name."""
        while True:
            name = "%s_%d" % (prefix, self._place_counter)
            self._place_counter += 1
            if name not in self.net:
                return name

    def add_place(self, name: Optional[str] = None, tokens: int = 0) -> str:
        """Add an (optionally named) place."""
        if name is None:
            name = self.fresh_place()
            self.net.add_place(name, tokens)
        else:
            self.net.add_place(name, tokens)
        return name

    def connect(self, source: str, target: str) -> str:
        """Connect two transitions through a fresh implicit place (the
        `arc between two transitions` drawing convention of the paper),
        or add a direct arc if one endpoint is a place.

        Returns the name of the place carrying the connection.
        """
        src_is_t = source in self.net.transitions
        dst_is_t = target in self.net.transitions
        if src_is_t and dst_is_t:
            name = "<%s,%s>" % (source, target)
            suffix = 1
            while name in self.net:
                name = "<%s,%s>~%d" % (source, target, suffix)
                suffix += 1
            place = self.add_place(name)
            self.net.add_arc(source, place)
            self.net.add_arc(place, target)
            return place
        self.net.add_arc(source, target)
        return source if not src_is_t else target

    def event_of(self, transition: str) -> SignalEvent:
        """The SignalEvent labelling a transition."""
        label = self.net.label_of(transition)
        if not isinstance(label, SignalEvent):
            raise ModelError("transition %r has no signal label" % transition)
        return label

    def transitions_of(self, signal: str,
                       direction: Optional[str] = None) -> List[str]:
        """All transitions of a signal (optionally only one direction)."""
        result = []
        for t in self.net.transitions:
            ev = self.event_of(t)
            if ev.signal == signal and (direction is None or
                                        ev.direction == direction):
                result.append(t)
        return sorted(result)

    @property
    def initial_marking(self) -> Marking:
        return self.net.initial_marking

    def set_initial_marking(self, marking) -> None:
        """Replace the initial marking (delegates to the net)."""
        self.net.set_initial_marking(marking)

    # ------------------------------------------------------------------ #
    # transformations used by synthesis and timing optimisation
    # ------------------------------------------------------------------ #

    def insert_signal(self, signal: str,
                      rise_before: Sequence[str],
                      fall_before: Sequence[str],
                      kind: SignalType = SignalType.INTERNAL) -> "STG":
        """Insert a new signal with ``signal+`` right before each event in
        ``rise_before`` and ``signal-`` right before each in ``fall_before``.

        "Right before event t" means: the new transition takes over *all*
        input places of ``t`` and feeds ``t`` through a fresh place — the
        insertion used for csc0 in Section 3.1 of the paper.  Returns a new
        STG; the original is untouched.
        """
        result = self.copy()
        result.declare_signal(signal, kind)
        for instance, (direction, targets) in enumerate(
                [(RISE, rise_before), (FALL, fall_before)]):
            for k, target in enumerate(targets):
                if target not in result.net.transitions:
                    raise ModelError("unknown event %r" % target)
                event = SignalEvent(signal, direction, k)
                new_t = result.add_event(event)
                pre = dict(result.net.pre(target))
                for place, w in pre.items():
                    # move the arc place -> target to place -> new_t
                    result._remove_arc(place, target)
                    result.net.add_arc(place, new_t, w)
                bridge = result.add_place()
                result.net.add_arc(new_t, bridge)
                result.net.add_arc(bridge, target)
        return result

    def _remove_arc(self, place: str, transition: str) -> None:
        """Remove a single place->transition arc (internal helper)."""
        pre = self.net.pre(transition)
        if place not in pre:
            raise ModelError("no arc %r -> %r" % (place, transition))
        del pre[place]
        del self.net._place_out[place][transition]

    def add_ordering_arc(self, first: str, second: str,
                         initially_marked: Optional[bool] = None) -> "STG":
        """Concurrency reduction: add a fresh place forcing ``first`` to fire
        before ``second`` in every cycle.

        If ``initially_marked`` is None, the place is marked iff the events
        would otherwise deadlock — callers typically pass an explicit value.
        Used both for state-encoding by concurrency reduction (Section 2.1)
        and for timing-assumption pruning (Section 5).  Returns a new STG.
        """
        result = self.copy()
        for t in (first, second):
            if t not in result.net.transitions:
                raise ModelError("unknown event %r" % t)
        marked = bool(initially_marked) if initially_marked is not None else False
        place = result.add_place("<%s<%s>" % (first, second))
        result.net.places[place].tokens = 1 if marked else 0
        result.net.add_arc(first, place)
        result.net.add_arc(place, second)
        return result

    def retarget_trigger(self, event: str, old_trigger: str,
                         new_trigger: str) -> "STG":
        """Replace the causal arc ``old_trigger -> event`` by
        ``new_trigger -> event`` (through fresh places).

        This is the Figure 11(b) transformation: enabling an event earlier
        under an exported timing requirement.  Returns a new STG.
        """
        result = self.copy()
        # find the place connecting old_trigger to event
        connecting = None
        for place in result.net.pre(event):
            if old_trigger in result.net.preset(place):
                connecting = place
                break
        if connecting is None:
            raise ModelError("no causal place %r -> %r" % (old_trigger, event))
        if len(result.net.preset(connecting)) != 1 or \
                len(result.net.postset(connecting)) != 1:
            raise ModelError(
                "connecting place %r is shared; retarget not supported"
                % connecting
            )
        tokens = result.net.places[connecting].tokens
        result.net.remove_place(connecting)
        place = result.add_place("<%s,%s>" % (new_trigger, event), tokens)
        result.net.add_arc(new_trigger, place)
        result.net.add_arc(place, event)
        return result

    # ------------------------------------------------------------------ #
    # misc
    # ------------------------------------------------------------------ #

    def copy(self, name: Optional[str] = None) -> "STG":
        """Deep copy (signal declarations and net structure)."""
        other = STG(name if name is not None else self.name)
        other.signal_types = dict(self.signal_types)
        other.net = self.net.copy(other.name)
        other._place_counter = self._place_counter
        return other

    def rename_signals(self, mapping: Dict[str, str],
                       name: Optional[str] = None) -> "STG":
        """A copy with signals renamed according to ``mapping``.

        Transition names are rewritten to the new canonical event strings;
        implicit place names (``<a+,b->``) are rewritten consistently.
        Used to instantiate library controllers several times (e.g. two
        pipeline stages) before composition.
        """
        for old, new in mapping.items():
            if old not in self.signal_types:
                raise ModelError("unknown signal %r" % old)
            if new in self.signal_types and new not in mapping:
                raise ModelError("rename target %r already exists" % new)
        other = STG(name if name is not None else self.name)
        for signal, kind in self.signal_types.items():
            other.declare_signal(mapping.get(signal, signal), kind)

        def rename_event(event: SignalEvent) -> SignalEvent:
            return SignalEvent(mapping.get(event.signal, event.signal),
                               event.direction, event.instance)

        tname_map = {}
        for t in self.net.transitions:
            new_event = rename_event(self.event_of(t))
            tname_map[t] = str(new_event)
        pname_map = {}
        for p in self.net.places:
            new_name = p
            for old_t, new_t in tname_map.items():
                new_name = new_name.replace("<%s," % old_t, "<%s," % new_t)
                new_name = new_name.replace(",%s>" % old_t, ",%s>" % new_t)
            pname_map[p] = new_name
        for p, place in self.net.places.items():
            other.net.add_place(pname_map[p], place.tokens)
        for t in self.net.transitions:
            other.net.add_transition(tname_map[t],
                                     rename_event(self.event_of(t)))
        for src, dst, w in self.net.arcs():
            new_src = tname_map.get(src, pname_map.get(src, src))
            new_dst = tname_map.get(dst, pname_map.get(dst, dst))
            other.net.add_arc(new_src, new_dst, w)
        other._place_counter = self._place_counter
        other.validate()
        return other

    def mirror(self, name: Optional[str] = None) -> "STG":
        """The environment's view: inputs and outputs swapped.

        The mirror of a specification describes the *environment* process
        the circuit talks to — the basis of Dill's conformance relation
        (paper ref [10]).  Internal and dummy signals are unchanged.
        """
        other = self.copy(name if name is not None else self.name + "_mirror")
        for signal, kind in list(other.signal_types.items()):
            if kind == SignalType.INPUT:
                other.signal_types[signal] = SignalType.OUTPUT
            elif kind == SignalType.OUTPUT:
                other.signal_types[signal] = SignalType.INPUT
        return other

    def validate(self) -> None:
        """Check that every transition is labelled with a declared signal."""
        for t in self.net.transitions:
            event = self.event_of(t)
            if event.signal not in self.signal_types:
                raise ModelError("transition %r uses undeclared signal %r"
                                 % (t, event.signal))

    def __repr__(self):
        return "STG(%r, in=%s, out=%s, int=%s, %r)" % (
            self.name, self.inputs, self.outputs, self.internal, self.net)
