"""Petri-net synthesis from state-based models (paper, Section 4, ref [8]).

"At any step of the design process a PN corresponding to the current TS
can be extracted and back-annotated to the designer" — Figure 10(a) shows
the STG extracted for the two-input-gate circuit of Figure 9(a).

The construction is the classical region-based one:

* transitions = events of the TS;
* places = minimal pre-regions of the events (an irredundant subset);
* arcs: region -> event when the event exits the region, event -> region
  when it enters;
* initially marked places = regions containing the initial state.

For excitation-closed transition systems the synthesized net's
reachability graph is bisimilar to the input TS; this is asserted by the
test suite on the paper's examples.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

from ..errors import SynthesisError
from ..petri.net import PetriNet
from ..stg.signals import SignalEvent, SignalType
from ..stg.stg import STG
from ..ts.transition_system import State, TransitionSystem
from .region import (
    ENTER,
    EXIT,
    all_minimal_preregions,
    event_gradient,
    excitation_closure_holds,
    excitation_region,
)


def synthesize_net(ts: TransitionSystem,
                   require_excitation_closure: bool = True
                   ) -> Tuple[PetriNet, Dict[str, FrozenSet[State]]]:
    """Synthesize a Petri net whose reachability graph generates ``ts``.

    Returns ``(net, place_map)`` where ``place_map`` maps place names to
    the region (state set) they denote.  Raises
    :class:`~repro.errors.SynthesisError` if excitation closure fails and
    ``require_excitation_closure`` is set (label splitting is out of scope;
    the condition holds for all the paper's examples).
    """
    preregions = all_minimal_preregions(ts)
    for event in sorted(ts.events):
        if not preregions[event]:
            raise SynthesisError("event %r has no pre-region" % event)
    holds, intersections = excitation_closure_holds(ts, preregions)
    if require_excitation_closure and not holds:
        offenders = [e for e in sorted(ts.events)
                     if intersections[e] != excitation_region(ts, e)]
        raise SynthesisError(
            "excitation closure fails for events %s — label splitting "
            "required" % offenders)

    # collect candidate places, deduplicated
    regions: List[FrozenSet[State]] = []
    seen: Set[FrozenSet[State]] = set()
    for event in sorted(ts.events):
        for r in preregions[event]:
            if r not in seen:
                seen.add(r)
                regions.append(r)

    # irredundancy: greedily drop regions whose removal preserves the
    # excitation closure of every event
    def closure_ok(chosen: Sequence[FrozenSet[State]]) -> bool:
        for event in sorted(ts.events):
            pre = [r for r in chosen
                   if event_gradient(ts, r, event) == EXIT]
            if not pre:
                return False
            inter = frozenset(ts.states)
            for r in pre:
                inter &= r
            if inter != excitation_region(ts, event):
                return False
        return True

    if holds:
        for r in sorted(regions, key=lambda r: (-len(r), sorted(map(repr, r)))):
            trial = [x for x in regions if x != r]
            if trial and closure_ok(trial):
                regions = trial

    net = PetriNet("synthesized")
    place_map: Dict[str, FrozenSet[State]] = {}
    for i, r in enumerate(regions):
        name = "r%d" % i
        net.add_place(name, tokens=1 if ts.initial in r else 0)
        place_map[name] = r
    for event in sorted(ts.events):
        net.add_transition(event)
    for name, r in place_map.items():
        for event in sorted(ts.events):
            gradient = event_gradient(ts, r, event)
            if gradient == EXIT:
                net.add_arc(name, event)
            elif gradient == ENTER:
                net.add_arc(event, name)
    return net, place_map


def extract_stg(ts: TransitionSystem, signal_types: Dict[str, SignalType],
                name: str = "extracted") -> STG:
    """Back-annotate a TS whose events are signal-event strings into an STG.

    ``signal_types`` classifies each signal (input/output/internal).  The
    paper's Figure 10(a) is obtained by applying this to the state graph of
    the decomposed circuit of Figure 9(a).
    """
    net, _ = synthesize_net(ts)
    stg = STG(name)
    for signal, kind in signal_types.items():
        stg.declare_signal(signal, kind)
    for t in sorted(net.transitions):
        SignalEvent.parse(t)  # validates the event syntax
    stg.net = net.copy(name)
    for t in stg.net.transitions:
        stg.net.transitions[t].label = SignalEvent.parse(t)
    for t in stg.net.transitions:
        signal = stg.net.transitions[t].label.signal
        if signal not in stg.signal_types:
            raise SynthesisError("event %r uses unclassified signal %r"
                                 % (t, signal))
    stg.validate()
    return stg
