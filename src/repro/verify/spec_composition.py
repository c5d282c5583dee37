"""Parallel composition of specifications (paper ref [10], Dill's trace
theory for hierarchical verification).

Two STGs are composed at the transition-system level: shared signals
synchronise (every occurrence is a joint move), private signals
interleave.  For a well-formed connection each shared signal is driven by
exactly one side (output or internal there) and observed by the other
(input there).

The composition is the basis for hierarchical reasoning: composing a
specification with its :meth:`~repro.stg.stg.STG.mirror` closes the
system; composing two pipeline-stage controllers yields the two-stage
behaviour.  The resulting TS can be re-synthesized into an STG via
:func:`repro.regions.synthesis.extract_stg`.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..budgets import DECOMPOSE_STATE_BOUND
from ..errors import ModelError, StateExplosionError
from ..stg.signals import SignalType
from ..stg.stg import STG
from ..ts.state_graph import build_state_graph
from ..ts.transition_system import TransitionSystem


def check_connection(a: STG, b: STG) -> List[str]:
    """The shared signals of a legal connection (driver on one side,
    input on the other).  Raises :class:`ModelError` on conflicts."""
    shared = sorted(set(a.signals) & set(b.signals))
    for s in shared:
        ka, kb = a.type_of(s), b.type_of(s)
        drivers = sum(1 for k in (ka, kb) if k.is_noninput)
        if drivers == 2:
            raise ModelError("signal %r driven by both sides" % s)
        if drivers == 0:
            # both read it: allowed only if some third party drives it,
            # which a closed two-way composition cannot provide
            raise ModelError("signal %r driven by neither side" % s)
    return shared


def compose_specifications(a: STG, b: STG,
                           max_states: int = DECOMPOSE_STATE_BOUND) -> TransitionSystem:
    """Synchronous product of two STG behaviours.

    States are pairs of component markings; arcs are labelled with signal
    event strings (``"req+"``).  Shared events move both components
    simultaneously and require both to enable them; private events
    interleave.
    """
    shared = set(check_connection(a, b))
    sg_a = build_state_graph(a, max_states=max_states)
    sg_b = build_state_graph(b, max_states=max_states)

    def moves(sg, i):
        """signal-event string -> list of successor state numbers."""
        result: Dict[str, List[int]] = {}
        for t, j in sg.graph.arcs[i]:
            event = sg.events[t]
            if event.is_dummy:
                raise ModelError("composition of dummy events unsupported")
            key = event.signal + event.direction
            result.setdefault(key, []).append(j)
        return result

    # the walk runs on pairs of state numbers; markings are decoded only
    # for the transition system it returns
    markings_a = sg_a.graph.markings()
    markings_b = sg_b.graph.markings()
    ts = TransitionSystem((markings_a[0], markings_b[0]))
    stack = [(0, 0)]
    seen = {(0, 0)}
    while stack:
        state = stack.pop()
        pa, pb = state
        moves_a = moves(sg_a, pa)
        moves_b = moves(sg_b, pb)
        successors: List[Tuple[str, Tuple[int, int]]] = []
        for event, targets in moves_a.items():
            signal = event[:-1]
            if signal in shared:
                if event in moves_b:
                    for ta in targets:
                        for tb in moves_b[event]:
                            successors.append((event, (ta, tb)))
            else:
                for ta in targets:
                    successors.append((event, (ta, pb)))
        for event, targets in moves_b.items():
            signal = event[:-1]
            if signal in shared:
                continue  # handled jointly above
            for tb in targets:
                successors.append((event, (pa, tb)))
        for event, succ in successors:
            ts.add_arc((markings_a[pa], markings_b[pb]), event,
                       (markings_a[succ[0]], markings_b[succ[1]]))
            if succ not in seen:
                if len(seen) >= max_states:
                    raise StateExplosionError(
                        "composition exceeded %d states" % max_states,
                        bound=max_states, states=len(seen))
                seen.add(succ)
                stack.append(succ)
    return ts


def composed_signal_types(a: STG, b: STG) -> Dict[str, SignalType]:
    """Signal classification of the composition: shared signals become
    internal; private signals keep their role."""
    shared = set(check_connection(a, b))
    types: Dict[str, SignalType] = {}
    for stg in (a, b):
        for s in stg.signals:
            if s in shared:
                types[s] = SignalType.INTERNAL
            elif s not in types:
                types[s] = stg.type_of(s)
    return types


def compose_to_stg(a: STG, b: STG, name: str = "composed",
                   max_states: int = DECOMPOSE_STATE_BOUND) -> STG:
    """Compose two specifications and re-synthesize an STG via regions.

    Requires excitation closure of the composed behaviour (holds for the
    library's controller compositions); multiple occurrences of the same
    event in the product make this fail for some combinations — the TS
    from :func:`compose_specifications` is always available as fallback.
    """
    from ..regions.synthesis import extract_stg

    ts = compose_specifications(a, b, max_states=max_states)
    return extract_stg(ts, composed_signal_types(a, b), name=name)
