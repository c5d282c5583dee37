"""ASCII waveform (timing-diagram) rendering.

The paper motivates STGs as "a formalization of timing diagrams"
(Section 1.1, Figure 2).  This module closes the loop: given an STG and a
firing trace, it renders the classic waveform picture so the READ-cycle
diagram of Figure 2 can be regenerated from the formal model.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..errors import ModelError
from .stg import STG
from ..petri.token_game import enabled_transitions, fire

HIGH = "‾"  # overline
LOW = "_"
RISE_CHAR = "/"
FALL_CHAR = "\\"


def canonical_trace(stg: STG, max_steps: int = 10_000) -> List[str]:
    """A firing sequence that returns to the initial marking.

    Deterministic depth-first search for the lexicographically smallest
    cycle through the reachability graph back to the initial marking.
    """
    initial = stg.initial_marking
    seen = {initial}
    path: List[str] = []

    def dfs(marking) -> bool:
        if len(path) > max_steps:
            return False
        for t in enabled_transitions(stg.net, marking):
            succ = fire(stg.net, marking, t, check=False)
            path.append(t)
            if succ == initial:
                return True
            if succ not in seen:
                seen.add(succ)
                if dfs(succ):
                    return True
            path.pop()
        return False

    if not dfs(initial):
        raise ModelError("no cycle back to the initial marking found")
    return path


def render_waveforms(stg: STG, trace: Optional[Sequence[str]] = None,
                     initial_values: Optional[Dict[str, int]] = None,
                     width: int = 4) -> str:
    """Render signal waveforms over a firing trace.

    Each event occupies ``width`` columns; rising edges are drawn ``/``,
    falling edges ``\\``, stable phases with ``_`` (low) and an overline
    (high).  ``initial_values`` defaults to all-zero, which is correct for
    specifications whose first transition of every signal is rising (such
    as the VME examples); otherwise pass the code from
    :func:`repro.ts.state_graph.build_state_graph`.
    """
    if trace is None:
        trace = canonical_trace(stg)
    values = {s: 0 for s in stg.signals}
    if initial_values:
        values.update(initial_values)
    rows: Dict[str, List[str]] = {s: [] for s in stg.signals}
    header: List[str] = []

    def emit_stable():
        for s in stg.signals:
            rows[s].append((HIGH if values[s] else LOW) * width)

    emit_stable()
    header.append(" " * width)
    for t in trace:
        event = stg.event_of(t)
        for s in stg.signals:
            if s == event.signal and not event.is_dummy:
                edge = RISE_CHAR if event.is_rising else FALL_CHAR
                rows[s].append(edge)
            else:
                rows[s].append(HIGH if values[s] else LOW)
        if not event.is_dummy:
            values[event.signal] = 1 if event.is_rising else 0
        header.append(str(event).ljust(width + 1)[: width + 1])
        emit_stable()

    name_width = max(len(s) for s in stg.signals) if stg.signals else 0
    lines = [" " * (name_width + 2) + "".join(header)]
    for s in stg.signals:
        lines.append("%s  %s" % (s.rjust(name_width), "".join(rows[s])))
    return "\n".join(lines)
