"""Complete State Coding resolution (paper, Sections 2.1 and 3.1).

Two techniques from the paper are implemented:

* **State-signal insertion** (:func:`resolve_csc`): insert a new internal
  signal whose rising transition precedes one event and whose falling
  transition precedes another, so that the conflicting states receive
  different codes.  The paper's example inserts ``csc0+`` right before
  ``LDS+`` and ``csc0-`` right before ``D-``.  Candidate pairs are searched
  exhaustively over non-input events (delaying inputs is not allowed "for
  compositional reasons") and validated on the resulting state graph:
  consistency, safeness, CSC, persistency and liveness must all hold.

* **Concurrency reduction** (:func:`resolve_by_concurrency_reduction`):
  remove the conflicting states themselves by ordering one event after
  another (the paper's alternative: "signal transition DTACK- can be
  delayed until LDS- fires").

Insertion candidates are decided on the parent's graph
------------------------------------------------------

Inserting ``s+`` right before a target ``t`` gives ``t``'s input places
to a new transition ``n_t`` that feeds ``t`` through a fresh place.  So
the child replays every path of the parent, with each ``n_t`` fired just
before its ``t``, and does nothing else: the state graph of an insertion
can be read off the parent's numbered graph, as in the state-graph view
of insertions of Vanbekbergen et al. (ICCAD 1992) and Cortadella et al.
(IEEE TCAD 16(8), 1997).  :func:`enumerate_insertions` explores and
labels the parent once per search step, and every candidate takes two
walks over that graph, with no STG built:

1. **Parity walk.**  The rise and fall targets act as the rising and
   falling events of a virtual signal; the walk labels the parent's
   states with it as the state graph's parity propagation does.  The
   child is consistent iff the targets alternate on every path: a clash
   here replays in the child, and without one the child's codes are the
   parent's plus the virtual value.
2. **Child walk.**  Over pairs (parent state, pending ``n_t`` or
   none): a pending target fires only after its ``n_t``, and a
   transition that shares an input place with the pending target is
   disabled, since ``n_t`` took those places.  The walk yields the
   child's states, arcs, int codes and enabled masks in the child's own
   code layout, and the persistency, liveness and CSC-conflict checks of
   an explored STG read them (:func:`_insertion_metrics`).

The second walk is exact for a **safe** parent.  Map a child marking to
the parent by giving the pending target its input places back.  A
firing of the child maps to no move (``n_t``) or to the same firing of
the parent, so the image stays reachable, and a second token in the
child would be one in the parent too.  At most one target is pending
once the parity walk has passed: if some ``n_u`` could fire while ``t``
is pending, ``u`` shares no input place with ``t``, so in the parent
``u`` fires both before and after ``t``, at both values of the virtual
signal.  Nor can ``n_t`` fire again while pending, as it took ``t``'s
input places (every target of a consistent parent has one: a target
without would be enabled everywhere and switch its signal twice in a
row).  So a candidate is walked only when the parent was explored by
the compiled explorer, which refuses any unsafe firing.  If the parent
is unsafe or inconsistent, every child replays the violation and the
candidate is rejected unbuilt; a parent explored by the naive explorer
(weighted arcs, or an unsafe initial marking) keeps building and
exploring each candidate.  Only the chosen candidate's STG is built
(:attr:`InsertionCandidate.stg`), from the copy of the parent STG that
the search step took.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple

from ..budgets import REDUCTION_STATE_BOUND
from ..errors import (CSCError, ConsistencyError, ModelError, ReproError,
                      UnboundedError)
from ..petri.properties import is_live
from ..stg.signals import FALL, RISE, SignalEvent
from ..stg.stg import STG
from ..ts.builder import NumberedGraph
from ..ts.state_graph import build_state_graph
from ..analysis.implementability import (
    check_implementability,
    csc_conflict_count,
    disabling_mask,
    disabling_masks,
    persistency_losses,
)


class _Labelled(NamedTuple):
    """What the well-formedness checks read of a state graph: the graph
    (arcs, transitions), the int codes and enabled masks per state, the
    non-input bits and the per-transition :func:`disabling_mask`."""

    graph: NumberedGraph
    codes: Sequence[int]
    masks: Sequence[int]
    noninput: int
    disabling: Sequence[int]


def _explored(stg: STG, max_states: int) -> Optional[_Labelled]:
    """An STG explored and labelled, or None if that fails."""
    try:
        sg = build_state_graph(stg, max_states=max_states)
    except ReproError:
        return None
    return _Labelled(sg.graph, sg.int_codes, sg.enabled_masks,
                     sg.noninput_mask, disabling_masks(sg))


class _Parent:
    """One step of the insertion search: the parent STG explored and
    labelled once, with the new signal's bits placed in the child's code
    layout.  Every candidate of the step reads it.

    Raises :class:`ModelError` if the STG already declares ``signal``.
    ``stg`` is a copy of the parent taken here, so a candidate's STG is
    built from the parent as it was searched.  ``conflicts`` is the
    parent's CSC-conflict count.  ``graph`` is None when the parent is
    unsafe or inconsistent (every candidate is then rejected), and
    ``walks`` is False when the parent was explored by the naive explorer
    (every candidate is then built and explored).
    """

    def __init__(self, stg: STG, signal: str, max_states: int):
        if signal in stg.signal_types:
            raise ModelError("signal %r is already declared in %r"
                             % (signal, stg.name))
        self.stg = stg.copy()
        self.signal = signal
        self.conflicts = 0
        self.graph: Optional[NumberedGraph] = None
        self.walks = False
        try:
            sg = build_state_graph(stg, max_states=max_states)
        except (UnboundedError, ConsistencyError):
            return
        self.graph = graph = sg.graph
        self.conflicts = csc_conflict_count(sg.int_codes, sg.enabled_masks,
                                            sg.noninput_mask)
        self.walks = graph.compiled is not None
        if not self.walks:
            return
        self.index = {t: i for i, t in enumerate(graph.transitions)}
        self.pre = graph.compiled.pre_masks
        # the child orders its signals by name: the new signal's code bit
        # lands below the parent's bits of the signals sorted before it,
        # and its two mask bits above those signals' pairs
        position = sorted(sg.signal_order + [signal]).index(signal)
        below = len(sg.signal_order) - position
        self.code_bit = 1 << below
        self.codes = [((c >> below) << (below + 1)) | (c & (self.code_bit - 1))
                      for c in sg.int_codes]
        split = 2 * position
        self.rise_bit = 1 << split
        self.fall_bit = self.rise_bit << 1

        def lift(mask: int) -> int:
            return ((mask >> split) << (split + 2)) | (
                mask & (self.rise_bit - 1))

        own = self.rise_bit | self.fall_bit
        self.noninput = lift(sg.noninput_mask) | own
        self.pairs = [0 if e.is_dummy else lift(
            sg.signal_bits(e.signal)[1 if e.is_rising else 2])
            for e in sg.events]
        self.disabling = disabling_masks(sg, lift, self.noninput)
        self.inserted_disabling = disabling_mask(own, True, self.noninput)

    def values(self, targets: Sequence[int],
               rises: int) -> Optional[List[int]]:
        """Walk 1, the parity walk: the value of the virtual signal whose
        rising events are ``targets[:rises]`` and falling events the rest
        (transition numbers), per parent state; None if they do not
        alternate on every path."""
        arcs = self.graph.arcs
        direction = [-1] * len(self.graph.transitions)
        for k, t in enumerate(targets):
            direction[t] = 0 if k < rises else 1
        parity = [-1] * len(arcs)
        parity[0] = 0
        stack = [0]
        initial = -1
        while stack:
            i = stack.pop()
            p = parity[i]
            for t, j in arcs[i]:
                d = direction[t]
                q = p
                if d >= 0:
                    # a rising edge needs value 0: initial value = parity
                    if initial < 0:
                        initial = p ^ d
                    elif initial != p ^ d:
                        return None
                    q ^= 1
                seen = parity[j]
                if seen < 0:
                    parity[j] = q
                    stack.append(j)
                elif seen != q:
                    return None
        return parity if initial <= 0 else [p ^ 1 for p in parity]

    def walk(self, rise: Sequence[str], fall: Sequence[str],
             max_states: int) -> Optional[_Labelled]:
        """The labelled state graph of the insertion of ``signal+``
        before each of ``rise`` and ``signal-`` before each of ``fall``,
        from the two walks of the module docstring; None if the child is
        unsafe, inconsistent or has more than ``max_states`` states."""
        targets = [self.index[t] for t in (*rise, *fall)]
        values = self.values(targets, len(rise))
        if values is None:
            return None
        # walk 2, over (pending target, parent state), keyed k * n + state
        # with k = 0 when no target is pending and k = s + 1 when target
        # s is; the transition inserted before target s is transition
        # number first + s
        arcs, pre, pairs = self.graph.arcs, self.pre, self.pairs
        n, first = len(arcs), len(self.graph.transitions)
        slot = [-1] * first
        for k, t in enumerate(targets):
            slot[t] = k
        inserted = ([self.rise_bit] * len(rise)
                    + [self.fall_bit] * len(fall))
        keys = [0]
        number = {0: 0}
        out_arcs: List[List[Tuple[int, int]]] = []
        codes: List[int] = []
        masks: List[int] = []
        for key in keys:
            k, m = divmod(key, n)
            pending = targets[k - 1] if k else -1
            locked = pre[pending] if k else 0
            out = []
            mask = 0
            for t, j in arcs[m]:
                if t == pending:
                    succ, label, bit = j, t, pairs[t]
                elif pre[t] & locked:
                    continue
                elif slot[t] >= 0:
                    # walk 1 leaves no second target pending (docstring)
                    assert not k
                    succ, label = (slot[t] + 1) * n + m, first + slot[t]
                    bit = inserted[slot[t]]
                else:
                    succ, label, bit = key + j - m, t, pairs[t]
                mask |= bit
                s = number.get(succ)
                if s is None:
                    s = len(keys)
                    if s >= max_states:
                        return None
                    number[succ] = s
                    keys.append(succ)
                out.append((label, s))
            out_arcs.append(out)
            masks.append(mask)
            codes.append(self.codes[m] | self.code_bit
                         if values[m] ^ (k > 0) else self.codes[m])
        names = self.graph.transitions + [
            str(SignalEvent(self.signal, RISE if k < len(rise) else FALL,
                            k if k < len(rise) else k - len(rise)))
            for k in range(len(targets))]
        return _Labelled(
            NumberedGraph(keys, out_arcs, names), codes, masks,
            self.noninput,
            self.disabling + [self.inserted_disabling] * len(targets))


class InsertionCandidate:
    """A single-signal insertion into an STG: ``signal+`` right before
    each event of ``rise`` and ``signal-`` right before each of ``fall``.

    ``rise_before`` / ``fall_before`` are the comma-joined target lists
    (a new transition instance is inserted before each target).
    ``conflicts`` counts the remaining CSC conflicts (0 means the
    insertion fully restores complete state coding) and ``states`` the
    state graph's size; :func:`enumerate_insertions` sets both once the
    candidate passes.  :attr:`stg` builds the STG on first read, from
    the copy of the input STG that the search step took (``parent``), so
    a later change to the input does not reach it.
    """

    def __init__(self, parent: _Parent, rise: Sequence[str],
                 fall: Sequence[str]):
        self.parent = parent
        self.rise = tuple(rise)
        self.fall = tuple(fall)
        self.rise_before = ",".join(rise)
        self.fall_before = ",".join(fall)
        self.conflicts: Optional[int] = None
        self.states: Optional[int] = None
        self._stg: Optional[STG] = None

    @property
    def stg(self) -> STG:
        """The STG with the signal inserted (built once, when read)."""
        if self._stg is None:
            parent = self.parent
            self._stg = parent.stg.insert_signal(
                parent.signal, rise_before=list(self.rise),
                fall_before=list(self.fall))
        return self._stg

    def labelled(self, max_states: int) -> Optional[_Labelled]:
        """The candidate's labelled state graph, or None if the child is
        unsafe, inconsistent or over ``max_states``: walked on the
        parent's graph, built only for a parent the walks do not cover
        (module docstring)."""
        parent = self.parent
        if parent.graph is None:
            return None
        if not parent.walks:
            return _explored(self.stg, max_states)
        return parent.walk(self.rise, self.fall, max_states)

    def __repr__(self):
        return ("InsertionCandidate(rise_before=%r, fall_before=%r,"
                " conflicts=%r, states=%r)" % (
                    self.rise_before, self.fall_before, self.conflicts,
                    self.states))


def _noninput_transitions(stg: STG) -> List[str]:
    return sorted(
        t for t in stg.net.transitions
        if stg.type_of(stg.event_of(t).signal).is_noninput
    )


def _insertion_targets(stg: STG) -> List[Tuple[str, ...]]:
    """Candidate insertion points: every single non-input transition, plus
    every *group* of instances of the same base event (needed when the
    conflicting behaviour occurs in several branches, as in the READ/WRITE
    controller where csc0+ must precede both LDS+ instances)."""
    singles = [(t,) for t in _noninput_transitions(stg)]
    groups: dict = {}
    for t in _noninput_transitions(stg):
        groups.setdefault(stg.event_of(t).base(), []).append(t)
    multi = [tuple(sorted(ts)) for ts in groups.values() if len(ts) > 1]
    return singles + sorted(multi)


def _insertion_metrics(stg, max_states: int) -> Optional[Tuple[int, int]]:
    """(csc conflict count, SG size) if the STG stays well-formed
    (bounded, consistent, persistent, live), else None.

    ``stg`` is an :class:`STG`, explored and labelled here, or an
    :class:`InsertionCandidate`, labelled by its walks on the parent's
    graph.  Either way the checks read the one labelled graph: the
    persistency and CSC cores of :mod:`repro.analysis.implementability`
    and :func:`~repro.petri.properties.is_live`, with no marking decoded.
    """
    if isinstance(stg, InsertionCandidate):
        labelled = stg.labelled(max_states)
    else:
        labelled = _explored(stg, max_states)
    if labelled is None:
        return None
    graph, codes, masks, noninput, disabling = labelled
    if any(persistency_losses(graph.arcs, masks, disabling)) \
            or not is_live(graph):
        return None
    return csc_conflict_count(codes, masks, noninput), len(graph)


def enumerate_insertions(stg: STG, signal: str = "csc0",
                         max_states: int = REDUCTION_STATE_BOUND,
                         full_only: bool = True) -> List[InsertionCandidate]:
    """Single-signal insertions (rise/fall before non-input events) that
    keep the specification well-formed.

    With ``full_only`` (the default) only insertions that fully restore CSC
    are returned; otherwise partial resolutions (fewer conflicts than the
    input) are included.  Sorted best-first: fewest remaining conflicts,
    then smallest state graph, then lexicographic.  Each candidate is
    decided on the input's graph (module docstring), and its STG is built
    only when read, from a copy of the input taken here.  Raises
    :class:`~repro.errors.ModelError` if ``stg`` already declares
    ``signal``.
    """
    parent = _Parent(stg, signal, max_states)
    candidates: List[InsertionCandidate] = []
    targets = _insertion_targets(stg)
    for rise_before in targets:
        for fall_before in targets:
            if set(rise_before) & set(fall_before):
                continue
            candidate = InsertionCandidate(parent, rise_before, fall_before)
            metrics = _insertion_metrics(candidate, max_states)
            if metrics is None:
                continue
            conflicts, states = metrics
            if conflicts > 0 and (full_only
                                  or conflicts >= parent.conflicts):
                continue
            candidate.conflicts, candidate.states = conflicts, states
            candidates.append(candidate)
    candidates.sort(key=lambda c: (c.conflicts, c.states,
                                   c.rise_before, c.fall_before))
    return candidates


def _fresh_signal(stg: STG, prefix: str) -> str:
    """The first ``<prefix><k>`` that ``stg`` does not declare."""
    k = 0
    while "%s%d" % (prefix, k) in stg.signal_types:
        k += 1
    return "%s%d" % (prefix, k)


def resolve_csc(stg: STG, signal_prefix: str = "csc",
                max_signals: int = 4,
                max_states: int = REDUCTION_STATE_BOUND) -> STG:
    """Resolve all CSC conflicts by iterative state-signal insertion.

    Inserts ``csc0``, ``csc1``, ... (one rising and one falling transition
    each; each the first such name the STG does not declare yet) until CSC
    holds.  At each step the candidate leaving the fewest conflicts (then
    the smallest state graph) is chosen; candidates that do not strictly
    reduce the conflict count are discarded, so the iteration always
    progresses.  Raises :class:`CSCError` if the search fails within
    ``max_signals`` insertions.
    """
    current = stg
    for _ in range(max_signals):
        report = check_implementability(current, max_states=max_states)
        if report.consistent and report.has_csc:
            return current
        candidates = enumerate_insertions(
            current, signal=_fresh_signal(current, signal_prefix),
            max_states=max_states, full_only=False)
        if not candidates:
            raise CSCError(
                "no single-signal insertion reduces the CSC conflicts of %r"
                % current.name)
        current = candidates[0].stg
    report = check_implementability(current, max_states=max_states)
    if report.consistent and report.has_csc:
        return current
    raise CSCError("CSC unresolved after %d signal insertions" % max_signals)


def resolve_by_concurrency_reduction(stg: STG,
                                     max_states: int = REDUCTION_STATE_BOUND) -> Tuple[STG, Tuple[str, str]]:
    """Resolve CSC by delaying one non-input event after another.

    Searches ordered pairs ``(first, second)`` where ``second`` is a
    non-input event, adds the ordering place ``first -> second`` (trying
    both initial markings of the place) and accepts the first candidate
    that is implementable and live.  Returns ``(new_stg, (first, second))``.
    Each candidate is built, explored and labelled.
    """
    report = check_implementability(stg, max_states=max_states)
    if report.consistent and report.has_csc:
        return stg, ("", "")
    all_events = sorted(stg.net.transitions)
    targets = _noninput_transitions(stg)
    best: Optional[Tuple[int, str, str, STG]] = None
    for first in all_events:
        for second in targets:
            if first == second:
                continue
            for marked in (False, True):
                try:
                    attempt = stg.add_ordering_arc(first, second,
                                                   initially_marked=marked)
                except ReproError:
                    continue
                metrics = _insertion_metrics(attempt, max_states)
                if metrics is None or metrics[0] > 0:
                    continue
                states = metrics[1]
                key = (states, first, second)
                if best is None or key < (best[0], best[1], best[2]):
                    best = (states, first, second, attempt)
                break  # prefer the unmarked variant when both work
    if best is None:
        raise CSCError(
            "no single concurrency reduction resolves the CSC conflicts of %r"
            % stg.name)
    return best[3], (best[1], best[2])
