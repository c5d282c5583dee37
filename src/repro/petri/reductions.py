"""Structural (linear) reductions of Petri nets — Section 2.2 of the paper.

Kit of behaviour-preserving reduction rules (Murata, 1989):

* **FST** — fusion of series transitions;
* **FSP** — fusion of series places;
* **FPT / FPP** — fusion of parallel transitions / places;
* **ESP** — elimination of (marked) self-loop places;
* elimination of behaviourally *implicit places*.

The paper uses these in two ways: Figure 6 applies linear reductions to the
READ/WRITE STG to expose its state-machine components, and it notes that
"using more elaborate reductions it is possible to reduce the whole PN from
Figure 3 to a single self-loop transition".  Both are reproduced in the
benchmark suite.

All rules operate on a copy unless ``inplace=True``; fused node names are
joined with ``"."`` so the reduction history stays readable.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from .. import obs
from ..budgets import REDUCTION_STATE_BOUND
from ..errors import ModelError
from .net import PetriNet
from .properties import _reachability_graph


# ---------------------------------------------------------------------- #
# individual rules: each returns True if it rewrote the net
# ---------------------------------------------------------------------- #

def _unique_name(net: PetriNet, base: str) -> str:
    if base not in net:
        return base
    i = 1
    while "%s~%d" % (base, i) in net:
        i += 1
    return "%s~%d" % (base, i)


def fuse_series_transitions_step(net: PetriNet) -> bool:
    """FST: place ``p`` with a single producer ``t1`` and single consumer
    ``t2`` where ``post(t1) == {p}`` and ``pre(t2) == {p}`` (weights 1,
    ``p`` unmarked) — replace ``t1; t2`` by one macro-transition."""
    for p in sorted(net.places):
        if net.places[p].tokens:
            continue
        producers = net.preset(p)
        consumers = net.postset(p)
        if len(producers) != 1 or len(consumers) != 1:
            continue
        (t1, w_in), = producers.items()
        (t2, w_out), = consumers.items()
        if t1 == t2 or w_in != 1 or w_out != 1:
            continue
        if dict(net.post(t1)) != {p: 1} or dict(net.pre(t2)) != {p: 1}:
            continue
        fused = _unique_name(net, "%s.%s" % (t1, t2))
        pre1 = dict(net.pre(t1))
        post2 = dict(net.post(t2))
        net.remove_place(p)
        net.remove_transition(t1)
        net.remove_transition(t2)
        net.add_transition(fused)
        for q, w in pre1.items():
            net.add_arc(q, fused, w)
        for q, w in post2.items():
            net.add_arc(fused, q, w)
        return True
    return False


def fuse_series_places_step(net: PetriNet) -> bool:
    """FSP: transition ``t`` with single input ``p1`` and single output
    ``p2`` where ``p1`` feeds only ``t`` and ``p2`` is produced only by
    ``t`` — merge the two places, removing ``t``."""
    for t in sorted(net.transitions):
        pre = net.pre(t)
        post = net.post(t)
        if len(pre) != 1 or len(post) != 1:
            continue
        (p1, w_in), = pre.items()
        (p2, w_out), = post.items()
        if p1 == p2 or w_in != 1 or w_out != 1:
            continue
        if dict(net.postset(p1)) != {t: 1} or dict(net.preset(p2)) != {t: 1}:
            continue
        merged = _unique_name(net, "%s.%s" % (p1, p2))
        tokens = net.places[p1].tokens + net.places[p2].tokens
        in_arcs = dict(net.preset(p1))
        out_arcs = dict(net.postset(p2))
        net.remove_transition(t)
        net.remove_place(p1)
        net.remove_place(p2)
        net.add_place(merged, tokens)
        for u, w in in_arcs.items():
            net.add_arc(u, merged, w)
        for u, w in out_arcs.items():
            net.add_arc(merged, u, w)
        return True
    return False


def fuse_parallel_places_step(net: PetriNet) -> bool:
    """FPP: two places with identical presets and postsets — keep the one
    with fewer tokens (the other can never be the sole constraint)."""
    places = sorted(net.places)
    for i, p in enumerate(places):
        for q in places[i + 1:]:
            if net.preset(p) == net.preset(q) and net.postset(p) == net.postset(q):
                drop = p if net.places[p].tokens >= net.places[q].tokens else q
                net.remove_place(drop)
                return True
    return False


def fuse_parallel_transitions_step(net: PetriNet) -> bool:
    """FPT: two transitions with identical presets and postsets — merge."""
    transitions = sorted(net.transitions)
    for i, t in enumerate(transitions):
        for u in transitions[i + 1:]:
            if dict(net.pre(t)) == dict(net.pre(u)) and \
                    dict(net.post(t)) == dict(net.post(u)):
                net.remove_transition(u)
                return True
    return False


def remove_self_loop_places_step(net: PetriNet) -> bool:
    """ESP: marked place whose preset equals its postset (a pure self-loop)
    never constrains behaviour — remove it."""
    for p in sorted(net.places):
        pre = net.preset(p)
        post = net.postset(p)
        if pre and pre == post and net.places[p].tokens >= max(post.values()):
            net.remove_place(p)
            return True
    return False


def implicit_places(net: PetriNet,
                    max_states: int = REDUCTION_STATE_BOUND) -> List[str]:
    """Behaviourally implicit places.

    A place ``p`` is implicit if in every reachable marking, whenever all
    *other* input places of each consumer of ``p`` are sufficiently marked,
    ``p`` is sufficiently marked too — i.e. ``p`` never restricts enabling.
    Removing an implicit place preserves the reachability graph modulo the
    place itself.  Checked on every reachable marking, budgeted by
    :data:`repro.budgets.REDUCTION_STATE_BOUND` (pass ``max_states=`` to
    override).
    """
    graph = _reachability_graph(net, max_states)
    tokens = graph.tokens
    result: List[str] = []
    for p in sorted(net.places):
        consumers = net.postset(p)
        if not consumers:
            result.append(p)
            continue
        implicit = True
        for m in range(len(graph)):
            for t, w in consumers.items():
                others_ok = all(
                    tokens(m, q) >= wq
                    for q, wq in net.pre(t).items() if q != p
                )
                if others_ok and tokens(m, p) < w:
                    implicit = False
                    break
            if not implicit:
                break
        if implicit:
            result.append(p)
    return result


def remove_implicit_places(net: PetriNet,
                           max_states: int = REDUCTION_STATE_BOUND,
                           inplace: bool = False) -> PetriNet:
    """Remove behaviourally implicit places one at a time (re-checking after
    each removal, since implicitness of one place can depend on another)."""
    result = net if inplace else net.copy()
    while True:
        candidates = implicit_places(result, max_states)
        # never empty the net completely of constraint structure
        removable = [p for p in candidates
                     if len(result.places) > 1]
        if not removable:
            return result
        result.remove_place(removable[0])


# ---------------------------------------------------------------------- #
# fixpoint driver
# ---------------------------------------------------------------------- #

_RULES: Dict[str, Callable[[PetriNet], bool]] = {
    "fst": fuse_series_transitions_step,
    "fsp": fuse_series_places_step,
    "fpp": fuse_parallel_places_step,
    "fpt": fuse_parallel_transitions_step,
    "esp": remove_self_loop_places_step,
}


def linear_reduce(net: PetriNet, rules: Optional[List[str]] = None,
                  inplace: bool = False) -> PetriNet:
    """Apply the named reduction rules to fixpoint.

    ``rules`` defaults to ``["fst", "fpp", "fpt", "esp"]`` — the *linear*
    reductions that preserve the place/invariant structure the paper's
    Figure 6 exposes.  Add ``"fsp"`` for the aggressive reduction that can
    collapse a marked graph to a single self-loop transition.
    """
    if rules is None:
        rules = ["fst", "fpp", "fpt", "esp"]
    for r in rules:
        if r not in _RULES:
            raise ModelError("unknown reduction rule %r" % r)
    result = net if inplace else net.copy(net.name + "_reduced")
    with obs.span("petri.reduce", net=net.name,
                  rules=",".join(rules)) as span:
        changed = True
        while changed:
            changed = False
            for r in rules:
                while _RULES[r](result):
                    changed = True
                    span.add("rules_fired")
                    span.add("rule." + r)
        span.add("places_removed",
                 len(net.places) - len(result.places))
        span.add("transitions_removed",
                 len(net.transitions) - len(result.transitions))
    return result


def full_reduce(net: PetriNet, inplace: bool = False) -> PetriNet:
    """Aggressive reduction with all rules (FST, FSP, FPP, FPT, ESP).

    For a live safe marked graph this collapses the net to a single
    transition with a self-loop place — the paper's Section 2.2 remark
    about Figure 3.
    """
    return linear_reduce(net, rules=["fst", "fsp", "fpp", "fpt", "esp"],
                         inplace=inplace)
