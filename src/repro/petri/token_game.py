"""The token game: enabling and firing semantics of Petri nets.

A transition is *enabled* in a marking if every input place carries at least
the arc weight in tokens.  *Firing* an enabled transition consumes tokens
from input places and produces tokens in output places atomically.  Section
1.2 of the paper describes exactly this semantics.
"""

from __future__ import annotations

import random
from typing import Iterator, List, Optional, Sequence, Tuple

from ..errors import ModelError, UnboundedError
from .marking import Marking
from .net import PetriNet


def enabled_unchecked(net: PetriNet, marking: Marking,
                      transition: str) -> bool:
    """Enabledness test without the transition-membership check.

    Internal fast path for hot loops that already iterate over
    ``net.transitions`` (so membership is guaranteed); public entry points
    validate once and then stay on this path.
    """
    get = marking.get
    return all(get(p) >= w for p, w in net.pre(transition).items())


def is_enabled(net: PetriNet, marking: Marking, transition: str) -> bool:
    """True iff ``transition`` is enabled in ``marking``."""
    if transition not in net.transitions:
        raise ModelError("unknown transition %r" % transition)
    return enabled_unchecked(net, marking, transition)


def enabled_transitions(net: PetriNet, marking: Marking) -> List[str]:
    """All transitions enabled in ``marking``, sorted by name."""
    return sorted(
        t for t in net.transitions if enabled_unchecked(net, marking, t)
    )


def fire(net: PetriNet, marking: Marking, transition: str,
         check: bool = True) -> Marking:
    """Fire ``transition`` in ``marking`` and return the successor marking.

    Raises :class:`ModelError` if the transition is not enabled and ``check``
    is true.  The unknown-transition check runs once here; the enabling
    test itself uses the check-free path.
    """
    if check:
        if transition not in net.transitions:
            raise ModelError("unknown transition %r" % transition)
        if not enabled_unchecked(net, marking, transition):
            raise ModelError(
                "transition %r not enabled in %r" % (transition, marking)
            )
    delta = {}
    for p, w in net.pre(transition).items():
        delta[p] = delta.get(p, 0) - w
    for p, w in net.post(transition).items():
        delta[p] = delta.get(p, 0) + w
    return marking.add(delta)


def fire_sequence(net: PetriNet, marking: Marking,
                  sequence: Sequence[str]) -> Marking:
    """Fire a sequence of transitions, returning the final marking."""
    for t in sequence:
        marking = fire(net, marking, t)
    return marking


def can_fire_sequence(net: PetriNet, marking: Marking,
                      sequence: Sequence[str]) -> bool:
    """True iff the whole sequence is fireable from ``marking``."""
    for t in sequence:
        if t not in net.transitions:
            raise ModelError("unknown transition %r" % t)
        if not enabled_unchecked(net, marking, t):
            return False
        marking = fire(net, marking, t, check=False)
    return True


def fire_safe(net: PetriNet, marking: Marking, transition: str) -> Marking:
    """Fire and additionally verify 1-safeness of the successor marking.

    Raises :class:`UnboundedError` if any place would hold more than one
    token — used by algorithms that require safe nets.
    """
    successor = fire(net, marking, transition)
    if not successor.is_safe():
        offenders = [p for p, n in successor.items() if n > 1]
        raise UnboundedError(
            "firing %r violates 1-safeness at places %r" % (transition, offenders)
        )
    return successor


def random_walk(net: PetriNet, steps: int, seed: Optional[int] = None,
                marking: Optional[Marking] = None) -> List[Tuple[str, Marking]]:
    """Perform a uniformly random firing walk of at most ``steps`` steps.

    Returns the list of ``(transition, marking_after)`` pairs; the walk stops
    early at a deadlock.  Useful for property-based testing.
    """
    rng = random.Random(seed)
    if marking is None:
        marking = net.initial_marking
    trace: List[Tuple[str, Marking]] = []
    for _ in range(steps):
        enabled = enabled_transitions(net, marking)
        if not enabled:
            break
        t = rng.choice(enabled)
        marking = fire(net, marking, t, check=False)
        trace.append((t, marking))
    return trace


def language_prefixes(net: PetriNet, max_length: int,
                      marking: Optional[Marking] = None) -> Iterator[Tuple[str, ...]]:
    """Enumerate all firing sequences of length up to ``max_length``.

    The empty sequence is included.  Exponential — intended for tests on
    small nets only.
    """
    if marking is None:
        marking = net.initial_marking
    stack: List[Tuple[Tuple[str, ...], Marking]] = [((), marking)]
    while stack:
        prefix, m = stack.pop()
        yield prefix
        if len(prefix) >= max_length:
            continue
        for t in enabled_transitions(net, m):
            stack.append((prefix + (t,), fire(net, m, t, check=False)))
