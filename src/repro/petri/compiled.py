"""Compiled bitvector engine for the token game on safe nets.

The explicit token game of :mod:`repro.petri.token_game` plays on
dict-backed :class:`~repro.petri.marking.Marking` objects and rescans every
transition of the net per marking.  That is the scalability bottleneck the
paper identifies for state-graph based synthesis (Section 2.2): everything
downstream — state graphs, excitation regions, CSC, logic covers,
verification — pays for it.

This module *compiles* a safe, ordinary (arc weight 1) net into integer
bitmasks once, so the hot loop is pure machine-word arithmetic:

* a marking is a single Python int with bit ``i`` set iff place ``i`` is
  marked (places are numbered in sorted name order);
* each transition carries a ``pre_mask`` and ``post_mask``; it is enabled
  in ``m`` iff ``m & pre_mask == pre_mask`` and firing it yields
  ``(m & ~pre_mask) | post_mask``;
* the set of enabled transitions is itself an int bitmask (transitions
  numbered in sorted name order, so iterating set bits from the lowest
  yields transitions in sorted order — the exact order the naive engine
  uses) and is maintained *incrementally*: after firing ``t`` only the
  transitions consuming from a place in ``t``'s pre- or postset can change
  status, and those are precomputed as ``affected[t]``.

Violations of 1-safeness are still detected exactly as in the multiset
semantics: firing ``t`` in ``m`` produces a second token on place ``p``
iff ``p`` is in ``t``'s postset but not its preset and already marked,
i.e. ``m & (post_mask & ~pre_mask) != 0``.

Integer states decode back to interned :class:`Marking` objects on demand
(memoized), so graph builders can hand ordinary markings to downstream
consumers without paying dict/sort costs per state.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .. import obs
from ..errors import ModelError, UnboundedError
from .marking import Marking
from .net import PetriNet


class CompiledNet:
    """A safe Petri net preprocessed into integer bitmasks.

    Raises :class:`ModelError` if the net has non-unit arc weights, and
    :meth:`encode` raises it for a marking that is not 1-safe — the
    bitvector representation only covers safe nets (the naive token game
    explores the others).

    The compilation keeps the net's ``name`` but no reference to the net,
    which pins the compilation (:func:`compile_net`): a dropped net, its
    compilation and its decoded markings are freed by reference counting
    alone.
    """

    __slots__ = (
        "name", "places", "place_bit", "transitions", "transition_bit",
        "pre_masks", "post_masks", "affected",
        "_marking_of", "_code_of", "_version",
    )

    def __init__(self, net: PetriNet):
        self.name = net.name
        self._version = net._structure_version
        self.places: List[str] = sorted(net.places)
        self.place_bit: Dict[str, int] = {
            p: i for i, p in enumerate(self.places)
        }
        self.transitions: List[str] = sorted(net.transitions)
        self.transition_bit: Dict[str, int] = {
            t: i for i, t in enumerate(self.transitions)
        }
        self.pre_masks: List[int] = []
        self.post_masks: List[int] = []
        for t in self.transitions:
            self.pre_masks.append(self._place_mask(net.pre(t)))
            self.post_masks.append(self._place_mask(net.post(t)))
        # affected[i]: bitmask of transitions whose enabledness may change
        # after firing transition i (consumers of i's pre/post places).
        self.affected: List[int] = []
        for i, t in enumerate(self.transitions):
            mask = 0
            touched = self.pre_masks[i] | self.post_masks[i]
            bits = touched
            while bits:
                low = bits & -bits
                bits ^= low
                place = self.places[low.bit_length() - 1]
                for consumer in net.postset(place):
                    mask |= 1 << self.transition_bit[consumer]
            self.affected.append(mask)
        self._marking_of: Dict[int, Marking] = {}
        self._code_of: Dict[Marking, int] = {}

    def _place_mask(self, arcs: Dict[str, int]) -> int:
        """Bitmask of the places of one transition's arcs; raises
        :class:`ModelError` for an arc weight other than 1."""
        mask = 0
        for p, weight in arcs.items():
            if weight != 1:
                raise ModelError(
                    "compiled engine requires arc weights of 1 (net %r)"
                    % self.name)
            mask |= 1 << self.place_bit[p]
        return mask

    def clear_state_pools(self) -> None:
        """Drop the interned integer<->Marking pools.

        The pools grow with every decoded state and live as long as this
        compilation (which :func:`compile_net` pins on the net); call this
        to release them after discarding the transition systems they fed.
        The mask tables are untouched.
        """
        self._marking_of = {}
        self._code_of = {}

    # ------------------------------------------------------------------ #
    # state codecs
    # ------------------------------------------------------------------ #

    def encode(self, marking: Marking) -> int:
        """Integer code of a safe marking.

        Raises :class:`ModelError` for markings with multiple tokens on a
        place or tokens on places unknown to the net.
        """
        code = self._code_of.get(marking)
        if code is not None:
            return code
        code = 0
        for p, n in marking.items():
            if n > 1:
                raise ModelError(
                    "compiled engine requires a safe marking; place %r"
                    " holds %d tokens" % (p, n))
            bit = self.place_bit.get(p)
            if bit is None:
                raise ModelError("unknown place %r in marking" % p)
            code |= 1 << bit
        self._code_of[marking] = code
        self._marking_of.setdefault(code, marking)
        return code

    def decode(self, code: int) -> Marking:
        """The :class:`Marking` for an integer state (memoized/interned)."""
        marking = self._marking_of.get(code)
        if marking is None:
            key = []
            bits = code
            while bits:
                low = bits & -bits
                bits ^= low
                key.append((self.places[low.bit_length() - 1], 1))
            marking = Marking._from_sorted_key(tuple(key))
            self._marking_of[code] = marking
            self._code_of[marking] = code
        return marking

    def marked_places(self, code: int) -> List[str]:
        """Place names of the set bits of ``code``, in sorted order."""
        names = []
        bits = code
        while bits:
            low = bits & -bits
            bits ^= low
            names.append(self.places[low.bit_length() - 1])
        return names

    # ------------------------------------------------------------------ #
    # the token game on integer states
    # ------------------------------------------------------------------ #

    def enabled_mask(self, code: int) -> int:
        """Bitmask of transitions enabled in ``code`` (full scan)."""
        mask = 0
        pre_masks = self.pre_masks
        for i in range(len(pre_masks)):
            pre = pre_masks[i]
            if code & pre == pre:
                mask |= 1 << i
        return mask

    def enabled_after(self, enabled: int, index: int, successor: int) -> int:
        """Enabled mask of ``successor`` given the enabled mask of the
        state in which transition ``index`` was just fired.

        Only the transitions in ``affected[index]`` are re-checked; all
        others keep their status from the predecessor.
        """
        changed = self.affected[index]
        result = enabled & ~changed
        pre_masks = self.pre_masks
        bits = changed
        while bits:
            low = bits & -bits
            bits ^= low
            pre = pre_masks[low.bit_length() - 1]
            if successor & pre == pre:
                result |= low
        return result

    def fire_index(self, code: int, index: int) -> Tuple[int, int]:
        """Fire transition ``index`` in ``code``.

        Returns ``(successor, conflict)`` where ``conflict`` is the
        bitmask of places that would receive a second token (non-zero iff
        the firing violates 1-safeness).  Enabledness is not checked.
        """
        pre = self.pre_masks[index]
        post = self.post_masks[index]
        stripped = code & ~pre
        return (stripped | post, stripped & post)

    def unbounded_error(self, code: int, index: int,
                        conflict: int) -> UnboundedError:
        """The same :class:`UnboundedError` the naive builder raises for
        this firing, with markings decoded for the message."""
        return UnboundedError(
            "firing %r from %r violates 1-safeness at %r"
            % (self.transitions[index], self.decode(code),
               self.marked_places(conflict)))

    # ------------------------------------------------------------------ #
    # name-level conveniences (tests, cross-checks, random walks)
    # ------------------------------------------------------------------ #

    def is_enabled(self, code: int, transition: str) -> bool:
        """True iff ``transition`` is enabled in integer state ``code``."""
        index = self.transition_bit.get(transition)
        if index is None:
            raise ModelError("unknown transition %r" % transition)
        pre = self.pre_masks[index]
        return code & pre == pre

    def fire(self, code: int, transition: str, check: bool = True) -> int:
        """Fire a transition by name; raises :class:`ModelError` when not
        enabled (and ``check``) and :class:`UnboundedError` on a safeness
        violation."""
        index = self.transition_bit.get(transition)
        if index is None:
            raise ModelError("unknown transition %r" % transition)
        pre = self.pre_masks[index]
        if check and code & pre != pre:
            raise ModelError(
                "transition %r not enabled in %r"
                % (transition, self.decode(code)))
        successor, conflict = self.fire_index(code, index)
        if conflict:
            raise self.unbounded_error(code, index, conflict)
        return successor

    def enabled_transitions(self, code: int) -> List[str]:
        """Enabled transitions of an integer state, sorted by name."""
        names = []
        bits = self.enabled_mask(code)
        while bits:
            low = bits & -bits
            bits ^= low
            names.append(self.transitions[low.bit_length() - 1])
        return names

    def __repr__(self):
        return "CompiledNet(%r, |P|=%d, |T|=%d)" % (
            self.name, len(self.places), len(self.transitions))


def compile_net(net: PetriNet) -> CompiledNet:
    """Compile ``net`` or raise :class:`ModelError` if it is outside the
    compiled engine's domain (non-unit arc weights).

    Compilations are cached on the net and reused as long as its structure
    is unchanged (tracked by the net's structure version), so repeated
    graph builds share one mask set and one decoded-marking pool.  The
    pool grows with every decoded state and lives as long as the net, like
    the graph :func:`repro.ts.builder.explore` memoises there; a process
    that keeps a net with a huge state space alive can release the pool
    with :meth:`CompiledNet.clear_state_pools`, and everything else by
    dropping the net.
    """
    compiled = getattr(net, "_compiled_cache", None)
    if compiled is None or compiled._version != net._structure_version:
        with obs.span("engine.compile", engine="compiled",
                      net=net.name) as span:
            compiled = CompiledNet(net)
            span.add("places", len(compiled.places))
            span.add("transitions", len(compiled.transitions))
        net._compiled_cache = compiled
    else:
        obs.add("compile_cache_hits")
    return compiled


def supports_compilation(net: PetriNet) -> bool:
    """True iff the compiled engine can represent this net exactly:
    ordinary (weight-1) arcs and a 1-safe initial marking."""
    return net.has_ordinary_arcs() and net.initial_marking.is_safe()
