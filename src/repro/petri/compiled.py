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

Integer states decode back to :class:`Marking` objects on demand.  The
compilation keeps no decoded state: the explored graph
(:class:`repro.ts.builder.NumberedGraph`) holds the compilation as
``graph.compiled`` and the one list of decoded markings.
"""

from __future__ import annotations

from typing import Dict, List

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
    which pins the graph that holds the compilation: a dropped net, its
    graph and the compilation are freed by reference counting alone.
    """

    __slots__ = (
        "name", "places", "place_bit", "transitions", "transition_bit",
        "pre_masks", "post_masks", "affected",
    )

    def __init__(self, net: PetriNet):
        self.name = net.name
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

    # ------------------------------------------------------------------ #
    # state codecs
    # ------------------------------------------------------------------ #

    def encode(self, marking: Marking) -> int:
        """Integer code of a safe marking.

        Raises :class:`ModelError` for markings with multiple tokens on a
        place or tokens on places unknown to the net.
        """
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
        return code

    def decode(self, code: int) -> Marking:
        """The :class:`Marking` for an integer state (a fresh object per
        call)."""
        return Marking._from_sorted_key(
            tuple((p, 1) for p in self.marked_places(code)))

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

    def unbounded_error(self, code: int, index: int,
                        conflict: int) -> UnboundedError:
        """The same :class:`UnboundedError` the naive builder raises for
        this firing, with markings decoded for the message."""
        return UnboundedError(
            "firing %r from %r violates 1-safeness at %r"
            % (self.transitions[index], self.decode(code),
               self.marked_places(conflict)))

    def __repr__(self):
        return "CompiledNet(%r, |P|=%d, |T|=%d)" % (
            self.name, len(self.places), len(self.transitions))


def supports_compilation(net: PetriNet) -> bool:
    """True iff the compiled engine can represent this net exactly:
    ordinary (weight-1) arcs and a 1-safe initial marking."""
    return net.has_ordinary_arcs() and net.initial_marking.is_safe()
