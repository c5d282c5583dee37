"""Latch-based synthesis: generalized C-elements and RS latches
(paper, Sections 3.2–3.4, Figure 8).

Instead of one complex gate per signal, each signal is implemented as a
latch (C-element or RS latch) with separate *set* and *reset* excitation
functions:

* the set function must cover ``ER(z+)`` and be 0 on ``OFF(z)``
  (= ``ER(z-) ∪ QR(z-)``); it is free on ``QR(z+)`` and on unreachable
  codes, which the minimiser never lists;
* dually for the reset function.

The regions are read straight from the state graph's int codes and
enabled masks, one pass per region (:meth:`StateGraph.signal_bits`
names the bits): ``ER(z+)`` and ``ER(z-)`` are the states with the
``z+``/``z-`` bit of their mask set, ``QR(z+)`` the codes with ``z`` at 1
and no ``z-`` enabled, ``QR(z-)`` those with ``z`` at 0 and no ``z+``
enabled.  No marking is decoded.

This is the *monotonous cover* architecture of [1, 14]: if the chosen
covers rise and fall monotonically along every execution path, the
two-level-logic + latch implementation is hazard-free.  A static
sufficient check (:func:`check_monotonous_cover`) is provided; the
:mod:`repro.verify` composition is the authoritative hazard check used by
the tests and benchmarks.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import CSCError
from ..boolmin.cube import Cube, cube_contains
from ..boolmin.expr import from_cubes
from ..boolmin.quine_mccluskey import minimize
from ..stg.signals import FALL, RISE
from ..stg.stg import STG
from ..ts.state_graph import StateGraph, build_state_graph
from .netlist import Gate, Netlist


def excitation_covers(sg: StateGraph, signal: str) -> Tuple[List[Cube], List[Cube]]:
    """Minimized set and reset covers for a signal.

    The set cover is 1 on ``ER(z+)`` and 0 on ``ER(z-) ∪ QR(z-)``; the
    reset cover is 1 on ``ER(z-)`` and 0 on ``ER(z+) ∪ QR(z+)``.  Codes of
    no state are left free and never listed.  Raises :class:`CSCError`
    when an ON code of either cover is also one of its OFF codes.

    Returns ``(set_cubes, reset_cubes)`` over ``sg.signal_order``.
    """
    bit, rise, fall = sg.signal_bits(signal)
    codes, masks = sg.int_codes, sg.enabled_masks
    er_plus = {code for code, mask in zip(codes, masks) if mask & rise}
    er_minus = {code for code, mask in zip(codes, masks) if mask & fall}
    qr_plus = {code for code, mask in zip(codes, masks)
               if code & bit and not mask & fall}
    qr_minus = {code for code, mask in zip(codes, masks)
                if not code & bit and not mask & rise}
    set_off = er_minus | qr_minus
    reset_off = er_plus | qr_plus
    n = len(sg.signal_order)
    for onset, offset, cover in ((er_plus, set_off, "set"),
                                 (er_minus, reset_off, "reset")):
        clash = onset & offset
        if clash:
            raise CSCError(
                "CSC conflict for signal %r: code %s is in both the ON-set"
                " and the OFF-set of its %s cover"
                % (signal, format(min(clash), "0%db" % n), cover))
    set_cubes = minimize(sorted(er_plus), sorted(set_off), n)
    reset_cubes = minimize(sorted(er_minus), sorted(reset_off), n)
    return set_cubes, reset_cubes


def synthesize_gc(sg_or_stg, name: Optional[str] = None) -> Netlist:
    """Generalized C-element netlist: one gC per non-input signal."""
    sg = _as_sg(sg_or_stg)
    stg = sg.stg
    netlist = Netlist(name or (stg.name + "_gc"), inputs=stg.inputs)
    for signal in stg.noninput_signals:
        set_cubes, reset_cubes = excitation_covers(sg, signal)
        netlist.add(Gate.c_element(
            signal,
            from_cubes(set_cubes, sg.signal_order),
            from_cubes(reset_cubes, sg.signal_order),
        ))
        netlist.initial[signal] = sg.initial_values[signal]
    netlist.validate()
    return netlist


def synthesize_sr(sg_or_stg, name: Optional[str] = None,
                  dominance: str = "reset") -> Netlist:
    """RS-latch netlist (Figure 8(b) uses the reset-dominant variant)."""
    sg = _as_sg(sg_or_stg)
    stg = sg.stg
    netlist = Netlist(name or (stg.name + "_sr"), inputs=stg.inputs)
    for signal in stg.noninput_signals:
        set_cubes, reset_cubes = excitation_covers(sg, signal)
        netlist.add(Gate.sr_latch(
            signal,
            from_cubes(set_cubes, sg.signal_order),
            from_cubes(reset_cubes, sg.signal_order),
            dominance=dominance,
        ))
        netlist.initial[signal] = sg.initial_values[signal]
    netlist.validate()
    return netlist


def check_monotonous_cover(sg: StateGraph, signal: str,
                           cover: Sequence[Cube],
                           direction: str = RISE) -> List[str]:
    """Static sufficient conditions for a monotonous cover.

    For a set cover (``direction == RISE``) of signal ``z``, checks along
    every SG arc ``s -> s'`` (by state number; markings are decoded only
    to name the states of a violation):

    * the cover value may rise only when entering ``ER(z+)``;
    * the cover value may fall only inside ``QR(z+)`` (i.e. after ``z+``
      has fired) or when leaving it;
    * the cover is 1 on all of ``ER(z+)`` and 0 on ``ER(z-) ∪ QR(z-)``.

    Returns a list of human-readable violation descriptions (empty when the
    cover is monotonous).  Dual conditions apply for reset covers.
    """
    er = sg.excitation_region(signal, direction)
    opposite = FALL if direction == RISE else RISE
    off = (sg.excitation_region(signal, opposite)
           | sg.quiescent_region(signal, opposite))
    qr = sg.quiescent_region(signal, direction)
    values = [any(cube_contains(c, sg.code_tuple(word)) for c in cover)
              for word in sg.int_codes]
    marking = sg.graph.marking
    names = sg.graph.transitions

    violations: List[str] = []
    for i, v in enumerate(values):
        if i in er and not v:
            violations.append("cover misses ER state %r" % (marking(i),))
        if i in off and v:
            violations.append("cover intersects OFF state %r" % (marking(i),))
    for i, out in enumerate(sg.graph.arcs):
        v = values[i]
        for t, j in out:
            w = values[j]
            if not v and w and j not in er:
                violations.append(
                    "cover rises on %r -> %r (%s) outside ER(%s%s)"
                    % (marking(i), marking(j), names[t], signal, direction))
            if v and not w and i not in qr:
                violations.append(
                    "cover falls on %r -> %r (%s) before %s%s fired"
                    % (marking(i), marking(j), names[t], signal, direction))
    return violations


def monotonicity_report(sg_or_stg) -> Dict[str, List[str]]:
    """Monotonous-cover violations of the minimized set/reset covers of
    every non-input signal (empty lists everywhere = all monotonous)."""
    sg = _as_sg(sg_or_stg)
    report: Dict[str, List[str]] = {}
    for signal in sg.stg.noninput_signals:
        set_cubes, reset_cubes = excitation_covers(sg, signal)
        report[signal] = (
            check_monotonous_cover(sg, signal, set_cubes, RISE)
            + check_monotonous_cover(sg, signal, reset_cubes, FALL)
        )
    return report


def _as_sg(sg_or_stg) -> StateGraph:
    if isinstance(sg_or_stg, STG):
        return build_state_graph(sg_or_stg)
    return sg_or_stg
