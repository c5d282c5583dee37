"""Dummy-transition contraction."""

import pytest

from repro.errors import ModelError
from repro.petri import reachable_markings
from repro.stg import STG, SignalType, contract_dummy_transitions
from repro.stg.signals import SignalEvent


def stg_with_fork():
    """eps forks into two concurrent output events, joined by eps2."""
    stg = STG("forked", outputs=["x", "y"])
    stg.declare_signal("e", SignalType.DUMMY)
    stg.declare_signal("f", SignalType.DUMMY)
    fork = SignalEvent("e", "~")
    join = SignalEvent("f", "~")
    stg.net.add_transition(str(fork), fork)
    stg.net.add_transition(str(join), join)
    xp = stg.add_event("x+")
    yp = stg.add_event("y+")
    xm = stg.add_event("x-")
    ym = stg.add_event("y-")
    entry = stg.add_place("entry", tokens=1)
    stg.net.add_arc(entry, str(fork))
    for plus, minus in ((xp, xm), (yp, ym)):
        a = stg.add_place()
        b = stg.add_place()
        c = stg.add_place()
        stg.net.add_arc(str(fork), a)
        stg.net.add_arc(a, plus)
        stg.net.add_arc(plus, b)
        stg.net.add_arc(b, minus)
        stg.net.add_arc(minus, c)
        stg.net.add_arc(c, str(join))
    stg.net.add_arc(str(join), entry)
    return stg


class TestContraction:
    def test_removes_dummies(self):
        contracted = contract_dummy_transitions(stg_with_fork())
        labels = [contracted.event_of(t) for t in contracted.net.transitions]
        assert not any(e.is_dummy for e in labels)
        assert not contracted.signals_of_type(SignalType.DUMMY)

    def test_preserves_concurrency(self):
        stg = stg_with_fork()
        contracted = contract_dummy_transitions(stg)
        from repro.ts import build_state_graph

        # the product construction can leave a 2-bounded (but behaviour-
        # preserving) net; the SG is built in k-bounded mode
        sg = build_state_graph(contracted, require_safe=False)
        # x+ and y+ concurrent in the initial state
        enabled = {str(sg.events[t]) for t, _ in sg.graph.arcs[0]}
        assert enabled == {"x+", "y+"}

    def test_preserves_visible_language(self):
        """Secure contraction preserves the projected firing language."""
        from repro.petri import language_prefixes

        stg = stg_with_fork()
        contracted = contract_dummy_transitions(stg)

        def visible(s, explore_len, keep):
            out = set()
            for seq in language_prefixes(s.net, explore_len):
                vis = tuple(t for t in seq if not t.endswith("~"))
                if len(vis) <= keep:
                    out.add(vis)
            return out

        keep = 6
        original = visible(stg, keep + 5, keep)   # slack for dummy moves
        reduced = visible(contracted, keep, keep)
        assert original == reduced

    def test_original_untouched(self):
        stg = stg_with_fork()
        before = stg.net.stats()
        contract_dummy_transitions(stg)
        assert stg.net.stats() == before

    def test_noop_without_dummies(self):
        from repro.stg import vme_read

        stg = vme_read()
        contracted = contract_dummy_transitions(stg)
        assert contracted.net.stats() == stg.net.stats()
        assert (len(reachable_markings(contracted.net))
                == len(reachable_markings(stg.net)))

    def test_insecure_dummy_raises(self):
        """A dummy whose input places have other consumers AND whose
        output places have other producers is not secure."""
        stg = STG("bad", outputs=["x"])
        stg.declare_signal("e", SignalType.DUMMY)
        dummy = SignalEvent("e", "~")
        stg.net.add_transition(str(dummy), dummy)
        xp = stg.add_event("x+")
        xm = stg.add_event("x-")
        p1 = stg.add_place("p1", tokens=1)
        q1 = stg.add_place("q1")
        # p1 also feeds x+ (other consumer); q1 also fed by x+ (other
        # producer): neither security condition holds
        stg.net.add_arc(p1, str(dummy))
        stg.net.add_arc(p1, xp)
        stg.net.add_arc(str(dummy), q1)
        stg.net.add_arc(xp, q1)
        stg.net.add_arc(q1, xm)
        stg.net.add_arc(xm, p1)
        with pytest.raises(ModelError):
            contract_dummy_transitions(stg)

    def test_self_loop_dummy_raises(self):
        stg = STG("loopy", outputs=["x"])
        stg.declare_signal("e", SignalType.DUMMY)
        dummy = SignalEvent("e", "~")
        stg.net.add_transition(str(dummy), dummy)
        p = stg.add_place("p", tokens=1)
        stg.net.add_arc(p, str(dummy))
        stg.net.add_arc(str(dummy), p)
        with pytest.raises(ModelError):
            contract_dummy_transitions(stg)
