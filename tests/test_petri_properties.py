"""Behavioural property checks (boundedness, liveness, deadlocks, ...)."""

import pytest

from repro.errors import StateExplosionError, UnboundedError
from repro.petri import (
    Marking,
    PetriNet,
    bound,
    find_deadlocks,
    home_markings,
    is_bounded,
    is_deadlock_free,
    is_live,
    is_reversible,
    is_safe,
    reachable_markings,
    unsafe_witness,
)
from repro.stg import vme_read, vme_read_write


def unbounded_net():
    net = PetriNet("unbounded")
    net.add_place("p", tokens=1)
    net.add_place("sink")
    net.add_transition("t")
    net.add_arc("p", "t")
    net.add_arc("t", "p")
    net.add_arc("t", "sink")  # grows sink forever
    return net


def two_bounded_net():
    net = PetriNet("2bounded")
    net.add_place("p", tokens=2)
    net.add_place("q")
    net.add_transition("t")
    net.add_arc("p", "t")
    net.add_arc("t", "q")
    return net


def weighted_cycle_net():
    """Two tokens move between p and q, both at once, over weight-2 arcs."""
    net = PetriNet("weighted-cycle")
    net.add_place("p", tokens=2)
    net.add_place("q")
    net.add_transition("t")
    net.add_transition("u")
    net.add_arc("p", "t", weight=2)
    net.add_arc("t", "q", weight=2)
    net.add_arc("q", "u", weight=2)
    net.add_arc("u", "p", weight=2)
    return net


def stuck_two_token_net():
    """Two tokens on p and nothing enabled: the initial marking is the only
    reachable one, and no firing ever shows that it is unsafe."""
    net = PetriNet("stuck")
    net.add_place("p", tokens=2)
    net.add_place("q")
    net.add_transition("t")
    net.add_arc("q", "t")
    net.add_arc("t", "p")
    return net


def deadlocking_net():
    net = PetriNet("dead")
    net.add_place("p", tokens=1)
    net.add_place("q")
    net.add_transition("t")
    net.add_arc("p", "t")
    net.add_arc("t", "q")
    return net


class TestBoundedness:
    def test_vme_read_is_safe(self):
        assert is_safe(vme_read().net)
        assert bound(vme_read().net) == 1

    def test_unbounded_detected(self):
        assert not is_bounded(unbounded_net())
        assert not is_safe(unbounded_net())

    def test_unbounded_raises_from_every_check(self):
        """Unboundedness is proved before the state budget is spent."""
        for check in (reachable_markings, find_deadlocks, is_live,
                      home_markings, bound):
            with pytest.raises(UnboundedError):
                check(unbounded_net())

    def test_two_bounded(self):
        for net in (two_bounded_net(), weighted_cycle_net(),
                    stuck_two_token_net()):
            assert is_bounded(net)
            assert bound(net) == 2
            assert not is_safe(net)
            assert unsafe_witness(net) is not None
        stuck = stuck_two_token_net()
        assert unsafe_witness(stuck) == stuck.initial_marking

    def test_state_bound_enforced(self):
        for check in (reachable_markings, is_bounded):
            with pytest.raises(StateExplosionError):
                check(vme_read().net, max_states=3)

    def test_reachable_markings_count(self):
        assert len(reachable_markings(vme_read().net)) == 14
        assert len(reachable_markings(vme_read_write().net)) == 24
        assert len(reachable_markings(weighted_cycle_net())) == 2


class TestDeadlockLiveness:
    def test_vme_nets_deadlock_free_and_live(self):
        for stg in (vme_read(), vme_read_write()):
            assert is_deadlock_free(stg.net)
            assert is_live(stg.net)

    def test_deadlock_found(self):
        net = deadlocking_net()
        deadlocks = find_deadlocks(net)
        assert deadlocks == [Marking({"q": 1})]
        assert not is_deadlock_free(net)
        assert not is_live(net)
        stuck = stuck_two_token_net()
        assert find_deadlocks(stuck) == [stuck.initial_marking]
        assert not is_live(stuck)

    def test_home_markings_of_cyclic_net(self):
        # the READ cycle is strongly connected: all 14 states are home;
        # so are both markings of the weighted cycle
        for net, states in ((vme_read().net, 14), (weighted_cycle_net(), 2)):
            assert len(home_markings(net)) == states
            assert is_reversible(net)
            assert is_live(net) and is_deadlock_free(net)

    def test_home_markings_empty_when_two_bottoms(self):
        net = PetriNet("choice-dead")
        net.add_place("p", tokens=1)
        net.add_place("a")
        net.add_place("b")
        net.add_transition("ta")
        net.add_transition("tb")
        net.add_arc("p", "ta")
        net.add_arc("ta", "a")
        net.add_arc("p", "tb")
        net.add_arc("tb", "b")
        assert home_markings(net) == set()
        assert not is_reversible(net)
