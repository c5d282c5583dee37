"""Behavioural property checks (boundedness, liveness, deadlocks, ...)."""

import pytest
from hypothesis import HealthCheck, given, settings

from repro.errors import StateExplosionError, UnboundedError
from repro.petri import (
    Marking,
    PetriNet,
    bound,
    dining_philosophers,
    enabled_transitions,
    fire,
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
from repro.stg import ALL_EXAMPLES, vme_read, vme_read_write
from repro.ts import choose_engine, explore

from test_random_models import random_stg


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


# --------------------------------------------------------------------- #
# liveness and home markings against a brute-force oracle
# --------------------------------------------------------------------- #

def _reach(net, start):
    """Markings reachable from ``start`` by the multiset token game."""
    seen = {start}
    frontier = [start]
    while frontier:
        marking = frontier.pop()
        for t in enabled_transitions(net, marking):
            succ = fire(net, marking, t)
            if succ not in seen:
                seen.add(succ)
                frontier.append(succ)
    return seen


def oracle_is_live(net):
    """From every reachable marking, some reachable marking enables each
    transition."""
    everything = set(net.transitions)
    for marking in _reach(net, net.initial_marking):
        fired = set()
        for later in _reach(net, marking):
            fired.update(enabled_transitions(net, later))
        if fired != everything:
            return False
    return True


def oracle_home_markings(net):
    """The reachable markings reachable from every reachable marking."""
    reachable = _reach(net, net.initial_marking)
    home = set(reachable)
    for marking in reachable:
        home &= _reach(net, marking)
    return home


def two_bounded_cycle_net():
    """Two tokens circulate between p and q over ordinary arcs: not
    1-safe, so the naive explorer reads it."""
    net = PetriNet("2cycle")
    net.add_place("p", tokens=2)
    net.add_place("q")
    net.add_transition("t")
    net.add_transition("u")
    net.add_arc("p", "t")
    net.add_arc("t", "q")
    net.add_arc("q", "u")
    net.add_arc("u", "p")
    return net


def two_bottoms_net():
    """A choice into one of two cycles: two bottom SCCs, neither of which
    fires every transition."""
    net = PetriNet("two-bottoms")
    for place, tokens in (("p", 1), ("a0", 0), ("a1", 0), ("b0", 0),
                          ("b1", 0)):
        net.add_place(place, tokens=tokens)
    for source, t, target in (("p", "ta", "a0"), ("p", "tb", "b0"),
                              ("a0", "xa", "a1"), ("a1", "ya", "a0"),
                              ("b0", "xb", "b1"), ("b1", "yb", "b0")):
        net.add_transition(t)
        net.add_arc(source, t)
        net.add_arc(t, target)
    return net


ORACLE_NETS = {
    "dining_philosophers_3": lambda: dining_philosophers(3),
    "dining_philosophers_4": lambda: dining_philosophers(4),
    "two_bounded_cycle": two_bounded_cycle_net,
    "weighted_cycle": weighted_cycle_net,
    "deadlocking": deadlocking_net,
    "stuck_two_tokens": stuck_two_token_net,
    "two_bottoms": two_bottoms_net,
}
ORACLE_NETS.update(("spec_" + name, lambda make=make: make().net)
                   for name, make in ALL_EXAMPLES.items())


class TestLivenessOracle:
    @pytest.mark.parametrize("name", sorted(ORACLE_NETS))
    def test_matches_brute_force(self, name):
        net = ORACLE_NETS[name]()
        assert is_live(net) == oracle_is_live(net)
        assert home_markings(net) == oracle_home_markings(net)
        assert is_reversible(net) == \
            (net.initial_marking in oracle_home_markings(net))

    def test_oracle_nets_cover_both_answers(self):
        """The nets above include live and non-live ones, and nets with
        and without home markings, on both explorers."""
        live = {name: is_live(make()) for name, make in ORACLE_NETS.items()}
        assert live["two_bounded_cycle"] and live["spec_vme_read"]
        assert not live["two_bottoms"] and not live["dining_philosophers_3"]
        assert home_markings(two_bottoms_net()) == set()
        assert choose_engine(two_bounded_cycle_net()) == "naive"
        assert len(home_markings(two_bounded_cycle_net())) == 3

    def test_explored_graph_is_read_as_it_is(self):
        """A graph already explored gives the net's answer."""
        for make in ORACLE_NETS.values():
            net = make()
            try:
                graph = explore(net)
            except UnboundedError:
                graph = explore(net, require_safe=False)
            assert is_live(graph) == is_live(net)

    @given(random_stg())
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.filter_too_much])
    def test_random_stgs_match_brute_force(self, stg):
        assert is_live(stg.net) == oracle_is_live(stg.net)
        assert home_markings(stg.net) == oracle_home_markings(stg.net)
