"""Karp–Miller coverability analysis."""

import pytest

from repro.petri import (
    OMEGA,
    OmegaMarking,
    PetriNet,
    build_coverability_graph,
    is_bounded,
    reachable_markings,
)
from repro.stg import ALL_EXAMPLES, vme_read


def producer_net():
    """t produces into sink unboundedly."""
    net = PetriNet("producer")
    net.add_place("p", tokens=1)
    net.add_place("sink")
    net.add_transition("t")
    net.add_arc("p", "t")
    net.add_arc("t", "p")
    net.add_arc("t", "sink")
    return net


class TestOmegaMarking:
    def test_covers(self):
        big = OmegaMarking({"p": 2.0, "q": 1.0})
        small = OmegaMarking({"p": 1.0})
        assert big.covers(small) and big.strictly_covers(small)
        assert not small.covers(big)

    def test_omega_covers_everything(self):
        omega = OmegaMarking({"p": OMEGA})
        for n in (0.0, 1.0, 100.0):
            assert omega.covers(OmegaMarking({"p": n} if n else {}))

    def test_hash_equality(self):
        assert OmegaMarking({"p": 1.0}) == OmegaMarking({"p": 1.0, "q": 0})

    def test_repr_shows_omega(self):
        assert "ω" in repr(OmegaMarking({"p": OMEGA}))


class TestCoverability:
    def test_unbounded_net_detected(self):
        graph = build_coverability_graph(producer_net())
        assert not graph.is_bounded()
        assert graph.unbounded_places() == ["sink"]
        assert graph.place_bound("p") == 1
        assert not is_bounded(producer_net())

    def test_bounded_nets_have_no_omega(self):
        for name in sorted(ALL_EXAMPLES):
            net = ALL_EXAMPLES[name]().net
            assert is_bounded(net), name

    def test_nodes_match_reachable_for_safe_nets(self):
        """Without accelerations the KM graph of a bounded net is exactly
        its reachability graph."""
        net = vme_read().net
        graph = build_coverability_graph(net)
        as_sets = {
            frozenset(p for p, n in node.items() if n)
            for node in graph.nodes
        }
        explicit = {frozenset(m.places()) for m in reachable_markings(net)}
        assert as_sets == explicit

    def test_dead_transition_detection(self):
        net = PetriNet("dead-t")
        net.add_place("p", tokens=1)
        net.add_place("q")  # never marked
        net.add_transition("live")
        net.add_transition("dead")
        net.add_arc("p", "live")
        net.add_arc("live", "p")
        net.add_arc("q", "dead")
        graph = build_coverability_graph(net)
        assert graph.dead_transitions() == ["dead"]
        assert "live" in graph.quasi_live_transitions()

    def test_omega_propagates_downstream(self):
        """Once a place is ω, consumers keep firing and downstream places
        become ω too."""
        net = producer_net()
        net.add_place("sink2")
        net.add_transition("u")
        net.add_arc("sink", "u")
        net.add_arc("u", "sink2")
        graph = build_coverability_graph(net)
        assert set(graph.unbounded_places()) == {"sink", "sink2"}
