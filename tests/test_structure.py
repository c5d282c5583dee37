"""Structural theory: incidence, invariants, net classes, SM components,
dense encoding (paper Section 2.2)."""

import pytest

from repro.errors import ModelError
from repro.petri import (
    DenseEncoding,
    Marking,
    PetriNet,
    choice_places,
    incidence_matrix,
    invariant_overapproximation,
    invariant_value,
    is_free_choice,
    is_marked_graph,
    is_state_machine,
    linear_reduce,
    merge_places,
    p_invariants,
    random_walk,
    reachable_markings,
    satisfies_invariants,
    sm_components,
    sm_cover,
    t_invariants,
)
from repro.stg import (
    ALL_EXAMPLES,
    muller_pipeline,
    parallel_handshakes,
    pipeline_ring,
    sequencer,
    vme_read,
    vme_read_write,
)


def ring(n=3, tokens=1):
    net = PetriNet("ring%d" % n)
    for i in range(n):
        net.add_place("p%d" % i, tokens=1 if i < tokens else 0)
        net.add_transition("t%d" % i)
    for i in range(n):
        net.add_arc("p%d" % i, "t%d" % i)
        net.add_arc("t%d" % i, "p%d" % ((i + 1) % n))
    return net


class TestIncidence:
    def test_ring_incidence(self):
        C, places, transitions = incidence_matrix(ring())
        assert [len(row) for row in C] == [3, 3, 3]
        # every column sums to zero (token conservation)
        assert all(sum(column) == 0 for column in zip(*C))

    def test_flow_conservation_on_vme(self):
        C, _, _ = incidence_matrix(vme_read().net)
        assert all(abs(v) <= 1 for row in C for v in row)


class TestInvariants:
    def test_ring_p_invariant(self):
        invs = p_invariants(ring())
        assert invs == [{"p0": 1, "p1": 1, "p2": 1}]

    def test_ring_t_invariant(self):
        invs = t_invariants(ring())
        assert invs == [{"t0": 1, "t1": 1, "t2": 1}]

    def test_vme_read_invariants_conserved_on_walks(self):
        net = vme_read().net
        invs = p_invariants(net)
        assert invs, "marked graph must have P-invariants"
        initial_values = [invariant_value(net, inv) for inv in invs]
        for _, m in random_walk(net, 60, seed=3):
            for inv, expected in zip(invs, initial_values):
                assert invariant_value(net, inv, m) == expected

    def test_invariants_hold_on_all_reachable(self):
        net = vme_read_write().net
        invs = p_invariants(net)
        for m in reachable_markings(net):
            assert satisfies_invariants(net, invs, m)

    def test_overapproximation_contains_reachable(self):
        net = ring()
        approx = invariant_overapproximation(net)
        reachable = reachable_markings(net)
        assert reachable <= approx
        # for a simple ring the approximation is exact
        assert reachable == approx

    def test_net_without_places(self):
        net = PetriNet("transitions only")
        net.add_transition("a")
        net.add_transition("b")
        assert p_invariants(net) == []
        # C x = 0 holds for every x: each transition alone is minimal
        assert t_invariants(net) == [{"a": 1}, {"b": 1}]

    def test_net_without_transitions(self):
        net = PetriNet("places only")
        net.add_place("p", tokens=1)
        net.add_place("q")
        assert p_invariants(net) == [{"p": 1}, {"q": 1}]
        assert t_invariants(net) == []


#: The bundled examples and one instance of each scalable model.  All are
#: live and safe; linear reduction shrinks six of them to a single
#: transition without places.
MODELS = {
    **ALL_EXAMPLES,
    "muller_pipeline_4": lambda: muller_pipeline(4),
    "parallel_handshakes_3": lambda: parallel_handshakes(3),
    "pipeline_ring_6": lambda: pipeline_ring(6),
    "sequencer_3": lambda: sequencer(3),
}


@pytest.mark.parametrize("reduced", [False, True],
                         ids=["original", "reduced"])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_invariants_solve_the_incidence_equations(name, reduced):
    """Every P-invariant ``y`` has ``y C = 0`` and is conserved on every
    reachable marking; every T-invariant ``x`` has ``C x = 0``.  The
    T-invariant supports cover all transitions, as they must on a live
    bounded net, also when reduction has removed every place."""
    net = MODELS[name]().net
    if reduced:
        net = linear_reduce(net)
    C, places, transitions = incidence_matrix(net)
    assert [len(row) for row in C] == [len(transitions)] * len(places)
    p_invs, t_invs = p_invariants(net), t_invariants(net)
    for y in p_invs:
        assert y and all(v > 0 for v in y.values())
        weights = [y.get(p, 0) for p in places]
        for j in range(len(transitions)):
            assert sum(w * row[j] for w, row in zip(weights, C)) == 0
    for m in reachable_markings(net):
        assert satisfies_invariants(net, p_invs, m)
    for x in t_invs:
        assert x and all(v > 0 for v in x.values())
        counts = [x.get(t, 0) for t in transitions]
        for row in C:
            assert sum(c * v for c, v in zip(counts, row)) == 0
    assert set().union(*t_invs) == set(transitions)


class TestNetClasses:
    def test_vme_read_is_marked_graph(self):
        assert is_marked_graph(vme_read().net)
        assert is_free_choice(vme_read().net)
        assert not is_state_machine(vme_read().net)

    def test_vme_read_write_has_choice(self):
        net = vme_read_write().net
        assert not is_marked_graph(net)
        cps = choice_places(net)
        assert "p0" in cps  # the read/write selector
        assert "p3" in cps  # shared trigger of LDS+/1 and LDS+/2
        assert set(merge_places(net)) >= {"p1", "p2"}

    def test_ring_is_both_sm_and_mg(self):
        net = ring()
        assert is_marked_graph(net)
        assert is_state_machine(net)


class TestSMComponents:
    def test_ring_is_one_component(self):
        comps = sm_components(ring())
        assert len(comps) == 1
        assert comps[0].places == frozenset({"p0", "p1", "p2"})
        assert comps[0].tokens == 1

    def test_reduced_read_write_two_components(self):
        red = linear_reduce(vme_read_write().net)
        comps = sm_components(red)
        assert len(comps) == 2
        cover = sm_cover(red)
        assert cover is not None
        covered = set().union(*(c.places for c in cover))
        assert covered == set(red.places)

    def test_dense_encoding_roundtrip(self):
        red = linear_reduce(vme_read_write().net)
        enc = DenseEncoding(red)
        for m in reachable_markings(red):
            cube = enc.encode(m)
            assert len(cube) == enc.width
            assert set(cube) <= set("01-")

    def test_dense_encoding_place_cubes_distinct_within_component(self):
        red = linear_reduce(vme_read_write().net)
        enc = DenseEncoding(red)
        for component, bits, codes in enc.groups:
            cubes = {enc.place_cube(p) for p in component.places}
            assert len(cubes) == len(component.places)

    def test_dense_encoding_requires_cover(self):
        net = PetriNet("nocover")
        net.add_place("p", tokens=1)
        net.add_transition("t")
        net.add_arc("p", "t")
        with pytest.raises(ModelError):
            DenseEncoding(net)
