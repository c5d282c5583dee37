"""Cross-engine agreement tests for the SAT subsystem.

Every verdict the SAT engine produces is checked against the explicit
state-graph machinery on the full STG library, and property-based tests
on random nets (reusing the :mod:`test_random_models` generator) assert
the two acceptance invariants: **every BMC witness replays in the token
game** and **a k-induction "Proved" never contradicts explicit
exploration**.
"""

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from test_random_models import random_stg

from repro.analysis import check_implementability
from repro.errors import ModelError, UnboundedError
from repro.petri import (
    Marking,
    PetriNet,
    fire_sequence,
    find_deadlocks,
    is_deadlock_free,
    reachable_markings,
)
from repro.sat import (
    BMC,
    Proved,
    Refuted,
    SafeNetEncoding,
    STGEncoding,
    Unknown,
    consistency_violation,
    csc_conflict,
    deadlock_target,
    find_deadlock,
    prove_deadlock_free,
    prove_unreachable,
    reach_marking,
    state_equation_refutes,
)
from repro.stg import (
    ALL_EXAMPLES,
    STG,
    SignalType,
    muller_pipeline,
    parallel_handshakes,
    parse_g,
    sequencer,
    vme_read,
)
from repro.ts import build_reachability_graph, build_state_graph

SETTINGS = settings(max_examples=15, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.filter_too_much])


def library_models():
    models = {name: ctor() for name, ctor in ALL_EXAMPLES.items()}
    models["muller_pipeline_3"] = muller_pipeline(3)
    models["sequencer_3"] = sequencer(3)
    models["parallel_handshakes_3"] = parallel_handshakes(3)
    return models


LIBRARY = library_models()


def bfs_depth(stg):
    """Longest BFS level of the reachability graph (a complete bound)."""
    ts = build_reachability_graph(stg)
    depth = {ts.initial: 0}
    frontier = [ts.initial]
    level = 0
    while frontier:
        level += 1
        nxt = []
        for state in frontier:
            for _, succ in ts.successors(state):
                if succ not in depth:
                    depth[succ] = level
                    nxt.append(succ)
        frontier = nxt
    return max(depth.values())


def deadlocked_chain():
    net = PetriNet("chain")
    for i in range(4):
        net.add_place("p%d" % i, 1 if i == 0 else 0)
    for i in range(3):
        net.add_transition("t%d" % i)
        net.add_arc("p%d" % i, "t%d" % i)
        net.add_arc("t%d" % i, "p%d" % (i + 1))
    return net


# ---------------------------------------------------------------------- #
# library-wide agreement (the acceptance criterion)
# ---------------------------------------------------------------------- #

@pytest.mark.parametrize("name", sorted(LIBRARY))
def test_deadlock_verdicts_agree_with_explicit(name):
    stg = LIBRARY[name]
    explicit_free = is_deadlock_free(stg.net)
    bound = bfs_depth(stg)
    witness = find_deadlock(stg, bound=bound)
    assert (witness is None) == explicit_free
    verdict = prove_deadlock_free(stg, max_k=max(bound, 4))
    if explicit_free:
        assert not isinstance(verdict, Refuted)
        assert isinstance(verdict, Proved)  # invariants make these provable
    else:
        assert isinstance(verdict, Refuted)
        final = verdict.witness.final_marking
        assert find_deadlocks(stg.net, markings=[final]) == [final]
        assert final in find_deadlocks(stg.net)


@pytest.mark.parametrize("name", sorted(LIBRARY))
def test_csc_verdicts_agree_with_explicit(name):
    stg = LIBRARY[name]
    explicit = check_implementability(stg)
    bound = bfs_depth(stg)
    conflict = csc_conflict(stg, bound=bound)
    assert (conflict is None) == (not explicit.csc_conflicts)
    if conflict is None:
        return
    # both traces replay (csc_conflict replays internally; re-check via
    # the public token game) and reach states with the claimed property
    sg = build_state_graph(stg)
    for trace in (conflict.trace_a, conflict.trace_b):
        assert fire_sequence(stg.net, stg.initial_marking,
                             trace.transitions) == trace.final_marking
    assert sg.code(conflict.marking_a) == sg.code(conflict.marking_b)
    assert conflict.enabled_a != conflict.enabled_b
    assert conflict.enabled_a == sg.enabled_signals(conflict.marking_a,
                                                    noninput_only=True)
    assert conflict.enabled_b == sg.enabled_signals(conflict.marking_b,
                                                    noninput_only=True)


@pytest.mark.parametrize("name", sorted(LIBRARY))
def test_library_stgs_are_sat_consistent(name):
    stg = LIBRARY[name]
    assert consistency_violation(stg, bound=min(bfs_depth(stg), 12)) is None


@pytest.mark.parametrize("semantics", ["interleaving", "parallel"])
def test_reachability_queries_cover_the_state_space(semantics):
    stg = vme_read()
    states = sorted(reachable_markings(stg.net), key=repr)
    bound = bfs_depth(stg)
    for target in states:
        witness = reach_marking(stg, target, bound=bound,
                                semantics=semantics)
        assert witness is not None
        assert witness.final_marking == target
        assert fire_sequence(stg.net, stg.initial_marking,
                             witness.transitions) == target


def test_unreachable_marking_is_refuted_and_proved():
    stg = vme_read()
    # p0 and p3 are never marked together (they belong to one invariant)
    target = Marking({"p0": 1, "p3": 1})
    assert state_equation_refutes(stg.net, target)
    assert reach_marking(stg, target, bound=10) is None
    verdict = prove_unreachable(stg, target, max_k=6)
    assert isinstance(verdict, Proved)


def test_reach_rejects_unknown_target_place():
    """Regression: a typo'd place must raise, not masquerade as an
    'unreachable' verdict via the state-equation screen."""
    stg = vme_read()
    with pytest.raises(ModelError, match="no_such_place"):
        reach_marking(stg, Marking({"no_such_place": 1}), bound=4)
    with pytest.raises(ModelError, match="no_such_place"):
        prove_unreachable(stg, Marking({"no_such_place": 1}), max_k=2)


def test_reach_partial_cover_query():
    stg = vme_read()
    witness = reach_marking(stg, Marking({"p4": 1}), bound=10, partial=True)
    assert witness is not None
    assert witness.final_marking.get("p4") == 1


# ---------------------------------------------------------------------- #
# deadlock witnesses and the shared reporting format
# ---------------------------------------------------------------------- #

@pytest.mark.parametrize("semantics", ["interleaving", "parallel"])
def test_deadlocked_net_witness_replays(semantics):
    net = deadlocked_chain()
    witness = find_deadlock(net, bound=5, semantics=semantics)
    assert witness is not None
    final = fire_sequence(net, net.initial_marking, witness.transitions)
    assert final == witness.final_marking
    # SAT and explicit paths report through one interface
    assert find_deadlocks(net, markings=witness.markings) == [final]
    assert find_deadlocks(net) == [final]


def test_find_deadlocks_markings_filter():
    stg = vme_read()
    some = sorted(reachable_markings(stg.net), key=repr)[:5]
    assert find_deadlocks(stg.net, markings=some) == []
    assert find_deadlocks(stg.net, markings=[]) == []


def test_kinduction_refutes_deadlocked_chain():
    verdict = prove_deadlock_free(deadlocked_chain(), max_k=6)
    assert isinstance(verdict, Refuted)
    assert verdict.witness.transitions == ["t0", "t1", "t2"]


def test_kinduction_never_proves_a_reachable_target():
    """Regression: the step case must negate the bad *cube* as one
    clause; negating literal-by-literal over-constrained it and could
    prove reachable markings unreachable."""
    stg = vme_read()
    ts = build_reachability_graph(stg)
    depth = {ts.initial: 0}
    frontier, level = [ts.initial], 0
    while frontier:
        level += 1
        nxt = []
        for state in frontier:
            for _, succ in ts.successors(state):
                if succ not in depth:
                    depth[succ] = level
                    nxt.append(succ)
        frontier = nxt
    deepest = max(depth, key=depth.get)
    # max_k below the target's depth: base can't refute, step must not
    # "prove" — the only sound verdict is Unknown
    verdict = prove_unreachable(stg, deepest, max_k=2)
    assert isinstance(verdict, Unknown)
    verdict = prove_unreachable(stg, deepest, max_k=depth[deepest])
    assert isinstance(verdict, Refuted)
    assert verdict.witness.final_marking == deepest


def test_kinduction_unknown_when_bound_too_small():
    # the chain deadlocks at depth 3; induction capped below that and
    # with invariants disabled cannot decide either way at k=0..0
    from repro.sat import k_induction

    verdict = k_induction(deadlocked_chain(), deadlock_target, max_k=0,
                          invariants=False)
    assert isinstance(verdict, Unknown)


# ---------------------------------------------------------------------- #
# consistency
# ---------------------------------------------------------------------- #

def inconsistent_stg():
    """a+ fires twice per cycle — no initial value can be consistent."""
    text = """
.model double_rise
.inputs a
.outputs b
.graph
a+/1 b+
b+ a+/2
a+/2 b-
b- a+/1
.marking { <b-,a+/1> }
.end
"""
    return parse_g(text)


def test_consistency_violation_found_and_replays():
    stg = inconsistent_stg()
    witness = consistency_violation(stg, bound=8)
    assert witness is not None
    assert fire_sequence(stg.net, stg.initial_marking, witness.transitions)
    # the trace must actually contain a same-direction repeat
    directions = [t for t in witness.transitions if t.startswith("a+")]
    assert len(directions) >= 2


# ---------------------------------------------------------------------- #
# encoding edges and layer integration
# ---------------------------------------------------------------------- #

def test_find_csc_conflict_sat_wrapper():
    conflict = csc_conflict(vme_read(), bound=12)
    assert conflict is not None
    assert "CSC conflict" in str(conflict)
    assert csc_conflict(LIBRARY["latch_controller"], bound=10) is None


def test_encoding_rejects_weighted_and_unsafe_nets():
    net = PetriNet("weighted")
    net.add_place("p", 1)
    net.add_transition("t")
    net.add_arc("p", "t", weight=2)
    with pytest.raises(ModelError):
        SafeNetEncoding(net)
    unsafe = PetriNet("unsafe")
    unsafe.add_place("p", 2)
    unsafe.add_transition("t")
    unsafe.add_arc("p", "t")
    with pytest.raises(UnboundedError):
        SafeNetEncoding(unsafe)


def test_encoding_rejects_unsafe_target_marking():
    stg = vme_read()
    bmc = BMC(stg)
    with pytest.raises(UnboundedError):
        bmc.encoding.marking_lits(0, Marking({"p0": 2}))


def test_dimacs_export_of_unrolling_round_trips():
    from repro.sat import CNF

    encoding = STGEncoding(vme_read())
    encoding.ensure_steps(3)
    text = encoding.cnf.to_dimacs()
    back = CNF.from_dimacs(text)
    assert back.num_vars == encoding.cnf.num_vars
    assert back.clauses == encoding.cnf.clauses


def test_parallel_steps_fire_independent_transitions_together():
    stg = parallel_handshakes(4)
    # all four r+ events are mutually independent: with the parallel
    # semantics one step suffices to mark every <r+,a+> place
    target = Marking({"<r%d+,a%d+>" % (i, i): 1 for i in range(4)})
    witness = reach_marking(stg, target, bound=1, semantics="parallel")
    assert witness is not None
    assert len(witness.steps) == 1
    assert sorted(witness.steps[0]) == ["r0+", "r1+", "r2+", "r3+"]
    # the interleaving semantics needs four steps for the same state
    assert reach_marking(stg, target, bound=3) is None
    assert reach_marking(stg, target, bound=4) is not None


# ---------------------------------------------------------------------- #
# property-based cross-engine agreement
# ---------------------------------------------------------------------- #

@given(random_stg(), st.integers(0, 10_000))
@SETTINGS
def test_random_reachable_markings_have_replayable_witnesses(stg, pick):
    states = sorted(reachable_markings(stg.net), key=repr)
    target = states[pick % len(states)]
    bound = bfs_depth(stg)
    witness = reach_marking(stg, target, bound=bound)
    assert witness is not None, (target, bound)
    assert fire_sequence(stg.net, stg.initial_marking,
                         witness.transitions) == target


@given(random_stg())
@SETTINGS
def test_random_proved_never_contradicts_explicit(stg):
    verdict = prove_deadlock_free(stg, max_k=6)
    explicit_free = is_deadlock_free(stg.net)
    if isinstance(verdict, Proved):
        assert explicit_free
    if isinstance(verdict, Refuted):
        assert not explicit_free
        final = verdict.witness.final_marking
        assert final in find_deadlocks(stg.net)


@given(random_stg())
@SETTINGS
def test_random_csc_verdicts_agree(stg):
    explicit = check_implementability(stg)
    assume(explicit.consistent)
    bound = bfs_depth(stg)
    conflict = csc_conflict(stg, bound=bound)
    assert (conflict is None) == (not explicit.csc_conflicts)
