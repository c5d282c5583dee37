"""Cross-module property-based tests on randomly generated STGs.

The generator builds random *consistent* specifications: a ring of
signal events (each signal rising before falling) with random concurrency
chords, filtered to safe + live nets.  On every sample we check that the
independent implementations of the paper's machinery agree:

* explicit, symbolic and unfolding state spaces coincide;
* the compiled explorer and the dict token game build the same graph;
* the BDD image operator moves each marking as the token game does;
* the state-graph code assignment is internally consistent;
* region-based resynthesis is behaviour-preserving;
* synthesis + verification closes the loop on implementable specs.
"""

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.analysis import check_implementability
from repro.bdd import SymbolicReachability
from repro.errors import CSCError, ReproError
from repro.petri import is_live, is_safe, reachable_markings
from repro.regions import synthesize_net
from repro.stg import STG, SignalType
from repro.synth import resolve_csc, synthesize_complex_gates
from repro.ts import build_reachability_graph, build_state_graph, choose_engine
from repro.unfold import unfold
from repro.verify import verify_circuit

from test_symbolic import (
    assert_csc_images_flip_parity,
    assert_images_match_token_game,
)

SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.filter_too_much])


def ring_stg(integer, permutation, boolean, element):
    """The STG :func:`random_stg` draws, its random choices made by the
    four callables: ``integer(lo, hi)``, ``permutation(items)``,
    ``boolean()`` and ``element(items)``."""
    n_signals = integer(2, 4)
    signals = ["s%d" % i for i in range(n_signals)]
    # base ring: a permutation of events where each signal rises before
    # it falls (choose interleaving by shuffling rise/fall slots)
    events = []
    order = permutation(signals)
    for s in order:
        events.append(s + "+")
    fall_order = permutation(signals)
    for s in fall_order:
        events.append(s + "-")

    stg = STG("random")
    for i, s in enumerate(signals):
        kind = SignalType.INPUT if boolean() and i == 0 \
            else SignalType.OUTPUT
        stg.declare_signal(s, kind)
    names = [stg.add_event(e) for e in events]
    m = len(names)
    for i in range(m):
        place = stg.connect(names[i], names[(i + 1) % m])
        if i == m - 1:
            stg.net.places[place].tokens = 1

    # random chords adding concurrency constraints
    n_chords = integer(0, 2)
    for _ in range(n_chords):
        a = element(names)
        b = element(names)
        if a == b:
            continue
        marked = boolean()
        place = stg.connect(a, b)
        stg.net.places[place].tokens = 1 if marked else 0
    return stg


@st.composite
def random_stg(draw):
    """A random consistent, safe, live STG with 2-4 signals."""
    stg = ring_stg(lambda lo, hi: draw(st.integers(lo, hi)),
                   lambda items: draw(st.permutations(items)),
                   lambda: draw(st.booleans()),
                   lambda items: draw(st.sampled_from(items)))
    assume(is_safe(stg.net, max_states=50_000))
    assume(is_live(stg.net, max_states=50_000))
    return stg


@given(random_stg())
@SETTINGS
def test_state_space_representations_agree(stg):
    explicit = reachable_markings(stg.net)
    assert SymbolicReachability(stg.net).count() == len(explicit)
    assert unfold(stg.net).represented_markings() == explicit


@given(random_stg())
@SETTINGS
def test_explorers_build_identical_graphs(stg):
    """The default build (compiled) against the dict token game, forced by
    ruling the compiled explorer out on an unexplored copy (the memo would
    hand back the compiled graph): same states and arcs in insertion
    order, same state-graph codes and initial values."""
    assert choose_engine(stg) == "compiled"
    compiled = build_state_graph(stg)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.ts.builder.supports_compilation",
                      lambda net: False)
        naive = build_state_graph(stg.copy())
    assert naive.graph.compiled is None
    assert compiled.graph.compiled is not None
    assert compiled.ts.states == naive.ts.states
    assert list(compiled.ts.arcs()) == list(naive.ts.arcs())
    assert compiled.codes == naive.codes
    assert compiled.initial_values == naive.initial_values


@given(random_stg())
@SETTINGS
def test_image_operator_matches_token_game(stg):
    assert_images_match_token_game(stg.net)
    assert_csc_images_flip_parity(stg)


@given(random_stg())
@SETTINGS
def test_state_graph_codes_internally_consistent(stg):
    sg = build_state_graph(stg)
    for state in sg.states:
        for tname, succ in sg.ts.successors(state):
            event = stg.event_of(tname)
            before = sg.value(state, event.signal)
            after = sg.value(succ, event.signal)
            if event.is_rising:
                assert (before, after) == (0, 1)
            else:
                assert (before, after) == (1, 0)
            for other in sg.signal_order:
                if other != event.signal:
                    assert sg.value(state, other) == sg.value(succ, other)


@given(random_stg())
@SETTINGS
def test_region_resynthesis_preserves_behaviour(stg):
    ts = build_reachability_graph(stg)
    try:
        net, _ = synthesize_net(ts)
    except ReproError:
        assume(False)  # excitation closure may genuinely fail
        return
    assert ts.bisimilar(build_reachability_graph(net))


@given(random_stg())
@SETTINGS
def test_synthesis_verification_closes_the_loop(stg):
    report = check_implementability(stg)
    assume(report.consistent and report.persistent)
    try:
        resolved = resolve_csc(stg, max_signals=2)
    except CSCError:
        assume(False)
        return
    netlist = synthesize_complex_gates(resolved)
    verdict = verify_circuit(netlist, stg)
    assert verdict.ok, verdict.summary()


@given(random_stg())
@SETTINGS
def test_next_state_functions_match_state_graph(stg):
    report = check_implementability(stg)
    assume(report.implementable)
    sg = build_state_graph(stg)
    netlist = synthesize_complex_gates(sg)
    for state in sg.states:
        env = {s: sg.value(state, s) for s in sg.signal_order}
        for signal, gate in netlist.gates.items():
            assert gate.next_value(env) == sg.next_value(state, signal)


@given(random_stg())
@SETTINGS
def test_linear_reduction_preserves_safety_liveness(stg):
    from repro.petri import linear_reduce

    reduced = linear_reduce(stg.net)
    assert is_safe(reduced, max_states=50_000)
    assert is_live(reduced, max_states=50_000)


@given(random_stg())
@SETTINGS
def test_mirror_composition_closes_the_system(stg):
    """spec ⊗ mirror(spec): every event synchronises, so the product has
    exactly the spec's states and no deadlock."""
    from repro.verify import compose_specifications

    ts = compose_specifications(stg, stg.mirror())
    assert len(ts) == len(build_state_graph(stg))
    assert all(ts.successors(s) for s in ts.states)


@given(random_stg())
@SETTINGS
def test_coverability_agrees_on_boundedness(stg):
    from repro.petri import is_bounded

    assert is_bounded(stg.net)
