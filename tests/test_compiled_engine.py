"""Parity of the compiled bitvector reachability engine with the naive
token game: identical transition systems on the whole STG library,
step-by-step firing agreement on random walks, and identical error
behaviour at the 1-safeness and state-count bounds.

The builder picks its explorer from the net; :func:`token_game` rules the
compiled one out, so the same call plays the dict token game instead."""

import gc
import weakref

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import ModelError, StateExplosionError, UnboundedError
from repro.petri import (
    CompiledNet,
    PetriNet,
    compile_net,
    enabled_transitions,
    fire,
    supports_compilation,
)
from repro.stg import (
    concurrent_latch_controller,
    handshake_arbiter_free_choice,
    latch_controller,
    muller_pipeline,
    mutex_controller,
    parallel_handshakes,
    pipeline_ring,
    sequencer,
    vme_read,
    vme_read_csc,
    vme_read_write,
)
from repro import obs
from repro.synth import synthesize_gc
from repro.ts import (
    build_reachability_graph,
    build_state_graph,
    choose_engine,
    explore,
)
from repro.ts.state_graph import StateGraph
from repro.verify import verify_circuit

LIBRARY = {
    "vme_read": vme_read,
    "vme_read_write": vme_read_write,
    "vme_read_csc": vme_read_csc,
    "latch_controller": latch_controller,
    "concurrent_latch_controller": concurrent_latch_controller,
    "handshake_arbiter_free_choice": handshake_arbiter_free_choice,
    "parallel_handshakes_3": lambda: parallel_handshakes(3),
    "pipeline_ring_6": lambda: pipeline_ring(6),
    "sequencer_4": lambda: sequencer(4),
    "muller_pipeline_5": lambda: muller_pipeline(5),
    "mutex_controller": mutex_controller,
}


def token_game(build, *args, **kwargs):
    """``build(*args, **kwargs)`` with the compiled explorer ruled out."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.ts.builder.supports_compilation",
                      lambda net: False)
        return build(*args, **kwargs)


def by_net(build, *args, **kwargs):
    """``build(*args, **kwargs)`` with the explorer the net picks."""
    return build(*args, **kwargs)


#: Every test model is ordinary and safe, so ``by_net`` runs compiled.
EXPLORERS = {"naive": token_game, "compiled": by_net}


# --------------------------------------------------------------------- #
# bit-identical transition systems
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("name", sorted(LIBRARY))
def test_engines_produce_identical_transition_systems(name):
    stg = LIBRARY[name]()
    naive = token_game(build_reachability_graph, stg)
    compiled = build_reachability_graph(stg)
    assert naive.initial == compiled.initial
    # same states in the same insertion order
    assert naive.states == compiled.states
    # same arcs in the same order, globally and per state
    assert list(naive.arcs()) == list(compiled.arcs())
    for state in naive.states:
        assert naive.successors(state) == compiled.successors(state)
        assert naive.predecessors(state) == compiled.predecessors(state)
    assert naive.events == compiled.events


@pytest.mark.parametrize("name", ["vme_read", "vme_read_csc",
                                  "muller_pipeline_5"])
def test_engines_produce_identical_state_graph_codes(name):
    stg = LIBRARY[name]()
    sg_naive = StateGraph(stg, token_game(explore, stg))
    sg_comp = StateGraph(stg, explore(stg))
    assert sg_naive.initial_values == sg_comp.initial_values
    assert sg_naive.codes == sg_comp.codes
    assert sg_naive.int_codes == sg_comp.int_codes
    assert sg_naive.enabled_masks == sg_comp.enabled_masks
    assert sg_naive.order == sg_comp.order


@pytest.mark.parametrize("name", sorted(LIBRARY))
def test_explorers_number_states_alike(name):
    """Same states under the same numbers, same arcs in the same order;
    the compiled explorer keeps int codes, the naive one markings."""
    stg = LIBRARY[name]()
    naive = token_game(explore, stg)
    compiled = explore(stg)
    assert naive.compiled is None and compiled.compiled is not None
    assert all(isinstance(code, int) for code in compiled.states)
    assert naive.transitions == compiled.transitions
    assert naive.arcs == compiled.arcs
    assert naive.markings() == compiled.markings() == naive.states
    assert [compiled.marking(i) for i in range(len(compiled))] \
        == naive.states


def test_build_span_names_the_explorer():
    stg = muller_pipeline(4)
    with obs.tracing() as sink:
        build_reachability_graph(stg)
        token_game(build_reachability_graph, stg)
    assert [span["tags"]["engine"] for span in sink.spans("engine.build")] \
        == ["compiled", "naive"]


# --------------------------------------------------------------------- #
# firing-level cross-check (property-based random walks)
# --------------------------------------------------------------------- #

@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(sorted(LIBRARY)),
       choices=st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=40))
def test_random_walk_cross_check(name, choices):
    """Walk the token game twice — naive markings and compiled integer
    states — making the same choices; enabled sets and markings must
    agree after every step."""
    net = LIBRARY[name]().net
    compiled = CompiledNet(net)
    marking = net.initial_marking
    code = compiled.encode(marking)
    for choice in choices:
        naive_enabled = enabled_transitions(net, marking)
        assert compiled.enabled_transitions(code) == naive_enabled
        if not naive_enabled:
            break
        t = naive_enabled[choice % len(naive_enabled)]
        marking = fire(net, marking, t)
        code = compiled.fire(code, t)
        assert compiled.decode(code) == marking


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(sorted(LIBRARY)),
       choices=st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=30))
def test_incremental_enabled_set_matches_full_scan(name, choices):
    """The incremental enabled-set update (recheck only transitions
    adjacent to the fired one) must agree with a from-scratch scan."""
    net = LIBRARY[name]().net
    compiled = CompiledNet(net)
    code = compiled.encode(net.initial_marking)
    enabled = compiled.enabled_mask(code)
    for choice in choices:
        if not enabled:
            break
        bits = [i for i in range(len(compiled.transitions))
                if (enabled >> i) & 1]
        index = bits[choice % len(bits)]
        successor, conflict = compiled.fire_index(code, index)
        assert not conflict
        # a conflict-free firing flips exactly the pre/post difference
        assert successor == code ^ (compiled.pre_masks[index]
                                    ^ compiled.post_masks[index])
        code = successor
        enabled = compiled.enabled_after(enabled, index, code)
        assert enabled == compiled.enabled_mask(code)


# --------------------------------------------------------------------- #
# error parity at the exploration bounds
# --------------------------------------------------------------------- #

def unsafe_net():
    """p0 -> t0 -> p1 with p1 already marked: firing t0 puts a second
    token on p1."""
    net = PetriNet("unsafe")
    net.add_place("p0", tokens=1)
    net.add_place("p1", tokens=1)
    net.add_transition("t0")
    net.add_arc("p0", "t0")
    net.add_arc("t0", "p1")
    return net


def test_unbounded_error_parity():
    net = unsafe_net()
    assert supports_compilation(net)
    errors = {}
    for engine, build in EXPLORERS.items():
        with pytest.raises(UnboundedError) as exc:
            build(build_reachability_graph, net)
        errors[engine] = str(exc.value)
    assert errors["naive"] == errors["compiled"]
    assert "violates 1-safeness" in errors["naive"]


@pytest.mark.parametrize("max_states", [1, 7, 31])
def test_state_explosion_parity(max_states):
    stg = muller_pipeline(4)  # 32 states
    errors = {}
    for engine, build in EXPLORERS.items():
        with pytest.raises(StateExplosionError) as exc:
            build(build_reachability_graph, stg, max_states=max_states)
        errors[engine] = str(exc.value)
    assert errors["naive"] == errors["compiled"]


def test_max_states_exactly_sufficient_on_both_engines():
    stg = muller_pipeline(4)
    for build in EXPLORERS.values():
        ts = build(build_reachability_graph, stg, max_states=32)
        assert len(ts) == 32


def test_compiled_fire_raises_like_the_naive_game():
    net = unsafe_net()
    compiled = CompiledNet(net)
    with pytest.raises(ModelError):
        compiled.fire(0, "t0")  # not enabled in the empty marking
    initial = compiled.encode(net.initial_marking)
    with pytest.raises(ModelError):
        compiled.fire(initial, "nonexistent")
    with pytest.raises(UnboundedError):
        compiled.fire(initial, "t0")


# --------------------------------------------------------------------- #
# engine selection and domain gating
# --------------------------------------------------------------------- #

def weighted_net(input_weight=2, output_weight=1):
    net = PetriNet("weighted")
    net.add_place("p0", tokens=1)
    net.add_place("p1")
    net.add_transition("t0")
    net.add_arc("p0", "t0", weight=input_weight)
    net.add_arc("t0", "p1", weight=output_weight)
    return net


def test_weighted_net_falls_back_to_naive():
    net = weighted_net()
    assert not supports_compilation(net)
    assert choose_engine(net) == "naive"
    ts = build_reachability_graph(net)  # naive: t0 never enabled
    assert len(ts) == 1 and ts.arc_count() == 0
    with pytest.raises(ModelError):
        CompiledNet(net)


WEIGHT_ERROR = r"compiled engine requires arc weights of 1 \(net 'weighted'\)"


@pytest.mark.parametrize("weights", [(2, 1), (1, 2)])
def test_weighted_arc_is_refused_by_the_compiler(weights):
    net = weighted_net(*weights)
    with pytest.raises(ModelError, match=WEIGHT_ERROR):
        CompiledNet(net)
    with pytest.raises(ModelError, match=WEIGHT_ERROR):
        compile_net(net)


def test_state_graph_build_walks_the_arcs_once(monkeypatch):
    calls = []
    has_ordinary_arcs = PetriNet.has_ordinary_arcs

    def counting(net):
        calls.append(net.name)
        return has_ordinary_arcs(net)

    monkeypatch.setattr(PetriNet, "has_ordinary_arcs", counting)
    stg = vme_read_csc()
    build_state_graph(stg)
    assert calls == [stg.net.name]


def test_dropped_net_is_freed_without_the_cycle_collector():
    # a compilation or a graph memoised on its net must not point back at
    # it, or the net, the compilation, the graph and its decoded markings
    # form a cycle
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        stg = muller_pipeline(3)
        sg = build_state_graph(stg)
        assert sg.graph.compiled is stg.net._compiled_cache
        assert len(sg.states) == len(sg)
        net = weakref.ref(stg.net)
        del stg, sg
        assert net() is None
        # the same after synthesis and verification, which read the
        # graph and its labelling from the memo
        stg = muller_pipeline(3)
        netlist = synthesize_gc(stg)
        report = verify_circuit(netlist, stg, keep_ts=True)
        assert report.ok
        assert stg.net._graph_cache[1] is build_state_graph(stg).graph
        net = weakref.ref(stg.net)
        del stg, netlist, report
        assert net() is None
    finally:
        if was_enabled:
            gc.enable()


def test_clear_state_pools_releases_interned_markings():
    net = muller_pipeline(3).net
    compiled = compile_net(net)
    build_reachability_graph(net)
    assert compiled._marking_of
    compiled.clear_state_pools()
    assert not compiled._marking_of and not compiled._code_of
    # still fully functional afterwards
    ts = build_reachability_graph(net)
    assert len(ts) == 16


def test_unsafe_initial_marking_falls_back_to_naive():
    net = PetriNet("two_tokens")
    net.add_place("p0", tokens=2)
    net.add_transition("t0")
    net.add_arc("p0", "t0")
    assert not supports_compilation(net)
    assert choose_engine(net) == "naive"
    # naive multiset semantics: p0 goes 2 -> 1 -> 0
    ts = build_reachability_graph(net)
    assert len(ts) == 3
    with pytest.raises(ModelError):
        compile_net(net).encode(net.initial_marking)


# --------------------------------------------------------------------- #
# compilation caching and supporting caches
# --------------------------------------------------------------------- #

def test_compile_net_is_cached_until_structure_changes():
    net = muller_pipeline(3).net
    first = compile_net(net)
    assert compile_net(net) is first
    net.add_place("extra")
    second = compile_net(net)
    assert second is not first
    assert "extra" in second.place_bit


def test_build_follows_set_initial_marking():
    """The compilation is cached on the net, but every build encodes the
    net's current initial marking."""
    net = PetriNet("chain")
    net.add_place("p0", tokens=1)
    net.add_place("p1")
    net.add_transition("t0")
    net.add_arc("p0", "t0")
    net.add_arc("t0", "p1")
    assert len(build_reachability_graph(net)) == 2
    net.set_initial_marking(["p1"])
    ts = build_reachability_graph(net)
    assert ts.states == [net.initial_marking]
    assert ts.states == token_game(build_reachability_graph, net).states


def test_state_graph_helper_matches_token_game():
    stg = muller_pipeline(3)
    sg = build_state_graph(stg)
    sg_naive = token_game(build_state_graph, stg)
    assert sg.codes == sg_naive.codes
    assert sg.initial_values == sg_naive.initial_values


def test_preset_postset_memoized_and_invalidated():
    net = PetriNet("memo")
    net.add_place("p", tokens=1)
    net.add_transition("t")
    net.add_arc("p", "t")
    snap = net.postset("p")
    assert snap == {"t": 1}
    assert net.postset("p") is snap  # memoized
    with pytest.raises(TypeError):
        snap["u"] = 2  # read-only snapshot
    net.add_transition("u")
    net.add_arc("p", "u")
    assert net.postset("p") == {"t": 1, "u": 1}
    assert snap == {"t": 1}  # old snapshot unchanged
    net.remove_transition("t")
    assert net.postset("p") == {"u": 1}
    assert net.preset("u") == {"p": 1}
