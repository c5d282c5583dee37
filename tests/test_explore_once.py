"""Each specification is explored once: :func:`repro.ts.builder.explore`
memoises its numbered graph on the net, and analysis, CSC resolution,
synthesis and verification all read that one graph."""

import pytest

from repro import obs
from repro.cli import main
from repro.errors import StateExplosionError, UnboundedError
from repro.petri import PetriNet
from repro.stg import ALL_EXAMPLES, muller_pipeline, vme_read_csc
from repro.ts import build_state_graph, builder, explore


def fresh(stg):
    """The graph a fresh exploration of ``stg``'s net gives (a copy has
    no memo)."""
    return explore(stg.net.copy())


def same_graph(a, b):
    return (a.states, a.arcs, a.transitions) == (b.states, b.arcs,
                                                 b.transitions)


class TestSynthesizeVerify:
    @pytest.mark.parametrize("spec", sorted(ALL_EXAMPLES)
                             + ["muller_pipeline:8"])
    def test_one_build_per_distinct_net(self, spec, monkeypatch, capsys):
        explored = []
        traced_build = builder._traced_build

        def spy(engine, net, build):
            explored.append(net)  # kept alive, so ids stay distinct
            return traced_build(engine, net, build)

        monkeypatch.setattr(builder, "_traced_build", spy)
        # memo hits count on the enclosing span
        with obs.tracing() as sink, obs.span("synthesize"):
            main(["synthesize", spec, "--verify"])
        builds = [r for r in sink.records
                  if r.get("event") == "span" and r["name"] == "engine.build"]
        hits = sum((r.get("counters") or {}).get("build_cache_hits", 0)
                   for r in sink.records if r.get("event") == "span")
        assert len(builds) == len(explored)
        assert len({id(net) for net in explored}) == len(explored)
        # the spec (or the resolved spec) is read again by the synthesis
        # and by the verification without being explored again
        assert hits >= 2
        assert "speed-independent implementation" in capsys.readouterr().out

    @pytest.mark.parametrize("spec", ["vme_read_csc", "muller_pipeline:8"])
    def test_a_csc_clean_spec_is_explored_once(self, spec, capsys):
        with obs.tracing() as sink:
            assert main(["synthesize", spec, "--verify"]) == 0
        builds = [r for r in sink.records
                  if r.get("event") == "span" and r["name"] == "engine.build"]
        assert len(builds) == 1


class TestMemo:
    def test_repeated_exploration_returns_the_memo(self):
        stg = muller_pipeline(3)
        graph = explore(stg)
        with obs.tracing() as sink:
            with obs.span("outer"):
                assert explore(stg) is graph
                assert explore(stg.net, max_states=len(graph)) is graph
        outer = [r for r in sink.records if r.get("name") == "outer"]
        assert outer[0]["counters"] == {"build_cache_hits": 2}
        assert not [r for r in sink.records
                    if r.get("name") == "engine.build"]

    def test_state_graphs_share_the_labelling(self):
        stg = vme_read_csc()
        first = build_state_graph(stg)
        second = build_state_graph(stg)
        assert second.graph is first.graph
        assert second.int_codes is first.int_codes
        assert second.initial_values == first.initial_values
        assert second.initial_values is not first.initial_values
        reordered = build_state_graph(stg,
                                      signal_order=stg.signals[::-1])
        assert reordered.graph is first.graph
        assert reordered.int_codes != first.int_codes

    def test_add_arc_explores_again(self):
        stg = muller_pipeline(3)
        graph = explore(stg)
        stg.net.add_place("blocked")
        stg.net.add_arc("blocked", "c1+")
        again = explore(stg)
        assert again is not graph and len(again) < len(graph)
        assert same_graph(again, fresh(stg))

    def test_add_place_explores_again(self):
        stg = muller_pipeline(3)
        graph = explore(stg)
        stg.net.add_place("isolated", tokens=1)
        again = explore(stg)
        assert again is not graph
        assert same_graph(again, fresh(stg))

    def test_set_initial_marking_explores_again(self):
        stg = muller_pipeline(3)
        graph = explore(stg)
        marking = graph.marking(len(graph) - 1)
        stg.net.set_initial_marking(marking)
        again = explore(stg)
        assert again is not graph
        assert again.marking(0) == marking
        assert same_graph(again, fresh(stg))

    def test_place_tokens_write_explores_again(self):
        stg = muller_pipeline(3)
        graph = explore(stg)
        place = next(p for p in stg.net.places.values() if p.tokens)
        place.tokens = 0
        again = explore(stg)
        assert again is not graph
        assert same_graph(again, fresh(stg))

    def test_require_safe_false_explores_again(self):
        stg = muller_pipeline(3)
        graph = explore(stg)
        naive = explore(stg, require_safe=False)
        assert naive is not graph and naive.compiled is None
        assert naive.states == graph.markings()
        assert naive.arcs == graph.arcs

    def test_require_safe_is_part_of_the_key(self):
        # two tokens on p: both calls run the token game, and only the
        # 1-safe one refuses the firing that puts a second token on q
        net = PetriNet("two_tokens")
        net.add_place("p", tokens=2)
        net.add_place("q")
        net.add_transition("t")
        net.add_arc("p", "t")
        net.add_arc("t", "q")
        assert len(explore(net, require_safe=False)) == 3
        with pytest.raises(UnboundedError):
            explore(net)

    def test_the_net_pins_only_the_graph(self):
        stg = muller_pipeline(3)
        before = set(vars(stg.net))
        graph = explore(stg)
        assert set(vars(stg.net)) - before == {"_graph_cache"}
        assert not hasattr(stg.net, "_compiled_cache")
        # the graph holds the compilation it explored with
        assert graph.compiled is not None
        assert graph.markings() == fresh(stg).markings()

    def test_a_hit_does_not_choose_the_explorer_again(self, monkeypatch):
        stg = muller_pipeline(3)
        graph = explore(stg)
        asked = []

        def has_ordinary_arcs(net):
            asked.append("has_ordinary_arcs")
            return True

        def supports_compilation(net):
            asked.append("supports_compilation")
            return True

        monkeypatch.setattr(PetriNet, "has_ordinary_arcs", has_ordinary_arcs)
        monkeypatch.setattr("repro.ts.builder.supports_compilation",
                            supports_compilation)
        assert explore(stg) is graph
        assert build_state_graph(stg).graph is graph
        assert asked == []

    @pytest.mark.parametrize("naive", [False, True])
    def test_smaller_bound_raises_as_a_fresh_exploration(self, naive,
                                                         monkeypatch):
        if naive:
            monkeypatch.setattr("repro.ts.builder.supports_compilation",
                                lambda net: False)
        stg = muller_pipeline(3)
        size = len(explore(stg))
        for bound in (-1, 0, 1, 2, size - 1):
            with pytest.raises(StateExplosionError) as memo:
                explore(stg, max_states=bound)
            with pytest.raises(StateExplosionError) as fresh_error:
                explore(stg.net.copy(), max_states=bound)
            expected = fresh_error.value
            assert str(memo.value) == str(expected)
            assert (memo.value.bound, memo.value.states) == (
                expected.bound, expected.states)
        assert len(explore(stg, max_states=size)) == size

    def test_one_state_graph_answers_any_bound(self):
        # a fresh exploration of a one-state net never fails, whatever
        # the bound
        net = PetriNet("idle")
        net.add_place("p", tokens=1)
        graph = explore(net)
        assert len(graph) == 1
        for bound in (-1, 0, 1):
            assert explore(net, max_states=bound) is graph
            assert len(explore(net.copy(), max_states=bound)) == 1

