"""Graphviz DOT export."""

from repro.petri import net_to_dot, reachability_to_dot
from repro.stg import vme_read
from repro.ts import build_reachability_graph, build_state_graph


class TestNetDot:
    def test_contains_all_nodes(self):
        stg = vme_read()
        text = net_to_dot(stg.net)
        for p in stg.net.places:
            assert '"%s"' % p in text
        for t in stg.net.transitions:
            assert '"%s"' % t in text

    def test_marked_places_show_tokens(self):
        text = net_to_dot(vme_read().net)
        assert "•" in text

    def test_shapes(self):
        text = net_to_dot(vme_read().net)
        assert "shape=circle" in text
        assert "shape=box" in text

    def test_is_valid_digraph(self):
        text = net_to_dot(vme_read().net)
        assert text.startswith("digraph")
        assert text.rstrip().endswith("}")
        assert text.count("{") == text.count("}")


class TestReachabilityDot:
    def test_reachability_graph_export(self):
        graph = build_reachability_graph(vme_read().net)
        text = reachability_to_dot(graph)
        assert text.startswith("digraph")
        assert "doublecircle" in text  # initial state highlighted
        assert text.count("->") == graph.arc_count()

    def test_codes_annotation(self):
        stg = vme_read()
        sg = build_state_graph(stg)
        graph = build_reachability_graph(stg.net)
        codes = {sg.graph.marking(i): sg.code_str(i) for i in range(len(sg))}
        text = reachability_to_dot(graph, codes=codes)
        assert "0*0" in text or "00" in text
