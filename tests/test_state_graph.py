"""State graphs: binary codes, regions, next-state values — checked
against the paper's Figure 4."""

import pytest

from repro.errors import ConsistencyError, UnboundedError
from repro.petri import Marking, PetriNet
from repro.stg import STG, parse_g, vme_read, vme_read_csc
from repro.ts import build_state_graph
from tests.conftest import PAPER_GROUPS, PAPER_SIGNAL_ORDER


@pytest.fixture
def paper_sg(read_stg):
    return build_state_graph(read_stg, signal_order=PAPER_SIGNAL_ORDER)


class TestFigure4:
    def test_fourteen_states(self, paper_sg):
        assert len(paper_sg) == 14

    def test_initial_code(self, paper_sg):
        """Initial state of Figure 4: 0*0.00.0 (DSr excited)."""
        code = paper_sg.code_str(0, groups=PAPER_GROUPS)
        assert code == "0*0.00.0"

    def test_all_figure4_codes_present(self, paper_sg):
        expected = {
            "0*0.00.0", "10.00*.0", "10.0*1.0", "10.11.0*", "10*.11.1",
            "1*1.11.1", "01.11.1*", "01*.11*.0", "0*0.11*.0", "10.11*.0",
            "01*.1*0.0", "0*0.1*0.0", "01*.00.0", "10.1*0.0",
        }
        actual = {paper_sg.code_str(i, groups=PAPER_GROUPS)
                  for i in range(len(paper_sg))}
        assert actual == expected

    def test_conflict_states_share_code_10110(self, paper_sg):
        """The two underlined states of Figure 4."""
        by_code = {}
        for i in paper_sg.order:
            by_code.setdefault(paper_sg.int_codes[i], []).append(i)
        dup = [states for states in by_code.values() if len(states) > 1]
        assert len(dup) == 1
        states = dup[0]
        codes = {paper_sg.code_tuple(paper_sg.int_codes[i]) for i in states}
        assert codes == {(1, 0, 1, 1, 0)}  # <DSr,DTACK,LDTACK,LDS,D>
        markings = {paper_sg.graph.marking(i) for i in states}
        assert Marking({"p4": 1}) in markings
        assert Marking({"p2": 1, "p9": 1}) in markings

    def test_initial_values_all_zero(self, paper_sg):
        assert all(v == 0 for v in paper_sg.initial_values.values())


class TestRegions:
    def test_excitation_region_of_d_plus(self, paper_sg):
        er = paper_sg.excitation_region("D", "+")
        assert {paper_sg.graph.marking(i) for i in er} == {Marking({"p4": 1})}

    def test_quiescent_region_of_d_plus(self, paper_sg):
        qr = paper_sg.quiescent_region("D", "+")
        assert {paper_sg.graph.marking(i) for i in qr} == {
            Marking({"p5": 1}), Marking({"p6": 1})}

    def test_next_value_classification(self, paper_sg):
        er_plus = paper_sg.excitation_region("LDS", "+")
        for s in er_plus:
            assert paper_sg.value(s, "LDS") == 0
            assert paper_sg.next_value(s, "LDS") == 1
            assert paper_sg.next_value(s, "LDS") != paper_sg.value(s, "LDS")

    def test_regions_partition_states(self, paper_sg):
        for signal in PAPER_SIGNAL_ORDER:
            regions = [
                paper_sg.excitation_region(signal, "+"),
                paper_sg.quiescent_region(signal, "+"),
                paper_sg.excitation_region(signal, "-"),
                paper_sg.quiescent_region(signal, "-"),
            ]
            union = set().union(*regions)
            assert union == set(range(len(paper_sg)))
            total = sum(len(r) for r in regions)
            assert total == len(paper_sg)  # pairwise disjoint


class TestConsistency:
    def test_inconsistent_stg_detected(self):
        text = """
.model bad
.inputs a
.outputs b
.graph
a+ b+
b+ a+/1
a+/1 b-
b- a+
.marking { <b-,a+> }
.end
"""
        with pytest.raises(ConsistencyError):
            build_state_graph(parse_g(text))

    def test_nonsafe_stg_detected(self):
        stg = STG("unsafe", outputs=["x"])
        plus = stg.add_event("x+")
        minus = stg.add_event("x-")
        p = stg.add_place("p", tokens=1)
        stg.net.add_arc(p, plus)
        stg.net.add_arc(plus, p)
        q = stg.add_place("q", tokens=0)
        stg.net.add_arc(plus, q)
        stg.net.add_arc(q, minus)
        with pytest.raises(UnboundedError):
            build_state_graph(stg)

    def test_signal_order_must_be_permutation(self, read_stg):
        with pytest.raises(ConsistencyError):
            build_state_graph(read_stg, signal_order=["DSr"])

    def test_signal_order_must_not_repeat_a_signal(self):
        # the same set of signals with one of them twice would give
        # every code a dead sixth bit
        stg = vme_read_csc()
        with pytest.raises(ConsistencyError, match="permutation"):
            build_state_graph(stg, signal_order=["D"] + stg.signals)

    def test_unswitched_signal_defaults_to_zero(self):
        text = """
.model quiet
.inputs a unused
.outputs b
.graph
a+ b+
b+ a-
a- b-
b- a+
.marking { <b-,a+> }
.end
"""
        sg = build_state_graph(parse_g(text))
        assert sg.initial_values["unused"] == 0
