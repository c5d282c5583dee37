"""Figure 4 — reachability graph and state graph of the READ cycle.

Paper: 14 states; binary codes in order <DSr,DTACK . LDTACK,LDS . D>;
two states (markings {p4} and {p2,p9}) share code 10110 and enable
different outputs — the CSC conflict motivating Section 3.1.
"""

from repro.analysis import check_implementability, csc_conflicts
from repro.petri import Marking
from repro.stg import vme_read
from repro.ts import build_state_graph

from conftest import PAPER_GROUPS, PAPER_SIGNAL_ORDER, per_round

FIGURE4_CODES = {
    "0*0.00.0", "10.00*.0", "10.0*1.0", "10.11.0*", "10*.11.1",
    "1*1.11.1", "01.11.1*", "01*.11*.0", "0*0.11*.0", "10.11*.0",
    "01*.1*0.0", "0*0.1*0.0", "01*.00.0", "10.1*0.0",
}


def test_fig4_state_graph_generation(benchmark):
    sg = per_round(benchmark, build_state_graph, lambda: (vme_read(),),
                   signal_order=PAPER_SIGNAL_ORDER)
    assert len(sg) == 14
    rendered = {sg.code_str(i, groups=PAPER_GROUPS) for i in range(len(sg))}
    assert rendered == FIGURE4_CODES
    print("\nFigure 4 state graph (marking : code):")
    for i in range(len(sg)):
        print("  %-12s %s" % (sg.graph.marking(i),
                              sg.code_str(i, groups=PAPER_GROUPS)))


def test_fig4_csc_conflict_pair(benchmark):
    stg = vme_read()
    sg = build_state_graph(stg, signal_order=PAPER_SIGNAL_ORDER)
    conflicts = benchmark(csc_conflicts, sg)
    assert len(conflicts) == 1
    conflict = conflicts[0]
    assert conflict.code == (1, 0, 1, 1, 0)
    assert {conflict.state_a, conflict.state_b} == {
        Marking({"p4": 1}), Marking({"p2": 1, "p9": 1})}
    # the implied LDS values disagree: 1 in {p4}, 0 in {p2,p9} (§2.1)
    markings = sg.graph.markings()
    assert sg.next_value(markings.index(Marking({"p4": 1})), "LDS") == 1
    assert sg.next_value(markings.index(Marking({"p2": 1, "p9": 1})),
                         "LDS") == 0


def test_fig4_full_report(benchmark):
    report = per_round(benchmark, check_implementability,
                       lambda: (vme_read(),))
    assert report.states == 14
    assert report.consistent and report.persistent
    assert not report.implementable
    print("\n" + report.summary())
