"""Figure 7 — the READ-cycle state graph after csc0 insertion.

Paper: csc0+ is inserted right before LDS+ and csc0- right before D-;
the resulting SG satisfies complete state coding (and remains consistent
and persistent), enabling the Section 3.2 synthesis.
"""

from repro.analysis import check_implementability
from repro.stg import vme_read, vme_read_csc
from repro.synth import enumerate_insertions, resolve_csc
from repro.ts import build_state_graph

from conftest import PAPER_ORDER_CSC, per_round


def test_fig7_paper_insertion(benchmark):
    sg = benchmark(lambda: build_state_graph(vme_read_csc(),
                                             signal_order=PAPER_ORDER_CSC))
    assert len(sg) == 16  # 14 states + one per inserted transition
    report = check_implementability(vme_read_csc())
    assert report.implementable
    print("\nFigure 7 state graph <DSr,DTACK,LDTACK,LDS,D,csc0>:")
    for s in sg.states:
        print("  %-16s %s" % (s, sg.code_str(s)))


def test_fig7_codes_unique(benchmark):
    sg = build_state_graph(vme_read_csc(), signal_order=PAPER_ORDER_CSC)
    by_code = benchmark(sg.states_by_code)
    assert all(len(v) == 1 for v in by_code.values())  # USC restored


def test_fig7_insertion_search_finds_paper_solution(benchmark):
    """The exhaustive insertion search must list (LDS+, D-) — the paper's
    choice — among the fully resolving candidates."""
    candidates = per_round(benchmark, enumerate_insertions,
                           lambda: (vme_read(),))
    pairs = {(c.rise_before, c.fall_before) for c in candidates}
    assert ("LDS+", "D-") in pairs
    best = candidates[0]
    assert best.conflicts == 0 and best.states == 16
    print("\n%d fully resolving insertions; best: csc0+ before %s, "
          "csc0- before %s (%d states)"
          % (len(candidates), best.rise_before, best.fall_before,
             best.states))


def test_fig7_automatic_resolution(benchmark):
    resolved = per_round(benchmark, resolve_csc, lambda: (vme_read(),))
    assert resolved.internal == ["csc0"]
    assert check_implementability(resolved).implementable
