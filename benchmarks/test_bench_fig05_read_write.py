"""Figure 5 — READ and WRITE cycles with choice.

Paper: places p0 (and the shared LDS+ trigger) are choice places; p1/p2
merge the alternative branches; DSr+/DSw+ disable each other (environment
choice, allowed) — Sections 1.5 and 2.1.
"""

from repro.analysis import check_implementability
from repro.petri import choice_places, is_marked_graph, merge_places
from repro.stg import vme_read_write
from repro.synth import resolve_csc
from repro.ts import build_state_graph

from conftest import per_round


def test_fig5_structure(benchmark):
    stg = benchmark(vme_read_write)
    assert not is_marked_graph(stg.net)
    assert set(choice_places(stg.net)) == {"p0", "p3"}
    assert {"p1", "p2"} <= set(merge_places(stg.net))
    # both branches instantiate LDS+ (the paper draws LDS+ twice)
    assert {"LDS+/1", "LDS+/2"} <= set(stg.net.transitions)


def test_fig5_state_graph(benchmark):
    sg = per_round(benchmark, build_state_graph,
                   lambda: (vme_read_write(),))
    assert len(sg) == 24
    # in the initial state the environment chooses read or write
    enabled = {str(e) for e in sg.enabled_events(sg.initial)}
    assert enabled == {"DSr+", "DSw+"}


def test_fig5_input_choice_is_persistent(benchmark):
    report = per_round(benchmark, check_implementability,
                       lambda: (vme_read_write(),))
    assert report.consistent
    assert report.persistent        # input-by-input disabling allowed
    assert not report.has_csc       # needs state signals (resolved below)


def test_fig5_csc_resolution(benchmark):
    resolved = per_round(benchmark, resolve_csc,
                         lambda: (vme_read_write(),))
    report = check_implementability(resolved)
    assert report.implementable
    assert len(resolved.internal) == 1  # one csc signal suffices
