"""Figure 3 — the READ-cycle STG (a live safe marked graph, 11 places).

Also exercises the Section 2.2 remark that the net reduces to a single
self-loop transition under place/transition fusion.
"""

from repro.petri import (
    full_reduce,
    is_free_choice,
    is_live,
    is_marked_graph,
    is_safe,
    p_invariants,
)
from repro.stg import parse_g, vme_read, write_g

from conftest import per_round


def test_fig3_structure(benchmark):
    stg = benchmark(vme_read)
    assert len(stg.net.places) == 11
    assert len(stg.net.transitions) == 10
    assert stg.inputs == ["DSr", "LDTACK"]
    assert stg.outputs == ["D", "DTACK", "LDS"]
    assert is_marked_graph(stg.net)
    assert is_free_choice(stg.net)
    assert stg.initial_marking.places() == ("p0", "p1")


def test_fig3_properties(benchmark):
    def props(stg):
        return (is_safe(stg.net), is_live(stg.net))

    safe, live = per_round(benchmark, props, lambda: (vme_read(),))
    assert safe and live


def test_fig3_g_format_roundtrip(benchmark):
    stg = vme_read()
    text = benchmark(write_g, stg)
    assert parse_g(text).net.stats() == stg.net.stats()


def test_fig3_reduces_to_single_transition(benchmark):
    """Section 2.2: "reduce the whole PN from Figure 3 to a single
    self-loop transition"."""
    reduced = benchmark(full_reduce, vme_read().net)
    assert len(reduced.transitions) == 1


def test_fig3_marked_graph_invariants(benchmark):
    """Every place of a live safe MG is covered by a 1-token P-invariant."""
    invs = benchmark(p_invariants, vme_read().net)
    covered = set().union(*(set(i) for i in invs))
    assert covered == set(vme_read().net.places)
