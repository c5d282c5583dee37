"""Reachability explorers: naive token game vs compiled bitvector BFS,
and the symbolic count beyond both (paper, Section 2.2).

The paper names state-space generation as the scalability bottleneck of
STG-based synthesis.  ``build_reachability_graph`` picks its explorer
from the net: the compiled bitvector BFS on ordinary 1-safe nets, the
dict token game otherwise.  The ``naive`` rows force the token game on
fresh instances of the same models by ruling the compiled explorer out
(a net already explored would answer from its memo), and every row
asserts that the two agree exactly: same state counts, same arc lists,
same initial state-graph codes.  The final benchmark shows what the
symbolic engine is actually *for*: its query keeps counting reachable
markings of a Muller pipeline at a size where both explorers blow their
state budget.

Representative timings (muller_pipeline(10), 2048 states / 6656 arcs):
naive ~120 ms, compiled ~28 ms cold / ~14 ms warm.  The explorer memoises
a net's graph on the net, so a synthesis flow explores each net once and
a net built again is a memo lookup.  Each benchmark round below therefore
explores a fresh copy of the model: the cold path, compilation and
marking decode included; see EXPERIMENTS.md for the cold/warm table.
"""

import pytest

from repro.bdd import SymbolicReachability, reachable_count
from repro.errors import StateExplosionError
from repro.stg import muller_pipeline, pipeline_ring
from repro.ts import build_reachability_graph, build_state_graph

from conftest import per_round

MODELS = {
    "muller_pipeline_6": lambda: muller_pipeline(6),
    "muller_pipeline_8": lambda: muller_pipeline(8),
    "pipeline_ring_12": lambda: pipeline_ring(12),
}

ENGINES = ("naive", "compiled")


def force(engine, patch):
    """Make ``engine`` the explorer of every build while ``patch`` is
    active: ``naive`` rules the compiled BFS out, ``compiled`` is what
    the ordinary 1-safe models here get anyway."""
    if engine == "naive":
        patch.setattr("repro.ts.builder.supports_compilation",
                      lambda net: False)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("model", sorted(MODELS))
def test_engine_reachability(benchmark, monkeypatch, model, engine):
    stg = MODELS[model]()
    force(engine, monkeypatch)
    ts = per_round(benchmark, build_reachability_graph,
                   lambda: (MODELS[model](),))
    force("naive", monkeypatch)
    reference = build_reachability_graph(stg)
    assert len(ts) == len(reference)
    assert list(ts.arcs()) == list(reference.arcs())
    assert ts.states == reference.states


@pytest.mark.parametrize("model", ["muller_pipeline_6", "muller_pipeline_8"])
def test_engine_initial_codes_agree(model):
    codes = {}
    for engine in ENGINES:
        with pytest.MonkeyPatch.context() as patch:
            force(engine, patch)
            sg = build_state_graph(MODELS[model]())
        assert (sg.graph.compiled is None) == (engine == "naive")
        codes[engine] = (sg.code(sg.initial), sg.initial_values)
    assert codes["naive"] == codes["compiled"]


@pytest.mark.parametrize("model", ["muller_pipeline_6", "pipeline_ring_12"])
def test_engine_symbolic_state_count_agrees(benchmark, model):
    stg = MODELS[model]()
    explicit = len(build_reachability_graph(stg))

    def symbolic_count():
        return SymbolicReachability(stg.net).count()

    assert benchmark(symbolic_count) == explicit


#: State budget for the over-budget benchmark: both explorers give up
#: here, the symbolic query does not.
STATE_BUDGET = 4096


def test_bdd_query_beyond_explicit_state_budget(benchmark):
    """``muller_pipeline(12)`` has ``2**13 = 8192`` reachable markings.
    Under a 4096-state budget both explorers raise
    :class:`StateExplosionError`, while the chained symbolic fixpoint's
    count answers exactly.
    """
    stg = muller_pipeline(12)
    for engine in ENGINES:
        with pytest.MonkeyPatch.context() as patch:
            force(engine, patch)
            with pytest.raises(StateExplosionError):
                build_reachability_graph(stg, max_states=STATE_BUDGET)

    count = benchmark.pedantic(reachable_count, args=(stg,),
                               rounds=1, iterations=1)
    assert count == 2 ** 13
