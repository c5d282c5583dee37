"""Scalability of the synthesis pipeline — Muller pipelines of growing
depth.

The paper's methodology is meant for CAD: "it is crucial to provide CAD
tools to handle the most difficult tasks automatically".  This benchmark
tracks the cost of the full flow (state graph, covers, verification) as
the controller grows, and checks the textbook result at every size:
stage i of a Muller pipeline synthesizes to the C-element
``C(c(i-1), c(i+1)')``.

Also cross-validates the timing engines: deterministic-corner simulation
reproduces the analytic cycle time exactly.
"""

import pytest

from repro.boolmin import equivalent, parse_expr
from repro.stg import muller_pipeline, pipeline_ring, sequencer
from repro.synth import synthesize_gc
from repro.timing import TimedMarkedGraph, cycle_time, simulate
from repro.ts import build_state_graph
from repro.verify import verify_circuit

from conftest import per_round

# n up to 8 is tractable since the compiled bitvector reachability engine
# (repro/petri/compiled.py) replaced the naive token game on the hot path;
# see EXPERIMENTS.md for the measured engine speedups (~8x warm / ~3-5x
# cold on reachability, ~3x on the full synthesize+verify flow at n=8).
SIZES = (2, 3, 4, 5, 6, 7, 8)
# 10 and 12 are tractable since minimisation works from the OFF-set and
# never lists the unreachable codes (EXPERIMENTS.md, "OFF-set
# minimisation"); each takes seconds, so they are timed with one round
LARGE_SIZES = (10, 12)


@pytest.mark.parametrize("n", SIZES + LARGE_SIZES)
def test_pipeline_synthesis_scales(benchmark, n):
    def flow(stg):
        netlist = synthesize_gc(stg)
        report = verify_circuit(netlist, stg)
        return netlist, report

    if n in LARGE_SIZES:
        netlist, report = benchmark.pedantic(
            flow, args=(muller_pipeline(n),), rounds=1, iterations=1)
    else:
        netlist, report = per_round(benchmark, flow,
                                    lambda: (muller_pipeline(n),))
    assert report.ok
    assert report.states == 2 ** (n + 1)
    for i in range(1, n):
        gate = netlist.gates["c%d" % i]
        assert equivalent(gate.set_expr,
                          parse_expr("c%d & ~c%d" % (i - 1, i + 1)))


def test_pipeline_size_table(benchmark):
    def build_rows():
        rows = []
        for n in SIZES:
            stg = muller_pipeline(n)
            sg = build_state_graph(stg)
            netlist = synthesize_gc(stg)
            rows.append((n, len(sg), netlist.gate_count(),
                         netlist.literal_count()))
        return rows

    rows = benchmark(build_rows)
    print("\n stages | states | gates | literals")
    for n, states, gates, literals in rows:
        print(" %6d | %6d | %5d | %d" % (n, states, gates, literals))
    # state graph doubles per stage; circuit grows linearly
    for (n1, s1, g1, l1), (n2, s2, g2, l2) in zip(rows, rows[1:]):
        assert s2 == 2 * s1
        assert g2 == g1 + 1


def test_sequencer_sparse_code_space(benchmark):
    """sequencer(16): 32 states among 2^16 codes.  With every don't-care
    listed, gC synthesis of the smaller sequencer(12) took 78 s
    (EXPERIMENTS.md); from the OFF-set this case takes well under a
    second."""
    n = 16
    stg = sequencer(n)

    def flow():
        netlist = synthesize_gc(stg)
        report = verify_circuit(netlist, stg)
        return netlist, report

    netlist, report = benchmark.pedantic(flow, rounds=1, iterations=1)
    assert report.ok
    assert report.states == 2 * n
    assert netlist.literal_count() == 2 * n
    assert equivalent(netlist.gates["x0"].set_expr,
                      parse_expr("~x%d" % (n - 1)))
    for i in range(1, n):
        assert equivalent(netlist.gates["x%d" % i].set_expr,
                          parse_expr("x%d" % (i - 1)))


@pytest.mark.parametrize("n", (4, 8))
def test_timed_ring_simulation_matches_analysis(benchmark, n):
    # a single circulating token gives one firing per cycle, so the
    # simulated inter-firing time equals the analytic cycle time exactly
    net = pipeline_ring(n, tokens=1).net
    tmg = TimedMarkedGraph(net, {t: (2, 5) for t in net.transitions})

    def both():
        analytic = cycle_time(tmg)
        trace = simulate(tmg, cycles=20, deterministic="max")
        t0 = sorted(net.transitions)[0]
        return analytic, trace.cycle_time_estimate(t0)

    analytic, simulated = benchmark(both)
    assert simulated == pytest.approx(analytic, abs=1e-6)
    assert analytic == pytest.approx(5.0 * n, abs=1e-6)
