"""SAT query engine vs. full state-graph construction (paper, Section 2.2).

The explicit engines must *build the whole reachability graph* before
answering any property question; the SAT engine of :mod:`repro.sat`
answers one query per solver run.  This benchmark pits the two against
each other on three workloads:

* **deadlock-freedom on Muller pipelines** — the state count doubles per
  stage, the SAT proof (0-induction over the P-invariant envelope) grows
  only with the net size.  At ``n = 12`` the explicit build is already
  an order of magnitude slower than the SAT proof, and under a 4096-state
  budget it does not finish at all while the SAT verdict is unaffected;
* **shallow deadlock in a large space (dining philosophers)** — BMC digs
  out the all-take-left deadlock in a single ∅-conflict step without
  visiting the rest of the ~3^n-state space; the explicit path
  enumerates everything first;
* **the VME CSC conflict** — found by a bounded two-trace query instead
  of the state-graph + code-grouping pipeline.

Measured numbers live in EXPERIMENTS.md.
"""

import pytest

from repro.errors import StateExplosionError
from repro.petri import dining_philosophers, find_deadlocks
from repro.analysis import check_implementability
from repro.sat import (
    Proved,
    csc_conflict,
    find_deadlock,
    prove_deadlock_free,
)
from repro.stg import muller_pipeline, vme_read
from repro.ts import build_reachability_graph

from conftest import per_round

PIPELINE_SIZES = (8, 10, 12)


@pytest.mark.parametrize("n", PIPELINE_SIZES)
def test_sat_deadlock_proof(benchmark, n):
    stg = muller_pipeline(n)
    verdict = benchmark(prove_deadlock_free, stg, 4)
    assert isinstance(verdict, Proved)


@pytest.mark.parametrize("n", PIPELINE_SIZES)
def test_explicit_full_graph_baseline(benchmark, n):
    ts = per_round(benchmark, build_reachability_graph,
                   lambda: (muller_pipeline(n),))
    assert len(ts) == 2 ** (n - 1) * 4


def test_sat_answers_beyond_the_explicit_state_budget():
    """The acceptance check: at n=12 a 4096-state budget kills the
    explicit build (8192 states exist) while the SAT verdict is
    untouched — the query never enumerates states at all."""
    stg = muller_pipeline(12)
    with pytest.raises(StateExplosionError):
        build_reachability_graph(stg, max_states=4096)
    assert isinstance(prove_deadlock_free(stg, max_k=2), Proved)


def test_sat_finds_shallow_deadlock(benchmark):
    net = dining_philosophers(6)
    # one ∅-conflict step: every philosopher takes the left fork at once
    witness = benchmark(find_deadlock, net, 1)
    assert witness is not None
    assert len(witness.transitions) == 6  # all take_left
    final = witness.final_marking
    assert find_deadlocks(net, markings=[final]) == [final]


def test_explicit_deadlock_baseline(benchmark):
    dead = per_round(benchmark, find_deadlocks,
                     lambda: (dining_philosophers(6),))
    assert len(dead) == 1


def test_sat_and_explicit_agree_on_philosophers():
    net = dining_philosophers(5)
    witness = find_deadlock(net, bound=5)
    assert witness is not None
    assert find_deadlocks(net) == [witness.final_marking]


def test_sat_csc_query(benchmark):
    stg = vme_read()
    conflict = benchmark(csc_conflict, stg, 10)
    assert conflict is not None
    assert conflict.enabled_a != conflict.enabled_b


def test_explicit_csc_baseline(benchmark):
    report = per_round(benchmark, check_implementability,
                       lambda: (vme_read(),))
    assert len(report.csc_conflicts) == 1
