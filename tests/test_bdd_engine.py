"""The ``bdd`` query engine.

Covers the two contracts of the symbolic engine:

* **queries** — ``reachable_count`` / ``find_deadlock`` /
  :class:`~repro.bdd.queries.SymbolicCSC` agree with the explicit
  answers while never materialising the state space, and the fixpoint
  holds exactly the states of the built graph;
* **domain errors** — unsafe nets raise :class:`UnboundedError` from
  every query instead of answering for a capped token game; weighted
  arcs raise :class:`ModelError`, where the graph builder falls back to
  the token game.
"""

import pytest

from repro.analysis import check_implementability
from repro.bdd import (
    SymbolicCSC,
    SymbolicReachability,
    find_deadlock,
    has_csc_conflict,
    has_deadlock,
    reachable_count,
)
from repro.errors import ModelError, UnboundedError
from repro.petri import Marking, PetriNet, find_deadlocks, reachable_markings
from repro.stg import (
    latch_controller,
    muller_pipeline,
    parallel_handshakes,
    pipeline_ring,
    sequencer,
    vme_read,
    vme_read_csc,
    vme_read_write,
)
from repro.ts import build_reachability_graph, build_state_graph, choose_engine

LIBRARY = {
    "vme_read": vme_read,
    "vme_read_csc": vme_read_csc,
    "vme_read_write": vme_read_write,
    "latch": latch_controller,
    "ph2": lambda: parallel_handshakes(2),
    "ph3": lambda: parallel_handshakes(3),
    "seq": lambda: sequencer(3),
    "muller4": lambda: muller_pipeline(4),
}


def unsafe_net() -> PetriNet:
    """p and q marked; firing t (p -> q) puts a second token on q."""
    net = PetriNet("unsafe")
    net.add_place("p", tokens=1)
    net.add_place("q", tokens=1)
    net.add_transition("t")
    net.add_arc("p", "t")
    net.add_arc("t", "q")
    return net


def weighted_net() -> PetriNet:
    """t needs two tokens on p, which holds one: a single dead marking."""
    net = PetriNet("weighted")
    net.add_place("p", tokens=1)
    net.add_transition("t")
    net.add_arc("p", "t", weight=2)
    return net


class TestChooseEngine:
    def test_graph_purpose(self):
        stg = vme_read()
        assert choose_engine(stg) == "compiled"
        assert choose_engine(stg, require_safe=False) == "naive"

    def test_query_falls_back_to_sat_outside_bdd_domain(self):
        # the portfolio schedule races bdd only inside its domain
        from repro.portfolio.tasks import schedule

        assert schedule(weighted_net()) == ("sat", "naive")
        assert schedule(vme_read()) == ("sat", "bdd", "compiled")


class TestQueries:
    @pytest.mark.parametrize("name", sorted(LIBRARY))
    def test_reachable_count_matches_explicit(self, name):
        stg = LIBRARY[name]()
        assert reachable_count(stg) == len(reachable_markings(stg.net))

    @pytest.mark.parametrize("name", sorted(LIBRARY))
    def test_fixpoint_holds_exactly_the_built_states(self, name):
        stg = LIBRARY[name]()
        ts = build_reachability_graph(stg)
        sym = SymbolicReachability(stg.net)
        assert all(sym.contains(m) for m in ts.states)
        assert sym.count() == len(ts)

    def test_counts_from_the_current_initial_marking(self):
        net = PetriNet("chain")
        net.add_place("p0", tokens=1)
        net.add_place("p1")
        net.add_transition("t0")
        net.add_arc("p0", "t0")
        net.add_arc("t0", "p1")
        assert reachable_count(net) == 2
        net.set_initial_marking(["p1"])
        assert reachable_count(net) == 1
        sym = SymbolicReachability(net)
        assert sym.contains(Marking({"p1": 1}))
        assert not sym.contains(Marking({"p0": 1}))

    def test_weighted_net_outside_domain(self):
        net = weighted_net()
        with pytest.raises(ModelError, match="arc weights of 1"):
            reachable_count(net)
        with pytest.raises(ModelError, match="arc weights of 1"):
            find_deadlock(net)
        # the graph builder covers the model with the token game
        assert choose_engine(net) == "naive"
        assert len(build_reachability_graph(net)) == 1

    def test_find_deadlock_on_live_net(self):
        assert find_deadlock(vme_read()) is None
        assert not has_deadlock(vme_read())

    def test_find_deadlock_returns_reachable_dead_marking(self):
        net = PetriNet("dead")
        net.add_place("p", tokens=1)
        net.add_place("q")
        net.add_transition("t")
        net.add_arc("p", "t")
        net.add_arc("t", "q")
        dead = find_deadlock(net)
        assert dead is not None
        assert dead in reachable_markings(net)
        assert dead in find_deadlocks(net)

    def test_reachable_count_unknown_encoding(self):
        with pytest.raises(ModelError):
            reachable_count(vme_read(), encoding="magic")

    def test_queries_reject_unsafe_nets(self):
        """The one traversal is safe-guarded: on a net that is not 1-safe
        every query raises instead of answering for a capped token game.
        ``pipeline_ring(6, 2)`` is 2-bounded; a capped count happens to
        match its number of markings, which is not a proof of anything."""
        for net in (unsafe_net(), pipeline_ring(6, 2).net):
            with pytest.raises(UnboundedError):
                reachable_count(net)
            with pytest.raises(UnboundedError):
                find_deadlock(net)
            sym = SymbolicReachability(net)
            with pytest.raises(UnboundedError, match="violates 1-safeness"):
                sym.count()
            with pytest.raises(UnboundedError):
                sym.reachable()
            with pytest.raises(UnboundedError):
                sym.contains(net.initial_marking)


class TestSymbolicCSC:
    @pytest.mark.parametrize("name", sorted(LIBRARY))
    def test_agrees_with_explicit_check(self, name):
        stg = LIBRARY[name]()
        explicit = bool(check_implementability(stg).csc_conflicts)
        assert has_csc_conflict(stg) == explicit

    def test_conflict_parities_match_explicit_codes(self):
        stg = vme_read()
        sg = build_state_graph(stg)
        initial_code = tuple(sg.initial_values[s] for s in stg.signals)
        explicit_codes = {
            conflict.code
            for conflict in check_implementability(stg).csc_conflicts
        }
        analysis = SymbolicCSC(stg)
        symbolic_codes = {
            tuple(p ^ i for p, i in zip(parity, initial_code))
            for parity in analysis.conflict_parities()
        }
        assert symbolic_codes == explicit_codes
        assert analysis.conflict_count() == len(symbolic_codes)

    def test_wrapper_in_analysis_package(self):
        analysis = SymbolicCSC(vme_read())
        assert analysis.has_conflict()
        assert not SymbolicCSC(vme_read_csc()).has_conflict()

    def test_no_conflict_means_empty_characteristic_function(self):
        from repro.bdd import FALSE

        analysis = SymbolicCSC(latch_controller())
        assert analysis.conflict_chf() == FALSE
        assert analysis.conflict_parities() == []
        assert analysis.conflict_count() == 0
