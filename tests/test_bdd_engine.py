"""The ``engine="bdd"`` backend of the unified engine framework.

Covers the three contracts of the symbolic engine:

* **graph building** — ``build_reachability_graph(engine="bdd")`` and
  ``build_state_graph(engine="bdd")`` are bit-identical to the naive and
  compiled engines (same states, same arcs, same insertion order);
* **domain errors** — unsafe nets, weighted arcs, ``require_safe=False``
  and blown state budgets fail with the same exception types as the
  explicit engines;
* **queries** — ``reachable_count`` / ``find_deadlock`` /
  :class:`~repro.bdd.queries.SymbolicCSC` agree with the explicit
  answers while never materialising the state space.
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
from repro.errors import ModelError, StateExplosionError, UnboundedError
from repro.petri import PetriNet, find_deadlocks, reachable_markings
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
from repro.ts import (
    ENGINES,
    build_reachability_graph,
    build_state_graph,
    choose_engine,
)

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


class TestGraphEngine:
    @pytest.mark.parametrize("name", sorted(LIBRARY))
    def test_bit_identical_to_naive(self, name):
        stg = LIBRARY[name]()
        reference = build_reachability_graph(stg, engine="naive")
        ts = build_reachability_graph(stg, engine="bdd")
        assert ts.initial == reference.initial
        assert ts.states == reference.states
        assert list(ts.arcs()) == list(reference.arcs())

    @pytest.mark.parametrize("name", ["vme_read", "muller4"])
    def test_state_graph_identical(self, name):
        stg = LIBRARY[name]()
        reference = build_state_graph(stg, engine="compiled")
        sg = build_state_graph(stg, engine="bdd")
        assert sg.codes == reference.codes
        assert sg.initial_values == reference.initial_values

    def test_custom_initial_marking(self):
        stg = vme_read()
        reference = build_reachability_graph(stg, engine="naive")
        # restart the exploration from the third discovered marking
        other = reference.states[2]
        for engine in ("naive", "bdd"):
            ts = build_reachability_graph(stg, engine=engine, initial=other)
            assert ts.initial == other
        naive = build_reachability_graph(stg, engine="naive", initial=other)
        bdd = build_reachability_graph(stg, engine="bdd", initial=other)
        assert naive.states == bdd.states
        assert list(naive.arcs()) == list(bdd.arcs())

    def test_state_budget_checked_before_enumeration(self):
        with pytest.raises(StateExplosionError) as err:
            build_reachability_graph(muller_pipeline(6), engine="bdd",
                                     max_states=50)
        assert "symbolic count" in str(err.value)

    def test_explicit_phase_cross_checks_the_fixpoint(self, monkeypatch):
        """Every enumerated marking is checked against the reachable BDD:
        a fixpoint that misses one reachable marking is an internal error,
        not a silently different graph."""
        stg = vme_read()
        dropped = build_reachability_graph(stg, engine="naive").states[1]
        exact = SymbolicReachability.reachable

        def lossy(self):
            bdd = self.bdd
            return bdd.apply_and(exact(self),
                                 bdd.apply_not(self.marking_to_bdd(dropped)))

        monkeypatch.setattr(SymbolicReachability, "reachable", lossy)
        with pytest.raises(ModelError, match="outside the symbolic fixpoint"):
            build_reachability_graph(stg, engine="bdd")

    def test_unsafe_net_raises_unbounded(self):
        net = unsafe_net()
        with pytest.raises(UnboundedError):
            build_reachability_graph(net, engine="naive")
        with pytest.raises(UnboundedError) as err:
            build_reachability_graph(net, engine="bdd")
        assert "1-safeness" in str(err.value)

    def test_require_safe_false_rejected(self):
        with pytest.raises(ModelError):
            build_reachability_graph(vme_read(), engine="bdd",
                                     require_safe=False)

    def test_weighted_net_outside_domain(self):
        net = PetriNet("weighted")
        net.add_place("p", tokens=1)
        net.add_transition("t")
        net.add_arc("p", "t", weight=2)
        with pytest.raises(ModelError):
            build_reachability_graph(net, engine="bdd")
        # auto falls back to an engine that covers the model
        assert len(build_reachability_graph(net, require_safe=False)) == 1

    def test_unknown_engine_lists_all(self):
        with pytest.raises(ModelError) as err:
            build_reachability_graph(vme_read(), engine="magic")
        for engine in ENGINES:
            assert engine in str(err.value)


class TestChooseEngine:
    def test_graph_purpose(self):
        stg = vme_read()
        assert choose_engine(stg) == "compiled"
        assert choose_engine(stg, require_safe=False) == "naive"

    def test_query_falls_back_to_sat_outside_bdd_domain(self):
        # the portfolio schedule races bdd only inside its domain
        from repro.portfolio.tasks import schedule

        net = PetriNet("weighted")
        net.add_place("p", tokens=1)
        net.add_transition("t")
        net.add_arc("p", "t", weight=2)
        assert schedule(net) == ("sat", "naive")
        assert schedule(vme_read()) == ("sat", "bdd", "compiled")


class TestQueries:
    @pytest.mark.parametrize("name", sorted(LIBRARY))
    def test_reachable_count_matches_explicit(self, name):
        stg = LIBRARY[name]()
        assert reachable_count(stg) == len(reachable_markings(stg.net))

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
