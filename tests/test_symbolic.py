"""Symbolic reachability vs explicit enumeration (paper Section 2.2)."""

import pytest

from repro.bdd import (
    FALSE,
    DenseSymbolicReachability,
    SymbolicCSC,
    SymbolicReachability,
    reachable_count,
)
from repro.errors import ModelError
from repro.petri import (
    PetriNet,
    enabled_transitions,
    fire,
    is_enabled,
    linear_reduce,
    reachable_markings,
)
from repro.stg import (
    ALL_EXAMPLES,
    latch_controller,
    muller_pipeline,
    parallel_handshakes,
    pipeline_ring,
    sequencer,
    vme_read,
    vme_read_csc,
    vme_read_write,
)

from test_bdd_engine import unsafe_net


ALL_NETS = [
    ("vme_read", lambda: vme_read().net),
    ("vme_read_csc", lambda: vme_read_csc().net),
    ("vme_read_write", lambda: vme_read_write().net),
    ("latch", lambda: latch_controller().net),
    ("ph3", lambda: parallel_handshakes(3).net),
    ("ring", lambda: pipeline_ring(6, 1).net),
    ("seq", lambda: sequencer(3).net),
]


@pytest.mark.parametrize("name,maker", ALL_NETS)
def test_symbolic_count_matches_explicit(name, maker):
    net = maker()
    assert SymbolicReachability(net).count() == len(reachable_markings(net))


def test_symbolic_contains_each_explicit_marking():
    net = vme_read().net
    sym = SymbolicReachability(net)
    for m in reachable_markings(net):
        assert sym.contains(m)


def test_symbolic_deadlock_detection():
    from repro.petri import PetriNet

    net = PetriNet("dead")
    net.add_place("p", tokens=1)
    net.add_place("q")
    net.add_transition("t")
    net.add_arc("p", "t")
    net.add_arc("t", "q")
    sym = SymbolicReachability(net)
    assert sym.deadlocks() != 0  # non-FALSE BDD

    live = SymbolicReachability(vme_read().net)
    assert live.deadlocks() == 0


def test_bdd_grows_slower_than_state_count():
    """The Section 2.2 claim: implicit representation is much more compact
    than explicit enumeration on concurrent systems."""
    sizes = {}
    for n in (2, 4, 6):
        sym = SymbolicReachability(parallel_handshakes(n).net)
        sym.reachable()
        sizes[n] = (sym.bdd_size(), 4 ** n)
    # BDD grows linearly-ish while the state count grows 16x per step
    assert sizes[6][0] < sizes[6][1]
    assert sizes[6][0] < 8 * sizes[2][0]


class TestDense:
    def test_dense_count_on_reduced_read_write(self):
        red = linear_reduce(vme_read_write().net)
        dense = DenseSymbolicReachability(red)
        assert dense.count() == len(reachable_markings(red))

    def test_dense_characteristic_constant_true(self):
        """Paper Section 2.2: the characteristic function of the reduced
        READ/WRITE net's reachability set reduces to constant 1 under the
        dense encoding."""
        red = linear_reduce(vme_read_write().net)
        dense = DenseSymbolicReachability(red)
        assert dense.characteristic_is_constant_true()

    def test_dense_fails_without_cover(self):
        from repro.petri import PetriNet

        net = PetriNet("nc")
        net.add_place("p", tokens=1)
        net.add_transition("t")
        net.add_arc("p", "t")
        with pytest.raises(ModelError):
            DenseSymbolicReachability(net)

    def test_dense_rejects_weighted_arcs(self):
        """The dense update ignores arc weights, so a net with an SM cover
        and a weighted arc must be refused, not miscounted: ``t`` needs two
        tokens on ``p`` and can never fire (2 reachable markings), but a
        weight-blind traversal fires it and finds 3."""
        net = PetriNet("weighted")
        net.add_place("p", tokens=1)
        net.add_place("q")
        net.add_place("r")
        for t in "tuvw":
            net.add_transition(t)
        net.add_arc("p", "t", weight=2)
        net.add_arc("t", "q", weight=2)
        for src, dst in (("p", "u"), ("u", "r"), ("r", "v"), ("v", "p"),
                         ("q", "w"), ("w", "p")):
            net.add_arc(src, dst)
        assert len(reachable_markings(net)) == 2
        with pytest.raises(ModelError, match="arc weights of 1"):
            DenseSymbolicReachability(net)
        with pytest.raises(ModelError, match="arc weights of 1"):
            reachable_count(net, encoding="dense")

    def test_dense_fewer_variables_than_naive(self):
        red = linear_reduce(vme_read_write().net)
        naive = SymbolicReachability(red)
        dense = DenseSymbolicReachability(red)
        assert dense.encoding.width < len(naive.places)


def test_reachable_count_dispatch():
    net = sequencer(2).net
    assert reachable_count(net, encoding="naive") == 4
    assert reachable_count(net, encoding="dense") == 4
    with pytest.raises(ModelError):
        reachable_count(net, encoding="magic")


class TestSafety:
    def test_safety_violation_witness(self):
        from repro.petri import PetriNet

        net = PetriNet("unsafe")
        net.add_place("p", tokens=1)
        net.add_place("q", tokens=1)
        net.add_transition("t")
        net.add_arc("p", "t")
        net.add_arc("t", "q")
        violation = SymbolicReachability(net).safety_violation()
        assert violation is not None
        transition, marking = violation
        assert transition == "t"
        assert marking.get("p") and marking.get("q")
        assert SymbolicReachability(vme_read().net).safety_violation() is None

    def test_safety_witness_is_reachable_in_real_token_game(self):
        """The witness marking must exist in the uncapped token game, not
        merely in the token-capped symbolic semantics: here 'a' only
        becomes unsafe-looking in capped-only states past the real
        violation at the initial marking, and must not be blamed."""
        from repro.petri import Marking, PetriNet

        net = PetriNet("capped")
        net.add_place("x", tokens=1)
        net.add_place("m", tokens=1)
        net.add_place("w")
        net.add_transition("z")
        net.add_arc("x", "z")
        net.add_arc("z", "m")
        net.add_arc("z", "w")
        net.add_transition("a")
        net.add_arc("w", "a")
        net.add_arc("a", "m")
        violation = SymbolicReachability(net).safety_violation()
        assert violation == ("z", Marking({"x": 1, "m": 1}))

    def test_initial_marking_validation(self):
        net = vme_read().net
        net.places[sorted(net.places)[0]].tokens = 2
        with pytest.raises(ModelError, match="1-safe initial marking"):
            SymbolicReachability(net)


# -- the image operator against the token game ------------------------- #

def safe_markings(net):
    """Every marking the token game reaches through 1-safe markings only:
    the reachable set of a 1-safe net, and the part a BDD can hold of an
    unsafe one."""
    seen = {net.initial_marking}
    stack = [net.initial_marking]
    while stack:
        marking = stack.pop()
        for t in enabled_transitions(net, marking):
            succ = fire(net, marking, t)
            if succ.is_safe() and succ not in seen:
                seen.add(succ)
                stack.append(succ)
    return sorted(seen, key=repr)


def safe_successor(net, marking, transition):
    """``fire(marking, transition)`` if the transition is enabled and the
    firing keeps the net 1-safe, else None."""
    if not is_enabled(net, marking, transition):
        return None
    succ = fire(net, marking, transition)
    return succ if succ.is_safe() else None


def assert_images_match_token_game(net):
    """The safe-guarded update of every transition maps each single
    marking to its 1-safe successor (or to FALSE), and the whole set to
    the union of the successors."""
    sym = SymbolicReachability(net)
    bdd = sym.bdd
    markings = safe_markings(net)
    everything = bdd.disj([sym.marking_to_bdd(m) for m in markings])
    for t in sorted(net.transitions):
        update = sym.transition_update(t)
        successors = []
        for m in markings:
            succ = safe_successor(net, m, t)
            expected = FALSE if succ is None else sym.marking_to_bdd(succ)
            assert bdd.image(sym.marking_to_bdd(m), update) == expected, \
                (t, m)
            if succ is not None:
                successors.append(sym.marking_to_bdd(succ))
        assert bdd.image(everything, update) == bdd.disj(successors), t


def assert_csc_images_flip_parity(stg):
    """SymbolicCSC's update moves the marking like the naive one and
    complements exactly the fired signal's parity (none for a dummy)."""
    analysis = SymbolicCSC(stg)
    bdd = analysis.bdd
    net = stg.net

    def state(marking, parity):
        cube = {p: 1 if marking.get(p) else 0 for p in analysis.places}
        for s in analysis.signals:
            cube[analysis.parity_var[s]] = parity[s]
        return bdd.from_cube(cube)

    vectors = [{s: 0 for s in analysis.signals},
               {s: i % 2 for i, s in enumerate(analysis.signals)}]
    for t in sorted(net.transitions):
        update = analysis.transition_update(t)
        event = stg.event_of(t)
        for m in safe_markings(net):
            succ = safe_successor(net, m, t)
            for parity in vectors:
                if succ is None:
                    expected = FALSE
                else:
                    flipped = dict(parity)
                    if not event.is_dummy:
                        flipped[event.signal] ^= 1
                    expected = state(succ, flipped)
                assert bdd.image(state(m, parity), update) == expected, \
                    (t, m, parity)


IMAGE_NETS = [(name, lambda maker=maker: maker().net)
              for name, maker in sorted(ALL_EXAMPLES.items())] + [
    ("ph3", lambda: parallel_handshakes(3).net),
    ("muller4", lambda: muller_pipeline(4).net),
    ("unsafe", unsafe_net),
]

IMAGE_STGS = [(name, maker) for name, maker in sorted(ALL_EXAMPLES.items())
              ] + [("ph3", lambda: parallel_handshakes(3)),
                   ("muller4", lambda: muller_pipeline(4))]


class TestImage:
    """A wrong image can still converge to the right reachable set, so
    the operator is checked against the token game directly."""

    @pytest.mark.parametrize("name,maker", IMAGE_NETS)
    def test_naive_update_matches_token_game(self, name, maker):
        assert_images_match_token_game(maker())

    @pytest.mark.parametrize("name,maker", IMAGE_STGS)
    def test_csc_update_flips_the_signal_parity(self, name, maker):
        assert_csc_images_flip_parity(maker())

    def test_dense_update_maps_codes(self):
        red = linear_reduce(vme_read_write().net)
        dense = DenseSymbolicReachability(red)
        bdd = dense.bdd
        for m in reachable_markings(red):
            for t in sorted(red.transitions):
                image = bdd.image(dense.marking_to_bdd(m),
                                  dense.transition_update(t))
                if is_enabled(red, m, t):
                    succ = fire(red, m, t)
                    assert image == dense.marking_to_bdd(succ), (t, m)
                else:
                    assert image == FALSE, (t, m)
