"""CSC insertion candidates decided on the parent's graph.

``enumerate_insertions`` labels each candidate with two walks over the
parent's numbered graph (``repro.synth.csc`` docstring) and builds no
STG.  Here every candidate of a wide set of parents is also built,
explored and labelled, and the two must agree: the same verdict of
``_insertion_metrics``, and for an accepted child the same state and arc
counts and the same multiset of (int code, enabled mask) pairs.  The
parents:

* the bundled specs, ``muller_pipeline`` 3-5, ``parallel_handshakes``
  2-3 and ``sequencer`` 3-4;
* the best six partial candidates of each bundled spec, which already
  carry ``csc0``;
* 150 ``ring_stg`` samples drawn from a seeded ``random.Random``;
* constructed cases: ``max_states`` at the child's size and one below,
  a parent that is not live, a parent with a dummy event, an
  inconsistent and an unsafe parent, and a parent the naive explorer
  explored.

No value here may depend on ``PYTHONHASHSEED``; CI runs this file under
two seeds.
"""

import random

import pytest

import repro.synth.csc as csc
from repro.errors import ModelError
from repro.petri import is_live
from repro.stg import (ALL_EXAMPLES, STG, SignalType,
                       concurrent_latch_controller, muller_pipeline,
                       parallel_handshakes, parse_g, sequencer, vme_read,
                       write_g)
from repro.synth import enumerate_insertions, resolve_csc

from test_random_models import ring_stg

MAX_STATES = 5000


def agreement(stg, max_states=MAX_STATES):
    """Decide every candidate of one search step both ways; return how
    many were walked (not built) and how many the walk accepted."""
    parent = csc._Parent(stg, csc._fresh_signal(stg, "csc"), max_states)
    targets = csc._insertion_targets(stg)
    walked = accepted = 0
    for rise in targets:
        for fall in targets:
            if set(rise) & set(fall):
                continue
            candidate = csc.InsertionCandidate(parent, rise, fall)
            metrics = csc._insertion_metrics(candidate, max_states)
            walked += candidate._stg is None
            labelled = candidate.labelled(max_states)
            built = csc._explored(candidate.stg, max_states)
            assert metrics == csc._insertion_metrics(candidate.stg,
                                                     max_states), \
                (rise, fall)
            assert (labelled is None) == (built is None), (rise, fall)
            if labelled is None:
                continue
            accepted += metrics is not None
            assert len(labelled.graph) == len(built.graph)
            assert labelled.graph.arc_count() == built.graph.arc_count()
            assert labelled.noninput == built.noninput
            assert sorted(zip(labelled.codes, labelled.masks)) \
                == sorted(zip(built.codes, built.masks))
            assert sorted(labelled.disabling) == sorted(built.disabling)
    return walked, accepted


FAMILIES = {
    **{name: ALL_EXAMPLES[name] for name in sorted(ALL_EXAMPLES)},
    "muller_pipeline_3": lambda: muller_pipeline(3),
    "muller_pipeline_4": lambda: muller_pipeline(4),
    "muller_pipeline_5": lambda: muller_pipeline(5),
    "parallel_handshakes_2": lambda: parallel_handshakes(2),
    "parallel_handshakes_3": lambda: parallel_handshakes(3),
    "sequencer_3": lambda: sequencer(3),
    "sequencer_4": lambda: sequencer(4),
}


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_walk_agrees_with_the_built_candidates(name):
    walked, _ = agreement(FAMILIES[name]())
    assert walked  # decided with no STG built


@pytest.mark.parametrize("name", sorted(ALL_EXAMPLES))
def test_walk_agrees_on_parents_that_carry_csc0(name):
    spec = ALL_EXAMPLES[name]()
    signal = csc._fresh_signal(spec, "csc")
    partial = enumerate_insertions(spec, signal=signal, full_only=False)
    for candidate in partial[:6]:
        assert signal in candidate.stg.internal
        agreement(candidate.stg)


def test_walk_agrees_on_seeded_ring_samples():
    rng = random.Random(2029)

    def permutation(items):
        items = list(items)
        rng.shuffle(items)
        return items

    walked = accepted = 0
    for _ in range(150):
        stg = ring_stg(rng.randint, permutation, lambda: rng.random() < 0.5,
                       rng.choice)
        counts = agreement(stg)
        walked += counts[0]
        accepted += counts[1]
    assert walked and accepted


def test_state_budget_at_the_childs_size_and_one_below():
    stg = vme_read()
    child = stg.insert_signal("csc0", rise_before=["LDS+"],
                              fall_before=["D-"])
    size = len(csc.build_state_graph(child))
    assert size == 16
    parent = csc._Parent(stg, "csc0", size)
    candidate = csc.InsertionCandidate(parent, ("LDS+",), ("D-",))
    assert csc._insertion_metrics(candidate, size) == (0, size)
    assert csc._insertion_metrics(candidate, size - 1) is None
    assert csc._insertion_metrics(child, size - 1) is None
    for budget in (size, size - 1):
        agreement(stg, max_states=budget)


#: A handshake that stops after one cycle: consistent, safe, not live.
ONE_SHOT = """
.model one_shot
.inputs r
.outputs a b
.graph
p0 r+
r+ a+ b+
a+ r-
b+ r-
r- a-
a- b-
.marking { p0 }
.end
"""


def test_walk_agrees_on_a_parent_that_is_not_live():
    stg = parse_g(ONE_SHOT)
    assert not is_live(stg.net)
    walked, accepted = agreement(stg)
    assert walked and not accepted


#: A handshake whose outputs fork after a dummy event ``d~``; it has a
#: CSC conflict, so most insertions are accepted.
WITH_DUMMY = """
.model with_dummy
.inputs r
.outputs a b
.dummy d
.graph
r+ d~
d~ a+ b+
a+ r-
b+ r-
r- a-
a- b-
b- r+
.marking { <b-,r+> }
.end
"""


def test_walk_agrees_on_a_parent_with_a_dummy_event():
    walked, accepted = agreement(parse_g(WITH_DUMMY))
    assert walked and accepted


def test_walk_rejects_every_candidate_of_an_inconsistent_parent():
    stg = vme_read().insert_signal("csc0", rise_before=["DTACK-"],
                                   fall_before=["LDS-"])
    parent = csc._Parent(stg, "csc1", MAX_STATES)
    assert parent.graph is None
    walked, accepted = agreement(stg)
    assert walked and not accepted


def test_walk_rejects_every_candidate_of_an_unsafe_parent():
    stg = concurrent_latch_controller().add_ordering_arc(
        "Ain+", "Ain-", initially_marked=True)
    assert csc._Parent(stg, "csc0", MAX_STATES).graph is None
    walked, accepted = agreement(stg)
    assert walked and not accepted


def test_a_parent_the_naive_explorer_explored_builds_its_candidates():
    # a net that has not been explored yet, so no memo answers
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.ts.builder.supports_compilation",
                      lambda net: False)
        stg = vme_read()
        parent = csc._Parent(stg, "csc0", MAX_STATES)
        assert parent.graph is not None and not parent.walks
        walked, accepted = agreement(stg)
    assert not walked and accepted


# -- the search builds the chosen STG only ---------------------------------- #

def test_resolve_csc_builds_only_the_chosen_candidates(monkeypatch):
    built = []
    insert_signal = STG.insert_signal

    def counting(self, signal, *args, **kwargs):
        built.append(signal)
        return insert_signal(self, signal, *args, **kwargs)

    monkeypatch.setattr(STG, "insert_signal", counting)
    resolved = resolve_csc(concurrent_latch_controller())
    assert built == ["csc0", "csc1"]
    assert resolved.internal == ["csc0", "csc1"]


def test_candidates_build_their_stg_when_read():
    candidates = enumerate_insertions(vme_read())
    assert all(c._stg is None for c in candidates)
    first = candidates[0]
    assert first.stg is first.stg
    assert first.stg.internal == ["csc0"]


def test_a_candidates_stg_does_not_see_a_later_change_to_the_input():
    stg = vme_read()
    first = enumerate_insertions(stg)[0]
    stg.declare_signal("late", SignalType.INTERNAL)
    assert "late" not in first.stg.signal_types
    assert write_g(first.stg) == write_g(vme_read().insert_signal(
        "csc0", rise_before=list(first.rise), fall_before=list(first.fall)))


# -- a spec that already declares csc0 --------------------------------------- #

def test_resolve_csc_takes_the_first_undeclared_name():
    part = enumerate_insertions(concurrent_latch_controller(),
                                full_only=False)[0].stg
    assert part.internal == ["csc0"]
    assert write_g(resolve_csc(part)) \
        == write_g(resolve_csc(concurrent_latch_controller()))


def test_enumerate_insertions_refuses_a_declared_signal():
    part = enumerate_insertions(concurrent_latch_controller(),
                                full_only=False)[0].stg
    with pytest.raises(ModelError, match="already declared"):
        enumerate_insertions(part, signal="csc0")
    with pytest.raises(ModelError, match="already declared"):
        enumerate_insertions(vme_read(), signal="LDS")
