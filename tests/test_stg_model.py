"""STG model construction and the synthesis-oriented transformations."""

import pytest

from repro.errors import ModelError
from repro.petri import reachable_markings
from repro.stg import STG, SignalType, vme_read
from repro.ts import build_state_graph


class TestConstruction:
    def test_declarations(self):
        stg = STG("t", inputs=["a"], outputs=["b"], internal=["c"])
        assert stg.inputs == ["a"]
        assert stg.outputs == ["b"]
        assert stg.internal == ["c"]
        assert stg.noninput_signals == ["b", "c"]

    def test_add_event_requires_declared_signal(self):
        stg = STG("t", inputs=["a"])
        with pytest.raises(ModelError):
            stg.add_event("zz+")

    def test_connect_transitions_creates_implicit_place(self):
        stg = STG("t", inputs=["a"], outputs=["b"])
        ta = stg.add_event("a+")
        tb = stg.add_event("b+")
        place = stg.connect(ta, tb)
        assert place in stg.net.places
        assert stg.net.preset(place) == {ta: 1}
        assert stg.net.postset(place) == {tb: 1}

    def test_transitions_of(self):
        stg = vme_read()
        assert stg.transitions_of("LDS") == ["LDS+", "LDS-"]
        assert stg.transitions_of("LDS", "+") == ["LDS+"]

    def test_is_input_event(self):
        stg = vme_read()
        assert stg.is_input_event("DSr+")
        assert not stg.is_input_event("LDS+")

    def test_copy_independent(self):
        stg = vme_read()
        other = stg.copy()
        other.declare_signal("extra", SignalType.INTERNAL)
        assert "extra" not in stg.signal_types


class TestInsertSignal:
    def test_insertion_grows_state_graph_by_two(self):
        stg = vme_read()
        inserted = stg.insert_signal("csc0", rise_before=["LDS+"],
                                     fall_before=["D-"])
        assert "csc0" in inserted.internal
        assert len(reachable_markings(inserted.net)) == 16
        # original untouched
        assert "csc0" not in stg.signal_types
        assert len(reachable_markings(stg.net)) == 14

    def test_inserted_events_precede_targets(self):
        inserted = vme_read().insert_signal("csc0", rise_before=["LDS+"],
                                            fall_before=["D-"])
        sg = build_state_graph(inserted)
        # csc0+ must be causally before LDS+: in no state are both enabled
        for out in sg.graph.arcs:
            enabled = {str(sg.events[t]) for t, _ in out}
            assert not ({"csc0+", "LDS+"} <= enabled)
            assert not ({"csc0-", "D-"} <= enabled)

    def test_insert_before_unknown_event(self):
        with pytest.raises(ModelError):
            vme_read().insert_signal("x", rise_before=["ZZ+"],
                                     fall_before=["D-"])


class TestOrderingArc:
    def test_ordering_removes_interleavings(self):
        stg = vme_read()
        ordered = stg.add_ordering_arc("LDS-", "DTACK-",
                                       initially_marked=False)
        before = len(reachable_markings(stg.net))
        after = len(reachable_markings(ordered.net))
        assert after < before

    def test_marked_ordering_place(self):
        stg = vme_read()
        ordered = stg.add_ordering_arc("LDTACK-", "DSr+",
                                       initially_marked=True)
        m = ordered.initial_marking
        assert m.get("<LDTACK-<DSr+>") == 1


class TestRetargetTrigger:
    def test_retarget_changes_causality(self):
        stg = vme_read()
        moved = stg.retarget_trigger("LDS-", "D-", "DSr-")
        sg = build_state_graph(moved)
        # now LDS- can be enabled while D is still high
        found = False
        for i, out in enumerate(sg.graph.arcs):
            enabled = {str(sg.events[t]) for t, _ in out}
            if "LDS-" in enabled and sg.value(i, "D") == 1:
                found = True
        assert found

    def test_retarget_missing_trigger(self):
        with pytest.raises(ModelError):
            vme_read().retarget_trigger("LDS-", "DTACK+", "DSr-")
