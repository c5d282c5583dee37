"""Implementability analysis (paper Section 2.1)."""

import os
import subprocess
import sys

import pytest

import repro

from repro.analysis import (
    check_implementability,
    csc_conflicts,
    persistency_violations,
    usc_conflicts,
)
from repro.stg import STG, parse_g, vme_read, vme_read_csc, vme_read_write
from repro.ts import build_state_graph


class TestVMEReports:
    def test_read_cycle_report(self):
        report = check_implementability(vme_read())
        assert report.bounded and report.consistent
        assert report.states == 14
        assert len(report.usc_conflicts) == 1
        assert len(report.csc_conflicts) == 1
        assert report.persistent
        assert not report.implementable

    def test_conflict_details(self):
        report = check_implementability(vme_read())
        conflict = report.csc_conflicts[0]
        assert conflict.enabled_a != conflict.enabled_b
        # one side must rise D, the other must fall LDS
        both = conflict.enabled_a | conflict.enabled_b
        assert ("D", "+") in both and ("LDS", "-") in both

    def test_read_csc_clean(self):
        report = check_implementability(vme_read_csc())
        assert report.implementable
        assert report.has_usc  # the insertion also fixes USC here

    def test_read_write_report(self):
        report = check_implementability(vme_read_write())
        assert report.consistent
        assert not report.has_csc  # both branches conflict

    def test_summary_text(self):
        text = check_implementability(vme_read()).summary()
        assert "CSC" in text and "persistent" in text


class TestPersistency:
    def test_input_choice_is_allowed(self):
        """DSr+/DSw+ disable each other — environment choice, no violation."""
        report = check_implementability(vme_read_write())
        assert report.persistent

    def test_output_choice_is_violation(self):
        """The paper's Section 2.1 example: if DSr/DSw were outputs, their
        mutual disabling would be non-persistent (needs an arbiter)."""
        stg = vme_read_write()
        stg.declare_signal("DSr", type(stg.type_of("LDS")).OUTPUT)
        stg.declare_signal("DSw", type(stg.type_of("LDS")).OUTPUT)
        sg = build_state_graph(stg)
        violations = persistency_violations(sg)
        disabled = {(v.disabled, v.by) for v in violations}
        assert ("DSr+", "DSw+") in disabled
        assert ("DSw+", "DSr+") in disabled
        assert all(v.kind == "output" for v in violations)

    def test_input_disabled_by_output_is_violation(self):
        text = """
.model choke
.inputs a
.outputs b
.graph
p0 a+ b+
a+ c+
b+ c+
c+ a- b-
a- p1
b- p1
p1 c-
c- p0
.marking { p0 }
.end
"""
        stg = parse_g(text)
        stg.declare_signal("c", type(stg.type_of("b")).OUTPUT)
        sg = build_state_graph(stg)
        violations = persistency_violations(sg)
        kinds = {v.kind for v in violations}
        assert "input" in kinds

    def test_violations_of_one_firing_come_out_in_signal_order(self,
                                                                tmp_path):
        """One choice place feeds every signal, so each firing disables
        the four others; ``repro analyze -v`` lists them in signal order
        under any hash seed."""
        spec = tmp_path / "fan.g"
        spec.write_text(FAN)
        path = os.path.dirname(os.path.dirname(repro.__file__))
        outputs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
            run = subprocess.run(
                [sys.executable, "-m", "repro", "analyze", str(spec), "-v"],
                env=env, capture_output=True, text=True)
            assert run.returncode == 1, run.stderr
            outputs.append(run.stdout)
        assert outputs[0] == outputs[1]
        disabled = {}
        for line in outputs[0].splitlines():
            if "persistency violation" in line:
                event, by = line.split(": ")[1].split(" disabled by ")
                disabled.setdefault(by, []).append(event)
        signals = "abcde"
        assert list(disabled) == [s + "+" for s in signals]
        for by, events in disabled.items():
            assert events == [s + "+" for s in signals if s != by[0]]


#: Input ``c`` and outputs ``a b d e`` all leave one marked place and
#: return to it.
FAN = """
.model fan
.inputs c
.outputs a b d e
.graph
p0 a+ b+ d+ e+ c+
a+ a-
a- p0
b+ b-
b- p0
d+ d-
d- p0
e+ e-
e- p0
c+ c-
c- p0
.marking { p0 }
.end
"""


class TestUSCvsCSC:
    def test_usc_implies_csc_conflicts_subset(self, read_sg):
        usc = usc_conflicts(read_sg)
        csc = csc_conflicts(read_sg)
        usc_pairs = {(c.state_a, c.state_b) for c in usc}
        csc_pairs = {(c.state_a, c.state_b) for c in csc}
        assert csc_pairs <= usc_pairs

    def test_usc_without_csc_conflict(self):
        """Two same-code states with identical output enabling violate USC
        but not CSC."""
        text = """
.model uscnocsc
.inputs a b
.outputs c
.graph
p0 a+
a+ c+
c+ a-
a- c-
c- b+
b+ c+/1
c+/1 b-
b- c-/1
c-/1 p0
.marking { p0 }
.end
"""
        sg = build_state_graph(parse_g(text))
        assert len(usc_conflicts(sg)) > len(csc_conflicts(sg))
