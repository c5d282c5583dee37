"""Latch-based synthesis: gC / RS architectures and monotonous covers
(paper Sections 3.2-3.4, Figure 8)."""

import re

import pytest

from repro.boolmin import cube_contains, minterm_to_int
from repro.errors import CSCError
from repro.stg import (
    FALL,
    RISE,
    concurrent_latch_controller,
    latch_controller,
    vme_read,
    vme_read_csc,
    vme_read_write,
)
from repro.synth import (
    check_monotonous_cover,
    excitation_covers,
    monotonicity_report,
    synthesize_gc,
    synthesize_sr,
)
from repro.synth.netlist import GateKind
from repro.ts import build_state_graph
from repro.verify import verify_circuit


@pytest.fixture
def csc_sg():
    return build_state_graph(vme_read_csc())


class TestCovers:
    def test_set_cover_covers_er_plus(self, csc_sg):
        for signal in csc_sg.stg.noninput_signals:
            set_cubes, reset_cubes = excitation_covers(csc_sg, signal)
            for state in csc_sg.excitation_region(signal, RISE):
                code = csc_sg.code(state)
                assert any(cube_contains(c, code) for c in set_cubes)
            for state in csc_sg.excitation_region(signal, FALL):
                code = csc_sg.code(state)
                assert any(cube_contains(c, code) for c in reset_cubes)

    def test_set_cover_avoids_off_states(self, csc_sg):
        for signal in csc_sg.stg.noninput_signals:
            set_cubes, reset_cubes = excitation_covers(csc_sg, signal)
            off = (csc_sg.excitation_region(signal, FALL)
                   | csc_sg.quiescent_region(signal, FALL))
            for state in off:
                code = csc_sg.code(state)
                assert not any(cube_contains(c, code) for c in set_cubes)

    def test_set_reset_mutually_exclusive_on_reachable(self, csc_sg):
        for signal in csc_sg.stg.noninput_signals:
            set_cubes, reset_cubes = excitation_covers(csc_sg, signal)
            for state in csc_sg.states:
                code = csc_sg.code(state)
                s = any(cube_contains(c, code) for c in set_cubes)
                r = any(cube_contains(c, code) for c in reset_cubes)
                assert not (s and r)


class TestMonotonicity:
    def test_vme_covers_are_monotonous(self, csc_sg):
        report = monotonicity_report(csc_sg)
        assert all(not v for v in report.values()), report

    def test_violation_detected_for_bad_cover(self, csc_sg):
        """A cover equal to the whole ON set of csc0 minus ER glitches."""
        bad_cover = [tuple([None] * 6)]  # constant 1 intersects OFF states
        violations = check_monotonous_cover(csc_sg, "csc0", bad_cover, RISE)
        assert violations


class TestArchitectures:
    def test_gc_netlist_shape(self, csc_sg):
        netlist = synthesize_gc(csc_sg)
        assert all(g.kind == GateKind.C_ELEMENT
                   for g in netlist.gates.values())
        assert set(netlist.gates) == {"D", "LDS", "DTACK", "csc0"}

    def test_sr_netlist_shape(self, csc_sg):
        netlist = synthesize_sr(csc_sg)
        assert all(g.kind == GateKind.SR_LATCH
                   for g in netlist.gates.values())

    def test_gc_circuit_is_speed_independent(self):
        netlist = synthesize_gc(vme_read_csc())
        report = verify_circuit(netlist, vme_read())
        assert report.ok, report.summary()

    def test_sr_circuit_is_speed_independent(self):
        for dominance in ("reset", "set"):
            netlist = synthesize_sr(vme_read_csc(), dominance=dominance)
            report = verify_circuit(netlist, vme_read())
            assert report.ok, (dominance, report.summary())

    def test_latch_controller_gc(self):
        stg = latch_controller()
        netlist = synthesize_gc(stg)
        report = verify_circuit(netlist, stg)
        assert report.ok, report.summary()


class TestCSCViolations:
    """Specs without CSC have no latch covers: some code is in a cover's
    ON-set and in its OFF-set, and synthesis must say so instead of
    returning a circuit that does not verify."""

    @pytest.mark.parametrize("arch", (synthesize_gc, synthesize_sr),
                             ids=("gc", "sr"))
    @pytest.mark.parametrize("spec", (vme_read, vme_read_write,
                                      concurrent_latch_controller),
                             ids=lambda f: f.__name__)
    def test_latch_synthesis_raises_csc_error(self, arch, spec):
        with pytest.raises(CSCError, match="CSC conflict for signal"):
            arch(spec())

    def test_error_names_signal_and_code(self):
        sg = build_state_graph(vme_read())
        with pytest.raises(CSCError) as info:
            for signal in sg.stg.noninput_signals:
                excitation_covers(sg, signal)
        assert re.search(r"signal '\w+': code [01]{%d} "
                         % len(sg.signal_order), str(info.value))
