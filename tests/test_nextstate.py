"""Next-state function derivation (paper Section 3.2)."""

import pytest

from repro.errors import CSCError
from repro.boolmin import minterm_to_int
from repro.stg import vme_read, vme_read_csc
from repro.synth import (
    derive_all_next_state_functions,
    derive_next_state_function,
    next_state_table,
)
from repro.ts import build_state_graph

PAPER_ORDER_CSC = ["DSr", "DTACK", "LDTACK", "LDS", "D", "csc0"]


@pytest.fixture
def csc_sg():
    return build_state_graph(vme_read_csc(), signal_order=PAPER_ORDER_CSC)


class TestDerivation:
    def test_csc_conflict_raises(self):
        sg = build_state_graph(vme_read())
        with pytest.raises(CSCError):
            derive_next_state_function(sg, "LDS")

    def test_all_functions_derivable_after_insertion(self, csc_sg):
        fns = derive_all_next_state_functions(csc_sg)
        assert set(fns) == {"LDS", "D", "DTACK", "csc0"}

    def test_onset_offset_partition_reachable(self, csc_sg):
        fn = derive_next_state_function(csc_sg, "LDS")
        reachable = {minterm_to_int(csc_sg.code_tuple(word))
                     for word in csc_sg.int_codes}
        assert fn.onset | fn.offset == reachable
        assert not (fn.onset & fn.offset)
        assert fn.dcset == set(range(64)) - reachable

    def test_value_lookup(self, csc_sg):
        fn = derive_next_state_function(csc_sg, "LDS")
        # paper's Section 3.2 table rows for f_LDS:
        # 101101 -> ER(LDS-)... and the don't-care row
        assert fn.value((1, 0, 0, 0, 0, 1)) == 1   # QR: LDS rising soon?
        assert fn.value((0, 1, 1, 1, 0, 0)) == 0   # reset phase
        assert fn.value((1, 1, 1, 1, 1, 1)) == 1   # all high: stable 1
        assert fn.value((0, 0, 0, 1, 1, 0)) is None  # unreachable code


class TestPaperTable:
    def test_section32_table_rows(self, csc_sg):
        """Reproduce the Section 3.2 next-state table for LDS: codes with
        their region classification and implied value."""
        rows = {code: (region, value)
                for code, region, value in next_state_table(csc_sg, "LDS")}
        # ER(LDS+): csc0 set, LDS still 0 -> f = 1
        er_plus = [c for c, (r, v) in rows.items() if r == "ER(LDS+)"]
        assert er_plus and all(rows[c][1] == "1" for c in er_plus)
        for c in er_plus:
            assert c[3] == "0" and c[5] == "1"  # LDS=0, csc0=1
        # ER(LDS-) rows imply 0
        er_minus = [c for c, (r, v) in rows.items() if r == "ER(LDS-)"]
        assert er_minus and all(rows[c][1] == "0" for c in er_minus)

    def test_regions_cover_every_state_once(self, csc_sg):
        rows = next_state_table(csc_sg, "D")
        assert len(rows) == len(csc_sg)
        for code, region, value in rows:
            assert region.startswith(("ER(D", "QR(D"))
            assert value in "01"


class TestMinimization:
    def test_minimized_cubes_cover_onset_only(self, csc_sg):
        for signal, fn in derive_all_next_state_functions(csc_sg).items():
            cubes = fn.minimized_cubes()
            from repro.boolmin import cube_contains, int_to_minterm

            for m in fn.onset:
                assert any(cube_contains(c, int_to_minterm(m, fn.width))
                           for c in cubes)
            for m in fn.offset:
                assert not any(cube_contains(c, int_to_minterm(m, fn.width))
                               for c in cubes)

    def test_minimized_expr_uses_signal_names(self, csc_sg):
        fn = derive_next_state_function(csc_sg, "D")
        expr = fn.minimized_expr()
        assert expr.support() <= set(PAPER_ORDER_CSC)
