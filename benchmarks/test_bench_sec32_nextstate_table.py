"""Section 3.2 table — next-state values of LDS on sample states.

Paper rows (signal order <DSr,DTACK,LDTACK,LDS,D,csc0>):

    state in ER(LDS+)  -> f_LDS = 1
    state in QR(LDS+)  -> f_LDS = 1
    state in ER(LDS-)  -> f_LDS = 0
    state in QR(LDS-)  -> f_LDS = 0
    unreachable code   -> don't care
"""

from repro.boolmin import minterm_to_int
from repro.stg import vme_read_csc
from repro.synth import derive_next_state_function, next_state_table
from repro.ts import build_state_graph

from conftest import PAPER_ORDER_CSC


def test_sec32_table_generation(benchmark):
    sg = build_state_graph(vme_read_csc(), signal_order=PAPER_ORDER_CSC)
    rows = benchmark(next_state_table, sg, "LDS")
    print("\nNext-state table for LDS <DSr,DTACK,LDTACK,LDS,D,csc0>:")
    for code, region, value in sorted(rows):
        print("  %s  %-9s  %s" % (code, region, value))
    regions = {region for _, region, _ in rows}
    assert regions == {"ER(LDS+)", "QR(LDS+)", "ER(LDS-)", "QR(LDS-)"}
    for code, region, value in rows:
        assert value == ("1" if region in ("ER(LDS+)", "QR(LDS+)") else "0")


def test_sec32_dont_cares(benchmark):
    """Codes not corresponding to any SG state are don't cares — the
    table's last row."""
    sg = build_state_graph(vme_read_csc(), signal_order=PAPER_ORDER_CSC)
    fn = benchmark(derive_next_state_function, sg, "LDS")
    reachable = {minterm_to_int(sg.code_tuple(word)) for word in sg.int_codes}
    assert len(fn.dcset) == 64 - len(reachable)
    assert fn.value((0, 0, 0, 0, 1, 1)) is None  # an unreachable code


def test_sec32_function_well_defined_for_all_signals(benchmark):
    sg = build_state_graph(vme_read_csc(), signal_order=PAPER_ORDER_CSC)

    def derive_all():
        from repro.synth import derive_all_next_state_functions

        return derive_all_next_state_functions(sg)

    fns = benchmark(derive_all)
    assert set(fns) == {"LDS", "D", "DTACK", "csc0"}
    for fn in fns.values():
        assert not (fn.onset & fn.offset)
