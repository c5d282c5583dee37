"""The OFF-set minimiser against the Quine–McCluskey oracle.

The paper's synthesis step relies on boolean minimization with don't
cares (§3.2).  :func:`repro.boolmin.minimize` generates prime implicants
from the OFF codes alone and never lists a don't-care; the reference
oracle of ``tests/test_qm.py`` merges implicants over every ON and DC
code.  This benchmark times ``minimize`` on the reproduction's own
functions (the VME next-state functions) and on seeded random functions,
and asserts that it returns exactly the oracle's cover.
"""

import os
import random
import sys

import pytest

from repro.boolmin import minimize, verify_cover
from repro.stg import vme_read_csc
from repro.synth import derive_all_next_state_functions
from repro.ts import build_state_graph

sys.path.append(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             os.pardir, "tests"))
from test_qm import qm_minimize  # noqa: E402  (the reference oracle)


def vme_functions():
    sg = build_state_graph(vme_read_csc())
    return derive_all_next_state_functions(sg)


def random_function(n, terms, dc_terms, seed):
    """Seeded (onset, dcset, offset) over ``n`` variables."""
    rng = random.Random(seed)
    onset = sorted(rng.sample(range(1 << n), terms))
    dc = sorted(set(rng.sample(range(1 << n), dc_terms)) - set(onset))
    care = set(onset) | set(dc)
    offset = [m for m in range(1 << n) if m not in care]
    return onset, dc, offset


def test_engines_agree_on_vme(benchmark):
    fns = vme_functions()

    def covers():
        return {signal: minimize(sorted(fn.onset), sorted(fn.offset),
                                 fn.width)
                for signal, fn in sorted(fns.items())}

    results = benchmark(covers)
    print("\nsignal | cubes | OFF codes | DC codes")
    for signal, fn in sorted(fns.items()):
        print("  %-6s| %5d | %9d | %d" % (signal, len(results[signal]),
                                          len(fn.offset), len(fn.dcset)))
        assert results[signal] == qm_minimize(fn.onset, fn.dcset, fn.width)


@pytest.mark.parametrize("n,terms", [(8, 60), (10, 150), (12, 400)])
def test_minimize_scales(benchmark, n, terms):
    onset, dc, offset = random_function(n, terms, terms // 2, seed=n)
    cover = benchmark(minimize, onset, offset, n)
    assert verify_cover(cover, onset, offset, n)
    assert cover == qm_minimize(onset, dc, n)
    print("\nn=%d: %d ON minterms -> %d cubes" % (n, terms, len(cover)))


def test_exact_on_medium_function(benchmark):
    onset, dc, offset = random_function(8, 60, 30, seed=8)
    cover = benchmark(minimize, onset, offset, 8)
    assert verify_cover(cover, onset, offset, 8)
    assert cover == qm_minimize(onset, dc, 8)
