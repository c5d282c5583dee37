"""Exact minimization from the OFF-set, checked against a Quine–McCluskey
oracle, incl. property-based checks."""

from typing import Dict, Iterable, List, Set

import pytest
from hypothesis import given, settings, strategies as st

from repro.boolmin import (
    cube_contains,
    cube_to_str,
    int_to_minterm,
    minimize,
    prime_implicants,
    verify_cover,
)
from repro.boolmin.quine_mccluskey import _cover_from_primes, _implicant_covers


# ---------------------------------------------------------------------- #
# the reference oracle: Quine–McCluskey's merging over ON ∪ DC
# ---------------------------------------------------------------------- #

def qm_primes(onset: Iterable[int], dcset: Iterable[int], n: int):
    """All prime implicants of ON ∪ DC by iterative merging of implicants
    (every don't-care listed), as sorted ``(value, mask)`` pairs."""
    current = {(m, 0) for m in set(onset) | set(dcset)}
    primes = set()
    while current:
        merged = set()
        used = set()
        by_mask: Dict[int, List] = {}
        for imp in current:
            by_mask.setdefault(imp[1], []).append(imp)
        for mask, group in by_mask.items():
            values = {v for v, _ in group}
            for v, _ in group:
                for bit in range(n):
                    b = 1 << bit
                    if mask & b:
                        continue
                    partner = v ^ b
                    if partner in values and (v & b) == 0:
                        merged.add((v, mask | b))
                        used.add((v, mask))
                        used.add((partner, mask))
        primes.update(current - used)
        current = merged
    return sorted(primes)


def qm_minimize(onset: Iterable[int], dcset: Iterable[int], n: int,
                petrick_limit: int = 200_000):
    """Quine–McCluskey's cover of the function given by ON and DC sets."""
    onset = set(onset)
    dcset = set(dcset) - onset
    if not onset:
        return []
    if len(onset) + len(dcset) == 1 << n:
        return [tuple([None] * n)]
    return _cover_from_primes(onset, qm_primes(onset, dcset, n), n,
                              petrick_limit)


def complement(codes: Iterable[int], n: int) -> List[int]:
    codes = set(codes)
    return [m for m in range(1 << n) if m not in codes]


# ---------------------------------------------------------------------- #
# known functions
# ---------------------------------------------------------------------- #

class TestKnownFunctions:
    def test_empty_onset(self):
        assert minimize([], [1, 2], 3) == []

    def test_full_onset_is_tautology(self):
        assert minimize(list(range(8)), [], 3) == [(None, None, None)]

    def test_onset_plus_dc_tautology(self):
        # ON {00, 11}, DC {01, 10}: no OFF code, so the constant 1
        assert minimize([0, 3], [], 2) == [(None, None)]

    def test_or_function(self):
        cover = minimize([0b01, 0b10, 0b11], [0b00], 2)
        assert sorted(cube_to_str(c) for c in cover) == ["-1", "1-"]

    def test_xor_needs_two_cubes(self):
        cover = minimize([0b01, 0b10], [0b00, 0b11], 2)
        assert sorted(cube_to_str(c) for c in cover) == ["01", "10"]

    def test_dc_enlarges_cubes(self):
        # f(a,b) on {11}, dc {10}, off {00, 01}: minimal cover is "1-"
        assert minimize([3], [0, 1], 2) == [(1, None)]

    def test_classic_4var_example(self):
        """f = Σm(4,8,10,11,12,15) + d(9,14): the textbook QM example;
        minimal cover has 3 cubes."""
        onset = [4, 8, 10, 11, 12, 15]
        offset = complement(onset + [9, 14], 4)
        cover = minimize(onset, offset, 4)
        assert len(cover) == 3
        assert verify_cover(cover, onset, offset, 4)

    def test_determinism(self):
        offset = complement([1, 3, 5, 7, 9, 2, 11], 4)
        a = minimize([1, 3, 5, 7, 9], offset, 4)
        b = minimize([9, 7, 5, 3, 1], offset[::-1], 4)
        assert a == b

    def test_overlapping_on_and_off_rejected(self):
        """An ON code that is also an OFF code (e.g. a DC list passed
        where the OFF-set belongs) is an error, not a silent cover."""
        with pytest.raises(ValueError, match="ON-set and the OFF-set"):
            minimize([1, 2], [2, 3], 2)

    def test_sparse_code_space(self):
        """Two OFF codes among 2^20: the cover is found without listing
        any of the ~10^6 don't-cares."""
        n = 20
        onset = [0b1 << 19]
        offset = [0, 1]
        cover = minimize(onset, offset, n)
        assert cover == [(1,) + (None,) * 19]


class TestPrimes:
    def test_primes_of_or(self):
        primes = prime_implicants([0b00], 2)
        # two primes: -1 and 1-
        assert len(primes) == 2

    def test_primes_cover_all_onset(self):
        onset = [0, 2, 5, 7]
        primes = prime_implicants(complement(onset, 3), 3)
        for m in onset:
            assert any(_implicant_covers(p, m) for p in primes)

    def test_no_off_code_is_one_universal_prime(self):
        assert prime_implicants([], 3) == [(0, 0b111)]

    def test_all_codes_off_has_no_prime(self):
        assert prime_implicants(range(8), 3) == []

    def test_single_off_code(self):
        # complement of minterm 101: one prime per literal, a' + b + c'
        primes = prime_implicants([0b101], 3)
        assert sorted(primes) == [(0b000, 0b011), (0b000, 0b110),
                                  (0b010, 0b101)]


# ---------------------------------------------------------------------- #
# property-based checks
# ---------------------------------------------------------------------- #

@st.composite
def on_dc_off(draw, max_vars=8):
    """A random split of all 2^n codes into ON, DC and OFF.  Zero weights
    give empty ON, DC or OFF sets."""
    n = draw(st.integers(0, max_vars))
    weights = draw(st.tuples(st.integers(0, 4), st.integers(0, 4),
                             st.integers(0, 4)).filter(any))
    rnd = draw(st.randoms(use_true_random=False))
    parts: List[Set[int]] = [set(), set(), set()]
    for m in range(1 << n):
        rnd.choices(parts, weights)[0].add(m)
    onset, dcset, offset = (sorted(p) for p in parts)
    return onset, dcset, offset, n


@given(on_dc_off())
@settings(max_examples=150, deadline=None)
def test_off_set_primes_and_cover_match_oracle(data):
    """The OFF-set recursion finds exactly QM's primes, so the covering
    step picks exactly QM's cubes."""
    onset, dcset, offset, n = data
    assert prime_implicants(offset, n) == qm_primes(onset, dcset, n)
    # a small Petrick budget keeps mid-density charts from taking a second
    # each; both sides fall back to the greedy cover at the same point
    assert minimize(onset, offset, n, petrick_limit=4_000) == \
        qm_minimize(onset, dcset, n, petrick_limit=4_000)


@st.composite
def onset_offset(draw, nvars=4):
    universe = list(range(1 << nvars))
    onset = draw(st.sets(st.sampled_from(universe), max_size=10))
    dc = draw(st.sets(st.sampled_from(universe), max_size=6)) - onset
    return sorted(onset), complement(onset | dc, nvars), nvars


@given(onset_offset())
@settings(max_examples=120, deadline=None)
def test_cover_correctness(data):
    onset, offset, n = data
    cover = minimize(onset, offset, n)
    assert verify_cover(cover, onset, offset, n)


@given(onset_offset())
@settings(max_examples=60, deadline=None)
def test_cover_cubes_are_primes(data):
    """Each chosen cube must be a prime implicant (maximal)."""
    onset, offset, n = data
    cover = minimize(onset, offset, n)
    for cube in cover:
        # growing any fixed literal to don't-care must hit the OFF set
        for pos in range(n):
            if cube[pos] is None:
                continue
            grown = list(cube)
            grown[pos] = None
            grown_t = tuple(grown)
            hits_off = any(
                cube_contains(grown_t, int_to_minterm(m, n)) for m in offset
            )
            assert hits_off, "cube %s not prime" % cube_to_str(cube)


@given(onset_offset())
@settings(max_examples=60, deadline=None)
def test_no_single_cube_redundant(data):
    """Irredundancy: dropping any cube must uncover some ON minterm."""
    onset, offset, n = data
    cover = minimize(onset, offset, n)
    if len(cover) <= 1:
        return
    for i in range(len(cover)):
        rest = cover[:i] + cover[i + 1:]
        uncovered = [
            m for m in onset
            if not any(cube_contains(c, int_to_minterm(m, n)) for c in rest)
        ]
        assert uncovered, "cube %d is redundant" % i
