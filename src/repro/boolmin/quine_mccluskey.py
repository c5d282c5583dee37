"""Exact two-level minimization from the OFF-set, with Quine–McCluskey's
covering step.

Used to derive minimal sum-of-products equations from the incompletely
specified next-state functions of Section 3.2 — "in this step it is crucial
to make an efficient use of the don't care conditions derived from those
binary codes not corresponding to any state of the SG".

A function is given by its ON codes and its OFF codes.  Every other code,
in particular every code of no SG state, is a don't-care that is never
listed.  The primes are the maximal cubes disjoint from the OFF-set.  They
are generated by Shannon recursion on the top variable ``x``, memoised on
the OFF-set of each cofactor::

    P(f) = { q, x free : q in P(f0·f1) }
         ∪ { x'·p : p in P(f0) − P(f0·f1) } ∪ { x·p : p in P(f1) − P(f0·f1) }

The OFF-set of ``f0·f1`` is the union of the cofactors' OFF-sets.  A prime
of ``f0`` lies in a prime of ``f0·f1`` only if it is one (``f0·f1 ≤ f0``), so
a set difference removes the non-maximal products.  This is exactly the
prime set Quine–McCluskey's merging would build over ON ∪ DC, so the
covering step — essential primes, then Petrick's method (with a greedy
fallback above a size limit) — returns the same cover.  The result is
deterministic.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from .cube import Cube, cube_contains, int_to_minterm

# internal implicant representation: (value, mask) over n bits, MSB first;
# mask bit 1 = don't care at that position (and value bit 0 there).
_Implicant = Tuple[int, int]


def _implicant_to_cube(imp: _Implicant, n: int) -> Cube:
    value, mask = imp
    out = []
    for i in range(n):
        bit = n - 1 - i
        if (mask >> bit) & 1:
            out.append(None)
        else:
            out.append((value >> bit) & 1)
    return tuple(out)


def _implicant_covers(imp: _Implicant, minterm: int) -> bool:
    value, mask = imp
    return (minterm & ~mask) == (value & ~mask)


def prime_implicants(offset: Iterable[int], n: int) -> List[_Implicant]:
    """All prime implicants of the function that is 0 exactly on
    ``offset``: the maximal cubes over ``n`` variables disjoint from it."""
    memo: Dict[Tuple[int, FrozenSet[int]], List[_Implicant]] = {}
    return sorted(_primes(frozenset(offset), n, memo))


def _primes(off: FrozenSet[int], k: int,
            memo: Dict[Tuple[int, FrozenSet[int]], List[_Implicant]]
            ) -> List[_Implicant]:
    if not off:
        return [(0, (1 << k) - 1)]
    if len(off) == 1 << k:
        return []
    key = (k, off)
    cached = memo.get(key)
    if cached is not None:
        return cached
    top = 1 << (k - 1)
    off0 = frozenset(m for m in off if not m & top)
    off1 = frozenset(m ^ top for m in off if m & top)
    both = _primes(off0 | off1, k - 1, memo)
    shared = set(both)
    result = [(value, mask | top) for value, mask in both]
    result += [p for p in _primes(off0, k - 1, memo) if p not in shared]
    result += [(value | top, mask)
               for value, mask in _primes(off1, k - 1, memo)
               if (value, mask) not in shared]
    memo[key] = result
    return result


def _petrick(chart: Dict[int, FrozenSet[int]],
             limit: int = 4_000) -> Optional[List[Set[int]]]:
    """Petrick's method: all minimal prime-index sets covering the chart.

    ``chart`` maps each uncovered row (an ON-minterm, or the index of a
    hazard-free cover requirement) to the set of prime indices covering
    it.  Returns None as soon as the intermediate product exceeds ``limit``
    terms *before* absorption (the absorption step is quadratic, so the
    caller falls back to greedy covering early on large charts).
    """
    # Petrick is exponential; only attempt it on small charts (the paper's
    # controller functions all qualify) — otherwise signal the greedy
    # fallback immediately.
    if len(chart) > 24 or sum(len(c) for c in chart.values()) > 96:
        return None
    product: Set[FrozenSet[int]] = {frozenset()}
    work = 0
    for minterm in sorted(chart):
        alternatives = chart[minterm]
        next_product: Set[FrozenSet[int]] = set()
        for term in product:
            for p in alternatives:
                next_product.add(term | {p})
        if len(next_product) > limit:
            return None
        # absorb: drop supersets of kept (smaller-first) terms
        pruned: List[FrozenSet[int]] = []
        for term in sorted(next_product, key=len):
            work += len(pruned)
            if not any(other <= term for other in pruned):
                pruned.append(term)
        if work > limit * 50:
            return None
        product = set(pruned)
    return [set(t) for t in product]


def _greedy_cover(chart: Dict[int, FrozenSet[int]]) -> Set[int]:
    """Greedy set cover (deterministic tie-break by index)."""
    uncovered = set(chart)
    chosen: Set[int] = set()
    while uncovered:
        counts: Dict[int, int] = {}
        for m in uncovered:
            for p in chart[m]:
                counts[p] = counts.get(p, 0) + 1
        best = min(counts, key=lambda p: (-counts[p], p))
        chosen.add(best)
        uncovered = {m for m in uncovered if best not in chart[m]}
    return chosen


def _select_cover(chart: Dict[int, FrozenSet[int]],
                  literals: Sequence[int],
                  petrick_limit: int = 4_000) -> Set[int]:
    """Indices of a minimum-cost set of candidates covering every row.

    ``chart`` maps each row to the candidate indices covering it and
    ``literals[i]`` is candidate ``i``'s literal count.  Essential
    candidates are taken first; Petrick's method then minimises the number
    of candidates, then literals, then the sorted index tuple, with a
    greedy fallback on charts too large for it.
    """
    chosen: Set[int] = set()
    for covering in chart.values():
        if len(covering) == 1:
            chosen.add(next(iter(covering)))
    remaining = {row: c for row, c in chart.items() if not (c & chosen)}
    if remaining:
        solutions = _petrick(remaining, petrick_limit)
        if solutions is None:
            chosen |= _greedy_cover(remaining)
        else:
            def cost(solution: Set[int]) -> Tuple[int, int, Tuple[int, ...]]:
                total = chosen | solution
                return (len(total), sum(literals[i] for i in total),
                        tuple(sorted(total)))

            chosen |= min(solutions, key=cost)
    return chosen


def _cover_from_primes(onset: Iterable[int], primes: Sequence[_Implicant],
                       n: int, petrick_limit: int = 200_000) -> List[Cube]:
    """The covering step: a minimum cover of ``onset`` chosen among
    ``primes`` (sorted ``(value, mask)`` pairs), as cubes in deterministic
    order."""
    chart = {m: frozenset(i for i, p in enumerate(primes)
                          if _implicant_covers(p, m))
             for m in sorted(set(onset))}
    literals = [n - bin(mask).count("1") for _, mask in primes]
    chosen = _select_cover(chart, literals, petrick_limit)
    cubes = [_implicant_to_cube(primes[i], n) for i in sorted(chosen)]
    cubes.sort(key=lambda c: tuple(-1 if v is None else v for v in c))
    return cubes


def minimize(onset: Iterable[int], offset: Iterable[int], n: int,
             petrick_limit: int = 200_000) -> List[Cube]:
    """Minimal SOP cover of the function that is 1 on ``onset``, 0 on
    ``offset`` and free on every other code.

    Codes are minterm integers over ``n`` variables (MSB = variable 0).
    Minimizes the number of cubes, then total literal count.  Returns cubes
    in deterministic order.  Raises :class:`ValueError` when a code is in
    both sets.
    """
    onset = set(onset)
    offset = set(offset)
    clash = onset & offset
    if clash:
        raise ValueError("codes %s are in both the ON-set and the OFF-set"
                         % sorted(clash)[:8])
    if not onset:
        return []
    if not offset:
        return [tuple([None] * n)]
    return _cover_from_primes(onset, prime_implicants(offset, n), n,
                              petrick_limit)


def verify_cover(cover: Sequence[Cube], onset: Iterable[int],
                 offset: Iterable[int], n: int) -> bool:
    """Check that a cover contains every ON minterm and no OFF minterm."""
    for m in onset:
        if not any(cube_contains(c, int_to_minterm(m, n)) for c in cover):
            return False
    for m in offset:
        if any(cube_contains(c, int_to_minterm(m, n)) for c in cover):
            return False
    return True
