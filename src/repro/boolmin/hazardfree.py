"""Exact hazard-free two-level minimization for multiple-input changes
(paper Section 3.3, ref [22]: Nowick & Dill).

"Recent development in [22] shows that if the so-called Fundamental mode
is acceptable (input cannot change until all internal circuit activity
stabilizes), then most of the known methods of logic minimization can be
gracefully extended to asynchronous hazard-free minimization."

The specification is a boolean function plus a set of *specified input
transitions*, each a monotonic multiple-input change from a start minterm
to an end minterm.  A sum-of-products cover is **hazard-free** for the
transitions iff:

* every ``1 -> 1`` transition's cube is contained in a *single* product
  (otherwise a static-1 hazard is possible during the hand-over);
* for every ``1 -> 0`` transition, any product intersecting the transition
  cube contains the *start* point (otherwise a product can glitch on);
* for every ``0 -> 1`` transition, any product intersecting the transition
  cube contains the *end* point;
* ``0 -> 0`` transitions must not intersect any product at all (their
  cubes belong to the OFF set).

Minimization generates the maximal implicants satisfying these conditions
(*dhf-prime implicants*) by shrinking ordinary primes away from violated
dynamic transitions, then solves the covering problem whose rows are the
required cubes of the ``1 -> 1`` transitions plus the reachable ON
minterms.  A hazard-free cover does not always exist (Nowick–Dill);
:class:`~repro.errors.SynthesisError` is raised in that case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..errors import SynthesisError
from .cube import (
    Cube,
    cube_contains,
    cube_covers,
    cube_minterms,
    cubes_intersect,
    int_to_minterm,
    literal_count,
    minterm_to_int,
)
from .quine_mccluskey import (_implicant_to_cube, _select_cover,
                              prime_implicants)


Minterm = Tuple[int, ...]


@dataclass(frozen=True)
class InputTransition:
    """A specified monotonic multiple-input change.

    ``start`` and ``end`` are minterms; ``f_start``/``f_end`` the required
    function values at the endpoints.
    """

    start: Minterm
    end: Minterm
    f_start: int
    f_end: int

    @property
    def cube(self) -> Cube:
        """The transition cube [start, end] (supercube of the endpoints)."""
        return tuple(s if s == e else None
                     for s, e in zip(self.start, self.end))

    @property
    def kind(self) -> str:
        return "%d->%d" % (self.f_start, self.f_end)


def classify(transitions: Iterable[InputTransition]):
    """Split transitions by kind: (t11, t10, t01, t00)."""
    t11, t10, t01, t00 = [], [], [], []
    for t in transitions:
        {("1->1"): t11, ("1->0"): t10,
         ("0->1"): t01, ("0->0"): t00}[t.kind].append(t)
    return t11, t10, t01, t00


def onset_offset(transitions: Sequence[InputTransition], n: int
                 ) -> Tuple[Set[int], Set[int]]:
    """ON and OFF minterm sets implied by the specified transitions.

    ON: all minterms of 1->1 cubes, starts of 1->0, ends of 0->1.
    OFF: all minterms of 0->0 cubes, ends of 1->0, starts of 0->1.
    """
    t11, t10, t01, t00 = classify(transitions)
    onset: Set[int] = set()
    offset: Set[int] = set()
    for t in t11:
        onset.update(minterm_to_int(m) for m in cube_minterms(t.cube))
    for t in t00:
        offset.update(minterm_to_int(m) for m in cube_minterms(t.cube))
    for t in t10:
        onset.add(minterm_to_int(t.start))
        offset.add(minterm_to_int(t.end))
    for t in t01:
        offset.add(minterm_to_int(t.start))
        onset.add(minterm_to_int(t.end))
    conflict = onset & offset
    if conflict:
        raise SynthesisError(
            "inconsistent transition specification: minterms %s required"
            " both ON and OFF" % sorted(conflict))
    return onset, offset


def _dynamic_constraints(transitions: Sequence[InputTransition]):
    """(transition cube, required endpoint) pairs for dynamic transitions."""
    t11, t10, t01, _ = classify(transitions)
    constraints = []
    for t in t10:
        constraints.append((t.cube, t.start))
    for t in t01:
        constraints.append((t.cube, t.end))
    return constraints


def is_dhf_implicant(cube: Cube,
                     transitions: Sequence[InputTransition]) -> bool:
    """Dynamic-hazard-free implicant test: for every dynamic transition,
    intersecting the transition cube implies containing its required
    endpoint."""
    for tcube, endpoint in _dynamic_constraints(transitions):
        if cubes_intersect(cube, tcube) and not cube_contains(cube, endpoint):
            return False
    return True


def dhf_prime_implicants(transitions: Sequence[InputTransition],
                         n: int) -> List[Cube]:
    """All maximal dynamic-hazard-free implicants.

    Ordinary primes (the maximal cubes disjoint from the OFF-set) are
    shrunk away from every violated dynamic transition cube (one variable
    restriction per fixed literal of the transition cube), recursively;
    maximal survivors are kept.
    """
    _, offset = onset_offset(transitions, n)
    primes = [_implicant_to_cube(p, n) for p in prime_implicants(offset, n)]

    results: Set[Cube] = set()
    seen: Set[Cube] = set()
    stack: List[Cube] = list(primes)
    constraints = _dynamic_constraints(transitions)
    while stack:
        cube = stack.pop()
        if cube in seen:
            continue
        seen.add(cube)
        violated = None
        for tcube, endpoint in constraints:
            if cubes_intersect(cube, tcube) and \
                    not cube_contains(cube, endpoint):
                violated = tcube
                break
        if violated is None:
            results.add(cube)
            continue
        # shrink: for every position where the transition cube is fixed,
        # restrict our cube to the complementary value (making it disjoint
        # from the transition cube in that variable)
        for pos, value in enumerate(violated):
            if value is None:
                continue
            if cube[pos] is not None:
                continue  # already fixed; cannot flip without moving
            shrunk = list(cube)
            shrunk[pos] = 1 - value
            stack.append(tuple(shrunk))
    # keep only maximal cubes
    maximal: List[Cube] = []
    for cube in sorted(results, key=lambda c: -sum(v is None for v in c)):
        if not any(cube_covers(other, cube) and other != cube
                   for other in results):
            maximal.append(cube)
    maximal.sort(key=lambda c: tuple(-1 if v is None else v for v in c))
    return maximal


def required_cubes(transitions: Sequence[InputTransition]) -> List[Cube]:
    """The 1->1 transition cubes, each of which must lie inside a single
    product of any hazard-free cover."""
    t11, _, _, _ = classify(transitions)
    return [t.cube for t in t11]


def minimize_hazard_free(transitions: Sequence[InputTransition],
                         n: int) -> List[Cube]:
    """Exact minimum hazard-free SOP cover for the specified transitions.

    Raises :class:`SynthesisError` when no hazard-free cover exists (some
    required cube cannot be covered by any dhf implicant).
    """
    onset, offset = onset_offset(transitions, n)
    if not onset:
        return []
    candidates = dhf_prime_implicants(transitions, n)
    requirements: List[Tuple[str, object]] = []
    for cube in required_cubes(transitions):
        requirements.append(("cube", cube))
    for m in sorted(onset):
        requirements.append(("minterm", m))

    # build covering table
    table: List[FrozenSet[int]] = []
    for kind, payload in requirements:
        if kind == "cube":
            covering = frozenset(
                i for i, c in enumerate(candidates)
                if cube_covers(c, payload))
        else:
            point = int_to_minterm(payload, n)
            covering = frozenset(
                i for i, c in enumerate(candidates)
                if cube_contains(c, point))
        if not covering:
            raise SynthesisError(
                "no hazard-free cover exists: requirement %r uncoverable"
                % (payload,))
        table.append(covering)

    chosen = _select_cover(dict(enumerate(table)),
                           [literal_count(c) for c in candidates])

    cover = [candidates[i] for i in sorted(chosen)]
    problems = check_cover_hazard_free(cover, transitions)
    if problems:
        raise SynthesisError("internal error: minimized cover not hazard"
                             "-free: %s" % problems[:3])
    return cover


def check_cover_hazard_free(cover: Sequence[Cube],
                            transitions: Sequence[InputTransition]
                            ) -> List[str]:
    """Independent checker for the hazard-freedom conditions.

    Returns human-readable violations (empty list = hazard-free cover for
    the specified transitions).
    """
    problems: List[str] = []
    t11, t10, t01, t00 = classify(transitions)
    for t in t11:
        if not any(cube_covers(c, t.cube) for c in cover):
            problems.append("static-1 hazard: no single product covers"
                            " transition %s -> %s" % (t.start, t.end))
    for t in t10:
        for c in cover:
            if cubes_intersect(c, t.cube) and not cube_contains(c, t.start):
                problems.append(
                    "dynamic hazard: product %r intersects 1->0 transition"
                    " %s -> %s without its start" % (c, t.start, t.end))
    for t in t01:
        for c in cover:
            if cubes_intersect(c, t.cube) and not cube_contains(c, t.end):
                problems.append(
                    "dynamic hazard: product %r intersects 0->1 transition"
                    " %s -> %s without its end" % (c, t.start, t.end))
    for t in t00:
        for c in cover:
            if cubes_intersect(c, t.cube):
                problems.append(
                    "product %r intersects 0->0 transition %s -> %s"
                    % (c, t.start, t.end))
    return problems
