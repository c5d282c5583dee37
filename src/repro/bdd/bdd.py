"""A from-scratch Reduced Ordered Binary Decision Diagram package.

Section 2.2 of the paper relies on "symbolic BDD-based traversal of a
reachability graph [which] allows its implicit representation, generally
much more compact than an explicit enumeration of states".  This module
provides the substrate: hash-consed ROBDD nodes with the classic
operations (ite/apply, restrict, existential quantification,
satisfy-count/enumeration) and the one image operator of the symbolic
traversals, :meth:`BDD.image`, which applies a transition's cube update
to a set of states in a single memoised pass.

Node references are integers: 0 and 1 are the terminals; other ids index
into the manager's node table.  Variables are ordered by their index in
the manager's variable list.

Node order is behaviour, not an implementation detail: :meth:`BDD.ite`
and :meth:`BDD.image` recurse into the low branch before the high one
and append each new node to the table as its children are known, so
node ids, the ``ite_lookups``/``ite_hits`` counters and every traced
``bdd.fixpoint`` count are reproducible.  Both kernels read the node
table's ``(level, low, high)`` tuples and insert into the unique table
inline, in the style of Brace, Rudell and Bryant (DAC 1990), without
changing that order; ``tests/test_search_traces.py`` pins it.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import ModelError

FALSE = 0
TRUE = 1

#: New value of a cube-update entry that complements the variable.
FLIP = 2

#: A compiled cube update (see :meth:`BDD.cube_update`): one
#: ``(level, required, new)`` entry per touched variable, sorted by
#: level.  ``required`` is 0, 1 or -1 (no requirement); ``new`` is 0, 1
#: or :data:`FLIP`.
CubeUpdate = Tuple[Tuple[int, int, int], ...]


class BDD:
    """A BDD manager with a fixed variable order."""

    def __init__(self, variables: Sequence[str]):
        self.variables: List[str] = list(variables)
        if len(set(self.variables)) != len(self.variables):
            raise ModelError("duplicate BDD variables")
        self.var_index: Dict[str, int] = {
            v: i for i, v in enumerate(self.variables)
        }
        # node table: id -> (level, low, high); ids 0/1 reserved
        self._nodes: List[Tuple[int, int, int]] = [
            (len(self.variables), -1, -1),
            (len(self.variables), -1, -1),
        ]
        self._unique: Dict[Tuple[int, int, int], int] = {}
        self._ite_cache: Dict[Tuple[int, int, int], int] = {}
        self._quant_cache: Dict[Tuple[int, Tuple[int, ...]], int] = {}
        # work counters (read via stats()): non-terminal ite computations
        # and how many were answered from the memo cache
        self.ite_lookups = 0
        self.ite_hits = 0

    def stats(self) -> Dict[str, float]:
        """Work counters of the manager as a plain dict (stable keys).

        ``nodes`` is the total node-table size — nodes are never freed,
        so this *is* the peak; ``ite_lookups``/``ite_hits`` count
        non-terminal ``ite`` computations and their memo-cache hits, and
        ``cache_hit_rate`` is their ratio (0.0 before any lookup).  The
        observability layer snapshots these around every traversal.
        """
        return {
            "nodes": len(self._nodes),
            "ite_lookups": self.ite_lookups,
            "ite_hits": self.ite_hits,
            "cache_hit_rate": (self.ite_hits / self.ite_lookups
                               if self.ite_lookups else 0.0),
        }

    # ------------------------------------------------------------------ #
    # node construction
    # ------------------------------------------------------------------ #

    def _mk(self, level: int, low: int, high: int) -> int:
        if low == high:
            return low
        key = (level, low, high)
        node = self._unique.get(key)
        if node is None:
            node = len(self._nodes)
            self._nodes.append(key)
            self._unique[key] = node
        return node

    def var(self, name: str) -> int:
        """The BDD for a single variable."""
        return self._mk(self.var_index[name], FALSE, TRUE)

    def nvar(self, name: str) -> int:
        """The BDD for a negated variable."""
        return self._mk(self.var_index[name], TRUE, FALSE)

    def level(self, u: int) -> int:
        """Variable level of a node (terminals sit below all variables)."""
        return self._nodes[u][0]

    def low(self, u: int) -> int:
        """The 0-branch child of a node."""
        return self._nodes[u][1]

    def high(self, u: int) -> int:
        """The 1-branch child of a node."""
        return self._nodes[u][2]

    def node_count(self) -> int:
        """Total nodes allocated by the manager (a size measure)."""
        return len(self._nodes)

    def size(self, u: int) -> int:
        """Number of distinct nodes reachable from ``u`` (incl. terminals)."""
        seen = set()
        stack = [u]
        while stack:
            n = stack.pop()
            if n in seen or n <= 1:
                continue
            seen.add(n)
            stack.append(self.low(n))
            stack.append(self.high(n))
        return len(seen) + 2

    # ------------------------------------------------------------------ #
    # boolean operations (via ite)
    # ------------------------------------------------------------------ #

    def ite(self, f: int, g: int, h: int) -> int:
        """If-then-else: ``f·g + f'·h`` — the universal connective.

        ``ite_lookups`` and ``ite_hits`` are added once per call.
        """
        nodes = self._nodes
        unique = self._unique
        cache = self._ite_cache
        lookups = hits = 0

        def rec(f: int, g: int, h: int) -> int:
            nonlocal lookups, hits
            if f == TRUE:
                return g
            if f == FALSE:
                return h
            if g == h:
                return g
            if g == TRUE and h == FALSE:
                return f
            key = (f, g, h)
            lookups += 1
            result = cache.get(key)
            if result is not None:
                hits += 1
                return result
            f_level, f0, f1 = nodes[f]
            g_level, g0, g1 = nodes[g]
            h_level, h0, h1 = nodes[h]
            level = f_level
            if g_level < level:
                level = g_level
            if h_level < level:
                level = h_level
            if f_level != level:
                f0 = f1 = f
            if g_level != level:
                g0 = g1 = g
            if h_level != level:
                h0 = h1 = h
            low = rec(f0, g0, h0)
            high = rec(f1, g1, h1)
            if low == high:
                result = low
            else:
                node = (level, low, high)
                result = unique.get(node)
                if result is None:
                    result = len(nodes)
                    nodes.append(node)
                    unique[node] = result
            cache[key] = result
            return result

        result = rec(f, g, h)
        self.ite_lookups += lookups
        self.ite_hits += hits
        return result

    def apply_and(self, f: int, g: int) -> int:
        """Conjunction."""
        return self.ite(f, g, FALSE)

    def apply_or(self, f: int, g: int) -> int:
        """Disjunction."""
        return self.ite(f, TRUE, g)

    def apply_xor(self, f: int, g: int) -> int:
        """Exclusive or."""
        return self.ite(f, self.apply_not(g), g)

    def apply_not(self, f: int) -> int:
        """Complement."""
        return self.ite(f, FALSE, TRUE)

    def conj(self, operands: Sequence[int]) -> int:
        """Conjunction of many operands."""
        result = TRUE
        for f in operands:
            result = self.apply_and(result, f)
        return result

    def disj(self, operands: Sequence[int]) -> int:
        """Disjunction of many operands."""
        result = FALSE
        for f in operands:
            result = self.apply_or(result, f)
        return result

    # ------------------------------------------------------------------ #
    # cofactors and quantification
    # ------------------------------------------------------------------ #

    def restrict(self, f: int, name: str, value: int) -> int:
        """Cofactor of ``f`` with variable set to ``value``."""
        target = self.var_index[name]

        cache: Dict[int, int] = {}

        def walk(u: int) -> int:
            if u <= 1 or self.level(u) > target:
                return u
            if u in cache:
                return cache[u]
            if self.level(u) == target:
                result = self.high(u) if value else self.low(u)
            else:
                result = self._mk(self.level(u), walk(self.low(u)),
                                  walk(self.high(u)))
            cache[u] = result
            return result

        return walk(f)

    def exists(self, f: int, names: Sequence[str]) -> int:
        """Existential quantification over the named variables."""
        levels = tuple(sorted(self.var_index[n] for n in names))
        if not levels:
            return f
        key = (f, levels)
        cached = self._quant_cache.get(key)
        if cached is not None:
            return cached

        def walk(u: int) -> int:
            if u <= 1 or self.level(u) > levels[-1]:
                return u
            k = (u, levels)
            hit = self._quant_cache.get(k)
            if hit is not None:
                return hit
            lo = walk(self.low(u))
            hi = walk(self.high(u))
            if self.level(u) in levels:
                result = self.apply_or(lo, hi)
            else:
                result = self._mk(self.level(u), lo, hi)
            self._quant_cache[k] = result
            return result

        return walk(f)

    # ------------------------------------------------------------------ #
    # the image operator
    # ------------------------------------------------------------------ #

    def cube_update(self, entries: Dict[str, Tuple[Optional[int], int]]
                    ) -> CubeUpdate:
        """Compile ``{variable: (required, new)}`` for :meth:`image`.

        ``required`` is the value the variable must have before the
        update (None: any value); ``new`` is its value after it: 0, 1 or
        :data:`FLIP` (the complement of the old value).
        """
        return tuple(sorted(
            (self.var_index[name], -1 if required is None else required, new)
            for name, (required, new) in entries.items()))

    def image(self, f: int, update: CubeUpdate) -> int:
        """The set ``f`` after a cube update, in one memoised pass.

        Each touched variable ``x`` is first cofactored to its required
        value, then set to its new value: ``∃x . (f ∧ x=r) ∧ x=n`` for a
        constant ``n``, a swap of the two cofactors for :data:`FLIP`.
        Untouched variables pass through unchanged, so the result is the
        set of successors of ``f`` under one transition whose enabling
        and effect are cubes — a Petri-net firing, a dense-code move or a
        parity toggle — without any next-state variable.
        """
        nodes = self._nodes
        unique = self._unique
        ite = self.ite
        last = len(update)
        memo: Dict[int, int] = {}  # u * last + i -> result

        def walk(u: int, i: int) -> int:
            if u == FALSE or i == last:
                return u
            key = u * last + i
            result = memo.get(key)
            if result is not None:
                return result
            level, low, high = nodes[u]
            target, required, new = update[i]
            if level < target:
                low = walk(low, i)
                high = walk(high, i)
            else:
                if level > target:  # u does not test the touched variable
                    low = high = u
                low = FALSE if required == 1 else walk(low, i + 1)
                high = FALSE if required == 0 else walk(high, i + 1)
                level = target
                if new == FLIP:
                    low, high = high, low
                elif new:
                    low, high = FALSE, ite(low, TRUE, high)
                else:
                    low, high = ite(low, TRUE, high), FALSE
            if low == high:
                result = low
            else:
                node = (level, low, high)
                result = unique.get(node)
                if result is None:
                    result = len(nodes)
                    nodes.append(node)
                    unique[node] = result
            memo[key] = result
            return result

        return walk(f, 0)

    # ------------------------------------------------------------------ #
    # evaluation and enumeration
    # ------------------------------------------------------------------ #

    def eval(self, f: int, env: Dict[str, int]) -> int:
        """Evaluate under a full assignment."""
        u = f
        while u > 1:
            name = self.variables[self.level(u)]
            u = self.high(u) if env[name] else self.low(u)
        return u

    def from_cube(self, assignment: Dict[str, int]) -> int:
        """Conjunction of literals."""
        result = TRUE
        for name in sorted(assignment, key=lambda n: -self.var_index[n]):
            lit = self.var(name) if assignment[name] else self.nvar(name)
            result = self.apply_and(lit, result)
        return result

    def satcount(self, f: int) -> int:
        """Number of satisfying assignments over all manager variables."""
        cache: Dict[int, int] = {}

        # weighted count: count(u) * 2^(level(u)) with terminals at nvars
        def count(u: int) -> int:
            if u == FALSE:
                return 0
            if u == TRUE:
                return 1
            if u in cache:
                return cache[u]
            lo = count(self.low(u)) << (self.level(self.low(u))
                                        - self.level(u) - 1)
            hi = count(self.high(u)) << (self.level(self.high(u))
                                         - self.level(u) - 1)
            result = lo + hi
            cache[u] = result
            return result

        return count(f) << self.level(f) if f > 1 else (
            0 if f == FALSE else 1 << len(self.variables))

    def pick(self, f: int, names: Optional[Sequence[str]] = None
             ) -> Dict[str, int]:
        """One satisfying assignment of a non-FALSE function.

        Walks a single path to the TRUE terminal, preferring the 1-branch;
        variables the path does not test are returned as 0.  When ``names``
        is given the result is restricted to (and padded over) exactly
        those variables.  Raises :class:`ModelError` on the constant-0
        function.
        """
        if f == FALSE:
            raise ModelError("cannot pick an assignment from the constant 0")
        assignment: Dict[str, int] = {}
        u = f
        while u > 1:
            name = self.variables[self.level(u)]
            if self.high(u) != FALSE:
                assignment[name] = 1
                u = self.high(u)
            else:
                assignment[name] = 0
                u = self.low(u)
        if names is None:
            return assignment
        return {n: assignment.get(n, 0) for n in names}

    def sat_over(self, f: int, names: Sequence[str]
                 ) -> Iterator[Dict[str, int]]:
        """Enumerate the satisfying assignments over a variable subset.

        ``f`` must depend on no variable outside ``names`` (quantify the
        rest away first); otherwise :class:`ModelError` is raised.  Unlike
        :meth:`sat_all`, the cost is proportional to the number of
        assignments over ``names`` only.
        """
        order = sorted(names, key=lambda n: self.var_index[n])
        levels = [self.var_index[n] for n in order]
        allowed = set(levels)

        def walk(u: int, i: int, partial: Dict[str, int]):
            if u == FALSE:
                return
            if u > 1 and self.level(u) not in allowed:
                raise ModelError(
                    "function depends on %r, outside the enumeration set"
                    % self.variables[self.level(u)])
            if i == len(order):
                yield dict(partial)
                return
            name, target = order[i], levels[i]
            if u > 1 and self.level(u) == target:
                branches = ((0, self.low(u)), (1, self.high(u)))
            else:
                branches = ((0, u), (1, u))
            for value, child in branches:
                partial[name] = value
                yield from walk(child, i + 1, partial)
            del partial[name]

        yield from walk(f, 0, {})

    def sat_all(self, f: int) -> Iterator[Dict[str, int]]:
        """Enumerate all satisfying full assignments."""
        n = len(self.variables)

        def walk(u: int, level: int, partial: Dict[str, int]):
            if u == FALSE:
                return
            if level == n:
                if u == TRUE:
                    yield dict(partial)
                return
            name = self.variables[level]
            if u > 1 and self.level(u) == level:
                branches = [(0, self.low(u)), (1, self.high(u))]
            else:
                branches = [(0, u), (1, u)]
            for value, child in branches:
                partial[name] = value
                yield from walk(child, level + 1, partial)
            del partial[name]

        yield from walk(f, 0, {})

    def is_tautology(self, f: int) -> bool:
        """True iff the function is the constant 1."""
        return f == TRUE
