"""A pure-Python CDCL SAT solver.

The subsystem deliberately avoids external dependencies (no ``z3``/
``minisat`` subprocess like SMPT uses), so the solver itself lives here.
It is a conflict-driven clause-learning solver in the MiniSat lineage:

* **two-watched literals** — each clause is inspected only when one of its
  two watched literals becomes false, so unit propagation touches a small
  fraction of the clause database per assignment;
* **first-UIP clause learning** — every conflict is analysed back to the
  first unique implication point; the learnt clause is asserting and
  drives a non-chronological backjump;
* **VSIDS-style activities** — variables involved in recent conflicts are
  preferred as decisions (exponentially decayed bumps, lazy max-heap);
* **phase saving** — decisions re-use the last assigned polarity;
* **Luby restarts** and a size/activity-bounded learnt-clause database;
* **incremental solving under assumptions** — :meth:`Solver.solve` takes a
  list of assumption literals that are treated as pre-made decisions, and
  clauses may be added between calls (the BMC loop of
  :mod:`repro.sat.bmc` relies on both).

Clauses use the DIMACS literal convention of :mod:`repro.sat.cnf`:
variable ``v`` is literal ``v``, its negation ``-v``.

The search order is behaviour, not an implementation detail: which
clauses propagation visits and in what order, and which variable is
decided next, fix the model a satisfiable call returns and every
counter of :meth:`Solver.stats`, and through them the witnesses of the
BMC queries.  The inner loops run on local arrays in the MiniSat style
(Eén and Sörensson, SAT 2003): one literal-indexed value list, watch
lists compacted in place, one reused ``seen`` array in conflict
analysis.  ``tests/test_search_traces.py`` pins the resulting search
call by call.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .. import obs
from ..errors import ModelError
from .cnf import CNF


class _Clause(list):
    """A clause: a list of literals with learnt-clause bookkeeping."""

    __slots__ = ("learnt", "act", "deleted")

    def __init__(self, lits, learnt=False):
        super().__init__(lits)
        self.learnt = learnt
        self.act = 0.0
        self.deleted = False


def luby(x: int, base: float = 100.0) -> float:
    """The x-th element (0-based) of the Luby restart sequence times base."""
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) >> 1
        seq -= 1
        x %= size
    return base * (1 << seq)


class ClauseFeeder:
    """Streams a growing :class:`~repro.sat.cnf.CNF` into a solver.

    The BMC-style loops interleave encoding growth (new frames, new
    query definitions) with solver calls; calling the feeder copies every
    clause appended since the previous call.  Returns the solver's
    ``ok`` flag so callers can notice a root-level contradiction early.
    """

    def __init__(self, solver: "Solver", cnf: CNF):
        self.solver = solver
        self.cnf = cnf
        self._fed = 0

    def __call__(self) -> bool:
        self.solver.ensure_vars(self.cnf.num_vars)
        for clause in self.cnf.clauses[self._fed:]:
            self.solver.add_clause(clause)
        self._fed = len(self.cnf.clauses)
        return self.solver.ok


class Solver:
    """CDCL solver over an incrementally growable clause database."""

    def __init__(self, cnf: Optional[CNF] = None):
        self.n_vars = 0
        # indexed by literal: +1 true, -1 false, 0 unassigned.  Negative
        # indexing gives -v its own slot, so the list reads
        # [0, 1..n, -n..-1]; slot 0 is never written
        self._vals: List[int] = [0]
        # indexed by literal like _vals: the clauses watching -lit, which
        # are visited when lit becomes true
        self._watches: List[List[_Clause]] = [[]]
        # indexed by variable (1..n)
        self._level: List[int] = [0]
        self._reason: List[Optional[_Clause]] = [None]
        self._activity: List[float] = [0.0]
        self._phase: List[bool] = [False]
        self._seen: List[bool] = [False]  # all False between _analyze calls
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        self._qhead = 0
        self._heap: List[Tuple[float, int]] = []  # (-activity, var), lazy
        self._var_inc = 1.0
        self._var_decay = 1.0 / 0.95
        self._cla_inc = 1.0
        self._cla_decay = 1.0 / 0.999
        self._learnts: List[_Clause] = []
        self._max_learnts = 4000.0
        self.ok = True
        self.model: List[int] = []
        # statistics (read-only for callers; see stats())
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.restarts = 0
        self.added_clauses = 0
        if cnf is not None:
            self.add_cnf(cnf)

    def stats(self) -> Dict[str, int]:
        """The solver's work counters as a plain dict (stable keys).

        ``vars``/``clauses`` size the problem (``clauses`` counts every
        accepted :meth:`add_clause` call, including those simplified
        away at the root); ``learnts`` is the *live* learnt-clause count;
        ``conflicts``/``decisions``/``propagations``/``restarts`` are
        cumulative across all :meth:`solve` calls.  This is the public
        form of the counters that used to be visible only through
        ``repr()`` — the observability layer and the tests consume it.
        """
        return {
            "vars": self.n_vars,
            "clauses": self.added_clauses,
            "learnts": len(self._learnts),
            "conflicts": self.conflicts,
            "decisions": self.decisions,
            "propagations": self.propagations,
            "restarts": self.restarts,
        }

    # ------------------------------------------------------------------ #
    # problem construction
    # ------------------------------------------------------------------ #

    def ensure_vars(self, n: int) -> None:
        """Grow the variable pool to at least ``n`` variables."""
        old = self.n_vars
        if n <= old:
            return
        grow = n - old
        # the new positive slots follow the old ones and the new negative
        # slots precede the old negative ones, which keep their offsets
        # from the end of the list
        self._vals[old + 1:old + 1] = [0] * (2 * grow)
        self._watches[old + 1:old + 1] = [[] for _ in range(2 * grow)]
        self._level.extend([0] * grow)
        self._reason.extend([None] * grow)
        self._activity.extend([0.0] * grow)
        self._phase.extend([False] * grow)
        self._seen.extend([False] * grow)
        self.n_vars = n

    def add_clause(self, lits: Iterable[int]) -> bool:
        """Add a clause; returns False if the database became unsatisfiable.

        Must be called with the solver at decision level 0 (which is where
        :meth:`solve` always leaves it).
        """
        if self._trail_lim:
            raise ModelError("add_clause requires decision level 0")
        if not self.ok:
            return False
        self.added_clauses += 1
        vals = self._vals
        seen = set()
        clause: List[int] = []
        for lit in lits:
            if not isinstance(lit, int) or lit == 0:
                raise ModelError("bad literal %r" % (lit,))
            if lit > self.n_vars or -lit > self.n_vars:
                self.ensure_vars(abs(lit))
            if -lit in seen:
                return True  # tautology
            if lit in seen:
                continue
            # at decision level 0 every assigned literal is a root fact
            value = vals[lit]
            if value > 0:
                return True  # satisfied at root
            if value < 0:
                continue  # permanently false literal
            seen.add(lit)
            clause.append(lit)
        if not clause:
            self.ok = False
            return False
        if len(clause) == 1:
            self._enqueue(clause[0], None)
            self.ok = self._propagate() is None
            return self.ok
        c = _Clause(clause)
        self._attach(c)
        return True

    def add_cnf(self, cnf: CNF) -> bool:
        """Load every clause of a :class:`~repro.sat.cnf.CNF`."""
        self.ensure_vars(cnf.num_vars)
        for clause in cnf.clauses:
            if not self.add_clause(clause):
                return False
        return True

    def _attach(self, clause: _Clause) -> None:
        self._watches[-clause[0]].append(clause)
        self._watches[-clause[1]].append(clause)

    # ------------------------------------------------------------------ #
    # assignment primitives
    # ------------------------------------------------------------------ #

    def _enqueue(self, lit: int, reason: Optional[_Clause]) -> None:
        v = abs(lit)
        self._vals[lit] = 1
        self._vals[-lit] = -1
        self._level[v] = len(self._trail_lim)
        self._reason[v] = reason
        self._phase[v] = lit > 0
        self._trail.append(lit)

    def _backtrack(self, target_level: int) -> None:
        trail_lim = self._trail_lim
        if len(trail_lim) <= target_level:
            return
        trail = self._trail
        vals = self._vals
        reason = self._reason
        activity = self._activity
        heap = self._heap
        bound = trail_lim[target_level]
        for lit in reversed(trail[bound:]):
            vals[lit] = vals[-lit] = 0
            v = lit if lit > 0 else -lit
            reason[v] = None
            heappush(heap, (-activity[v], v))
        del trail[bound:]
        del trail_lim[target_level:]
        self._qhead = len(trail)

    # ------------------------------------------------------------------ #
    # propagation
    # ------------------------------------------------------------------ #

    def _propagate(self) -> Optional[_Clause]:
        """Exhaust unit propagation; returns a conflicting clause or None.

        Each watch list is compacted in place and in order: a clause
        whose first literal is true, or that is unit, stays; a clause that
        finds a new watch moves to the end of that literal's list; a
        deleted learnt clause is dropped.  On a conflict the rest of the
        list is kept as it is, deleted clauses included.
        """
        trail = self._trail
        vals = self._vals
        watches = self._watches
        levels = self._level
        reasons = self._reason
        phase = self._phase
        level = len(self._trail_lim)
        qhead = start = self._qhead
        while qhead < len(trail):
            lit = trail[qhead]
            qhead += 1
            false_lit = -lit
            watchers = watches[lit]
            n = len(watchers)
            i = j = 0
            while i < n:
                clause = watchers[i]
                i += 1
                if clause.deleted:
                    continue
                first = clause[0]
                if first == false_lit:
                    first = clause[0] = clause[1]
                    clause[1] = false_lit
                value = vals[first]
                if value > 0:
                    watchers[j] = clause
                    j += 1
                    continue
                for k in range(2, len(clause)):
                    other = clause[k]
                    if vals[other] >= 0:
                        clause[1] = other
                        clause[k] = false_lit
                        watches[-other].append(clause)
                        break
                else:
                    watchers[j] = clause
                    j += 1
                    if value < 0:
                        del watchers[j:i]
                        self.propagations += qhead - start
                        self._qhead = len(trail)
                        return clause
                    vals[first] = 1
                    vals[-first] = -1
                    v = first if first > 0 else -first
                    levels[v] = level
                    reasons[v] = clause
                    phase[v] = first > 0
                    trail.append(first)
            del watchers[j:]
        self.propagations += qhead - start
        self._qhead = qhead
        return None

    # ------------------------------------------------------------------ #
    # conflict analysis
    # ------------------------------------------------------------------ #

    def _bump_var(self, v: int) -> None:
        self._activity[v] += self._var_inc
        if self._activity[v] > 1e100:
            for u in range(1, self.n_vars + 1):
                self._activity[u] *= 1e-100
            self._var_inc *= 1e-100
            # every heap entry still holds a pre-rescale activity
            self._rebuild_heap()
        heappush(self._heap, (-self._activity[v], v))

    def _rebuild_heap(self) -> None:
        """The decision heap of the unassigned variables, keyed by their
        current activities."""
        activity = self._activity
        vals = self._vals
        self._heap = [(-activity[v], v) for v in range(1, self.n_vars + 1)
                      if vals[v] == 0]
        heapify(self._heap)

    def _bump_clause(self, clause: _Clause) -> None:
        clause.act += self._cla_inc
        if clause.act > 1e20:
            for c in self._learnts:
                c.act *= 1e-20
            self._cla_inc *= 1e-20

    def _analyze(self, conflict: _Clause) -> Tuple[List[int], int]:
        """First-UIP analysis; returns (learnt clause, backjump level).

        The learnt clause's asserting literal is at position 0.
        """
        levels = self._level
        trail = self._trail
        seen = self._seen
        current = len(self._trail_lim)
        learnt: List[int] = [0]
        counter = 0
        p = 0
        index = len(trail) - 1
        clause = conflict
        while True:
            if clause.learnt:
                self._bump_clause(clause)
            for q in clause:
                if q == p:  # the asserting literal of a reason clause
                    continue
                v = q if q > 0 else -q
                if not seen[v] and levels[v] > 0:
                    seen[v] = True
                    self._bump_var(v)
                    if levels[v] >= current:
                        counter += 1
                    else:
                        learnt.append(q)
            p = trail[index]
            while not seen[p if p > 0 else -p]:
                index -= 1
                p = trail[index]
            index -= 1
            v = p if p > 0 else -p
            seen[v] = False
            counter -= 1
            if counter == 0:
                break
            clause = self._reason[v]
        learnt[0] = -p
        for q in learnt[1:]:
            seen[q if q > 0 else -q] = False
        if len(learnt) == 1:
            return learnt, 0
        # backjump to the second-highest decision level in the clause,
        # placing one of its literals at watch position 1
        max_i = 1
        for i in range(2, len(learnt)):
            if levels[abs(learnt[i])] > levels[abs(learnt[max_i])]:
                max_i = i
        learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
        return learnt, levels[abs(learnt[1])]

    # ------------------------------------------------------------------ #
    # learnt-clause database
    # ------------------------------------------------------------------ #

    def _reduce_db(self) -> None:
        """Drop the less active half of the learnt clauses."""
        locked = {id(c) for c in self._reason if c is not None}
        self._learnts.sort(key=lambda c: c.act)
        keep_from = len(self._learnts) // 2
        kept: List[_Clause] = []
        for i, clause in enumerate(self._learnts):
            if i < keep_from and len(clause) > 2 and id(clause) not in locked:
                clause.deleted = True
            else:
                kept.append(clause)
        self._learnts = kept

    # ------------------------------------------------------------------ #
    # decisions
    # ------------------------------------------------------------------ #

    def _decide(self) -> int:
        """Pick an unassigned variable (0 when all are assigned).

        The heap is lazy: variables are re-pushed on every activity bump
        and on unassignment, so stale entries are simply skipped; an
        activity rescale rebuilds it.
        """
        heap = self._heap
        vals = self._vals
        while heap:
            _, v = heappop(heap)
            if vals[v] == 0:
                return v
        for v in range(1, self.n_vars + 1):
            if vals[v] == 0:
                return v
        return 0

    # ------------------------------------------------------------------ #
    # main search
    # ------------------------------------------------------------------ #

    def solve(self, assumptions: Sequence[int] = ()) -> bool:
        """Solve under the given assumption literals.

        Returns True (satisfiable — :attr:`model` holds an assignment) or
        False (unsatisfiable under the assumptions).  The solver is left at
        decision level 0, ready for more clauses or another call.  Every
        assumption is checked before any state changes: a literal that is
        0 or not an int raises :class:`ModelError`.

        When :func:`repro.obs.enabled` each call opens a ``sat.solve``
        span recording the per-call deltas of the :meth:`stats` counters
        and the sat/unsat outcome, and installs :meth:`stats` as the
        heartbeat progress provider (live conflict/decision counts for
        portfolio workers, see :mod:`repro.obs.remote`); disabled, the
        only cost is one boolean check.
        """
        for lit in assumptions:
            if not isinstance(lit, int) or lit == 0:
                raise ModelError("bad literal %r" % (lit,))
        if not obs.enabled():
            return self._solve(assumptions)
        before = (self.conflicts, self.decisions, self.propagations,
                  self.restarts)
        with obs.span("sat.solve", vars=self.n_vars,
                      assumptions=len(assumptions)) as span:
            obs.push_progress(self.stats)
            try:
                result = self._solve(assumptions)
            finally:
                obs.pop_progress()
            span.annotate(result="sat" if result else "unsat")
            span.add("calls")
            span.add("conflicts", self.conflicts - before[0])
            span.add("decisions", self.decisions - before[1])
            span.add("propagations", self.propagations - before[2])
            span.add("restarts", self.restarts - before[3])
            span.set_gauge("learnts", len(self._learnts))
        return result

    def _solve(self, assumptions: Sequence[int] = ()) -> bool:
        """The CDCL search loop behind :meth:`solve` (uninstrumented)."""
        self.model = []  # invalidate any previous model up front
        if not self.ok:
            return False
        for lit in assumptions:
            self.ensure_vars(abs(lit))
        if self._propagate() is not None:
            self.ok = False
            return False
        n_assumptions = len(assumptions)
        conflict_budget = luby(self.restarts)
        conflicts_here = 0
        # rebuild the decision heap for the current variable pool
        self._rebuild_heap()
        vals = self._vals
        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.conflicts += 1
                conflicts_here += 1
                if not self._trail_lim:
                    self.ok = False
                    return False
                learnt, back_level = self._analyze(conflict)
                self._backtrack(back_level)
                if len(learnt) == 1:
                    self._enqueue(learnt[0], None)
                else:
                    clause = _Clause(learnt, learnt=True)
                    self._bump_clause(clause)
                    self._attach(clause)
                    self._learnts.append(clause)
                    self._enqueue(learnt[0], clause)
                self._var_inc *= self._var_decay
                self._cla_inc *= self._cla_decay
                if len(self._learnts) > self._max_learnts:
                    self._reduce_db()
                    self._max_learnts *= 1.1
                continue
            if conflicts_here >= conflict_budget:
                # restart: keep learnt clauses, drop the search tree
                self.restarts += 1
                conflicts_here = 0
                conflict_budget = luby(self.restarts)
                self._backtrack(0)
                continue
            if len(self._trail_lim) < n_assumptions:
                # re-establish the next assumption as a decision
                p = assumptions[len(self._trail_lim)]
                value = vals[p]
                if value < 0:
                    self._backtrack(0)
                    return False
                self._trail_lim.append(len(self._trail))
                if value == 0:
                    self._enqueue(p, None)
                continue
            v = self._decide()
            if v == 0:
                self.model = vals[:self.n_vars + 1]
                self._backtrack(0)
                return True
            self.decisions += 1
            self._trail_lim.append(len(self._trail))
            self._enqueue(v if self._phase[v] else -v, None)

    # ------------------------------------------------------------------ #
    # model access
    # ------------------------------------------------------------------ #

    def model_value(self, lit: int) -> bool:
        """Value of a literal in the last satisfying assignment.

        Raises :class:`ModelError` if the most recent :meth:`solve` call
        was unsatisfiable (the model is invalidated at the start of every
        call, so a stale assignment can never leak through), and for a
        literal that is 0, not an int, or of a variable beyond the
        model."""
        if not self.model:
            raise ModelError("no model available (last solve was UNSAT?)")
        if not isinstance(lit, int) or lit == 0:
            raise ModelError("bad literal %r" % (lit,))
        if abs(lit) >= len(self.model):
            raise ModelError("literal %d is beyond the model's %d variables"
                             % (lit, len(self.model) - 1))
        v = self.model[abs(lit)]
        return (v > 0) if lit > 0 else (v < 0)

    def __repr__(self):
        return ("Solver(vars=%d, learnts=%d, conflicts=%d, decisions=%d,"
                " restarts=%d)" % (self.n_vars, len(self._learnts),
                                   self.conflicts, self.decisions,
                                   self.restarts))
