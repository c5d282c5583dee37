"""Golden search traces: the CDCL search order and the BDD node order.

Which clauses unit propagation visits, in what order, and which variable
is decided next fix the model a satisfiable ``Solver.solve`` returns and
every counter of ``Solver.stats()``.  The order in which ``BDD.ite`` and
``BDD.image`` create nodes fixes every node id and the ``ite`` cache
counters.  Every witness and every traced counter of the ``sat.solve``
and ``bdd.fixpoint`` spans follows from these orders, so they are
behaviour: a faster kernel must keep them.  The verdicts, the BDD
manager records and the default seeded instances were recorded before
the solver's and the manager's inner loops were rewritten onto local
arrays, and hold after.  The ``solve()`` lists of the queries were
re-recorded when the SAT unrolling moved from one firing per step to
∅-conflict steps (a different CNF, so a different search), and the
forced seeded record when an activity rescale began to rebuild the
decision heap.

* The nine ``query_inline`` benchmark queries, run as the benchmark runs
  them (``repro.portfolio.check_*`` with one pinned engine, inline, so
  the cross-validation probes are included): per ``solve()`` call the
  result, ``stats()`` and a digest of the model; per BDD manager the
  node count, ``ite_lookups``, ``ite_hits`` and a digest of the node
  table.
* Seeded random 3-SAT, with and without assumptions, and
  pigeonhole(6, 5).
* The same with learnt-clause deletion and the activity rescale forced
  (``_max_learnts = 5``, ``_var_inc = 1e99``): no benchmark query
  reaches either path.  Their verdicts are also checked against brute
  force, and every model against the clauses and the assumptions.

No value here may depend on ``PYTHONHASHSEED``; CI runs this file under
two seeds.
"""

import hashlib
import random

import pytest

from repro import portfolio
from repro import stg as stglib
from repro.bdd.bdd import BDD
from repro.petri import library as petrilib
from repro.sat.solver import Solver


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _solve_record(solver, result):
    """One ``solve()`` call: result, ``stats()`` and the model's digest."""
    stats = solver.stats()
    model = None
    if result:
        model = _digest("".join("1" if solver.model_value(v) else "0"
                                for v in range(1, solver.n_vars + 1)))
    return (result, stats["vars"], stats["clauses"], stats["learnts"],
            stats["conflicts"], stats["decisions"], stats["propagations"],
            stats["restarts"], model)


def _manager_record(bdd):
    """One BDD manager: node count, ``ite`` counters, node-table digest."""
    table = ";".join("%d,%d,%d" % (bdd.level(u), bdd.low(u), bdd.high(u))
                     for u in range(bdd.node_count()))
    return (bdd.node_count(), bdd.ite_lookups, bdd.ite_hits, _digest(table))


@pytest.fixture
def recorded(monkeypatch):
    """Record every ``solve()`` call and every BDD manager created."""
    solves, managers = [], []
    solve, init = Solver.solve, BDD.__init__

    def recording_solve(self, assumptions=()):
        result = solve(self, assumptions)
        solves.append(_solve_record(self, result))
        return result

    def recording_init(self, variables):
        init(self, variables)
        managers.append(self)

    monkeypatch.setattr(Solver, "solve", recording_solve)
    monkeypatch.setattr(BDD, "__init__", recording_init)
    return solves, managers


# -- the query_inline benchmark queries ------------------------------------ #

MODELS = {
    "muller_pipeline_8": lambda: stglib.muller_pipeline(8),
    "muller_pipeline_12": lambda: stglib.muller_pipeline(12),
    "dining_philosophers_8": lambda: petrilib.dining_philosophers(8),
    "vme_read": stglib.vme_read,
    "vme_read_csc": stglib.vme_read_csc,
    "vme_read_write": stglib.vme_read_write,
}

#: job -> (verdict, solve() records in call order, manager records)
GOLDEN_QUERIES = {
    "bdd/csc/muller_pipeline_8": (
        "no-conflict",
        [
            (False, 136, 591, 0, 0, 0, 136, 0, None),
            (False, 326, 1628, 2, 2, 1, 336, 0, None),
            (False, 516, 2665, 9, 9, 7, 684, 0, None),
            (False, 706, 3702, 30, 30, 27, 1556, 0, None),
            (False, 896, 4739, 95, 95, 118, 5091, 0, None),
            (False, 1086, 5776, 295, 295, 379, 17640, 1, None),
            (False, 1276, 6813, 570, 570, 845, 38933, 2, None),
        ],
        [(29453, 64483, 4199, "575e7086061da35a")],
    ),
    "bdd/csc/vme_read": (
        "conflict",
        [],
        [(441, 933, 91, "de272599b492aea4")],
    ),
    "bdd/csc/vme_read_csc": (
        "no-conflict",
        [
            (False, 91, 217, 0, 0, 0, 91, 0, None),
            (False, 218, 648, 2, 2, 1, 217, 0, None),
            (False, 345, 1079, 9, 9, 7, 589, 0, None),
            (False, 472, 1510, 23, 23, 20, 1535, 0, None),
            (False, 599, 1941, 45, 45, 45, 3542, 0, None),
            (False, 726, 2372, 89, 89, 100, 7862, 0, None),
            (False, 853, 2803, 155, 155, 195, 14384, 0, None),
        ],
        [(654, 1396, 119, "2d4ab5eea5c00789")],
    ),
    "bdd/csc/vme_read_write": (
        "conflict",
        [],
        [(1153, 2830, 178, "34e55b749b327585")],
    ),
    "bdd/deadlock/dining_philosophers_8": (
        "deadlock",
        [],
        [(19344, 33158, 3398, "3ba395ce807aaa80")],
    ),
    "bdd/deadlock/muller_pipeline_12": (
        "deadlock-free",
        [
            (False, 71, 379, 0, 0, 0, 71, 0, None),
            (False, 168, 998, 0, 1, 0, 167, 0, None),
            (False, 265, 1617, 0, 2, 0, 259, 0, None),
            (False, 362, 2236, 0, 3, 0, 353, 0, None),
            (False, 459, 2855, 0, 4, 0, 452, 0, None),
            (False, 556, 3474, 0, 5, 0, 560, 0, None),
            (False, 653, 4093, 0, 6, 0, 682, 0, None),
        ],
        [(39156, 63829, 10088, "8f2def551a19b2dc")],
    ),
    "sat/csc/vme_read": (
        "conflict",
        [
            (False, 74, 173, 0, 0, 0, 74, 0, None),
            (False, 178, 526, 2, 2, 1, 181, 0, None),
            (False, 282, 879, 9, 9, 7, 496, 0, None),
            (False, 386, 1232, 26, 26, 22, 1542, 0, None),
            (False, 490, 1585, 47, 47, 46, 3169, 0, None),
            (False, 594, 1938, 93, 93, 105, 7519, 0, None),
            (False, 698, 2291, 186, 186, 219, 17297, 0, None),
            (False, 802, 2644, 341, 341, 432, 34206, 1, None),
            (False, 906, 2997, 529, 529, 680, 59125, 2, None),
            (True, 1010, 3350, 628, 628, 856, 75206, 2, "3f1deec64dda0453"),
        ],
        [],
    ),
    "sat/deadlock/dining_philosophers_8": (
        "deadlock",
        [
            (False, 49, 193, 0, 0, 0, 49, 0, None),
            (True, 138, 595, 1, 1, 16, 140, 0, "2bb606351832ebcf"),
            (True, 138, 626, 1, 1, 1, 142, 0, "47ab80a96fc3becc"),
        ],
        [],
    ),
    "sat/deadlock/muller_pipeline_12": (
        "deadlock-free",
        [
            (False, 71, 379, 0, 0, 0, 71, 0, None),
            (False, 168, 951, 7, 8, 14, 616, 0, None),
            (False, 71, 379, 0, 0, 0, 71, 0, None),
            (False, 168, 998, 0, 1, 0, 167, 0, None),
            (False, 265, 1617, 0, 2, 0, 259, 0, None),
            (False, 362, 2236, 0, 3, 0, 353, 0, None),
            (False, 459, 2855, 0, 4, 0, 452, 0, None),
            (False, 556, 3474, 0, 5, 0, 560, 0, None),
            (False, 653, 4093, 0, 6, 0, 682, 0, None),
        ],
        [],
    ),
}


@pytest.mark.parametrize("job", sorted(GOLDEN_QUERIES))
def test_query_inline_search_is_pinned(job, recorded):
    engine, check, model = job.split("/")
    solves, managers = recorded
    verdict = getattr(portfolio, "check_" + check)(
        MODELS[model](), engines=[engine], inline=True)
    want_verdict, want_solves, want_managers = GOLDEN_QUERIES[job]
    assert verdict.verdict == want_verdict
    assert solves == want_solves
    assert [_manager_record(bdd) for bdd in managers] == want_managers


# -- seeded CNF instances -------------------------------------------------- #

def random_3sat(rng, n_vars, n_clauses):
    return [[rng.choice((1, -1)) * v
             for v in rng.sample(range(1, n_vars + 1), 3)]
            for _ in range(n_clauses)]


def pigeonhole(pigeons, holes):
    """Every pigeon in a hole, no two in one: unsatisfiable if
    ``pigeons > holes``."""
    x = [[p * holes + h + 1 for h in range(holes)] for p in range(pigeons)]
    clauses = [list(row) for row in x]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([-x[p1][h], -x[p2][h]])
    return pigeons * holes, clauses


def satisfying_set(n_vars, clauses):
    """Bit ``a`` is set iff assignment ``a`` (bit ``v - 1`` the value of
    variable ``v``) satisfies every clause: brute force over all
    ``2 ** n_vars`` assignments at once."""
    full = (1 << (1 << n_vars)) - 1
    true_of = [0]
    for v in range(1, n_vars + 1):
        block = 1 << (v - 1)
        period = full // ((1 << (2 * block)) - 1)
        true_of.append(period * (((1 << block) - 1) << block))
    result = full
    for clause in clauses:
        mask = 0
        for lit in clause:
            mask |= true_of[lit] if lit > 0 else full ^ true_of[-lit]
        result &= mask
    return result


def run_instances(forced):
    """Solve the seeded instances; returns ``(records, reductions,
    rescaled)``.

    Each random 3-SAT instance is solved once without and three times
    under assumptions, on one incremental solver; every verdict is
    checked against :func:`satisfying_set` and every model against the
    clauses and the assumptions.  Pigeonhole(6, 5) is solved once and
    must be unsatisfiable.  ``forced`` starts each solver at
    ``_max_learnts = 5`` and ``_var_inc = 1e99``, so learnt-clause
    deletion and the activity rescale run; ``reductions`` counts the
    database reductions and ``rescaled`` the solvers that rescaled.
    """
    rng = random.Random(2003)
    instances = [(n, random_3sat(rng, n, round(4.3 * n)), 3)
                 for n in (12, 13, 14, 15, 16) for _ in range(8)]
    instances.append(pigeonhole(6, 5) + (0,))
    records, reductions, rescaled = [], 0, 0
    for n_vars, clauses, n_assumed in instances:
        solver = Solver()
        if forced:
            solver._max_learnts = 5
            solver._var_inc = 1e99
        solver.ensure_vars(n_vars)
        ok = all([solver.add_clause(clause) for clause in clauses])
        queries = [[]] + [[rng.choice((1, -1)) * v
                           for v in rng.sample(range(1, n_vars + 1), 3)]
                          for _ in range(n_assumed)]
        for assumptions in queries:
            result = solver.solve(assumptions)
            units = [[lit] for lit in assumptions]
            if n_assumed:
                assert result == (ok and satisfying_set(
                    n_vars, clauses + units) != 0)
            else:
                assert not result
            if result:
                for clause in clauses + units:
                    assert any(solver.model_value(lit) for lit in clause)
            records.append(_solve_record(solver, result))
        if forced:
            limit = 5
            while limit < solver._max_learnts:
                limit *= 1.1
                reductions += 1
            rescaled += solver._var_inc < 1e99
    return records, reductions, rescaled


#: forced -> (solve calls, satisfiable calls, digest of the solve()
#: records, reductions, solvers rescaled)
GOLDEN_INSTANCES = {
    False: (161, 44, "13fceae50f9c5f9b", 0, 0),
    True: (161, 44, "c86a36f3c76d70e1", 82, 15),
}


@pytest.mark.parametrize("forced", [False, True], ids=["default", "forced"])
def test_seeded_instances_search_is_pinned(forced):
    records, reductions, rescaled = run_instances(forced)
    got = (len(records), sum(1 for record in records if record[0]),
           _digest(repr(records)), reductions, rescaled)
    assert got == GOLDEN_INSTANCES[forced]
    if forced:  # only worth pinning if both paths run
        assert reductions > 0 and rescaled > 0
