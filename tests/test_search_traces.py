"""Golden search traces: the CDCL search order and the BDD node order.

Which clauses unit propagation visits, in what order, and which variable
is decided next fix the model a satisfiable ``Solver.solve`` returns and
every counter of ``Solver.stats()``.  The order in which ``BDD.ite`` and
``BDD.image`` create nodes fixes every node id and the ``ite`` cache
counters.  Every witness and every traced counter of the ``sat.solve``
and ``bdd.fixpoint`` spans follows from these orders, so they are
behaviour: a faster kernel must keep them.  The values below were
recorded before the solver's and the manager's inner loops were
rewritten onto local arrays, and hold after.

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
            (False, 360, 1710, 2, 2, 1, 340, 0, None),
            (False, 584, 2829, 9, 9, 7, 751, 0, None),
            (False, 808, 3948, 29, 29, 26, 1843, 0, None),
            (False, 1032, 5067, 81, 81, 100, 5120, 0, None),
            (False, 1256, 6186, 222, 224, 323, 16560, 1, None),
            (False, 1480, 7305, 441, 445, 650, 40005, 2, None),
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
            (False, 240, 700, 2, 2, 1, 223, 0, None),
            (False, 389, 1183, 9, 9, 7, 650, 0, None),
            (False, 538, 1666, 23, 23, 20, 1748, 0, None),
            (False, 687, 2149, 45, 45, 73, 4125, 0, None),
            (False, 836, 2632, 89, 89, 138, 9165, 0, None),
            (False, 985, 3115, 155, 155, 275, 16367, 0, None),
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
            (False, 193, 1072, 0, 1, 0, 167, 0, None),
            (False, 315, 1765, 0, 2, 0, 259, 0, None),
            (False, 437, 2458, 0, 3, 0, 353, 0, None),
            (False, 559, 3151, 0, 4, 0, 452, 0, None),
            (False, 681, 3844, 0, 5, 0, 560, 0, None),
            (False, 803, 4537, 0, 6, 0, 682, 0, None),
        ],
        [(39156, 63829, 10088, "8f2def551a19b2dc")],
    ),
    "sat/csc/vme_read": (
        "conflict",
        [
            (False, 74, 173, 0, 0, 0, 74, 0, None),
            (False, 196, 568, 2, 2, 1, 187, 0, None),
            (False, 318, 963, 9, 9, 7, 548, 0, None),
            (False, 440, 1358, 26, 26, 28, 1780, 0, None),
            (False, 562, 1753, 47, 47, 52, 3610, 0, None),
            (False, 684, 2148, 93, 93, 131, 8463, 0, None),
            (False, 806, 2543, 185, 185, 277, 19157, 0, None),
            (False, 928, 2938, 333, 333, 457, 36232, 1, None),
            (False, 1050, 3333, 486, 486, 733, 57022, 2, None),
            (True, 1172, 3728, 628, 628, 953, 80962, 2, "2850fd23a4e34b79"),
        ],
        [],
    ),
    "sat/deadlock/dining_philosophers_8": (
        "deadlock",
        [
            (False, 49, 193, 0, 0, 0, 49, 0, None),
            (True, 161, 647, 1, 1, 16, 163, 0, "25a6ea61e9677db8"),
            (False, 161, 678, 1, 2, 1, 114, 0, None),
            (True, 305, 1262, 5, 5, 49, 671, 0, "3daa7ed2e99438a3"),
            (False, 273, 1163, 5, 7, 5, 373, 0, None),
            (True, 481, 2006, 17, 17, 137, 2168, 0, "01e3661edb8fcab1"),
            (False, 385, 1648, 14, 17, 16, 1382, 0, None),
            (True, 689, 2879, 28, 28, 197, 3491, 0, "ea5c8993d01e165f"),
            (False, 497, 2133, 38, 42, 47, 4291, 0, None),
            (True, 929, 3881, 33, 33, 259, 5573, 0, "cdeb8c979d45e550"),
            (False, 609, 2618, 134, 139, 181, 18140, 0, None),
            (True, 1201, 5012, 51, 51, 365, 9581, 0, "cd01d93c36dabded"),
            (False, 721, 3103, 439, 445, 628, 59303, 2, None),
            (True, 1505, 6272, 71, 71, 463, 13478, 0, "1a00fcb3325ba3f8"),
            (False, 833, 3588, 944, 951, 1352, 130529, 5, None),
            (True, 1841, 7661, 76, 76, 521, 16797, 0, "8b386de40fbd959b"),
            (True, 945, 4073, 947, 954, 1375, 131528, 5, "1c5b1d80d2db04a3"),
        ],
        [],
    ),
    "sat/deadlock/muller_pipeline_12": (
        "deadlock-free",
        [
            (False, 71, 379, 0, 0, 0, 71, 0, None),
            (False, 193, 1025, 7, 8, 14, 639, 0, None),
            (False, 71, 379, 0, 0, 0, 71, 0, None),
            (False, 193, 1072, 0, 1, 0, 167, 0, None),
            (False, 315, 1765, 0, 2, 0, 259, 0, None),
            (False, 437, 2458, 0, 3, 0, 353, 0, None),
            (False, 559, 3151, 0, 4, 0, 452, 0, None),
            (False, 681, 3844, 0, 5, 0, 560, 0, None),
            (False, 803, 4537, 0, 6, 0, 682, 0, None),
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
    True: (161, 44, "932c779d0af3f599", 79, 15),
}


@pytest.mark.parametrize("forced", [False, True], ids=["default", "forced"])
def test_seeded_instances_search_is_pinned(forced):
    records, reductions, rescaled = run_instances(forced)
    got = (len(records), sum(1 for record in records if record[0]),
           _digest(repr(records)), reductions, rescaled)
    assert got == GOLDEN_INSTANCES[forced]
    if forced:  # only worth pinning if both paths run
        assert reductions > 0 and rescaled > 0
