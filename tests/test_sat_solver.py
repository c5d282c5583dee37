"""Unit tests for the CNF layer and the CDCL solver.

The solver is cross-checked against exhaustive enumeration on hundreds of
random small formulas (SAT/UNSAT verdict *and* model validity), then
exercised on structured instances (pigeonhole, implication chains) and on
the incremental/assumption interface the BMC loop depends on.
"""

import itertools
import random

import pytest

from repro.errors import ModelError
from repro.sat.cnf import CNF
from repro.sat.solver import Solver, luby


def brute_force_sat(num_vars, clauses):
    for bits in itertools.product([False, True], repeat=num_vars):
        if all(any((lit > 0) == bits[abs(lit) - 1] for lit in clause)
               for clause in clauses):
            return True
    return False


class TestCNF:
    def test_named_variables_are_stable(self):
        cnf = CNF()
        a = cnf.var("a")
        b = cnf.var("b")
        assert a != b
        assert cnf.var("a") == a
        assert cnf.name_of(a) == "a"

    def test_duplicate_explicit_name_rejected(self):
        cnf = CNF()
        cnf.new_var("x")
        with pytest.raises(ModelError):
            cnf.new_var("x")

    def test_clause_literal_validation(self):
        cnf = CNF()
        cnf.new_var()
        with pytest.raises(ModelError):
            cnf.add_clause(2)
        with pytest.raises(ModelError):
            cnf.add_clause(0)

    @pytest.mark.parametrize("gate,table", [
        ("and", lambda a, b: a and b),
        ("or", lambda a, b: a or b),
        ("xor", lambda a, b: a != b),
    ])
    def test_tseitin_gates_match_truth_tables(self, gate, table):
        for va, vb in itertools.product([False, True], repeat=2):
            cnf = CNF()
            a, b = cnf.new_var(), cnf.new_var()
            out = cnf.tseitin((gate, a, b))
            cnf.add_clause(a if va else -a)
            cnf.add_clause(b if vb else -b)
            solver = Solver(cnf)
            assert solver.solve()
            assert solver.model_value(out) == table(va, vb)

    def test_tseitin_nested_expression(self):
        # (a & ~b) | (b ^ c) evaluated on all 8 assignments
        for va, vb, vc in itertools.product([False, True], repeat=3):
            cnf = CNF()
            a, b, c = (cnf.var(n) for n in "abc")
            out = cnf.tseitin(("or", ("and", a, ("not", b)), ("xor", b, c)))
            for var, val in ((a, va), (b, vb), (c, vc)):
                cnf.add_clause(var if val else -var)
            solver = Solver(cnf)
            assert solver.solve()
            assert solver.model_value(out) == ((va and not vb) or (vb != vc))

    @pytest.mark.parametrize("n", [2, 3, 6, 9, 15])
    def test_at_most_one_blocks_pairs(self, n):
        # both the pairwise and the sequential encoding regimes
        cnf = CNF()
        lits = [cnf.new_var() for _ in range(n)]
        cnf.at_most_one(lits)
        solver = Solver(cnf)
        assert solver.solve([lits[0]])
        assert solver.solve([lits[n - 1]])
        assert not solver.solve([lits[0], lits[n - 1]])
        assert not solver.solve([lits[n // 2 - 1], lits[n // 2]])

    def test_exactly_one(self):
        cnf = CNF()
        lits = [cnf.new_var() for _ in range(5)]
        cnf.exactly_one(lits)
        solver = Solver(cnf)
        assert solver.solve()
        assert sum(solver.model_value(lit) for lit in lits) == 1
        assert not solver.solve([-lit for lit in lits])

    def test_dimacs_round_trip(self):
        cnf = CNF()
        a, b, c = cnf.new_var(), cnf.new_var(), cnf.new_var()
        cnf.add_clause(a, -b)
        cnf.add_clause(-a, b, c)
        cnf.add_clause(-c)
        text = cnf.to_dimacs(comments=["round trip"])
        back = CNF.from_dimacs(text)
        assert back.num_vars == cnf.num_vars
        assert back.clauses == cnf.clauses
        assert CNF.from_dimacs(back.to_dimacs()).clauses == cnf.clauses

    def test_dimacs_malformed(self):
        with pytest.raises(ModelError):
            CNF.from_dimacs("p cnf 2\n1 0\n")
        with pytest.raises(ModelError):
            CNF.from_dimacs("p cnf 2 1\n1 2\n")  # missing terminator
        with pytest.raises(ModelError):
            CNF.from_dimacs("p cnf 2 5\n1 0\n")  # clause count mismatch


class TestSolverRandom:
    def test_verdicts_match_brute_force(self):
        rng = random.Random(42)
        for _ in range(300):
            num_vars = rng.randint(2, 8)
            clauses = []
            for _ in range(rng.randint(1, 28)):
                width = rng.randint(1, 3)
                clauses.append(tuple(
                    rng.choice([1, -1]) * rng.randint(1, num_vars)
                    for _ in range(width)))
            solver = Solver()
            solver.ensure_vars(num_vars)
            ok = True
            for clause in clauses:
                ok = solver.add_clause(clause) and ok
            verdict = solver.solve() if ok else False
            assert verdict == brute_force_sat(num_vars, clauses)
            if verdict:
                for clause in clauses:
                    assert any(solver.model_value(lit) for lit in clause)

    def test_assumption_verdicts_match_brute_force(self):
        rng = random.Random(7)
        for _ in range(100):
            num_vars = rng.randint(3, 7)
            clauses = [tuple(rng.choice([1, -1]) * rng.randint(1, num_vars)
                             for _ in range(rng.randint(1, 3)))
                       for _ in range(rng.randint(2, 18))]
            solver = Solver()
            solver.ensure_vars(num_vars)
            ok = all([solver.add_clause(c) for c in clauses])
            for _ in range(4):  # several incremental calls on one instance
                assumed = [rng.choice([1, -1]) * v
                           for v in rng.sample(range(1, num_vars + 1),
                                               rng.randint(0, num_vars))]
                expected = ok and brute_force_sat(
                    num_vars, clauses + [(lit,) for lit in assumed])
                assert solver.solve(assumed) == expected


class TestSolverStructured:
    def test_pigeonhole_unsat(self):
        pigeons, holes = 5, 4
        cnf = CNF()
        x = [[cnf.new_var() for _ in range(holes)] for _ in range(pigeons)]
        for p in range(pigeons):
            cnf.add_clause(*[x[p][h] for h in range(holes)])
        for h in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    cnf.add_clause(-x[p1][h], -x[p2][h])
        solver = Solver(cnf)
        assert not solver.solve()
        assert solver.conflicts > 0

    def test_long_implication_chain_propagates(self):
        n = 500
        solver = Solver()
        solver.ensure_vars(n)
        for v in range(1, n):
            solver.add_clause([-v, v + 1])
        assert solver.solve([1])
        assert solver.model_value(n)
        assert not solver.solve([1, -n])
        assert solver.solve([-n])

    def test_empty_clause_is_unsat_forever(self):
        solver = Solver()
        solver.ensure_vars(1)
        assert not solver.add_clause([])
        assert not solver.solve()
        assert not solver.solve([1])

    def test_tautology_and_duplicates_ignored(self):
        solver = Solver()
        solver.ensure_vars(2)
        assert solver.add_clause([1, -1])
        assert solver.add_clause([2, 2])
        assert solver.solve([-2]) is False  # [2,2] collapsed to unit 2
        assert solver.solve([2])

    def test_clauses_added_between_solves(self):
        solver = Solver()
        solver.ensure_vars(3)
        solver.add_clause([1, 2, 3])
        assert solver.solve()
        solver.add_clause([-1])
        solver.add_clause([-2])
        assert solver.solve()
        assert solver.model_value(3)
        solver.add_clause([-3])
        assert not solver.solve()

    def test_rejected_assumption_leaves_the_solver_intact(self):
        # every assumption is checked before the search starts: a bad
        # literal used to be enqueued first and then fail, leaving the
        # solver above decision level 0 with a corrupt assignment
        solver = Solver()
        for clause in ([1, 2], [-1, 2], [-2, 3]):
            solver.add_clause(clause)
        for bad in ([0], [1, 0], [1.0], ["1"], [None]):
            with pytest.raises(ModelError, match="bad literal"):
                solver.solve(bad)
        assert solver.solve([1])
        assert [solver.model_value(v) for v in (1, 2, 3)] == [True] * 3
        assert not solver.solve([-3])
        assert solver.add_clause([1, 3])

    def test_model_value_rejects_literals_outside_the_model(self):
        solver = Solver()
        solver.add_clause([1, 2])
        assert solver.solve()
        assert solver.model_value(1) or solver.model_value(2)
        for bad in (0, 3, -3, 1.0):
            with pytest.raises(ModelError):
                solver.model_value(bad)

    def test_model_unavailable_after_unsat(self):
        solver = Solver()
        solver.ensure_vars(1)
        solver.add_clause([1])
        assert solver.solve()
        assert solver.model_value(1)
        with pytest.raises(ModelError):
            Solver().model_value(1)


def test_luby_sequence():
    values = [luby(i, base=1.0) for i in range(15)]
    assert values == [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]
