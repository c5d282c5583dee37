"""ROBDD engine: core operations vs truth tables, incl. property tests."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd import BDD, FALSE, TRUE
from repro.boolmin import Var, parse_expr


def build(bdd: BDD, expr):
    """Compile a BoolExpr into the manager."""
    from repro.boolmin.expr import And, Const, Not, Or, Var as V

    if isinstance(expr, Const):
        return TRUE if expr.value else FALSE
    if isinstance(expr, V):
        return bdd.var(expr.name)
    if isinstance(expr, Not):
        return bdd.apply_not(build(bdd, expr.arg))
    if isinstance(expr, And):
        return bdd.conj([build(bdd, a) for a in expr.args])
    if isinstance(expr, Or):
        return bdd.disj([build(bdd, a) for a in expr.args])
    raise AssertionError(expr)


NAMES = ["a", "b", "c"]


class TestCore:
    def test_var_structure(self):
        bdd = BDD(NAMES)
        u = bdd.var("a")
        assert bdd.low(u) == FALSE and bdd.high(u) == TRUE

    def test_hash_consing(self):
        bdd = BDD(NAMES)
        assert bdd.var("a") == bdd.var("a")
        e1 = build(bdd, parse_expr("a & b | c"))
        e2 = build(bdd, parse_expr("c | b & a"))
        assert e1 == e2  # canonical

    def test_tautology_and_contradiction(self):
        bdd = BDD(NAMES)
        assert build(bdd, parse_expr("a | ~a")) == TRUE
        assert build(bdd, parse_expr("a & ~a")) == FALSE

    def test_eval(self):
        bdd = BDD(NAMES)
        f = build(bdd, parse_expr("a & ~b"))
        assert bdd.eval(f, {"a": 1, "b": 0, "c": 0}) == TRUE
        assert bdd.eval(f, {"a": 1, "b": 1, "c": 0}) == FALSE

    def test_restrict(self):
        bdd = BDD(NAMES)
        f = build(bdd, parse_expr("a & b | ~a & c"))
        assert bdd.restrict(f, "a", 1) == bdd.var("b")
        assert bdd.restrict(f, "a", 0) == bdd.var("c")

    def test_exists(self):
        bdd = BDD(NAMES)
        f = build(bdd, parse_expr("a & b"))
        assert bdd.exists(f, ["a"]) == bdd.var("b")
        assert bdd.exists(f, ["a", "b"]) == TRUE

    def test_satcount(self):
        bdd = BDD(NAMES)
        assert bdd.satcount(TRUE) == 8
        assert bdd.satcount(FALSE) == 0
        assert bdd.satcount(bdd.var("a")) == 4
        f = build(bdd, parse_expr("a & b | c"))
        expected = sum(
            1 for vals in itertools.product((0, 1), repeat=3)
            if (vals[0] and vals[1]) or vals[2]
        )
        assert bdd.satcount(f) == expected

    def test_sat_all(self):
        bdd = BDD(NAMES)
        f = build(bdd, parse_expr("a & ~c"))
        sols = list(bdd.sat_all(f))
        assert len(sols) == 2
        for env in sols:
            assert env["a"] == 1 and env["c"] == 0

    def test_from_cube(self):
        bdd = BDD(NAMES)
        f = bdd.from_cube({"a": 1, "c": 0})
        assert bdd.satcount(f) == 2


exprs = st.sampled_from([
    "a", "~a", "a & b", "a | b", "a & b | ~c", "(a | b) & (b | c)",
    "a & ~a | c", "~(a & b) | c", "a & b & c", "a | b | c",
])


@given(exprs, exprs)
@settings(max_examples=60, deadline=None)
def test_ops_match_truth_tables(e1, e2):
    bdd = BDD(NAMES)
    x1, x2 = parse_expr(e1), parse_expr(e2)
    f1, f2 = build(bdd, x1), build(bdd, x2)
    for vals in itertools.product((0, 1), repeat=3):
        env = dict(zip(NAMES, vals))
        assert bdd.eval(f1, env) == x1.eval(env)
        assert bdd.eval(bdd.apply_and(f1, f2), env) == (
            x1.eval(env) & x2.eval(env))
        assert bdd.eval(bdd.apply_or(f1, f2), env) == (
            x1.eval(env) | x2.eval(env))
        assert bdd.eval(bdd.apply_xor(f1, f2), env) == (
            x1.eval(env) ^ x2.eval(env))


@given(exprs)
@settings(max_examples=40, deadline=None)
def test_exists_semantics(e):
    bdd = BDD(NAMES)
    x = parse_expr(e)
    f = build(bdd, x)
    g = bdd.exists(f, ["b"])
    for vals in itertools.product((0, 1), repeat=3):
        env = dict(zip(NAMES, vals))
        expected = max(x.eval({**env, "b": 0}), x.eval({**env, "b": 1}))
        assert bdd.eval(g, env) == expected


@given(exprs)
@settings(max_examples=40, deadline=None)
def test_satcount_matches_enumeration(e):
    bdd = BDD(NAMES)
    x = parse_expr(e)
    f = build(bdd, x)
    expected = sum(
        x.eval(dict(zip(NAMES, vals)))
        for vals in itertools.product((0, 1), repeat=3)
    )
    assert bdd.satcount(f) == expected
    assert len(list(bdd.sat_all(f))) == expected


@given(exprs)
@settings(max_examples=40, deadline=None)
def test_pick_returns_satisfying_assignment(e):
    bdd = BDD(NAMES)
    x = parse_expr(e)
    f = build(bdd, x)
    if f == FALSE:
        with pytest.raises(Exception):
            bdd.pick(f)
        return
    env = bdd.pick(f, NAMES)
    assert set(env) == set(NAMES)
    assert bdd.eval(f, env) == TRUE


@given(exprs)
@settings(max_examples=40, deadline=None)
def test_sat_over_matches_projection(e):
    bdd = BDD(NAMES)
    x = parse_expr(e)
    g = bdd.exists(build(bdd, x), ["b"])
    names = ["a", "c"]
    got = {(a["a"], a["c"]) for a in bdd.sat_over(g, names)}
    expected = {
        (va, vc)
        for va, vc in itertools.product((0, 1), repeat=2)
        if max(x.eval({"a": va, "b": 0, "c": vc}),
               x.eval({"a": va, "b": 1, "c": vc}))
    }
    assert got == expected


def test_sat_over_rejects_hidden_dependencies():
    from repro.errors import ModelError

    bdd = BDD(NAMES)
    f = bdd.var("b")
    with pytest.raises(ModelError):
        list(bdd.sat_over(f, ["a", "c"]))
