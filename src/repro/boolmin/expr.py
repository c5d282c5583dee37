"""Boolean expression AST, parser and printer.

Expressions are used to represent gate functions and synthesized
equations.  Two surface syntaxes are supported:

* Python style: ``DSr & (csc0 | ~LDTACK)``
* eqn style (as printed in the paper): ``DSr (csc0 + LDTACK')``

with implicit AND by juxtaposition, ``+``/``|`` for OR, ``~``/``!`` prefix
or ``'`` postfix for NOT.
"""

from __future__ import annotations

import itertools
import re
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence

from ..errors import ParseError
from .cube import Cube


class BoolExpr:
    """Base class for boolean expressions."""

    def eval(self, env: Dict[str, int]) -> int:
        """Evaluate under an assignment (missing variables raise KeyError)."""
        raise NotImplementedError

    def support(self) -> FrozenSet[str]:
        """The set of variable names appearing in the expression."""
        raise NotImplementedError

    def __and__(self, other: "BoolExpr") -> "BoolExpr":
        return And.of(self, other)

    def __or__(self, other: "BoolExpr") -> "BoolExpr":
        return Or.of(self, other)

    def __invert__(self) -> "BoolExpr":
        return Not(self)

    # printing ---------------------------------------------------------- #

    def to_str(self, style: str = "python") -> str:
        """Render in the given surface syntax ("python" or "eqn")."""
        raise NotImplementedError

    def __str__(self):
        return self.to_str("eqn")

    def __repr__(self):
        return "BoolExpr(%s)" % self.to_str("python")

    def __eq__(self, other):
        return isinstance(other, BoolExpr) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def _key(self):
        raise NotImplementedError


class Const(BoolExpr):
    """Boolean constant 0 or 1."""

    def __init__(self, value: int):
        self.value = 1 if value else 0

    def eval(self, env):
        return self.value

    def support(self):
        return frozenset()

    def to_str(self, style="python"):
        """Render the constant."""
        return str(self.value)

    def _key(self):
        return ("const", self.value)


TRUE = Const(1)
FALSE = Const(0)


class Var(BoolExpr):
    """A named variable."""

    def __init__(self, name: str):
        self.name = name

    def eval(self, env):
        return 1 if env[self.name] else 0

    def support(self):
        return frozenset([self.name])

    def to_str(self, style="python"):
        """Render the variable name."""
        return self.name

    def _key(self):
        return ("var", self.name)


class Not(BoolExpr):
    """Negation."""

    def __init__(self, arg: BoolExpr):
        self.arg = arg

    def eval(self, env):
        return 1 - self.arg.eval(env)

    def support(self):
        return self.arg.support()

    def to_str(self, style="python"):
        """Render the negation (postfix quote in eqn style)."""
        inner = self.arg.to_str(style)
        if style == "eqn":
            if isinstance(self.arg, (Var, Const)):
                return inner + "'"
            return "(%s)'" % inner
        if isinstance(self.arg, (Var, Const)):
            return "~" + inner
        return "~(%s)" % inner

    def _key(self):
        return ("not", self.arg._key())


class And(BoolExpr):
    """Conjunction of two or more arguments."""

    def __init__(self, args: Sequence[BoolExpr]):
        self.args = tuple(args)

    @staticmethod
    def of(*args: BoolExpr) -> BoolExpr:
        flat: List[BoolExpr] = []
        for a in args:
            if isinstance(a, And):
                flat.extend(a.args)
            else:
                flat.append(a)
        if any(a == FALSE for a in flat):
            return FALSE
        flat = [a for a in flat if a != TRUE]
        if not flat:
            return TRUE
        if len(flat) == 1:
            return flat[0]
        return And(flat)

    def eval(self, env):
        return 1 if all(a.eval(env) for a in self.args) else 0

    def support(self):
        return frozenset().union(*(a.support() for a in self.args))

    def to_str(self, style="python"):
        """Render the conjunction (juxtaposition in eqn style)."""
        parts = []
        for a in self.args:
            s = a.to_str(style)
            if isinstance(a, Or):
                s = "(%s)" % s
            parts.append(s)
        return (" ".join(parts)) if style == "eqn" else " & ".join(parts)

    def _key(self):
        return ("and", tuple(a._key() for a in self.args))


class Or(BoolExpr):
    """Disjunction of two or more arguments."""

    def __init__(self, args: Sequence[BoolExpr]):
        self.args = tuple(args)

    @staticmethod
    def of(*args: BoolExpr) -> BoolExpr:
        flat: List[BoolExpr] = []
        for a in args:
            if isinstance(a, Or):
                flat.extend(a.args)
            else:
                flat.append(a)
        if any(a == TRUE for a in flat):
            return TRUE
        flat = [a for a in flat if a != FALSE]
        if not flat:
            return FALSE
        if len(flat) == 1:
            return flat[0]
        return Or(flat)

    def eval(self, env):
        return 1 if any(a.eval(env) for a in self.args) else 0

    def support(self):
        return frozenset().union(*(a.support() for a in self.args))

    def to_str(self, style="python"):
        """Render the disjunction ('+' in eqn style)."""
        sep = " + " if style == "eqn" else " | "
        return sep.join(a.to_str(style) for a in self.args)

    def _key(self):
        return ("or", tuple(a._key() for a in self.args))


# ---------------------------------------------------------------------- #
# parsing
# ---------------------------------------------------------------------- #

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<ident>[A-Za-z_][A-Za-z0-9_\[\].]*)|(?P<op>[()&|+*~!'])|"
    r"(?P<const>[01])(?![0-9]))"
)


def _tokenize(text: str) -> List[str]:
    tokens: List[str] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ParseError("cannot tokenize %r at position %d" % (text, pos))
        tokens.append(m.group("ident") or m.group("op") or m.group("const"))
        pos = m.end()
    return tokens


def parse_expr(text: str) -> BoolExpr:
    """Parse a boolean expression in either surface syntax."""
    tokens = _tokenize(text)
    pos = [0]

    def peek() -> Optional[str]:
        return tokens[pos[0]] if pos[0] < len(tokens) else None

    def take() -> str:
        tok = tokens[pos[0]]
        pos[0] += 1
        return tok

    def parse_or() -> BoolExpr:
        terms = [parse_and()]
        while peek() in ("+", "|"):
            take()
            terms.append(parse_and())
        return Or.of(*terms)

    def parse_and() -> BoolExpr:
        factors = [parse_factor()]
        while True:
            nxt = peek()
            if nxt in ("&", "*"):
                take()
                factors.append(parse_factor())
            elif nxt is not None and (nxt == "(" or nxt == "~" or nxt == "!"
                                      or nxt not in ("+", "|", ")", "'")):
                factors.append(parse_factor())
            else:
                break
        return And.of(*factors)

    def parse_factor() -> BoolExpr:
        nxt = peek()
        if nxt is None:
            raise ParseError("unexpected end of expression")
        if nxt in ("~", "!"):
            take()
            return _postfix(Not(parse_factor()))
        if nxt == "(":
            take()
            inner = parse_or()
            if peek() != ")":
                raise ParseError("missing closing parenthesis")
            take()
            return _postfix(inner)
        if nxt in ("0", "1"):
            take()
            return _postfix(Const(int(nxt)))
        take()
        return _postfix(Var(nxt))

    def _postfix(expr: BoolExpr) -> BoolExpr:
        while peek() == "'":
            take()
            expr = Not(expr)
        return expr

    result = parse_or()
    if pos[0] != len(tokens):
        raise ParseError("trailing tokens in %r" % text)
    return result


# ---------------------------------------------------------------------- #
# conversions and semantic checks
# ---------------------------------------------------------------------- #

def from_cubes(cubes: Iterable[Cube], names: Sequence[str]) -> BoolExpr:
    """Build an SOP expression from positional cubes and variable names."""
    terms: List[BoolExpr] = []
    for cube in cubes:
        literals: List[BoolExpr] = []
        for value, name in zip(cube, names):
            if value is None:
                continue
            literals.append(Var(name) if value else Not(Var(name)))
        terms.append(And.of(*literals) if literals else TRUE)
    return Or.of(*terms) if terms else FALSE


def all_assignments(names: Sequence[str]):
    """Iterate over all 0/1 assignments of the given variables."""
    for values in itertools.product((0, 1), repeat=len(names)):
        yield dict(zip(names, values))


def equivalent(a: BoolExpr, b: BoolExpr,
               care: Optional[Iterable[Dict[str, int]]] = None,
               max_vars: int = 22) -> bool:
    """Semantic equivalence by exhaustive evaluation.

    If ``care`` is given, equality is only required on those assignments
    (don't-care equivalence — how the paper's equations are compared with
    synthesized ones on the reachable codes).
    """
    if care is not None:
        return all(a.eval(env) == b.eval(env) for env in care)
    names = sorted(a.support() | b.support())
    if len(names) > max_vars:
        raise ParseError("equivalence check over %d variables refused"
                         % len(names))
    return all(a.eval(env) == b.eval(env) for env in all_assignments(names))


def expr_to_cubes(expr: BoolExpr, names: Sequence[str]) -> List[Cube]:
    """Exhaustive SOP extraction: evaluate every assignment, then minimise
    the completely specified function."""
    from .quine_mccluskey import minimize

    onset: List[int] = []
    offset: List[int] = []
    for i, env in enumerate(all_assignments(names)):
        (onset if expr.eval(env) else offset).append(i)
    return minimize(onset, offset, len(names))
