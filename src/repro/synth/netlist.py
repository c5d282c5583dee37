"""Gate netlists: the output of logic synthesis (paper, Section 3).

A :class:`Netlist` maps each non-input signal to a :class:`Gate`.  Three
gate kinds cover the architectures in the paper's Figures 8, 9 and 11:

* ``COMB`` — an atomic complex gate computing ``next = f(signals)``; the
  function may reference the gate's own output (combinational feedback),
  which is how complex gates such as ``csc0 = DSr (csc0 + LDTACK')`` are
  realised as single atomic gates;
* ``C_ELEMENT`` — a (generalized) Muller C-element with *set* and *reset*
  functions: ``next = S + Q·R'`` (for the classic two-input C-element,
  ``S = ab`` and ``R = a'b'``);
* ``SR_LATCH`` — a set/reset latch with configurable dominance
  (the paper's Figure 8(b) uses a reset-dominant RS latch).

The well-known result quoted in Section 3.2 — any circuit implementing the
next-state function of each signal with one atomic gate is speed
independent — is checked by the :mod:`repro.verify` package.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from ..errors import ModelError, SynthesisError
from ..boolmin.expr import BoolExpr, Var, parse_expr


class GateKind(enum.Enum):
    """Implementation style of a gate."""

    COMB = "comb"
    C_ELEMENT = "c-element"
    SR_LATCH = "sr-latch"


class Gate:
    """A gate driving one signal.

    Attributes:
        output: the driven signal name.
        kind: gate kind.
        expr: next-state function for ``COMB`` gates.
        set_expr / reset_expr: excitation functions for latch kinds.
        dominance: for ``SR_LATCH``: "set" or "reset" (which input wins
            when both are active).
    """

    def __init__(self, output: str, kind: GateKind,
                 expr: Optional[BoolExpr] = None,
                 set_expr: Optional[BoolExpr] = None,
                 reset_expr: Optional[BoolExpr] = None,
                 dominance: str = "reset",
                 arbiter: bool = False):
        self.output = output
        self.kind = kind
        self.expr = expr
        self.set_expr = set_expr
        self.reset_expr = reset_expr
        if dominance not in ("set", "reset"):
            raise ModelError("dominance must be 'set' or 'reset'")
        self.dominance = dominance
        # arbiter gates (mutual-exclusion element halves) are allowed to
        # withdraw each other's excitation: the metastability is resolved
        # inside the element (paper, Section 2.1: "cannot be implemented
        # without hazards unless special mutual exclusion elements
        # (arbiters) are used").  The verifier exempts them from the
        # persistency check.
        self.arbiter = arbiter
        if kind == GateKind.COMB:
            if expr is None:
                raise ModelError("COMB gate %r needs expr" % output)
        else:
            if set_expr is None or reset_expr is None:
                raise ModelError("%s gate %r needs set and reset functions"
                                 % (kind.value, output))

    @classmethod
    def comb(cls, output: str, expr) -> "Gate":
        """Combinational/complex gate from an expression or string."""
        if isinstance(expr, str):
            expr = parse_expr(expr)
        return cls(output, GateKind.COMB, expr=expr)

    @classmethod
    def c_element(cls, output: str, set_expr, reset_expr) -> "Gate":
        """Generalized C-element: ``next = S + Q·R'``."""
        if isinstance(set_expr, str):
            set_expr = parse_expr(set_expr)
        if isinstance(reset_expr, str):
            reset_expr = parse_expr(reset_expr)
        return cls(output, GateKind.C_ELEMENT,
                   set_expr=set_expr, reset_expr=reset_expr)

    @classmethod
    def classic_c_element(cls, output: str, a: str, b: str,
                          invert_a: bool = False,
                          invert_b: bool = False) -> "Gate":
        """Two-input Muller C-element on signals ``a`` and ``b`` (optionally
        with input bubbles): rises when both (possibly inverted) inputs are
        1, falls when both are 0, holds otherwise."""
        va: BoolExpr = Var(a)
        vb: BoolExpr = Var(b)
        if invert_a:
            va = ~va
        if invert_b:
            vb = ~vb
        return cls.c_element(output, va & vb, (~va) & (~vb))

    @classmethod
    def sr_latch(cls, output: str, set_expr, reset_expr,
                 dominance: str = "reset") -> "Gate":
        """SR latch with explicit dominance."""
        if isinstance(set_expr, str):
            set_expr = parse_expr(set_expr)
        if isinstance(reset_expr, str):
            reset_expr = parse_expr(reset_expr)
        return cls(output, GateKind.SR_LATCH,
                   set_expr=set_expr, reset_expr=reset_expr,
                   dominance=dominance)

    @classmethod
    def buffer(cls, output: str, source: str) -> "Gate":
        """A buffer (wire) gate ``output = source``."""
        return cls.comb(output, Var(source))

    @classmethod
    def mutex_pair(cls, grant1: str, grant2: str,
                   request1: str, request2: str) -> Tuple["Gate", "Gate"]:
        """A mutual-exclusion (ME) element as two coupled arbiter gates.

        ``grant_i`` rises when ``request_i`` is high and the other grant is
        low; when both requests arrive simultaneously the element makes a
        non-deterministic choice (the verifier explores both orders and
        does not flag the mutual disabling as a hazard)."""
        g1 = cls(grant1, GateKind.COMB,
                 expr=Var(request1) & ~Var(grant2), arbiter=True)
        g2 = cls(grant2, GateKind.COMB,
                 expr=Var(request2) & ~Var(grant1), arbiter=True)
        return g1, g2

    # ------------------------------------------------------------------ #

    def inputs(self) -> Set[str]:
        """Signals read by the gate (excluding the implicit own output for
        latch kinds; including it for feedback COMB gates)."""
        if self.kind == GateKind.COMB:
            return set(self.expr.support())
        return set(self.set_expr.support()) | set(self.reset_expr.support())

    def next_value(self, values: Mapping[str, int]) -> int:
        """The gate's implied output value for a signal-value assignment."""
        q = values[self.output]
        if self.kind == GateKind.COMB:
            return self.expr.eval(values)
        s = self.set_expr.eval(values)
        r = self.reset_expr.eval(values)
        if self.kind == GateKind.C_ELEMENT:
            # S + Q·R' ; simultaneous S and R is a design error surfaced
            # by verification, resolved here as set-dominant.
            return 1 if s or (q and not r) else 0
        if self.dominance == "reset":
            return 1 if (not r) and (s or q) else 0
        return 1 if s or (q and not r) else 0

    def describe(self) -> str:
        """Equation-style description."""
        if self.kind == GateKind.COMB:
            return "%s = %s" % (self.output, self.expr)
        return "%s = %s(set: %s, reset: %s%s)" % (
            self.output,
            "C" if self.kind == GateKind.C_ELEMENT else "SR",
            self.set_expr, self.reset_expr,
            "" if self.kind == GateKind.C_ELEMENT
            else ", %s-dominant" % self.dominance,
        )

    def __repr__(self):
        return "Gate(%s)" % self.describe()


class Netlist:
    """A collection of gates implementing an STG's non-input signals.

    ``initial`` maps gate outputs to their reset values.  The synthesis
    functions, and :func:`repro.tech.decompose` for all but its
    temporaries, record each gate's value in the initial state of the
    state graph they synthesised from; :func:`repro.verify.verify_circuit`
    starts internal signals there instead of settling them.
    """

    def __init__(self, name: str, inputs: Iterable[str] = ()):
        self.name = name
        self.inputs: List[str] = sorted(inputs)
        self.gates: Dict[str, Gate] = {}
        self.initial: Dict[str, int] = {}

    def add(self, gate: Gate) -> Gate:
        """Add a gate; one driver per signal."""
        if gate.output in self.gates:
            raise ModelError("signal %r already driven" % gate.output)
        if gate.output in self.inputs:
            raise ModelError("cannot drive input signal %r" % gate.output)
        self.gates[gate.output] = gate
        return gate

    @property
    def outputs(self) -> List[str]:
        """All gate-driven signal names, sorted."""
        return sorted(self.gates)

    def signals(self) -> List[str]:
        """All signals appearing in the netlist (inputs + driven)."""
        names = set(self.inputs) | set(self.gates)
        for g in self.gates.values():
            names |= g.inputs()
        return sorted(names)

    def validate(self) -> None:
        """Every referenced signal must be an input or gate-driven."""
        driven = set(self.inputs) | set(self.gates)
        for g in self.gates.values():
            missing = g.inputs() - driven - {g.output}
            if missing:
                raise SynthesisError(
                    "gate %r reads undriven signals %s"
                    % (g.output, sorted(missing))
                )

    def gate_count(self) -> int:
        """Number of gates in the netlist."""
        return len(self.gates)

    def literal_count(self) -> int:
        """Total literal count over all gate functions (area proxy)."""
        def count(expr: BoolExpr) -> int:
            from ..boolmin.expr import And, Const, Not, Or, Var as V
            if isinstance(expr, V):
                return 1
            if isinstance(expr, Not):
                return count(expr.arg)
            if isinstance(expr, (And, Or)):
                return sum(count(a) for a in expr.args)
            return 0

        total = 0
        for g in self.gates.values():
            if g.kind == GateKind.COMB:
                total += count(g.expr)
            else:
                total += count(g.set_expr) + count(g.reset_expr)
        return total

    def to_eqn(self) -> str:
        """Equations block in the paper's style."""
        lines = ["# netlist %s" % self.name,
                 "# inputs: %s" % " ".join(self.inputs)]
        for out in sorted(self.gates):
            lines.append(self.gates[out].describe())
        return "\n".join(lines)

    def to_verilog(self) -> str:
        """Behavioural Verilog for simulation with commercial tools —
        the validation path mentioned in Section 6 of the paper."""
        ports = self.inputs + self.outputs
        lines = ["module %s(%s);" % (self.name.replace("-", "_"),
                                     ", ".join(ports))]
        for s in self.inputs:
            lines.append("  input %s;" % s)
        for s in self.outputs:
            lines.append("  output %s;" % s)
        for out in sorted(self.gates):
            g = self.gates[out]
            if g.kind == GateKind.COMB:
                lines.append("  assign %s = %s;" % (out, _verilog_expr(g.expr)))
            else:
                lines.append("  // %s realised as %s" % (out, g.kind.value))
                lines.append("  assign %s = (%s) | (%s & ~(%s));" % (
                    out, _verilog_expr(g.set_expr), out,
                    _verilog_expr(g.reset_expr)))
        lines.append("endmodule")
        return "\n".join(lines)

    def __repr__(self):
        return "Netlist(%r, gates=%d)" % (self.name, len(self.gates))


def _verilog_expr(expr: BoolExpr) -> str:
    from ..boolmin.expr import And, Const, Not, Or, Var as V

    if isinstance(expr, V):
        return expr.name
    if isinstance(expr, Const):
        return "1'b%d" % expr.value
    if isinstance(expr, Not):
        return "~(%s)" % _verilog_expr(expr.arg)
    if isinstance(expr, And):
        return " & ".join("(%s)" % _verilog_expr(a) for a in expr.args)
    if isinstance(expr, Or):
        return " | ".join("(%s)" % _verilog_expr(a) for a in expr.args)
    raise ModelError("unknown expression node %r" % expr)
