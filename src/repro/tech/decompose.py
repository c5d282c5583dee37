"""Hazard-free logic decomposition into restricted fan-in gates
(paper, Section 3.4, ref [5]).

The method follows the paper's recipe:

* extract decomposition candidates by **algebraic factorization** of the
  minimized next-state functions (common-literal divisors);
* insert each candidate as a new internal signal;
* rewrite the remaining gates over the extended signal set, exploring
  **resubstitution** alternatives — this is what creates the *multiple
  acknowledgment* of Figure 9(a), where ``map0`` is read by both ``csc0``
  and ``D``;
* check every resulting netlist for speed independence with the
  circuit ⊗ environment composition and keep the first hazard-free one.

The search is bounded and deterministic; for paper-scale controllers it
terminates in well under a second.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..budgets import DECOMPOSE_STATE_BOUND
from ..errors import SynthesisError
from ..boolmin.cube import Cube
from ..boolmin.expr import And, BoolExpr, Not, Or, Var, from_cubes
from ..stg.stg import STG
from ..synth.complex_gate import synthesize_complex_gates
from ..synth.netlist import Gate, GateKind, Netlist
from ..synth.nextstate import derive_all_next_state_functions
from ..ts.state_graph import StateGraph, build_state_graph
from ..verify.composition import verify_circuit
from .library import TWO_INPUT_LIBRARY, is_fully_mapped


def _expr_literals(expr: BoolExpr) -> int:
    if isinstance(expr, Var):
        return 1
    if isinstance(expr, Not):
        return _expr_literals(expr.arg)
    if isinstance(expr, (And, Or)):
        return sum(_expr_literals(a) for a in expr.args)
    return 0


def algebraic_divisors(cubes: Sequence[Cube],
                       variables: Sequence[str]) -> List[BoolExpr]:
    """Candidate divisors of an SOP: for each literal appearing in several
    cubes, the co-factor sum (the paper's algebraic factorization seed).

    For ``csc0 = DSr csc0 + DSr LDTACK'`` the literal ``DSr`` yields the
    divisor ``csc0 + LDTACK'`` — the paper's ``map0``.
    """
    divisors: List[BoolExpr] = []
    seen: Set[str] = set()

    def propose(divisor: BoolExpr) -> None:
        key = divisor.to_str("python")
        if key not in seen and len(divisor.support()) >= 1:
            seen.add(key)
            divisors.append(divisor)

    n = len(variables)
    # common-literal cofactors (kernel seeds)
    for pos in range(n):
        for phase in (1, 0):
            matching = [c for c in cubes if c[pos] == phase]
            if len(matching) < 2:
                continue
            rest_cubes = []
            for c in matching:
                rest = list(c)
                rest[pos] = None
                rest_cubes.append(tuple(rest))
            propose(from_cubes(rest_cubes, variables))
    # AND-decomposition: each multi-literal cube is itself a candidate
    for c in cubes:
        if sum(1 for v in c if v is not None) >= 2:
            propose(from_cubes([c], variables))
    # OR-decomposition: each pair of cubes
    for i in range(len(cubes)):
        for j in range(i + 1, len(cubes)):
            propose(from_cubes([cubes[i], cubes[j]], variables))
    return divisors


def _reachable_extended_codes(sg: StateGraph,
                              defs: Dict[str, BoolExpr]) -> List[Dict[str, int]]:
    """Reachable assignments over spec signals plus defined internal
    decomposition signals (each evaluated from its defining function;
    definitions may reference each other acyclically or via spec signals
    and settle by iteration), one per state in state-number order.  The
    spec signals' values are read from the int codes."""
    rows: List[Dict[str, int]] = []
    top = len(sg.signal_order) - 1
    shifts = [(s, top - k) for k, s in enumerate(sg.signal_order)]
    for code in sg.int_codes:
        env = {s: (code >> shift) & 1 for s, shift in shifts}
        pending = dict(defs)
        for name in pending:
            env.setdefault(name, 0)
        for _ in range(len(pending) + 2):
            for name, expr in pending.items():
                env[name] = expr.eval(env)
        rows.append(env)
    return rows


def _candidate_exprs(target_rows: List[Tuple[Dict[str, int], int]],
                     signals: Sequence[str],
                     max_candidates: int = 8) -> List[BoolExpr]:
    """All fan-in-<=2 expressions matching the target on the care rows."""
    literals: List[BoolExpr] = []
    for s in signals:
        literals.append(Var(s))
        literals.append(Not(Var(s)))

    def matches(expr: BoolExpr) -> bool:
        return all(expr.eval(env) == value for env, value in target_rows)

    results: List[BoolExpr] = []
    for lit in literals:
        if matches(lit):
            results.append(lit)
    for a, b in itertools.combinations(literals, 2):
        if a.support() == b.support():
            continue
        for expr in (And.of(a, b), Or.of(a, b)):
            if matches(expr):
                results.append(expr)
        if len(results) >= max_candidates:
            break
    return results[:max_candidates]


def decompose(stg: STG, max_fanin: int = 2,
              temp_prefix: str = "map",
              max_netlists: int = 400,
              max_states: int = DECOMPOSE_STATE_BOUND) -> Netlist:
    """Decompose the complex-gate implementation of ``stg`` into gates of
    at most ``max_fanin`` literals, hazard-freely.

    The specification must already satisfy CSC.  Returns the first
    speed-independent decomposed netlist found; raises
    :class:`SynthesisError` if the bounded search fails.  Each candidate
    verification is budgeted by
    :data:`repro.budgets.DECOMPOSE_STATE_BOUND` states (pass
    ``max_states=`` to override).
    """
    if max_fanin != 2:
        raise SynthesisError("only two-input decomposition is implemented")
    sg = build_state_graph(stg)
    fns = derive_all_next_state_functions(sg)
    base = synthesize_complex_gates(sg, name=stg.name + "_decomposed")

    # which gates need decomposition?
    oversized = [z for z in sorted(base.gates)
                 if len(base.gates[z].expr.support() - {z}) > max_fanin
                 or _expr_literals(base.gates[z].expr) > max_fanin]
    if not oversized:
        return base

    # gather divisor candidates from all oversized functions
    divisors: List[BoolExpr] = []
    for z in oversized:
        cubes = fns[z].minimized_cubes()
        divisors.extend(algebraic_divisors(cubes, sg.signal_order))
    if not divisors:
        raise SynthesisError("no algebraic divisors found for %s" % oversized)

    attempts = 0
    diagnostics: List[str] = []
    for divisor in divisors:
        temp = "%s0" % temp_prefix
        defs = {temp: divisor}
        rows = _reachable_extended_codes(sg, defs)
        extended_signals = list(sg.signal_order) + [temp]

        # per-gate candidate expressions over the extended signal set
        per_gate: Dict[str, List[BoolExpr]] = {}
        feasible = True
        for z in sorted(base.gates):
            # next value of z on reachable states (f_z): every state's
            # code is in the ON- or the OFF-set
            onset = fns[z].onset
            targets = [(env, 1 if code in onset else 0)
                       for code, env in zip(sg.int_codes, rows)]
            candidates = _candidate_exprs(targets, extended_signals)
            if not candidates:
                feasible = False
                diagnostics.append(
                    "divisor %s: no 2-input candidate for %s" % (divisor, z))
                break
            per_gate[z] = candidates
        if not feasible:
            continue
        # the divisor gate itself
        divisor_targets = [(env, env[temp]) for env in rows]
        divisor_candidates = _candidate_exprs(divisor_targets,
                                              list(sg.signal_order))
        if not divisor_candidates:
            diagnostics.append("divisor %s not realisable in 2 inputs"
                               % divisor)
            continue

        gate_names = sorted(per_gate)
        for combo in itertools.product(*(per_gate[z] for z in gate_names)):
            for divisor_expr in divisor_candidates[:2]:
                attempts += 1
                if attempts > max_netlists:
                    raise SynthesisError(
                        "decomposition search exceeded %d candidate netlists;"
                        " diagnostics: %s" % (max_netlists, diagnostics[:5]))
                netlist = Netlist(stg.name + "_decomposed",
                                  inputs=stg.inputs)
                netlist.add(Gate.comb(temp, divisor_expr))
                for z, expr in zip(gate_names, combo):
                    netlist.add(Gate.comb(z, expr))
                    netlist.initial[z] = sg.initial_values[z]
                try:
                    netlist.validate()
                except SynthesisError:
                    continue
                report = verify_circuit(netlist, stg, max_states=max_states,
                                        stop_at_first=True)
                if report.ok:
                    return netlist
                diagnostics.append(
                    "candidate rejected (%d hazards, %d failures)"
                    % (len(report.hazards), len(report.failures)))
    raise SynthesisError(
        "no hazard-free two-input decomposition found after %d attempts; "
        "first diagnostics: %s" % (attempts, diagnostics[:5]))
