"""Compare job outputs with the hand-written answers.

An answer entry lists the outputs it fixes; outputs it does not name are
not checked.  Besides plain values (verdicts, state, gate and literal
counts) an entry may fix:

* ``functions`` — gate functions, compared by truth table over every
  assignment of the signals involved: a string for a combinational gate,
  ``{"set": ..., "reset": ...}`` for a C-element or SR latch.  Expressions
  use Python's ``and`` / ``or`` / ``not`` over signal names.
* ``muller_stages: n`` — the textbook Muller pipeline stage functions for
  the job's architecture (``.../cg`` or ``.../gc``).
* ``cycle_time`` — compared to within 1e-6.
* ``pinned`` — values recorded on the seed rather than derived by hand,
  checked like the others.
"""

from __future__ import annotations

import itertools
import re
from typing import Dict, List, Union

from repro.synth.netlist import GateKind, Netlist

_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_KEYWORDS = {"and", "or", "not"}

Function = Union[str, Dict[str, str]]


def _names(text: str) -> set:
    return {n for n in _NAME.findall(text) if n not in _KEYWORDS}


def _eval(text: str, values: Dict[str, int]) -> bool:
    # answers are this benchmark's own files; no builtins are reachable
    return bool(eval(text, {"__builtins__": {}},  # noqa: S307
                     {k: bool(v) for k, v in values.items()}))


def muller_stage_functions(n: int, arch: str) -> Dict[str, Function]:
    """Textbook Muller pipeline stages: stage ``i < n`` is the C-element
    C(c(i-1), c(i+1)'); the last stage follows c(n-1)."""
    out: Dict[str, Function] = {}
    for i in range(1, n + 1):
        a, me = "c%d" % (i - 1), "c%d" % i
        if i == n:
            out[me] = a if arch == "cg" else {"set": a, "reset": "not " + a}
            continue
        b = "c%d" % (i + 1)
        if arch == "cg":
            out[me] = "(%s and not %s) or (%s and (%s or not %s))" % (
                a, b, me, a, b)
        else:
            out[me] = {"set": "%s and not %s" % (a, b),
                       "reset": "not %s and %s" % (a, b)}
    return out


def _check_function(netlist: Netlist, signal: str,
                    want: Function) -> List[str]:
    gate = netlist.gates.get(signal)
    if gate is None:
        return ["no gate drives %s" % signal]
    if isinstance(want, str):
        if gate.kind != GateKind.COMB:
            return ["%s: expected a combinational gate, got %s"
                    % (signal, gate.kind.value)]
        pairs = [("", gate.expr, want)]
    else:
        if gate.kind == GateKind.COMB:
            return ["%s: expected a latch, got a combinational gate" % signal]
        pairs = [("set ", gate.set_expr, want["set"]),
                 ("reset ", gate.reset_expr, want["reset"])]
    errors = []
    for label, expr, text in pairs:
        names = sorted(set(expr.support()) | _names(text))
        for bits in itertools.product((0, 1), repeat=len(names)):
            values = dict(zip(names, bits))
            if bool(expr.eval(values)) != _eval(text, values):
                errors.append("%s: %sfunction %s differs from %s at %s"
                              % (signal, label, expr, text, values))
                break
    return errors


def check(job_id: str, expected: dict, output: dict) -> List[str]:
    """Every way ``output`` disagrees with ``expected`` (empty: a pass)."""
    errors: List[str] = []
    for key, want in expected.items():
        if key == "pinned":
            errors += check(job_id, want, output)
        elif key == "functions":
            for signal, fn in sorted(want.items()):
                errors += _check_function(output["netlist"], signal, fn)
        elif key == "muller_stages":
            arch = job_id.rsplit("/", 1)[1]
            for signal, fn in muller_stage_functions(want, arch).items():
                errors += _check_function(output["netlist"], signal, fn)
        elif key == "cycle_time":
            got = output.get(key)
            if not isinstance(got, (int, float)) or abs(got - want) > 1e-6:
                errors.append("cycle_time: expected %s, got %r" % (want, got))
        elif output.get(key) != want:
            errors.append("%s: expected %r, got %r"
                          % (key, want, output.get(key)))
    return errors


class Tally:
    """Running pass/fail count of one run against one answers file.

    A job that disagrees with its answer is a failure.  Failures of jobs
    the answers list under ``known_failures`` are counted but leave the
    run correct; any other failure, or an exception, makes it incorrect.
    """

    def __init__(self, answers: dict):
        self.expected = answers["jobs"]
        self.known = answers.get("known_failures", {})
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.first_error = ""

    def record(self, job_id: str, output: dict = None,
               error: str = "") -> None:
        """Judge one finished job (``error``: the exception it raised)."""
        self.attempted += 1
        problems = [error] if error else check(job_id, self.expected[job_id],
                                               output)
        if not problems:
            return
        self.failed += 1
        if job_id not in self.known and self.correct:
            self.correct = False
            self.first_error = "%s: %s" % (job_id, problems[0])
