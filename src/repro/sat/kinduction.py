"""k-induction: turn bounded refutation into unbounded proof.

BMC alone can only *find* counterexamples.  k-induction adds the proof
direction: a safety property ``P`` ("no reachable deadlock", "no
reachable bad state") holds in **every** reachable marking if

* **base case** — no trace of at most ``k`` steps from the initial
  marking violates ``P`` (a BMC run), and
* **inductive step** — no path of ``k+1`` steps through *arbitrary*
  markings that satisfies ``P`` in its first ``k+1`` states can violate
  ``P`` in its last state.

A step is a ∅-conflict set of transitions fired together (see
:mod:`repro.sat.encodings`), so ``k`` counts steps, not transitions.

The step case is solved on an *unanchored* unrolling (frame 0 is any
marking allowed by the P-invariant constraints, not the initial one) with
the *simple-path* refinement: all frames pairwise distinct.  Without it,
induction would almost never converge (any ``P``-state looping to itself
blocks the proof); with it, ``k`` need never exceed the longest simple
path, so the method is complete for finite state spaces — though the
practical bound cutoff returns :class:`Unknown` long before that.

The verdict is a three-valued result object:

* :class:`Proved` — the property holds in all reachable markings;
* :class:`Refuted` — a replayed counterexample :class:`Witness`;
* :class:`Unknown` — neither within the configured ``max_k``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .. import obs
from ..petri.net import PetriNet
from .bmc import BMC, TargetFn, Witness
from .encodings import SafeNetEncoding
from .solver import ClauseFeeder, Solver

DEFAULT_MAX_K = 15


@dataclass
class Proved:
    """The property holds in every reachable marking (proved at depth k).

    "Reachable" means reachable under the contact-free safe-net
    semantics of the encoding — identical to the token game on 1-safe
    nets, a restriction on unsafe ones (see
    :mod:`repro.sat.encodings`)."""

    k: int

    def __bool__(self):
        return True


@dataclass
class Refuted:
    """A reachable marking violates the property; ``witness`` replays."""

    witness: Witness

    @property
    def k(self) -> int:
        return self.witness.bound

    def __bool__(self):
        return False


@dataclass
class Unknown:
    """No counterexample and no proof up to depth ``k``.

    ``reason`` explains *why* the proof loop gave up, in a stable
    vocabulary so run reports (``repro sat-check --json``) and the
    portfolio degradation ladder can act on it without re-running:

    * ``"step-satisfiable"`` — the bound was reached while the
      inductive step still admitted a spurious path of length ``k+1``
      despite the simple-path refinement (the normal stall: raise
      ``max_k``);
    * ``"bound-reached"`` — the depth loop was cut off before the step
      case was last evaluated (e.g. ``max_k < 0``).
    """

    k: int
    reason: str = "bound-reached"

    def __bool__(self):
        return False


Verdict = Union[Proved, Refuted, Unknown]


class _StepCase:
    """The unanchored inductive-step unrolling with its own solver."""

    def __init__(self, net: PetriNet):
        self.encoding = SafeNetEncoding(net, anchor_initial=False)
        self.solver = Solver()
        self._feed = ClauseFeeder(self.solver, self.encoding.cnf)

    def holds_at(self, bad: TargetFn, k: int) -> bool:
        """True iff the step case of depth ``k`` is unsatisfiable.

        Checks: frames ``0..k`` good and pairwise distinct, frame ``k+1``
        (= one more step) bad.  The good-frame constraints are asserted
        permanently as the unrolling grows, which keeps the solver fully
        incremental across depths.
        """
        enc = self.encoding
        while enc.steps() < k + 1:
            frame = enc.steps()  # about to gain a successor: mark it good
            bad_lits = bad(enc, frame)
            self._feed()
            # "good" is the negation of the bad *cube*: one clause
            self.solver.add_clause([-lit for lit in bad_lits])
            for j in range(frame):
                enc.distinct_frames(j, frame)
            enc.add_step()
            self._feed()
        assumptions = list(bad(enc, k + 1))
        self._feed()
        return not self.solver.solve(assumptions)


def k_induction(net: PetriNet, bad: TargetFn,
                max_k: int = DEFAULT_MAX_K) -> Verdict:
    """Prove or refute that no reachable marking satisfies ``bad``.

    ``bad(encoding, frame)`` returns assumption literals describing the
    bad states (e.g. :func:`repro.sat.bmc.deadlock_target`).  Interleaves
    the BMC base case and the inductive step case at each depth.

    When :func:`repro.obs.enabled`, the proof loop runs under a
    ``sat.kinduction`` span counting ``base_calls`` / ``step_calls``
    and tagged with the verdict and final depth.
    """
    base = BMC(SafeNetEncoding(net))
    step = _StepCase(net)
    reason = "bound-reached"
    with obs.span("sat.kinduction", net=base.net.name,
                  max_k=max_k) as span:
        for k in range(max_k + 1):
            span.add("base_calls")
            if base.solve_at(bad, k):
                span.annotate(verdict="refuted", k=k)
                return Refuted(base.witness(k))
            span.add("step_calls")
            if step.holds_at(bad, k):
                span.annotate(verdict="proved", k=k)
                return Proved(k)
            # the step case was SAT: a spurious path of length k+1
            # survives the simple-path refinement at this depth
            reason = "step-satisfiable"
        span.annotate(verdict="unknown", k=max_k, reason=reason)
    return Unknown(max_k, reason=reason)
