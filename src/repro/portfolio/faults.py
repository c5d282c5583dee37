"""Deterministic fault injection for the portfolio worker layer.

The retry / cancellation / degradation machinery of
:mod:`repro.portfolio.workers` only earns trust if it is exercised
directly, so this module provides a seedable hook that can make any
engine worker misbehave on demand:

* ``kill`` — the worker process dies instantly (``os._exit``), without
  reporting anything: the supervisor sees a
  :class:`~repro.errors.WorkerCrashError` and retries with backoff;
* ``delay`` — the worker sleeps past its deadline: the supervisor sees
  an :class:`~repro.errors.EngineTimeoutError` and degrades the slot to
  the next-cheaper engine;
* ``raise`` — the worker raises :class:`InjectedFault` mid-run: the
  supervisor records the error and retries.

Faults are described by *rules* that match a task's slot name, engine,
method and attempt index, installed either programmatically
(:func:`install`) or through the ``REPRO_FAULTS`` environment variable
— the same syntax in both places::

    REPRO_FAULTS="kill:engine=sat,attempt=0;delay:method=bdd,seconds=9"

Each rule is ``action:key=value,...`` and rules are separated by ``;``.
Matching keys: ``slot``, ``engine``, ``method`` (exact string match),
``attempt`` (exact index) or ``max_attempt`` (fire while ``attempt <=
N``).  A ``p=0.25`` key makes the rule probabilistic; the decision is a
pure function of ``seed`` (default 0) and the task identity, so a
seeded run is bit-reproducible no matter how processes are scheduled.

Because worker processes are forked, programmatically installed rules
propagate into children automatically; the environment variable covers
spawn-based platforms and CI matrices.  :func:`fire` is called by the
worker wrapper at task start — engine code itself never sees the hook.
"""

from __future__ import annotations

import os
import time
import zlib
from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

from ..errors import ReproError

ENV_VAR = "REPRO_FAULTS"

ACTIONS = ("kill", "delay", "raise")

#: Exit code used by the ``kill`` action (distinctive in ps output and
#: in :class:`~repro.errors.WorkerCrashError.exitcode`).
KILL_EXIT_CODE = 70


class InjectedFault(RuntimeError):
    """The exception thrown by the ``raise`` action.

    Deliberately *not* a :class:`~repro.errors.ReproError`: an injected
    fault models an arbitrary, unclassified engine bug, so it must take
    the supervisor's generic retry path, not any domain-specific one.
    """


class FaultSyntaxError(ReproError, ValueError):
    """Raised by :func:`parse` for an unparseable rule string (a usage
    error: the CLI reports it as ``error: ...`` with exit code 2)."""


@dataclass
class FaultRule:
    """One fault-injection rule (see the module docstring for syntax)."""

    action: str
    slot: Optional[str] = None
    engine: Optional[str] = None
    method: Optional[str] = None
    attempt: Optional[int] = None
    max_attempt: Optional[int] = None
    p: float = 1.0
    seed: int = 0
    seconds: float = 30.0

    def matches(self, slot: str, engine: str, method: str,
                attempt: int) -> bool:
        """True iff this rule fires for the given task identity."""
        if self.slot is not None and self.slot != slot:
            return False
        if self.engine is not None and self.engine != engine:
            return False
        if self.method is not None and self.method != method:
            return False
        if self.attempt is not None and self.attempt != attempt:
            return False
        if self.max_attempt is not None and attempt > self.max_attempt:
            return False
        if self.p >= 1.0:
            return True
        # deterministic coin flip: a pure function of (seed, identity),
        # stable across processes and platforms (no str hash involved)
        key = "%d:%s:%s:%s:%d" % (self.seed, slot, engine, method, attempt)
        draw = zlib.crc32(key.encode("utf-8")) / 0xFFFFFFFF
        return draw < self.p

    def spec(self) -> str:
        """The rule re-serialised in :func:`parse` syntax."""
        pairs = []
        for key in ("slot", "engine", "method", "attempt", "max_attempt"):
            value = getattr(self, key)
            if value is not None:
                pairs.append("%s=%s" % (key, value))
        if self.p < 1.0:
            pairs.append("p=%g" % self.p)
            pairs.append("seed=%d" % self.seed)
        if self.action == "delay":
            pairs.append("seconds=%g" % self.seconds)
        return self.action + (":" + ",".join(pairs) if pairs else "")


def parse(text: str) -> List[FaultRule]:
    """Parse a ``REPRO_FAULTS`` string into a list of rules.

    Empty and whitespace-only strings parse to no rules.  Raises
    :class:`FaultSyntaxError` on unknown actions or keys so a typo'd CI
    matrix entry fails loudly instead of silently injecting nothing.
    """
    rules: List[FaultRule] = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        action, _, spec = chunk.partition(":")
        action = action.strip()
        if action not in ACTIONS:
            raise FaultSyntaxError(
                "unknown fault action %r (expected one of %s) in %r"
                % (action, ", ".join(ACTIONS), chunk))
        rule = FaultRule(action=action)
        for pair in filter(None, (p.strip() for p in spec.split(","))):
            key, eq, value = pair.partition("=")
            if not eq:
                raise FaultSyntaxError(
                    "expected key=value, got %r in %r" % (pair, chunk))
            key = key.strip()
            value = value.strip()
            try:
                if key in ("slot", "engine", "method"):
                    setattr(rule, key, value)
                elif key in ("attempt", "max_attempt", "seed"):
                    setattr(rule, key, int(value))
                elif key == "p":
                    rule.p = float(value)
                elif key == "seconds":
                    rule.seconds = float(value)
                else:
                    raise FaultSyntaxError(
                        "unknown fault key %r in %r" % (key, chunk))
            except ValueError as exc:
                if isinstance(exc, FaultSyntaxError):
                    raise
                raise FaultSyntaxError(
                    "bad value %r for key %r in %r" % (value, key, chunk))
        rules.append(rule)
    return rules


# -- the installed plan ------------------------------------------------- #

_installed: Optional[List[FaultRule]] = None
# cache of the last parsed environment value, so fire() costs one
# os.environ lookup and a string compare in the fault-free common case
_env_cache: tuple = ("", [])


def install(rules: Union[str, Sequence[FaultRule]]) -> List[FaultRule]:
    """Install a fault plan programmatically (overrides ``REPRO_FAULTS``).

    Accepts either a rule string in :func:`parse` syntax or a sequence of
    :class:`FaultRule` objects; returns the installed list.  The plan is
    process-global and inherited by forked workers.  Call :func:`clear`
    to remove it.
    """
    global _installed
    if isinstance(rules, str):
        rules = parse(rules)
    _installed = list(rules)
    return _installed


def clear() -> None:
    """Remove any programmatically installed fault plan."""
    global _installed
    _installed = None


def active_rules() -> List[FaultRule]:
    """The rules currently in force: the installed plan if any, else the
    parsed ``REPRO_FAULTS`` environment variable."""
    global _env_cache
    if _installed is not None:
        return _installed
    text = os.environ.get(ENV_VAR, "")
    if text != _env_cache[0]:
        _env_cache = (text, parse(text))
    return _env_cache[1]


def fire(slot: str, engine: str, method: str, attempt: int,
         inline: bool = False) -> Optional[str]:
    """Trigger the first matching fault for this task, if any.

    Called by the worker wrapper at task start.  In a worker process
    (``inline=False``) the actions are literal: ``kill`` exits the
    process, ``delay`` sleeps, ``raise`` raises.  Under the inline
    (process-free) execution mode ``kill`` and ``delay`` cannot take
    down or hold up the caller's process, so they are translated into the
    errors the supervisor would have classified them as —
    :class:`~repro.errors.WorkerCrashError` and
    :class:`~repro.errors.EngineTimeoutError` — keeping the degradation
    semantics identical across modes.  Returns the action fired (after
    the delay) or ``None``.
    """
    for rule in active_rules():
        if not rule.matches(slot, engine, method, attempt):
            continue
        if rule.action == "kill":
            if inline:
                from ..errors import WorkerCrashError
                raise WorkerCrashError(
                    "injected kill of %s (inline mode)" % slot,
                    task=slot, exitcode=KILL_EXIT_CODE)
            os._exit(KILL_EXIT_CODE)
        if rule.action == "delay":
            if inline:
                from ..errors import EngineTimeoutError
                raise EngineTimeoutError(
                    "injected delay of %s (inline mode)" % slot,
                    task=slot, deadline_s=rule.seconds)
            time.sleep(rule.seconds)
            return "delay"
        raise InjectedFault(
            "injected fault in %s (%s/%s, attempt %d)"
            % (slot, engine, method, attempt))
    return None
