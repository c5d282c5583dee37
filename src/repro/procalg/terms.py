"""A small CSP-style process algebra and its syntax-directed translation
to STGs (paper, Section 6, refs [2, 17]).

"Syntax-directed translation derives a netlist of components that
implement the behavior of each of the constructs of the language
(parallel/sequential composition, choice, communication, synchronization,
etc.).  The size of the resulting circuit is linearly dependent on the
size of the input description."

We translate to the *specification* level: each construct compiles to an
STG fragment with one entry and one exit place, composed structurally:

* ``rise/fall``     — a single signal edge;
* ``handshake``     — a four-phase handshake on a channel (active side
  drives the request, passive side the acknowledge);
* ``seq(p, q, …)``  — chaining;
* ``par(p, q, …)``  — fork/join through dummy (λ) transitions;
* ``choice(p, q)``  — a free-choice place (branches must start with input
  events so the environment decides);
* ``loop(p)``       — tie exit back to entry.

The linear-size property is literally testable (and tested): the compiled
STG has O(|term|) places and transitions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..errors import ModelError
from ..stg.signals import SignalEvent, SignalType
from ..stg.stg import STG


class Term:
    """Base class of process terms."""

    def size(self) -> int:
        """Number of AST nodes (the |term| of the linear-size claim)."""
        raise NotImplementedError

    def __or__(self, other: "Term") -> "Term":
        return Par((self, other))

    def __rshift__(self, other: "Term") -> "Term":
        return Seq((self, other))


@dataclass(frozen=True)
class Edge(Term):
    """A single signal edge (``rise``/``fall``)."""

    signal: str
    direction: str

    def size(self) -> int:
        return 1


@dataclass(frozen=True)
class Seq(Term):
    parts: Tuple[Term, ...]

    def size(self) -> int:
        return 1 + sum(p.size() for p in self.parts)


@dataclass(frozen=True)
class Par(Term):
    parts: Tuple[Term, ...]

    def size(self) -> int:
        return 1 + sum(p.size() for p in self.parts)


@dataclass(frozen=True)
class Choice(Term):
    parts: Tuple[Term, ...]

    def size(self) -> int:
        return 1 + sum(p.size() for p in self.parts)


@dataclass(frozen=True)
class Loop(Term):
    body: Term

    def size(self) -> int:
        return 1 + self.body.size()


def rise(signal: str) -> Term:
    """The edge ``signal+``."""
    return Edge(signal, "+")


def fall(signal: str) -> Term:
    """The edge ``signal-``."""
    return Edge(signal, "-")


def seq(*parts: Term) -> Term:
    """Sequential composition."""
    return Seq(tuple(parts))


def par(*parts: Term) -> Term:
    """Parallel composition (fork/join)."""
    return Par(tuple(parts))


def choice(*parts: Term) -> Term:
    """Environment choice between alternatives (each must start with an
    input edge)."""
    return Choice(tuple(parts))


def loop(body: Term) -> Term:
    """Infinite repetition."""
    return Loop(body)


def handshake(channel: str, active: bool = True) -> Term:
    """A complete four-phase handshake on ``channel``.

    Signals ``<channel>_r`` (request) and ``<channel>_a`` (acknowledge);
    the active side drives the request, the passive side the acknowledge.
    """
    r, a = channel + "_r", channel + "_a"
    return seq(rise(r), rise(a), fall(r), fall(a))


# ---------------------------------------------------------------------- #
# compilation
# ---------------------------------------------------------------------- #

class _Compiler:
    def __init__(self, stg: STG):
        self.stg = stg
        self.counter = itertools.count()
        self.instances: Dict[Tuple[str, str], int] = {}

    def fresh_place(self) -> str:
        return self.stg.add_place("q%d" % next(self.counter))

    def fresh_dummy(self) -> str:
        name = "eps%d" % next(self.counter)
        self.stg.declare_signal(name, SignalType.DUMMY)
        event = SignalEvent(name, "~")
        self.stg.net.add_transition(str(event), event)
        return str(event)

    def event_transition(self, edge: Edge) -> str:
        key = (edge.signal, edge.direction)
        instance = self.instances.get(key, 0)
        self.instances[key] = instance + 1
        event = SignalEvent(edge.signal, edge.direction, instance)
        self.stg.net.add_transition(str(event), event)
        return str(event)

    def compile(self, term: Term, entry: str, exit_: str) -> None:
        """Compile ``term`` between the given entry and exit places."""
        if isinstance(term, Edge):
            t = self.event_transition(term)
            self.stg.net.add_arc(entry, t)
            self.stg.net.add_arc(t, exit_)
        elif isinstance(term, Seq):
            if not term.parts:
                raise ModelError("empty seq")
            cursor = entry
            for part in term.parts[:-1]:
                nxt = self.fresh_place()
                self.compile(part, cursor, nxt)
                cursor = nxt
            self.compile(term.parts[-1], cursor, exit_)
        elif isinstance(term, Par):
            if len(term.parts) < 2:
                raise ModelError("par needs at least two branches")
            fork = self.fresh_dummy()
            join = self.fresh_dummy()
            self.stg.net.add_arc(entry, fork)
            self.stg.net.add_arc(join, exit_)
            for part in term.parts:
                b_entry = self.fresh_place()
                b_exit = self.fresh_place()
                self.stg.net.add_arc(fork, b_entry)
                self.stg.net.add_arc(b_exit, join)
                self.compile(part, b_entry, b_exit)
        elif isinstance(term, Choice):
            if len(term.parts) < 2:
                raise ModelError("choice needs at least two branches")
            for part in term.parts:
                # branches share the entry (choice place) and the exit
                self.compile(part, entry, exit_)
        elif isinstance(term, Loop):
            raise ModelError("loop is only allowed at the top level")
        else:
            raise ModelError("unknown term %r" % (term,))


def first_edges(term: Term) -> List[Edge]:
    """The possible initial edges of a term (for choice validation)."""
    if isinstance(term, Edge):
        return [term]
    if isinstance(term, Seq):
        return first_edges(term.parts[0])
    if isinstance(term, Par):
        return [e for p in term.parts for e in first_edges(p)]
    if isinstance(term, Choice):
        return [e for p in term.parts for e in first_edges(p)]
    if isinstance(term, Loop):
        return first_edges(term.body)
    raise ModelError("unknown term %r" % (term,))


def _check_choices(term: Term, inputs: Sequence[str]) -> None:
    if isinstance(term, Choice):
        for part in term.parts:
            for edge in first_edges(part):
                if edge.signal not in inputs:
                    raise ModelError(
                        "choice branch starts with non-input edge %s%s —"
                        " the environment could not decide"
                        % (edge.signal, edge.direction))
    children: Tuple[Term, ...] = ()
    if isinstance(term, (Seq, Par, Choice)):
        children = term.parts
    elif isinstance(term, Loop):
        children = (term.body,)
    for child in children:
        _check_choices(child, inputs)


def compile_process(term: Term, inputs: Sequence[str] = (),
                    outputs: Sequence[str] = (),
                    name: str = "process") -> STG:
    """Syntax-directed translation of a process term into an STG.

    The term must be a top-level :func:`loop` (interface controllers are
    cyclic); signals are classified by the ``inputs``/``outputs`` lists
    (signals not listed default to OUTPUT).  Choice branches must begin
    with input edges.
    """
    if not isinstance(term, Loop):
        raise ModelError("top-level term must be loop(...)")
    _check_choices(term, list(inputs))
    stg = STG(name, inputs=inputs, outputs=outputs)

    # declare remaining signals as outputs
    def declare(t: Term) -> None:
        if isinstance(t, Edge):
            if t.signal not in stg.signal_types:
                stg.declare_signal(t.signal, SignalType.OUTPUT)
        elif isinstance(t, (Seq, Par, Choice)):
            for p in t.parts:
                declare(p)
        elif isinstance(t, Loop):
            declare(t.body)

    declare(term)
    compiler = _Compiler(stg)
    entry = compiler.fresh_place()
    stg.net.places[entry].tokens = 1
    compiler.compile(term.body, entry, entry)
    stg.validate()
    return stg
