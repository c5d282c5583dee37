"""Graphviz DOT export for Petri nets and reachability graphs.

The paper's figures are drawn nets and state graphs; we provide DOT text so
any of the reproduced artifacts can be rendered with ``dot -Tpng``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from .marking import Marking
from .net import PetriNet

if TYPE_CHECKING:
    from ..ts.transition_system import TransitionSystem


def _quote(s: str) -> str:
    return '"%s"' % s.replace('"', '\\"')


def net_to_dot(net: PetriNet, title: Optional[str] = None) -> str:
    """Render a Petri net as DOT: circles for places (filled dot when
    marked), boxes for transitions."""
    lines = ["digraph %s {" % _quote(title or net.name),
             "  rankdir=TB;"]
    for p in sorted(net.places):
        tokens = net.places[p].tokens
        label = p if tokens == 0 else "%s\\n%s" % (p, "•" * tokens)
        lines.append("  %s [shape=circle, label=%s];" % (_quote(p), _quote(label)))
    for t in sorted(net.transitions):
        label = str(net.transitions[t].label)
        lines.append("  %s [shape=box, label=%s];" % (_quote(t), _quote(label)))
    for src, dst, w in sorted(net.arcs()):
        attr = "" if w == 1 else " [label=%s]" % _quote(str(w))
        lines.append("  %s -> %s%s;" % (_quote(src), _quote(dst), attr))
    lines.append("}")
    return "\n".join(lines)


def reachability_to_dot(graph: TransitionSystem,
                        codes: Optional[Dict[Marking, str]] = None,
                        title: str = "rg") -> str:
    """Render a reachability graph (as built by
    :func:`repro.ts.builder.build_reachability_graph`) as DOT, with the
    initial marking drawn as a double circle.

    ``codes`` optionally maps markings to binary-code strings to display
    alongside the marking, as in the paper's Figure 4.
    """
    ids = {m: "s%d" % i for i, m in enumerate(sorted(graph.states, key=repr))}
    lines = ["digraph %s {" % _quote(title)]
    for m, node in ids.items():
        label = repr(m)
        if codes and m in codes:
            label += "\\n" + codes[m]
        shape = "doublecircle" if m == graph.initial else "ellipse"
        lines.append("  %s [shape=%s, label=%s];" % (node, shape, _quote(label)))
    for m, t, succ in graph.arcs():
        lines.append("  %s -> %s [label=%s];" %
                     (ids[m], ids[succ], _quote(str(t))))
    lines.append("}")
    return "\n".join(lines)
