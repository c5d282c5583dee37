"""Structural theory of Petri nets (Section 2.2 of the paper).

* incidence matrices;
* minimal semi-positive P- and T-invariants (Farkas' algorithm);
* net-class recognition: marked graph, state machine, free choice;
* S(M)-components — strongly connected state-machine subnets generated by
  1-valued P-invariants — and SM covers;
* invariant-based over-approximation of the reachability set;
* the *dense place encoding* of Section 2.2: each SM component carries
  exactly one token, so its marked place can be encoded with
  ``ceil(log2(k))`` boolean variables instead of ``k`` one-hot variables.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..errors import ModelError
from .marking import Marking
from .net import PetriNet


# ---------------------------------------------------------------------- #
# incidence matrices
# ---------------------------------------------------------------------- #

def node_orders(net: PetriNet) -> Tuple[List[str], List[str]]:
    """Deterministic (sorted) place and transition orders used by matrices."""
    return sorted(net.places), sorted(net.transitions)


def incidence_matrix(net: PetriNet
                     ) -> Tuple[List[List[int]], List[str], List[str]]:
    """Incidence matrix ``C`` with ``C[p][t] = post(t)[p] - pre(t)[p]``,
    one list of ints per place.

    Returns ``(C, place_order, transition_order)``.
    """
    places, transitions = node_orders(net)
    p_index = {p: i for i, p in enumerate(places)}
    C = [[0] * len(transitions) for _ in places]
    for j, t in enumerate(transitions):
        for p, w in net.pre(t).items():
            C[p_index[p]][j] -= w
        for p, w in net.post(t).items():
            C[p_index[p]][j] += w
    return C, places, transitions


# ---------------------------------------------------------------------- #
# invariants (Farkas' algorithm)
# ---------------------------------------------------------------------- #

def _farkas(matrix: List[List[int]]) -> List[List[int]]:
    """Minimal semi-positive integer solutions of ``y @ matrix == 0``.

    ``matrix`` is a list of equally long rows of ints.  Classic Farkas /
    Fourier–Motzkin style algorithm: maintain the table ``[D | B]``
    initialised to ``[matrix | I]`` and eliminate columns of D by taking
    positive combinations of rows with opposite signs.  Rows of B whose
    D-part is zero are semi-positive invariants; minimal ones have minimal
    support.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if matrix else 0
    D = [list(row) for row in matrix]
    B = [[1 if j == i else 0 for j in range(rows)] for i in range(rows)]

    for col in range(cols):
        pos = [i for i in range(len(D)) if D[i][col] > 0]
        neg = [i for i in range(len(D)) if D[i][col] < 0]
        new_D: List[List[int]] = []
        new_B: List[List[int]] = []
        # combine every positive row with every negative row
        for i in pos:
            for k in neg:
                a, b = D[i][col], -D[k][col]
                g = math.gcd(a, b)
                ca, cb = b // g, a // g
                d_row = [ca * D[i][j] + cb * D[k][j] for j in range(cols)]
                b_row = [ca * B[i][j] + cb * B[k][j] for j in range(rows)]
                g_all = 0
                for v in d_row + b_row:
                    g_all = math.gcd(g_all, abs(v))
                if g_all > 1:
                    d_row = [v // g_all for v in d_row]
                    b_row = [v // g_all for v in b_row]
                new_D.append(d_row)
                new_B.append(b_row)
        # keep rows with zero in this column
        for i in range(len(D)):
            if D[i][col] == 0:
                new_D.append(D[i])
                new_B.append(B[i])
        D, B = new_D, new_B
        # prune non-minimal-support rows to keep the table small
        D, B = _prune_non_minimal(D, B)

    invariants = [B[i] for i in range(len(D)) if not any(D[i])]
    # final minimality filter on supports
    result: List[List[int]] = []
    supports: List[Set[int]] = []
    for invariant in sorted(invariants, key=lambda row: sum(map(bool, row))):
        support = {j for j, v in enumerate(invariant) if v}
        if any(s <= support for s in supports):
            continue
        supports.append(support)
        result.append(invariant)
    return result


def _prune_non_minimal(D: List[List[int]], B: List[List[int]]):
    """Drop rows whose B-support strictly contains another row's B-support."""
    supports = [frozenset(j for j, v in enumerate(row) if v) for row in B]
    keep: List[int] = []
    for i, sup in enumerate(supports):
        dominated = False
        for k, other in enumerate(supports):
            if k == i:
                continue
            if other < sup or (other == sup and k < i and D[k] == D[i]
                               and B[k] == B[i]):
                dominated = True
                break
        if not dominated:
            keep.append(i)
    return [D[i] for i in keep], [B[i] for i in keep]


def p_invariants(net: PetriNet) -> List[Dict[str, int]]:
    """Minimal semi-positive place invariants ``y`` with ``y·C = 0``.

    Each invariant is returned as a dict ``place -> weight`` over its
    support.  A P-invariant conserves the weighted token count over all
    reachable markings.
    """
    C, places, _ = incidence_matrix(net)
    rows = _farkas(C)
    result = []
    for y in rows:
        result.append({places[i]: v for i, v in enumerate(y) if v})
    result.sort(key=lambda d: (len(d), sorted(d)))
    return result


def t_invariants(net: PetriNet) -> List[Dict[str, int]]:
    """Minimal semi-positive transition invariants ``x`` with ``C·x = 0``.

    Firing each transition ``x[t]`` times (in some fireable order)
    reproduces the marking.
    """
    C, places, transitions = incidence_matrix(net)
    # transpose with explicit dimensions: a net without places still has
    # one (empty) row per transition
    transposed = [[C[i][j] for i in range(len(places))]
                  for j in range(len(transitions))]
    rows = _farkas(transposed)
    result = []
    for x in rows:
        result.append({transitions[i]: v for i, v in enumerate(x) if v})
    result.sort(key=lambda d: (len(d), sorted(d)))
    return result


def invariant_value(net: PetriNet, invariant: Dict[str, int],
                    marking: Optional[Marking] = None) -> int:
    """Weighted token count of an invariant in a marking."""
    if marking is None:
        marking = net.initial_marking
    return sum(w * marking.get(p) for p, w in invariant.items())


# ---------------------------------------------------------------------- #
# net classes
# ---------------------------------------------------------------------- #

def is_marked_graph(net: PetriNet) -> bool:
    """Marked graph: every place has exactly one input and one output arc.

    Marked graphs express concurrency and sequencing but no choice
    (Section 1.1 of the paper).
    """
    return all(
        len(net.preset(p)) == 1 and len(net.postset(p)) == 1
        for p in net.places
    )


def is_state_machine(net: PetriNet) -> bool:
    """State machine: every transition has exactly one input and output place."""
    return all(
        len(net.pre(t)) == 1 and len(net.post(t)) == 1
        for t in net.transitions
    )


def is_free_choice(net: PetriNet) -> bool:
    """Free choice: any two transitions sharing an input place have equal
    presets (so choice is never influenced by the rest of the marking)."""
    for p in net.places:
        out = sorted(net.postset(p))
        if len(out) <= 1:
            continue
        presets = [frozenset(net.pre(t)) for t in out]
        if any(s != presets[0] for s in presets[1:]):
            return False
    return True


def choice_places(net: PetriNet) -> List[str]:
    """Places with more than one output transition (choice places, §1.5)."""
    return sorted(p for p in net.places if len(net.postset(p)) > 1)


def merge_places(net: PetriNet) -> List[str]:
    """Places with more than one input transition (merging alternatives)."""
    return sorted(p for p in net.places if len(net.preset(p)) > 1)


# ---------------------------------------------------------------------- #
# SM components and covers
# ---------------------------------------------------------------------- #

class SMComponent:
    """A state-machine component of a net.

    Generated by a P-invariant with 0/1 weights whose induced subnet is a
    strongly connected state machine.  The component carries a constant
    token count (typically one) in every reachable marking and can therefore
    be encoded densely (paper, Section 2.2).
    """

    def __init__(self, places: Set[str], transitions: Set[str], tokens: int):
        self.places = frozenset(places)
        self.transitions = frozenset(transitions)
        self.tokens = tokens

    def __repr__(self):
        return "SMComponent(places=%s, transitions=%s, tokens=%d)" % (
            sorted(self.places), sorted(self.transitions), self.tokens)


def sm_components(net: PetriNet) -> List[SMComponent]:
    """All SM components generated by minimal 1-weighted P-invariants.

    For each minimal P-invariant with all weights equal to 1, the induced
    subnet over the support and its neighbouring transitions is examined; it
    is an SM component if every involved transition has exactly one input
    and one output place inside the support.
    """
    components: List[SMComponent] = []
    for inv in p_invariants(net):
        if any(w != 1 for w in inv.values()):
            continue
        support = set(inv)
        transitions: Set[str] = set()
        ok = True
        for p in support:
            transitions.update(net.preset(p))
            transitions.update(net.postset(p))
        for t in transitions:
            ins = [p for p in net.pre(t) if p in support]
            outs = [p for p in net.post(t) if p in support]
            if len(ins) != 1 or len(outs) != 1:
                ok = False
                break
        if not ok:
            continue
        tokens = invariant_value(net, inv)
        components.append(SMComponent(support, transitions, tokens))
    components.sort(key=lambda c: (len(c.places), sorted(c.places)))
    return components


def sm_cover(net: PetriNet) -> Optional[List[SMComponent]]:
    """A set of SM components covering every place, or None.

    Greedy cover over the components returned by :func:`sm_components`.
    """
    components = sm_components(net)
    uncovered = set(net.places)
    cover: List[SMComponent] = []
    while uncovered:
        best = None
        best_gain = 0
        for c in components:
            gain = len(c.places & uncovered)
            if gain > best_gain:
                best, best_gain = c, gain
        if best is None:
            return None
        cover.append(best)
        uncovered -= best.places
    return cover


# ---------------------------------------------------------------------- #
# invariant-based reachability over-approximation and dense encoding
# ---------------------------------------------------------------------- #

def satisfies_invariants(net: PetriNet, invariants: Sequence[Dict[str, int]],
                         marking: Marking) -> bool:
    """True iff the marking satisfies every invariant's token-count equation
    (with the count fixed by the initial marking)."""
    initial = net.initial_marking
    for inv in invariants:
        expected = sum(w * initial.get(p) for p, w in inv.items())
        if sum(w * marking.get(p) for p, w in inv.items()) != expected:
            return False
    return True


def invariant_overapproximation(net: PetriNet,
                                safe: bool = True) -> Set[Marking]:
    """All (safe) markings satisfying every minimal P-invariant.

    This is the upper approximation of the reachability set described in
    Section 2.2: the conjunction of invariants.  Exponential in the number
    of places — intended for small nets and tests.
    """
    if not safe:
        raise ModelError("only the safe-marking approximation is implemented")
    invariants = p_invariants(net)
    places = sorted(net.places)
    result: Set[Marking] = set()
    n = len(places)
    for mask in range(1 << n):
        tokens = {places[i]: 1 for i in range(n) if mask & (1 << i)}
        m = Marking(tokens)
        if satisfies_invariants(net, invariants, m):
            result.add(m)
    return result


class DenseEncoding:
    """Dense boolean encoding of safe markings via the net's SM cover
    (:func:`sm_cover`, §2.2).

    Each SM component carries exactly one token, so the identity of its
    marked place can be encoded in ``ceil(log2(k))`` bits.  Places shared by
    several components receive a code fragment in each component's bit
    group; unconstrained bits are don't-cares, exactly like the paper's
    encoding table for the reduced READ/WRITE net.

    Attributes:
        variables: bit names ``v0, v1, ...`` in order.
        groups: list of ``(component, [bit indices], {place: code})`` where
            ``code`` is the integer value of the component's bits when the
            place is marked.
    """

    def __init__(self, net: PetriNet):
        cover = sm_cover(net)
        if cover is None:
            raise ModelError("net has no SM cover; dense encoding impossible")
        for c in cover:
            if c.tokens != 1:
                raise ModelError(
                    "dense encoding requires 1-token SM components, got %d"
                    % c.tokens
                )
        self.net = net
        self.cover = cover
        self.groups: List[Tuple[SMComponent, List[int], Dict[str, int]]] = []
        bit = 0
        for c in cover:
            k = len(c.places)
            width = max(1, math.ceil(math.log2(k))) if k > 1 else 0
            bits = list(range(bit, bit + width))
            codes = {p: i for i, p in enumerate(sorted(c.places))}
            self.groups.append((c, bits, codes))
            bit += width
        self.width = bit
        self.variables = ["v%d" % i for i in range(bit)]

    def encode(self, marking: Marking) -> str:
        """Encode a safe marking as a cube string over the bit variables.

        Characters: '0', '1', or '-' for bits left unconstrained (e.g. when
        the component's marked place fixes only some bits).  Raises
        :class:`ModelError` if some component does not have exactly one
        marked place.
        """
        cube = ["-"] * self.width
        for component, bits, codes in self.groups:
            marked = [p for p in component.places if marking.get(p) == 1]
            if len(marked) != 1:
                raise ModelError(
                    "marking %r does not mark component %r exactly once"
                    % (marking, sorted(component.places))
                )
            code = codes[marked[0]]
            for offset, b in enumerate(reversed(bits)):
                cube[b] = "1" if (code >> offset) & 1 else "0"
        return "".join(cube)

    def place_cube(self, place: str) -> str:
        """Cube characterising markings in which ``place`` is marked.

        This reproduces the rows of the paper's dense-encoding table: bits
        of components not containing the place are '-'.
        """
        cube = ["-"] * self.width
        found = False
        for component, bits, codes in self.groups:
            if place not in component.places:
                continue
            found = True
            code = codes[place]
            for offset, b in enumerate(reversed(bits)):
                cube[b] = "1" if (code >> offset) & 1 else "0"
        if not found:
            raise ModelError("place %r not covered by the SM cover" % place)
        return "".join(cube)

    def table(self) -> List[Tuple[str, str]]:
        """The encoding table ``[(place, cube), ...]`` sorted by place."""
        return [(p, self.place_cube(p)) for p in sorted(self.net.places)]
