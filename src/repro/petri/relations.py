"""Structural ordering relations over control states (Definition 2.3).

Given the flow relation ``F`` of a net, the paper defines:

* ``F⁺`` — the transitive closure of ``F`` over all control structure
  elements ``X = S ∪ T``;
* ``S_i ⇒ S_j``  iff ``(S_i, S_j) ∈ F⁺``  (S_j is flow-reachable from S_i);
* ``α = ⇒ ∪ ⇐`` — *sequential order*;
* ``∥ = (S × S) ∖ α`` — *parallel order* (we exclude the diagonal: a place
  is not considered parallel with itself).

The closure is one Tarjan strongly-connected-components pass over
Python-int reach bitsets: linear in the arcs plus one word-parallel union
per arc between components.  Boolean repeated squaring is no match here:
numpy multiplies bool matrices without BLAS, so squaring costs
``O(n³ log n)`` element operations (~0.1 s at 300 elements, where this
pass takes ~2 ms), and the closure sits on the data-invariance checker's
hot path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .net import PetriNet


def transitive_closure_bool(adjacency: np.ndarray) -> np.ndarray:
    """Transitive closure of a boolean adjacency matrix.

    One iterative Tarjan pass finds the strongly connected components in
    reverse topological order, so when a component closes, every
    component it reaches already carries its reach set: the component's
    reach is the union of its edge targets and their reach sets, plus
    its own members when it contains an edge (a cycle or a self-loop).
    Reach sets are Python-int bitsets, unpacked once into the result.
    The input is not modified.
    """
    n = adjacency.shape[0]
    if n == 0:
        return adjacency.copy()
    succ: list[list[int]] = [[] for _ in range(n)]
    sources, targets = np.nonzero(adjacency)
    for u, v in zip(sources.tolist(), targets.tolist()):
        succ[u].append(v)
    component = [-1] * n        # component id once assigned
    reach: list[int] = []       # per component, its reach bitset
    order = [-1] * n            # Tarjan discovery number
    low = [0] * n
    stack: list[int] = []
    on_stack = [False] * n
    counter = 0
    for root in range(n):
        if order[root] >= 0:
            continue
        work = [(root, 0)]
        while work:
            node, i = work.pop()
            if i == 0:
                order[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack[node] = True
            edges = succ[node]
            while i < len(edges):
                nxt = edges[i]
                i += 1
                if order[nxt] < 0:
                    work.append((node, i))
                    work.append((nxt, 0))
                    break
                if on_stack[nxt] and order[nxt] < low[node]:
                    low[node] = order[nxt]
            else:
                if low[node] == order[node]:
                    scc: list[int] = []
                    while True:
                        member = stack.pop()
                        on_stack[member] = False
                        component[member] = len(reach)
                        scc.append(member)
                        if member == node:
                            break
                    bits = members = 0
                    cyclic = False
                    for member in scc:
                        members |= 1 << member
                        for nxt in succ[member]:
                            if component[nxt] == len(reach):
                                cyclic = True
                            else:
                                bits |= (1 << nxt) | reach[component[nxt]]
                    reach.append(bits | members if cyclic else bits)
                if work:
                    parent = work[-1][0]
                    if low[node] < low[parent]:
                        low[parent] = low[node]
    return bitset_matrix([reach[c] for c in component], n)


def bitset_matrix(bitsets: list[int], width: int) -> np.ndarray:
    """Unpack one int bitset per row into a ``(len(bitsets), width)``
    boolean matrix; bit ``j`` of row ``i`` becomes entry ``[i, j]``."""
    size = (width + 7) // 8
    packed = np.frombuffer(
        b"".join(bits.to_bytes(size, "little") for bits in bitsets),
        dtype=np.uint8).reshape(len(bitsets), size)
    return np.unpackbits(packed, axis=1, count=width,
                         bitorder="little").view(bool)


@dataclass
class StructuralRelations:
    """Precomputed ``⇒`` / ``α`` / ``∥`` relations for one net.

    The object snapshots the net's structure at construction time; if the
    net is mutated afterwards, build a new instance.
    """

    net: PetriNet

    def __post_init__(self) -> None:
        self._elements: list[str] = list(self.net.places) + list(self.net.transitions)
        self._index: dict[str, int] = {e: i for i, e in enumerate(self._elements)}
        n = len(self._elements)
        adjacency = np.zeros((n, n), dtype=bool)
        for source, target in self.net.arcs():
            adjacency[self._index[source], self._index[target]] = True
        self._closure = transitive_closure_bool(adjacency)
        self._num_places = len(self.net.places)
        self._place_names: list[str] = list(self.net.places)

    # ------------------------------------------------------------------
    def reaches(self, a: str, b: str) -> bool:
        """``a F⁺ b`` over arbitrary control structure elements."""
        return bool(self._closure[self._index[a], self._index[b]])

    def precedes(self, s_i: str, s_j: str) -> bool:
        """``S_i ⇒ S_j`` (Definition 2.3(3))."""
        return self.reaches(s_i, s_j)

    def sequential(self, s_i: str, s_j: str) -> bool:
        """``S_i α S_j`` — sequential order (Definition 2.3(4))."""
        return self.precedes(s_i, s_j) or self.precedes(s_j, s_i)

    def parallel(self, s_i: str, s_j: str) -> bool:
        """``S_i ∥ S_j`` — parallel order (Definition 2.3(5)).

        Distinct places that are not sequentially ordered.  The diagonal is
        excluded: asking whether a place is parallel with itself returns
        ``False`` (it trivially shares its own associated resources).
        """
        if s_i == s_j:
            return False
        return not self.sequential(s_i, s_j)

    # ------------------------------------------------------------------
    @cached_property
    def place_closure(self) -> np.ndarray:
        """Boolean matrix of ``⇒`` restricted to places (stable order)."""
        idx = [self._index[p] for p in self._place_names]
        return self._closure[np.ix_(idx, idx)]

    @cached_property
    def parallel_pairs(self) -> frozenset[frozenset[str]]:
        """All unordered pairs of places in parallel order."""
        closure = self.place_closure
        either = closure | closure.T
        pairs: set[frozenset[str]] = set()
        n = len(self._place_names)
        rows, cols = np.where(~either)
        for i, j in zip(rows.tolist(), cols.tolist()):
            if i < j:
                pairs.add(frozenset((self._place_names[i], self._place_names[j])))
        return frozenset(pairs)

    @cached_property
    def precedence_pairs(self) -> frozenset[tuple[str, str]]:
        """All ordered place pairs ``(S_i, S_j)`` with ``S_i ⇒ S_j``."""
        closure = self.place_closure
        rows, cols = np.where(closure)
        return frozenset(
            (self._place_names[i], self._place_names[j])
            for i, j in zip(rows.tolist(), cols.tolist())
        )

    def place_names(self) -> list[str]:
        return list(self._place_names)

    def on_cycle(self, element: str) -> bool:
        """True iff the element lies on a directed cycle of ``F``."""
        i = self._index[element]
        return bool(self._closure[i, i])


def dominators(net: PetriNet) -> dict[str, frozenset[str]]:
    """Dominator sets over the flow graph of all net elements.

    A virtual root feeds every initially marked place; element ``d``
    dominates element ``n`` iff every path from the root to ``n`` passes
    through ``d``.  Unreachable elements get an empty dominator set.

    Used for the control-dependence clause of Definition 4.3(d): a place
    dominated by a *guarded* transition can only be marked after that
    guard fired, so its marking depends on the guard's source registers —
    for every branch of an if and every body state of a while, not just
    the states adjacent to the guarded transition.
    """
    elements = list(net.places) + list(net.transitions)
    preds: dict[str, set[str]] = {e: set(net.preset(e)) for e in elements}
    roots = [p for p in net.places if net.initial.get(p, 0) > 0]

    # forward reachability from the roots
    reachable: set[str] = set()
    stack = list(roots)
    while stack:
        node = stack.pop()
        if node in reachable:
            continue
        reachable.add(node)
        stack.extend(net.postset(node))

    universe = frozenset(e for e in elements if e in reachable)
    dom: dict[str, frozenset[str]] = {}
    for element in elements:
        if element not in reachable:
            dom[element] = frozenset()
        elif element in roots:
            dom[element] = frozenset({element})
        else:
            dom[element] = universe
    changed = True
    while changed:
        changed = False
        for element in elements:
            if element not in reachable or element in roots:
                continue
            incoming = [dom[p] for p in preds[element] if p in reachable]
            if incoming:
                meet = frozenset.intersection(*incoming)
            else:  # pragma: no cover - reachable node must have a pred
                meet = frozenset()
            updated = meet | {element}
            if updated != dom[element]:
                dom[element] = updated
                changed = True
    return dom
