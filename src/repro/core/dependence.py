"""Data dependence between control states — Definitions 4.3 and 4.4.

Two control states are **directly data dependent** (``S_i ↔ S_j``) if any
of the following hold:

(a) ``R(S_i) ∩ dom(S_j) ≠ ∅`` — ``S_j`` reads a vertex ``S_i`` writes;
(b) ``R(S_j) ∩ dom(S_i) ≠ ∅`` — ``S_i`` reads a vertex ``S_j`` writes;
(c) ``R(S_i) ∩ R(S_j) ≠ ∅``  — both write the same vertex;
(d) control dependence — the marking of one state depends on a result
    vertex of the other: a transition *adjacent to* ``S_i`` (whose firing
    changes ``M(S_i)``) **or dominating** ``S_i`` (through which every
    token reaching ``S_i`` must pass — every state of a branch arm or a
    loop body) is guarded by a port whose value derives from a vertex in
    ``R(S_j)``, or vice versa;
(e) both states control some external arc — input/output operations must
    keep their relative order, whatever data they carry.

The **data dependence relation** ``◇`` is the transitive closure of ``↔``
(Definition 4.4).  States *not* related by ``◇`` can be reordered or
parallelised freely without changing the semantics — this is the licence
the transformation engine operates under.

The closure is computed over a boolean matrix with the Tarjan bitset
kernel shared with the structural relations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..petri.relations import dominators, transitive_closure_bool
from .system import DataControlSystem


def sequential_sources(system: DataControlSystem, port) -> frozenset[str]:
    """Sequential vertices feeding a port through combinational logic.

    Static over-approximation: every arc is considered (whether or not its
    controlling state is active).  A guard port on a comparator output,
    say, traces back to the registers the comparison reads — which is what
    clause (d) needs, since the *result sets* ``R(S)`` contain sequential
    vertices only.
    """
    dp = system.datapath
    sources: set[str] = set()
    seen: set = set()
    stack = [port]
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.add(current)
        vertex = dp.vertex(current.vertex)
        if vertex.is_sequential or vertex.is_input_vertex:
            sources.add(vertex.name)
            continue
        # combinational: recurse into everything feeding its input ports
        for in_port in vertex.input_ids():
            for arc in dp.arcs_into(in_port):
                stack.append(arc.source)
    return frozenset(sources)


def direct_dependence_reasons(system: DataControlSystem, s_i: str, s_j: str) -> list[str]:
    """The clauses of Definition 4.3 satisfied by the pair (may be empty)."""
    reasons: list[str] = []
    r_i, r_j = system.result_set(s_i), system.result_set(s_j)
    dom_i, dom_j = system.dom(s_i), system.dom(s_j)
    if r_i & dom_j:
        reasons.append(f"(a) R({s_i}) ∩ dom({s_j}) = {sorted(r_i & dom_j)}")
    if r_j & dom_i:
        reasons.append(f"(b) R({s_j}) ∩ dom({s_i}) = {sorted(r_j & dom_i)}")
    if r_i & r_j:
        reasons.append(f"(c) R({s_i}) ∩ R({s_j}) = {sorted(r_i & r_j)}")
    if _control_dependent(system, s_i, r_j) or _control_dependent(system, s_j, r_i):
        reasons.append("(d) control dependence through a guard")
    ext = system.external_arc_names()
    if (system.control_arcs(s_i) & ext) and (system.control_arcs(s_j) & ext):
        reasons.append("(e) both states control external arcs")
    return reasons


def _control_dependent(system: DataControlSystem, state: str,
                       results: frozenset[str]) -> bool:
    """Does ``M(state)`` depend on the given result vertices?

    True when a transition adjacent to ``state`` (feeding or draining it,
    i.e. any transition whose firing changes ``M(state)``) **or
    dominating** ``state`` (every token reaching the state passed through
    it) is guarded by a port whose value derives — through combinational
    logic — from one of the result vertices.
    """
    if not results:
        return False
    relevant = set(system.net.preset(state)) | set(system.net.postset(state))
    relevant |= {e for e in dominators(system.net).get(state, frozenset())
                 if system.net.is_transition(e)}
    for transition in relevant:
        for port in system.guard_ports(transition):
            if port.vertex in results:
                return True
            if sequential_sources(system, port) & results:
                return True
    return False


def directly_dependent(system: DataControlSystem, s_i: str, s_j: str) -> bool:
    """``S_i ↔ S_j`` (Definition 4.3)."""
    return bool(direct_dependence_reasons(system, s_i, s_j))


@dataclass
class DataDependence:
    """Precomputed ``↔`` and ``◇`` relations over all places of a system.

    Snapshot semantics: build a new instance after mutating the system.
    """

    system: DataControlSystem

    def __post_init__(self) -> None:
        self._places: list[str] = list(self.system.net.places)
        self._index = {p: i for i, p in enumerate(self._places)}
        n = len(self._places)
        direct = np.zeros((n, n), dtype=bool)
        # Pre-compute the per-state sets once — direct pair checks reuse them.
        r = {p: self.system.result_set(p) for p in self._places}
        dom = {p: self.system.dom(p) for p in self._places}
        ext = self.system.external_arc_names()
        has_ext = {p: bool(self.system.control_arcs(p) & ext) for p in self._places}
        source_cache: dict = {}

        def traced(port) -> frozenset[str]:
            if port not in source_cache:
                source_cache[port] = sequential_sources(self.system, port)
            return source_cache[port]

        dom_sets = dominators(self.system.net)
        guard_results: dict[str, set[str]] = {}
        for p in self._places:
            relevant = set(self.system.net.preset(p)) | set(self.system.net.postset(p))
            relevant |= {e for e in dom_sets.get(p, frozenset())
                         if self.system.net.is_transition(e)}
            vertices: set[str] = set()
            for t in relevant:
                for port in self.system.guard_ports(t):
                    vertices.add(port.vertex)
                    vertices.update(traced(port))
            guard_results[p] = vertices
        for i, p in enumerate(self._places):
            for j in range(i + 1, n):
                q = self._places[j]
                dependent = (
                    bool(r[p] & dom[q]) or bool(r[q] & dom[p]) or bool(r[p] & r[q])
                    or bool(guard_results[p] & r[q]) or bool(guard_results[q] & r[p])
                    or (has_ext[p] and has_ext[q])
                )
                if dependent:
                    direct[i, j] = True
                    direct[j, i] = True
        self._direct = direct
        self._closure = transitive_closure_bool(direct)

    # ------------------------------------------------------------------
    def direct(self, s_i: str, s_j: str) -> bool:
        """``S_i ↔ S_j``."""
        return bool(self._direct[self._index[s_i], self._index[s_j]])

    def dependent(self, s_i: str, s_j: str) -> bool:
        """``S_i ◇ S_j`` — transitive closure of ``↔``."""
        return bool(self._closure[self._index[s_i], self._index[s_j]])

    def independent(self, s_i: str, s_j: str) -> bool:
        """Not ``◇``-related: safe to reorder / parallelise."""
        return not self.dependent(s_i, s_j)

    @cached_property
    def dependent_pairs(self) -> frozenset[frozenset[str]]:
        """All unordered ``◇``-related place pairs."""
        pairs: set[frozenset[str]] = set()
        rows, cols = np.where(self._closure)
        for i, j in zip(rows.tolist(), cols.tolist()):
            if i < j:
                pairs.add(frozenset((self._places[i], self._places[j])))
        return frozenset(pairs)

    def matrix(self) -> np.ndarray:
        """Copy of the ``◇`` boolean matrix (row/col order = place order)."""
        return self._closure.copy()

    def place_order(self) -> list[str]:
        return list(self._places)
