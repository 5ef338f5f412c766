"""The data/control flow system ``Γ = (D, S, T, F, C, G, M0)`` — Definition 2.2.

This class combines a :class:`~repro.datapath.graph.DataPath` with a
:class:`~repro.petri.net.PetriNet` through the two extension mappings:

* ``C : S → 2^A`` — the *control mapping*: when a control state holds a
  token, the arcs in ``C(S)`` are open for data to flow (Definition 3.1(8));
* ``G : O → 2^T`` — the *guard mapping*: a transition guarded by output
  port(s) may fire only when some guard value is TRUE (Definition 3.1(4));
  stored here inverted, per transition, which is the direction every
  algorithm needs.

The derived notions of Definitions 2.4, 2.5 and 4.2 — the association
relation, the active subgraph ``ASS(S)``, and ``dom``/``cod``/result set
``R(S)`` — are methods on this class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..datapath.graph import DataPath
from ..datapath.ports import PortId
from ..errors import DefinitionError
from ..petri.net import PetriNet
from ..petri.relations import StructuralRelations


@dataclass
class DataControlSystem:
    """A complete data/control flow system Γ.

    Attributes
    ----------
    datapath:
        The data path ``D``.
    net:
        The control Petri net ``(S, T, F, M0)``.
    control:
        ``C`` — mapping from place name to the set of arc names it opens.
        Places absent from the mapping control no arcs.
    guards:
        ``G`` inverted — mapping from transition name to the set of guard
        ports; transitions absent from the mapping are unguarded (always
        may fire when enabled).
    """

    datapath: DataPath
    net: PetriNet
    control: dict[str, set[str]] = field(default_factory=dict)
    guards: dict[str, set[PortId]] = field(default_factory=dict)
    name: str = "system"
    _relations: StructuralRelations | None = field(default=None, repr=False)
    # (pairs, complete, (max_markings, backend)) of the last coexistence()
    _coexistence: tuple[frozenset[frozenset[str]], bool,
                        tuple[int, str]] | None = field(
        default=None, repr=False)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def set_control(self, place: str, arcs: Iterable[str]) -> None:
        """Define ``C(place)`` (replacing any previous mapping)."""
        if place not in self.net.places:
            raise DefinitionError(f"unknown control state {place!r}")
        arc_set = set(arcs)
        for arc in arc_set:
            if arc not in self.datapath.arcs:
                raise DefinitionError(
                    f"control state {place!r} maps to unknown arc {arc!r}"
                )
        if arc_set:
            self.control[place] = arc_set
        else:
            self.control.pop(place, None)

    def add_control(self, place: str, *arcs: str) -> None:
        """Add arcs to ``C(place)``."""
        current = set(self.control.get(place, set()))
        current.update(arcs)
        self.set_control(place, current)

    def set_guard(self, transition: str, ports: Iterable[PortId | str]) -> None:
        """Define the guard set of a transition (replacing any previous).

        Multiple guard ports are OR-ed at firing time (Definition 3.1(4)).
        """
        if transition not in self.net.transitions:
            raise DefinitionError(f"unknown transition {transition!r}")
        resolved: set[PortId] = set()
        for port in ports:
            pid = PortId.parse(port) if isinstance(port, str) else port
            vertex = self.datapath.vertex(pid.vertex)
            if pid.port not in vertex.out_ports:
                raise DefinitionError(
                    f"guard {pid} of transition {transition!r} is not an "
                    "output port (G : O → 2^T)"
                )
            resolved.add(pid)
        if resolved:
            self.guards[transition] = resolved
        else:
            self.guards.pop(transition, None)

    def invalidate(self) -> None:
        """Drop cached relations after mutating the net or the marking."""
        self._relations = None
        self._coexistence = None

    # ------------------------------------------------------------------
    # mappings and derived sets
    # ------------------------------------------------------------------
    def control_arcs(self, place: str) -> frozenset[str]:
        """``C(S)`` — names of arcs controlled by a control state."""
        return frozenset(self.control.get(place, ()))

    def controlling_states(self, arc: str) -> frozenset[str]:
        """All control states whose ``C`` set contains the arc."""
        return frozenset(p for p, arcs in self.control.items() if arc in arcs)

    def guard_ports(self, transition: str) -> frozenset[PortId]:
        """Guard ports of a transition (empty = unguarded)."""
        return frozenset(self.guards.get(transition, ()))

    def guarded_transitions(self, port: PortId) -> frozenset[str]:
        """``G(O)`` — the paper's original direction of the guard mapping."""
        return frozenset(t for t, ports in self.guards.items() if port in ports)

    def associated_vertices(self, place: str) -> frozenset[str]:
        """Vertices *associated with* a control state (Definition 2.4).

        ``V_k`` is associated with ``S_j`` iff some arc in ``C(S_j)``
        targets an input port of ``V_k``.  Only input ports matter: an
        output port can fan out without conflict, a single input port
        cannot be driven from two sources at once.
        """
        vertices: set[str] = set()
        for arc_name in self.control.get(place, ()):
            vertices.add(self.datapath.arc(arc_name).target.vertex)
        return frozenset(vertices)

    def ass(self, place: str) -> tuple[frozenset[str], frozenset[str]]:
        """``ASS(S)`` — the active arcs and vertices (Definition 2.5).

        Returns ``(arc_names, vertex_names)``.
        """
        arcs = self.control_arcs(place)
        return arcs, self.associated_vertices(place)

    def dom(self, place: str) -> frozenset[str]:
        """``dom(S)`` — vertices with an output port on a controlled arc
        (Definition 4.2)."""
        return frozenset(
            self.datapath.arc(a).source.vertex for a in self.control.get(place, ())
        )

    def cod(self, place: str) -> frozenset[str]:
        """``cod(S)`` — vertices with an input port on a controlled arc
        (Definition 4.2)."""
        return frozenset(
            self.datapath.arc(a).target.vertex for a in self.control.get(place, ())
        )

    def result_set(self, place: str) -> frozenset[str]:
        """``R(S)`` — the sequential subset of ``cod(S)`` (Definition 4.2).

        The vertices whose state is (re)written while ``S`` is active.
        """
        return frozenset(
            v for v in self.cod(place) if self.datapath.vertex(v).is_sequential
        )

    def operations_of(self, place: str) -> frozenset[str]:
        """The operation names performed on a control state (Definition 4.2):
        the operations defined on the output ports of its codomain."""
        names: set[str] = set()
        for vertex_name in self.cod(place):
            vertex = self.datapath.vertex(vertex_name)
            names.update(op.name for op in vertex.ops.values())
        return frozenset(names)

    def states_associated_with_vertex(self, vertex: str) -> frozenset[str]:
        """All control states a vertex is associated with (Definition 2.4)."""
        return frozenset(
            p for p in self.control if vertex in self.associated_vertices(p)
        )

    def external_arc_names(self) -> frozenset[str]:
        """Names of the external arcs ``A_e`` (Definition 3.3)."""
        return frozenset(a.name for a in self.datapath.external_arcs())

    def controlled_external_arcs(self, place: str) -> frozenset[str]:
        """External arcs opened by a control state — its observable window."""
        return self.control_arcs(place) & self.external_arc_names()

    # ------------------------------------------------------------------
    # structural relations (Definition 2.3), cached
    # ------------------------------------------------------------------
    @property
    def relations(self) -> StructuralRelations:
        """The ``⇒``/``α``/``∥`` relations of the control net (cached).

        Call :meth:`invalidate` after mutating the net structure.
        """
        if self._relations is None:
            self._relations = StructuralRelations(self.net)
        return self._relations

    def coexistence(self, *, max_markings: int = 100_000,
                    backend: str = "explicit"
                    ) -> tuple[frozenset[frozenset[str]], bool]:
        """Simultaneously markable place pairs (cached).

        The behavioural refinement of ``∥`` needed on cyclic nets: see
        :func:`repro.petri.reachability.coexistent_place_pairs`.
        ``backend="symbolic"`` computes the same relation through the
        frontier/unfolding engine.  A complete answer is reused for any
        arguments (both backends agree by construction, and the
        differential tests pin it); a truncated one only for the same
        ``max_markings`` and ``backend``.
        """
        args = (max_markings, backend)
        cached = self._coexistence
        if cached is None or not (cached[1] or cached[2] == args):
            from ..petri.reachability import coexistent_place_pairs

            pairs, complete = coexistent_place_pairs(
                self.net, max_markings=max_markings, backend=backend)
            cached = self._coexistence = (pairs, complete, args)
        return cached[0], cached[1]

    def may_coexist(self, s_1: str, s_2: str) -> bool:
        """Can the two places (or the place with itself) hold tokens at
        the same time?  Conservative (``True``) when the reachability
        budget was exhausted."""
        pairs, complete = self.coexistence()
        if not complete:
            return True
        key = frozenset((s_1, s_2))
        return key in pairs

    # ------------------------------------------------------------------
    # validation / copying
    # ------------------------------------------------------------------
    def validate(self) -> list[str]:
        """Basic cross-reference well-formedness (not Definition 3.2)."""
        problems: list[str] = []
        for place, arcs in self.control.items():
            if place not in self.net.places:
                problems.append(f"control mapping for unknown place {place!r}")
            for arc in arcs:
                if arc not in self.datapath.arcs:
                    problems.append(
                        f"control state {place!r} maps to unknown arc {arc!r}"
                    )
        for transition, ports in self.guards.items():
            if transition not in self.net.transitions:
                problems.append(f"guard on unknown transition {transition!r}")
            for pid in ports:
                vertex = self.datapath.vertices.get(pid.vertex)
                if vertex is None or pid.port not in vertex.out_ports:
                    problems.append(
                        f"guard port {pid} of {transition!r} does not exist"
                    )
        uncontrolled = set(self.datapath.arcs) - {
            a for arcs in self.control.values() for a in arcs
        }
        for arc in sorted(uncontrolled):
            problems.append(f"arc {arc!r} is controlled by no state (never opens)")
        return problems

    def copy(self, *, name: str | None = None) -> "DataControlSystem":
        """Deep-enough copy sharing immutable vertices/arcs/elements."""
        return DataControlSystem(
            datapath=self.datapath.copy(),
            net=self.net.copy(),
            control={p: set(a) for p, a in self.control.items()},
            guards={t: set(g) for t, g in self.guards.items()},
            name=name if name is not None else self.name,
        )

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DataControlSystem({self.name!r}: {self.datapath}, {self.net}, "
            f"|C|={len(self.control)}, |G|={len(self.guards)})"
        )
