"""Structural validation of data paths.

Two kinds of checks live here:

* **global well-formedness** (:func:`validate_datapath`) — every arc's
  endpoints exist with the right directions (enforced on construction,
  re-checked here defensively), external vertices have the port shape of
  Definition 3.3, and every combinational input is reachable from some
  driver;
* **combinational-loop detection** (:func:`combinational_cycle`) over an
  arbitrary *subset* of arcs — the properly-designed rule 3.2(4) requires
  the subgraph associated with each control state to be free of
  combinational loops, so the checker calls this once per control state
  with the state's active arc set.
"""

from __future__ import annotations

from typing import Iterable

from ..diagnostics import Diagnostic, Location
from ..errors import ValidationError
from ..values import UNDEF, Value
from .graph import DataPath
from .operations import OpKind
from .ports import PortId

_HINT = "repair the data-path structure before any other analysis"


def datapath_diagnostics(dp: DataPath) -> list[Diagnostic]:
    """Well-formedness findings as structured diagnostics (rule ``DP000``).

    Checks:
    1. external vertices have the exact port structure of Definition 3.3;
    2. arcs reference existing ports with correct directions;
    3. no arc is driven by an environment sink port;
    4. input-vertex output ports and output-vertex input ports are
       connected (dangling pads are almost always a modelling error).
    """
    def problem(message: str, *locations: Location) -> Diagnostic:
        return Diagnostic("DP000", "error", message, locations, hint=_HINT)

    problems: list[Diagnostic] = []
    for vertex in dp.vertices.values():
        at_vertex = Location("vertex", vertex.name)
        if vertex.is_input_vertex:
            if vertex.in_ports or len(vertex.out_ports) != 1:
                problems.append(problem(
                    f"input vertex {vertex.name!r} must have no input ports "
                    "and exactly one output port (Definition 3.3)", at_vertex))
            if not dp.arcs_from(PortId(vertex.name, vertex.out_ports[0])):
                problems.append(problem(
                    f"input vertex {vertex.name!r} drives no arc", at_vertex))
        if vertex.is_output_vertex:
            if len(vertex.in_ports) != 1:
                problems.append(problem(
                    f"output vertex {vertex.name!r} must have exactly one "
                    "input port (Definition 3.3)", at_vertex))
            elif not dp.arcs_into(PortId(vertex.name, vertex.in_ports[0])):
                problems.append(problem(
                    f"output vertex {vertex.name!r} receives no arc",
                    at_vertex))
    for arc in dp.arcs.values():
        at_arc = Location("arc", arc.name)
        src_vertex = dp.vertices.get(arc.source.vertex)
        dst_vertex = dp.vertices.get(arc.target.vertex)
        if src_vertex is None or arc.source.port not in src_vertex.out_ports:
            problems.append(problem(
                f"arc {arc.name!r} has dangling source {arc.source}",
                at_arc, Location("port", str(arc.source))))
            continue
        if dst_vertex is None or arc.target.port not in dst_vertex.in_ports:
            problems.append(problem(
                f"arc {arc.name!r} has dangling target {arc.target}",
                at_arc, Location("port", str(arc.target))))
            continue
        if src_vertex.operation(arc.source.port).kind is OpKind.OUTPUT:
            problems.append(problem(
                f"arc {arc.name!r} is driven by environment sink {arc.source}",
                at_arc, Location("port", str(arc.source))))
    return problems


def validate_datapath(dp: DataPath) -> list[str]:
    """Return a list of problems (empty = valid).

    Deprecated shim kept for source compatibility: the messages of
    :func:`datapath_diagnostics`, which callers should prefer for
    structured rule ids, severities and location anchors.
    """
    return [d.message for d in datapath_diagnostics(dp)]


def assert_valid(dp: DataPath) -> None:
    """Raise :class:`~repro.errors.ValidationError` on the first problem."""
    problems = validate_datapath(dp)
    if problems:
        raise ValidationError("; ".join(problems))


def combinational_cycle(dp: DataPath, arc_names: Iterable[str]) -> list[str] | None:
    """Find a combinational loop within a subset of arcs, if any.

    Builds the vertex-level dependence graph restricted to the given arcs:
    an edge ``u → v`` exists when an arc runs from an output port of ``u``
    to an input port of ``v`` *and* ``v`` propagates combinationally
    (``v`` is a COM vertex — SEQ vertices and environment pads break
    combinational paths).  Returns a cycle as a vertex-name list, or
    ``None`` when the subgraph is loop-free (rule 3.2(4) satisfied).
    """
    edges: dict[str, set[str]] = {}
    for name in arc_names:
        arc = dp.arc(name)
        target_vertex = dp.vertex(arc.target.vertex)
        if not target_vertex.is_combinational:
            continue
        edges.setdefault(arc.source.vertex, set()).add(arc.target.vertex)

    # iterative DFS with colouring; returns the first cycle found
    WHITE, GREY, BLACK = 0, 1, 2
    colour: dict[str, int] = {}
    parent: dict[str, str] = {}

    for root in sorted(edges):
        if colour.get(root, WHITE) is not WHITE:
            continue
        stack: list[tuple[str, Iterable[str]]] = [(root, iter(sorted(edges.get(root, ()))))]
        colour[root] = GREY
        while stack:
            node, children = stack[-1]
            advanced = False
            for child in children:
                state = colour.get(child, WHITE)
                if state == GREY:
                    # reconstruct the cycle child → … → node → child
                    cycle = [child, node]
                    walker = node
                    while walker != child and walker in parent:
                        walker = parent[walker]
                        if walker != child:
                            cycle.append(walker)
                    cycle.reverse()
                    return cycle
                if state == WHITE:
                    colour[child] = GREY
                    parent[child] = node
                    stack.append((child, iter(sorted(edges.get(child, ())))))
                    advanced = True
                    break
            if not advanced:
                colour[node] = BLACK
                stack.pop()
    return None


def com_vertices(dp: DataPath) -> frozenset[str]:
    """Names of the COM vertices: the set :func:`com_order` ranks.

    It depends on the data path alone, so a simulator computes it once
    and reuses it for every open-arc set.
    """
    return frozenset(v.name for v in dp.combinational_vertices())


def undriven_values(dp: DataPath, com: frozenset[str]
                    ) -> tuple[dict[PortId, Value], frozenset[str]]:
    """What each COM output port outputs while no open arc drives it.

    An input port no open arc drives reads UNDEF (Definition 3.1(10)),
    and operations are pure, so a COM vertex no open arc targets outputs
    ``op.evaluate(UNDEF, …, UNDEF)`` at every step: UNDEF for every
    strict operation, ``k`` for a zero-argument ``const[k]``.  Returns
    that value per output port, and the vertices whose all-UNDEF
    evaluation raises (no value function, arity mismatch, a function
    that rejects UNDEF).  Those get no entry: an engine evaluates them
    at every step, so they raise where a full pass would.
    """
    values: dict[PortId, Value] = {}
    always: set[str] = set()
    for vertex in dp.vertices.values():
        name = vertex.name
        if name not in com:
            continue
        undefined = [UNDEF] * len(vertex.in_ports)
        try:
            ports = {PortId(name, port): vertex.operation(port).evaluate(*undefined)
                     for port in vertex.out_ports}
        except Exception:
            always.add(name)
        else:
            values.update(ports)
    return values, frozenset(always)


def drive_sources(dp: DataPath, arc_names: Iterable[str]
                  ) -> tuple[dict[PortId, set[PortId]],
                             tuple[tuple[PortId, str], ...]]:
    """Each input port the open arcs drive -> its source ports, and the
    bus-drive conflicts (ports with two distinct sources, which read
    UNDEF), sorted by port name, as ``(port, record detail)``."""
    sources: dict[PortId, set[PortId]] = {}
    for name in arc_names:
        arc = dp.arc(name)
        sources.setdefault(arc.target, set()).add(arc.source)
    conflicts = tuple(
        (port, f"input port {port} driven by {sorted(map(str, srcs))}")
        for port, srcs in sorted(sources.items(), key=lambda item: str(item[0]))
        if len(srcs) > 1)
    return sources, conflicts


def live_com(com: frozenset[str], always: frozenset[str],
             driven: Iterable[PortId]) -> frozenset[str]:
    """The COM vertices a step must evaluate: those owning a ``driven``
    input port (the targets of the open arcs), plus ``always``.

    Every other COM vertex outputs its :func:`undriven_values`.  A
    combinational loop closed by open arcs runs through targets of open
    arcs only, so :func:`com_order` over this set finds every loop it
    finds over all of ``com``.
    """
    return always.union(port.vertex for port in driven if port.vertex in com)


def com_order(dp: DataPath, com: frozenset[str],
              arc_names: Iterable[str]) -> list[str]:
    """Topological order of the COM vertices ``com`` under the active arcs.

    Kahn's algorithm over the COM-to-COM edges.  Vertices left unranked
    lie on a combinational loop; only then does :func:`combinational_cycle`
    run, to name the loop in the :class:`~repro.errors.ValidationError`.
    """
    arc_list = list(arc_names)
    indegree = dict.fromkeys(com, 0)
    out_edges: dict[str, list[str]] = {}
    for name in arc_list:
        arc = dp.arc(name)
        target, source = arc.target.vertex, arc.source.vertex
        if target in com and source in com:
            out_edges.setdefault(source, []).append(target)
            indegree[target] += 1
    ready = sorted(v for v, d in indegree.items() if d == 0)
    order: list[str] = []
    while ready:
        node = ready.pop()
        order.append(node)
        for succ in out_edges.get(node, ()):
            indegree[succ] -= 1
            if indegree[succ] == 0:
                ready.append(succ)
    if len(order) < len(com):
        cycle = combinational_cycle(dp, arc_list)
        raise ValidationError(
            f"combinational loop among active vertices: {' -> '.join(cycle)}"
        )
    return order


def topological_com_order(dp: DataPath, arc_names: Iterable[str]) -> list[str]:
    """Topological order of COM vertices under the given active arcs.

    Used by the simulator to evaluate the combinational fixpoint in a
    single pass.  Raises :class:`~repro.errors.ValidationError` when the
    active subgraph contains a combinational loop.
    """
    return com_order(dp, com_vertices(dp), arc_names)
