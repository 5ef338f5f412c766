"""Common machinery for the benchmark design zoo.

Each design bundles: behavioural source text (exercising the textual
frontend), a default environment, and a pure-Python *reference model*
computing the expected output streams — the oracle the test suite checks
compiled-and-transformed hardware against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

from ..core.system import DataControlSystem
from ..semantics.environment import Environment
from ..semantics.trace import Trace
from ..semantics.values import Value
from ..synthesis.frontend import compile_source, parse
from ..synthesis.frontend.ast import Program

#: A reference model: input streams -> expected output streams per pad.
Reference = Callable[[Mapping[str, list[int]]], dict[str, list[int]]]


@dataclass(frozen=True)
class Design:
    """One zoo entry."""

    name: str
    description: str
    source: str
    default_inputs: dict[str, list[int]] = field(default_factory=dict)
    reference: Reference | None = None

    def program(self) -> Program:
        """Parse the behavioural source."""
        return parse(self.source)

    def build(self) -> DataControlSystem:
        """Compile the naive serial system Γ."""
        return compile_source(self.source)

    def environment(self, overrides: Mapping[str, list[int]] | None = None
                    ) -> Environment:
        """Default environment, optionally overriding input streams."""
        streams = {k: list(v) for k, v in self.default_inputs.items()}
        if overrides:
            streams.update({k: list(v) for k, v in overrides.items()})
        return Environment(streams)

    def expected(self, overrides: Mapping[str, list[int]] | None = None
                 ) -> dict[str, list[int]]:
        """Reference-model output streams for the (overridden) inputs."""
        if self.reference is None:
            raise NotImplementedError(f"design {self.name!r} has no reference")
        streams = {k: list(v) for k, v in self.default_inputs.items()}
        if overrides:
            streams.update({k: list(v) for k, v in overrides.items()})
        return self.reference(streams)


class OutputPads:
    """Which external arcs deliver to which output pad.

    The one rule for reading outputs off a run: an event is a pad output
    iff its arc's target vertex is an output pad.  :func:`pad_outputs`
    and the simulate job payloads both go through it; build it once per
    system and reuse it for every run of that system.
    """

    __slots__ = ("names", "by_arc")

    def __init__(self, system: DataControlSystem) -> None:
        datapath = system.datapath
        #: every output pad, in vertex order (pads no event reached too)
        self.names = tuple(v.name for v in datapath.output_vertices())
        pads = set(self.names)
        #: arc name -> the output pad it feeds
        self.by_arc = {arc.name: arc.target.vertex
                       for arc in datapath.arcs.values()
                       if arc.target.vertex in pads}

    def group(self, events) -> dict[str, list[Value]]:
        """Values per output pad from :class:`~repro.semantics.trace.
        Outcome` events, keeping their (observation) order."""
        grouped: dict[str, list[Value]] = {name: [] for name in self.names}
        by_arc = self.by_arc
        for _end, _start, arc, _index, value, _state in events:
            pad = by_arc.get(arc)
            if pad is not None:
                grouped[pad].append(value)
        return grouped


def pad_outputs(system: DataControlSystem, trace: Trace) -> dict[str, list[int]]:
    """Group a trace's external events by *output pad* vertex name.

    The canonical way examples and tests read results: events on arcs
    whose target is an output vertex, ordered by observation time first,
    then arc and occurrence (several distinct arcs may feed one pad).
    """
    return OutputPads(system).group(trace.outcome().events)


def pad_inputs(system: DataControlSystem, trace: Trace) -> dict[str, list[int]]:
    """Group a trace's external events by *input pad* vertex name."""
    grouped: dict[str, list[tuple[tuple[int, int, str, int], int]]] = {
        v.name: [] for v in system.datapath.input_vertices()
    }
    for event in trace.events:
        arc = system.datapath.arc(event.arc)
        source = system.datapath.vertex(arc.source.vertex)
        if source.is_input_vertex:
            key = (event.end, event.start, event.arc, event.index)
            grouped[source.name].append((key, event.value))
    return {pad: [v for _, v in sorted(pairs)] for pad, pairs in grouped.items()}
