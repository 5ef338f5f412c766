"""Execution traces: everything a simulation run observed.

A :class:`Trace` records the fired steps, the latch operations, any
runtime conflicts, and — most importantly — the external events, from
which the event structure (Definition 3.5) is assembled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from ..core.events import ExternalEvent
from ..datapath.ports import PortId
from ..petri.marking import Marking
from .profile import SimMetrics
from .values import Value


class LatchRecord(NamedTuple):
    """One sequential update: ``vertex.port ← value`` at a given step."""

    step: int
    port: PortId
    old: Value
    new: Value
    state: str  # the controlling place whose departure caused the latch


class ConflictRecord(NamedTuple):
    """A runtime fault observed in non-strict mode.

    ``kind`` is one of ``"drive"`` (two active arcs driving one input
    port), ``"latch"`` (two states latching one register in the same
    step), or ``"choice"`` (two fireable transitions competing for a
    token — a dynamic conflict in the sense of Definition 3.2(3)).
    """

    step: int
    kind: str
    detail: str


class Outcome(NamedTuple):
    """What a run shows its environment: the part a job payload keeps.

    The paper defines a run's observable behaviour by its external
    events alone (Defs. 3.3-3.5); latches and fired steps are internal.
    ``status`` is ``"terminated"``, ``"deadlocked"`` or ``"partial"``
    (the step budget ran out under ``on_limit="return"``).  ``events``
    are ``(end, start, arc, index, value, state)`` tuples in ascending
    order: observation time first, then arc and occurrence, so ties
    between arcs feeding one pad break deterministically.
    """

    step_count: int
    status: str
    firings: int
    num_conflicts: int
    events: list[tuple[int, int, str, int, Value, str]]


@dataclass
class Trace:
    """Complete record of one simulation run."""

    events: list[ExternalEvent] = field(default_factory=list)
    steps: list[list[str]] = field(default_factory=list)
    latches: list[LatchRecord] = field(default_factory=list)
    conflicts: list[ConflictRecord] = field(default_factory=list)
    final_marking: Marking = field(default_factory=Marking)
    final_state: dict[PortId, Value] = field(default_factory=dict)
    terminated: bool = False   # True iff no tokens remained (Def. 3.1(6))
    deadlocked: bool = False   # True iff tokens remained but nothing fired
    step_count: int = 0
    # what the run cost (never part of trace equality: two runs are the
    # same run even when one hit caches the other had to populate)
    metrics: SimMetrics | None = field(default=None, compare=False)

    @property
    def num_firings(self) -> int:
        return sum(len(step) for step in self.steps)

    def outcome(self) -> Outcome:
        """The run's :class:`Outcome` (what a job payload is built from)."""
        status = ("terminated" if self.terminated
                  else "deadlocked" if self.deadlocked else "partial")
        # (arc, index) is unique per run, so the sort never compares values
        events = sorted((e.end, e.start, e.arc, e.index, e.value, e.state)
                        for e in self.events)
        return Outcome(self.step_count, status, self.num_firings,
                       len(self.conflicts), events)

    def events_on(self, arc: str) -> list[ExternalEvent]:
        """Events observed on one external arc, in occurrence order."""
        return sorted((e for e in self.events if e.arc == arc),
                      key=lambda e: e.index)

    def output_values(self, arc: str) -> list[Value]:
        """Value sequence observed on one external arc."""
        return [e.value for e in self.events_on(arc)]

    def outputs_by_vertex(self) -> dict[str, list[Value]]:
        """Values delivered to each output pad, keyed by pad vertex name.

        Convenience for examples/tests: groups events on arcs whose target
        vertex is an output pad.
        """
        grouped: dict[str, list[tuple[int, Value]]] = {}
        for event in self.events:
            grouped.setdefault(event.arc, []).append((event.index, event.value))
        return {arc: [v for _, v in sorted(pairs)] for arc, pairs in grouped.items()}

    def summary(self) -> str:
        status = ("terminated" if self.terminated
                  else "deadlocked" if self.deadlocked else "running")
        return (
            f"Trace({status} after {self.step_count} steps, "
            f"{self.num_firings} firings, {len(self.events)} external events, "
            f"{len(self.conflicts)} conflicts)"
        )
