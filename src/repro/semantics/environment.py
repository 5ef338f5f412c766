"""The environment: predefined input value sequences (Section 3).

The paper fixes the environment when comparing systems: "we assume that a
sequence of such values is implicitly predefined for each input vertex,
when an external event structure is specified."  An :class:`Environment`
holds exactly those sequences — one per input vertex — plus a policy for
what happens when a sequence runs dry (loops whose iteration count depends
on data would otherwise need unboundedly long sequences):

* ``"raise"`` — raise :class:`~repro.errors.EnvironmentExhausted`;
* ``"hold"``  — keep returning the last value (a steady input line);
* ``"cycle"`` — restart the sequence from the beginning;
* ``"undef"`` — return :data:`~repro.semantics.values.UNDEF`.

Environments are *forked* before each simulation so two systems under
comparison consume identical, independent streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from ..errors import DefinitionError, EnvironmentExhausted
from .values import UNDEF, Value, as_word

EXHAUSTED_POLICIES = ("raise", "hold", "cycle", "undef")


@dataclass
class Environment:
    """Per-input-vertex value sequences with consumption cursors."""

    sequences: dict[str, list[Value]] = field(default_factory=dict)
    exhausted_policy: str = "raise"
    _cursor: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.exhausted_policy not in EXHAUSTED_POLICIES:
            raise DefinitionError(
                f"unknown exhausted policy {self.exhausted_policy!r}; "
                f"choose one of {EXHAUSTED_POLICIES}"
            )
        self.sequences = {
            vertex: [as_word(v) for v in values]
            for vertex, values in self.sequences.items()
        }

    @classmethod
    def of(cls, *, exhausted_policy: str = "raise",
           **sequences: Sequence[Value]) -> "Environment":
        """Keyword-argument constructor: ``Environment.of(a=[1,2], b=[3])``."""
        return cls({k: list(v) for k, v in sequences.items()},
                   exhausted_policy=exhausted_policy)

    # ------------------------------------------------------------------
    def provide(self, vertex: str, values: Iterable[Value]) -> None:
        """Define (replace) the sequence for one input vertex."""
        self.sequences[vertex] = [as_word(v) for v in values]
        self._cursor.pop(vertex, None)

    def draw(self, vertex: str) -> Value:
        """Consume and return the next value for an input vertex."""
        sequence = self.sequences.get(vertex, [])
        position = self._cursor.get(vertex, 0)
        if position < len(sequence):
            self._cursor[vertex] = position + 1
            return sequence[position]
        # exhausted
        if self.exhausted_policy == "hold" and sequence:
            return sequence[-1]
        if self.exhausted_policy == "cycle" and sequence:
            self._cursor[vertex] = 1
            return sequence[0]
        if self.exhausted_policy == "undef":
            return UNDEF
        raise EnvironmentExhausted(vertex, position)

    def consumed(self, vertex: str) -> int:
        """How many values have been drawn for a vertex."""
        return self._cursor.get(vertex, 0)

    def cursors(self) -> dict[str, int]:
        """Snapshot of all consumption cursors (for checkpointing)."""
        return dict(self._cursor)

    def restore_cursors(self, cursors: Mapping[str, int]) -> None:
        """Restore a cursor snapshot taken by :meth:`cursors`.

        Together with the sequences (which never change mid-run) the
        cursors are the environment's entire mutable state, so restoring
        them rewinds the environment to the snapshot point exactly.
        """
        self._cursor = {vertex: int(position)
                        for vertex, position in cursors.items()}

    def fork(self) -> "Environment":
        """An identical environment with fresh cursors."""
        return Environment(
            {k: list(v) for k, v in self.sequences.items()},
            exhausted_policy=self.exhausted_policy,
        )

    def __contains__(self, vertex: str) -> bool:
        return vertex in self.sequences
