"""Ports and arcs of the data path (Definition 2.1).

A *port* is the basic abstraction of the input/output behaviour of a data
manipulation unit; it separates the specification of a vertex's operation
from its implementation.  Ports are identified globally by a
:class:`PortId` — the owning vertex's name plus the port's local name —
which guarantees the paper's requirement ``I ∩ O = ∅`` as long as each
port name is unique within its vertex and its direction is fixed.

An *arc* ``(O, I) ∈ A ⊆ O × I`` connects an output port to an input port.
Arcs carry their own names because the control mapping
``C : S → 2^A`` (Definition 2.2) needs to reference individual arcs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple


class Direction(enum.Enum):
    """Port direction; fixed at creation."""

    IN = "in"
    OUT = "out"


class PortId(NamedTuple):
    """Globally unique port reference: ``vertex.port``.

    A named tuple, so hashing and equality run in C: the engines look
    values up by ``PortId`` on every step.  It equals (and hashes like)
    the bare ``(vertex, port)`` tuple and orders like one.
    """

    vertex: str
    port: str

    def __str__(self) -> str:
        return f"{self.vertex}.{self.port}"

    @staticmethod
    def parse(text: str) -> "PortId":
        """Inverse of ``str``: ``"v.p"`` → ``PortId("v", "p")``."""
        vertex, _, port = text.partition(".")
        if not vertex or not port:
            raise ValueError(f"malformed port reference {text!r}")
        return PortId(vertex, port)


@dataclass(frozen=True)
class Arc:
    """A connection from an output port to an input port.

    Attributes
    ----------
    name:
        Unique arc identifier within the data path (referenced by the
        control mapping ``C``).
    source:
        The output port the arc reads from.
    target:
        The input port the arc drives.
    """

    name: str
    source: PortId
    target: PortId

    def __str__(self) -> str:
        return f"{self.name}: {self.source} -> {self.target}"
