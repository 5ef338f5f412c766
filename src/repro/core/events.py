"""External events and event structures — Definitions 3.3–3.6.

The semantics of a data/control flow system is its **external event
structure** ``S(Γ) = (E, ≺, ≍)``:

* an *external event* is a pair ``(A_i, w)`` — an external arc and the
  value passed over it — labelled with the controlling state and occurring
  while that state holds a token (Definition 3.4);
* ``≺`` (precedence): ``E_i ≺ E_j`` iff ``E_i`` occurs before ``E_j`` and
  their controlling states satisfy ``S_i ⇒ S_j`` (Definition 3.5);
* ``≍`` (concurrency): events that occur at the same time under the same
  controlling state;
* events related by neither are *casual* — they may occur in any order,
  and forcing an order on them would over-constrain the implementation
  (the paper's argument against total-order models).

Event structures are **compared without internal labels**: equality uses
per-arc value sequences plus the two relations over ``(arc, occurrence)``
keys, because the semantics of a system is defined purely by its
interaction with the environment (Definition 3.6) — the names of internal
control states must not influence equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple

from ..values import Value

#: Canonical event key: which external arc, which occurrence on that arc.
EventKey = tuple[str, int]


class ExternalEvent(NamedTuple):
    """One occurrence of a value passing over an external arc.

    A named tuple: both engines build one per emitted event, and
    construction, hashing and equality run in C.

    Attributes
    ----------
    arc:
        Name of the external arc.
    value:
        The value exchanged (an int, or UNDEF when the design exposes an
        undefined value — itself usually a bug worth observing).
    index:
        Occurrence number of this arc (0-based), i.e. its position in the
        arc's value sequence.
    state:
        The controlling Petri-net place (the label of Definition 3.4).
    activation:
        Identifier of the controlling state's token-holding interval; two
        events share an activation iff they were opened by the same token.
    start / end:
        Simulation steps at which the controlling token arrived and left.
    """

    arc: str
    value: Value
    index: int
    state: str
    activation: int
    start: int
    end: int

    @property
    def key(self) -> EventKey:
        return (self.arc, self.index)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"({self.arc}[{self.index}]={self.value!r} @ {self.state})"


@dataclass(frozen=True)
class EventStructure:
    """``S(Γ) = (E, ≺, ≍)`` in canonical, comparable form.

    ``precedence`` holds ordered pairs of event keys; ``concurrency``
    holds unordered pairs (as ``frozenset`` of two keys).
    """

    events: tuple[ExternalEvent, ...]
    precedence: frozenset[tuple[EventKey, EventKey]]
    concurrency: frozenset[frozenset[EventKey]]

    # ------------------------------------------------------------------
    def value_sequences(self) -> dict[str, tuple[Value, ...]]:
        """Per-arc value sequences in occurrence order."""
        return value_sequences(self.events)

    def keys(self) -> frozenset[EventKey]:
        return frozenset(event.key for event in self.events)

    def casual_pairs(self) -> frozenset[frozenset[EventKey]]:
        """Unordered event pairs in neither ``≺`` nor ``≍`` — the freedom
        a partial-order model preserves and a total-order model destroys."""
        keys = sorted(self.keys())
        related: set[frozenset[EventKey]] = set(self.concurrency)
        for a, b in self.precedence:
            related.add(frozenset((a, b)))
        out: set[frozenset[EventKey]] = set()
        for i, a in enumerate(keys):
            for b in keys[i + 1:]:
                pair = frozenset((a, b))
                if pair not in related:
                    out.add(pair)
        return frozenset(out)

    # ------------------------------------------------------------------
    def semantically_equal(self, other: "EventStructure") -> bool:
        """Definition 4.1 equality: same events, same ``≺``, same ``≍``.

        Internal labels (state names, activation ids, timestamps) are
        excluded — only externally observable structure is compared.
        """
        return (
            self.value_sequences() == other.value_sequences()
            and self.precedence == other.precedence
            and self.concurrency == other.concurrency
        )

    def explain_difference(self, other: "EventStructure") -> str | None:
        """Human-readable description of the first difference, or None."""
        mine, theirs = self.value_sequences(), other.value_sequences()
        if set(mine) != set(theirs):
            only_mine = sorted(set(mine) - set(theirs))
            only_theirs = sorted(set(theirs) - set(mine))
            return (f"different external arcs: only-left={only_mine}, "
                    f"only-right={only_theirs}")
        for arc in sorted(mine):
            if mine[arc] != theirs[arc]:
                return (f"value sequence differs on arc {arc!r}: "
                        f"{mine[arc]!r} vs {theirs[arc]!r}")
        if self.precedence != other.precedence:
            extra = sorted(self.precedence - other.precedence)
            missing = sorted(other.precedence - self.precedence)
            return (f"precedence differs: only-left={extra[:5]}, "
                    f"only-right={missing[:5]}")
        if self.concurrency != other.concurrency:
            extra2 = [tuple(sorted(p)) for p in self.concurrency - other.concurrency]
            missing2 = [tuple(sorted(p)) for p in other.concurrency - self.concurrency]
            return (f"concurrency differs: only-left={sorted(extra2)[:5]}, "
                    f"only-right={sorted(missing2)[:5]}")
        return None

    def __len__(self) -> int:
        return len(self.events)


def value_sequences(events: Iterable[ExternalEvent]
                    ) -> dict[str, tuple[Value, ...]]:
    """Per-arc value sequences of ``events`` in ``(arc, index)`` order.

    What :meth:`EventStructure.value_sequences` reports for the structure
    built from the same events, without building the precedence and
    concurrency relations.  Ties on ``(arc, index)`` keep the structure's
    canonical ``(end, start)`` order.
    """
    sequences: dict[str, list[Value]] = {}
    for event in sorted(events, key=lambda e: (e.arc, e.index, e.end, e.start)):
        sequences.setdefault(event.arc, []).append(event.value)
    return {arc: tuple(values) for arc, values in sequences.items()}


def build_event_structure(
    events: Iterable[ExternalEvent],
    precedes_states: Mapping[str, frozenset[str]] | None = None,
    *,
    state_precedes=None,
) -> EventStructure:
    """Assemble an :class:`EventStructure` from observed events.

    Parameters
    ----------
    events:
        The observed external events (any order; canonical order is
        reconstructed from ``(end, start, arc, index)``).
    state_precedes:
        Callable ``(state_i, state_j) -> bool`` implementing the
        structural ``⇒`` relation of the generating system.  Required for
        the precedence relation; the ``precedes_states`` mapping form
        (state → set of successor states) is accepted as an alternative.

    The relations are built exactly per Definition 3.5:

    * ``E_i ≺ E_j`` iff ``E_i`` occurs before ``E_j`` (its activation ends
      no later than ``E_j``'s begins) and ``S_i ⇒ S_j``;
    * ``E_i ≍ E_j`` iff both events belong to the same activation of the
      same controlling state.
    """
    event_list = sorted(events, key=lambda e: (e.end, e.start, e.arc, e.index))
    if state_precedes is None:
        if precedes_states is None:
            def state_precedes(_a: str, _b: str) -> bool:
                return False
        else:
            mapping = precedes_states

            def state_precedes(a: str, b: str) -> bool:
                return b in mapping.get(a, frozenset())

    precedence: set[tuple[EventKey, EventKey]] = set()
    concurrency: set[frozenset[EventKey]] = set()
    for i, e_i in enumerate(event_list):
        for e_j in event_list[i + 1:]:
            same_activation = (e_i.state == e_j.state
                               and e_i.activation == e_j.activation)
            if same_activation:
                concurrency.add(frozenset((e_i.key, e_j.key)))
                continue
            # "occurs before" is strict: an activation must have *ended*
            # before the other began.  Simultaneous activations of two
            # loop-related states (both ⇒ each other around the cycle)
            # are casually related, not ordered — a non-strict comparison
            # would order them by an arbitrary tie-break and make the
            # structure depend on the firing policy.
            if e_i.end < e_j.start and state_precedes(e_i.state, e_j.state):
                precedence.add((e_i.key, e_j.key))
            elif e_j.end < e_i.start and state_precedes(e_j.state, e_i.state):
                precedence.add((e_j.key, e_i.key))
    return EventStructure(tuple(event_list), frozenset(precedence),
                          frozenset(concurrency))
