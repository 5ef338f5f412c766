"""Markings — token assignments ``M : S → ℕ`` (Definition 3.1(1)).

A :class:`Marking` is an immutable, hashable multiset of tokens over place
names.  Immutability makes markings usable as reachability-graph nodes and
as dictionary keys; the firing rule therefore returns *new* markings.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping


class Marking(Mapping[str, int]):
    """Immutable token assignment over place names.

    Only places with a strictly positive token count are stored, so two
    markings compare equal iff they assign the same counts to the same
    places regardless of which zero entries were supplied.
    """

    __slots__ = ("_tokens", "_hash")

    def __init__(self, tokens: Mapping[str, int] | Iterable[tuple[str, int]] = ()) -> None:
        items = dict(tokens)
        for place, count in items.items():
            if count < 0:
                raise ValueError(f"negative token count {count} for place {place!r}")
        self._tokens: dict[str, int] = {p: c for p, c in items.items() if c > 0}
        self._hash: int | None = None

    # -- Mapping interface -------------------------------------------------
    def __getitem__(self, place: str) -> int:
        return self._tokens.get(place, 0)

    def __iter__(self) -> Iterator[str]:
        return iter(self._tokens)

    def __len__(self) -> int:
        return len(self._tokens)

    def __contains__(self, place: object) -> bool:
        return place in self._tokens

    # -- value semantics -----------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if isinstance(other, Marking):
            return self._tokens == other._tokens
        if isinstance(other, Mapping):
            return self._tokens == {p: c for p, c in other.items() if c > 0}
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._tokens.items()))
        return self._hash

    # -- queries -------------------------------------------------------------
    @property
    def total_tokens(self) -> int:
        """Total number of tokens in the marking."""
        return sum(self._tokens.values())

    def marked_places(self) -> frozenset[str]:
        """The set of places holding at least one token."""
        return frozenset(self._tokens)

    def peak(self) -> int:
        """The largest token count of any place (0 when empty)."""
        return max(self._tokens.values(), default=0)

    def is_empty(self) -> bool:
        """True iff no place holds a token (execution terminated, 3.1(6))."""
        return not self._tokens

    def is_safe(self) -> bool:
        """True iff no place holds more than one token (Definition 3.2(2))."""
        return all(count <= 1 for count in self._tokens.values())

    def covers(self, places: Iterable[str]) -> bool:
        """True iff every listed place holds at least one token."""
        tokens = self._tokens  # stores positive counts only
        for place in places:
            if place not in tokens:
                return False
        return True

    # -- derivation ------------------------------------------------------------
    def after_firing(self, consume: Iterable[str], produce: Iterable[str]) -> "Marking":
        """Marking after removing one token per place in ``consume`` and
        depositing one token per place in ``produce`` (Definition 3.1(5)).
        """
        tokens = dict(self._tokens)
        for place in consume:
            current = tokens.get(place, 0)
            if current < 1:
                raise ValueError(f"cannot consume token from empty place {place!r}")
            if current == 1:
                del tokens[place]
            else:
                tokens[place] = current - 1
        for place in produce:
            tokens[place] = tokens.get(place, 0) + 1
        # every count left is positive: skip the constructor's checks
        successor = Marking.__new__(Marking)
        successor._tokens = tokens
        successor._hash = None
        return successor

    def with_tokens(self, **changes: int) -> "Marking":
        """Return a marking with the given absolute counts overridden."""
        tokens = dict(self._tokens)
        tokens.update(changes)
        return Marking(tokens)

    def __repr__(self) -> str:
        inner = ", ".join(f"{p}:{c}" for p, c in sorted(self._tokens.items()))
        return f"Marking({{{inner}}})"
