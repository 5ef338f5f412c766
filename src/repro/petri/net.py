"""Marked Petri nets — the control substrate of the computation model.

This module implements the plain (un-extended) Petri net ``(S, T, F, M0)``
from Definition 2.2 of the paper:

* ``S`` — a finite set of *S-elements* (places / control states),
* ``T`` — a finite set of *T-elements* (transitions),
* ``F ⊆ (S × T) ∪ (T × S)`` — the flow relation,
* ``M0 : S → {0, 1}`` — the initial marking.

Places and transitions are identified by unique string names.  The guard
mapping ``G`` and control mapping ``C`` that extend this net into a full
data/control flow system live in :mod:`repro.core.system`; keeping the net
itself ignorant of the data path lets the reachability, invariant and
structural-relation algorithms below work on any net.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from ..errors import DefinitionError
from .marking import Marking


@dataclass(frozen=True)
class Place:
    """A Petri-net S-element (control state).

    Attributes
    ----------
    name:
        Unique identifier within the net.
    label:
        Optional human-readable annotation (e.g. the source statement a
        control state was compiled from).
    """

    name: str
    label: str = ""

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name


@dataclass(frozen=True)
class Transition:
    """A Petri-net T-element.

    Attributes
    ----------
    name:
        Unique identifier within the net.
    label:
        Optional human-readable annotation.
    """

    name: str
    label: str = ""

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name


@dataclass(frozen=True, eq=False)
class TokenIndex:
    """The token game's view of one net structure, built once.

    Every token game in the package — :func:`~repro.petri.execution.
    maximal_step` and :func:`~repro.petri.execution.fire_step`, the
    explicit explorer, the simulator's conflict check and the compiled
    plans of :mod:`repro.semantics.vector` — reads presets, postsets and
    orders from here instead of from the net's adjacency sets:

    * ``places`` / ``transitions`` — insertion order; ``place_index`` and
      ``rank`` give each element's position in it;
    * ``presets`` / ``postsets`` — each transition's places as a tuple in
      place order;
    * ``consumers`` — each place's consuming transitions (its postset)
      in rank order;
    * ``unconditional`` — the transitions with an empty preset, in rank
      order.

    A transition is enabled only when every preset place is marked
    (Definition 3.1(3)), so at a marking only the consumers of the marked
    places and the unconditional transitions can be enabled:
    :meth:`candidates` lists exactly those, in rank order.  The mappings
    are shared with the callers and must be treated as read-only.
    """

    version: int
    places: tuple[str, ...]
    place_index: dict[str, int]
    transitions: tuple[str, ...]
    rank: dict[str, int]
    presets: dict[str, tuple[str, ...]]
    postsets: dict[str, tuple[str, ...]]
    consumers: dict[str, tuple[str, ...]]
    unconditional: tuple[str, ...]

    @classmethod
    def of(cls, net: "PetriNet") -> "TokenIndex":
        places = tuple(net.places)
        place_index = {p: i for i, p in enumerate(places)}
        transitions = tuple(net.transitions)
        by_place = place_index.__getitem__
        presets = {t: tuple(sorted(net._pred[t], key=by_place))
                   for t in transitions}
        postsets = {t: tuple(sorted(net._succ[t], key=by_place))
                    for t in transitions}
        consumers: dict[str, list[str]] = {p: [] for p in places}
        for t in transitions:
            for p in presets[t]:
                consumers[p].append(t)
        return cls(
            version=net._version,
            places=places,
            place_index=place_index,
            transitions=transitions,
            rank={t: i for i, t in enumerate(transitions)},
            presets=presets,
            postsets=postsets,
            consumers={p: tuple(ts) for p, ts in consumers.items()},
            unconditional=tuple(t for t in transitions if not presets[t]),
        )

    def candidates(self, marking: Marking) -> Sequence[str]:
        """The transitions that may be enabled at ``marking``: consumers
        of its marked places plus the unconditional ones, in rank order."""
        consumers = self.consumers
        if len(marking) == 1 and not self.unconditional:
            for place in marking:
                return consumers.get(place, ())
        pool = set(self.unconditional)
        for place in marking:
            pool.update(consumers.get(place, ()))
        return sorted(pool, key=self.rank.__getitem__)

    def enabled(self, marking: Marking) -> list[str]:
        """The transitions enabled at ``marking`` (Definition 3.1(3)), in
        rank order."""
        presets = self.presets
        return [t for t in self.candidates(marking)
                if marking.covers(presets[t])]


@dataclass
class PetriNet:
    """A marked Petri net ``(S, T, F, M0)`` with string-named elements.

    The flow relation is stored twice (forward and backward adjacency).
    :meth:`preset` / :meth:`postset` copy one adjacency set into a
    frozenset per call; the token games read the :class:`TokenIndex` from
    :meth:`token_index` instead, which is built on first use and kept
    until the structure changes.  Mutation is only supported through the
    ``add_*`` / ``remove_*`` methods, which maintain both adjacencies,
    count structural changes in a version number that retires the cached
    index, and validate names eagerly, raising
    :class:`~repro.errors.DefinitionError` on misuse.  The version and the
    cached index take no part in equality, ``repr`` or :meth:`copy`.
    """

    name: str = "net"
    places: dict[str, Place] = field(default_factory=dict)
    transitions: dict[str, Transition] = field(default_factory=dict)
    # forward adjacency: element name -> set of successor element names
    _succ: dict[str, set[str]] = field(default_factory=dict)
    # backward adjacency: element name -> set of predecessor element names
    _pred: dict[str, set[str]] = field(default_factory=dict)
    initial: dict[str, int] = field(default_factory=dict)
    _version: int = field(default=0, compare=False, repr=False)
    _index: TokenIndex | None = field(default=None, compare=False,
                                      repr=False)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_place(self, name: str, *, label: str = "", marked: bool = False,
                  tokens: int = 0) -> Place:
        """Add a place.  ``marked=True`` is shorthand for one initial token."""
        self._check_fresh(name)
        place = Place(name, label)
        self._version += 1
        self.places[name] = place
        self._succ[name] = set()
        self._pred[name] = set()
        count = 1 if marked else int(tokens)
        if count < 0:
            raise DefinitionError(f"negative initial token count for place {name!r}")
        if count:
            self.initial[name] = count
        return place

    def add_transition(self, name: str, *, label: str = "") -> Transition:
        """Add a transition."""
        self._check_fresh(name)
        transition = Transition(name, label)
        self._version += 1
        self.transitions[name] = transition
        self._succ[name] = set()
        self._pred[name] = set()
        return transition

    def add_arc(self, source: str, target: str) -> None:
        """Add a flow arc.

        Exactly one endpoint must be a place and the other a transition
        (``F ⊆ (S × T) ∪ (T × S)``).  Duplicate arcs are rejected.
        """
        src_is_place = source in self.places
        src_is_trans = source in self.transitions
        dst_is_place = target in self.places
        dst_is_trans = target in self.transitions
        if not (src_is_place or src_is_trans):
            raise DefinitionError(f"unknown flow-arc source {source!r}")
        if not (dst_is_place or dst_is_trans):
            raise DefinitionError(f"unknown flow-arc target {target!r}")
        if src_is_place == dst_is_place:
            raise DefinitionError(
                f"flow arc {source!r} -> {target!r} must connect a place and "
                "a transition (F ⊆ (S×T) ∪ (T×S))"
            )
        if target in self._succ[source]:
            raise DefinitionError(f"duplicate flow arc {source!r} -> {target!r}")
        self._version += 1
        self._succ[source].add(target)
        self._pred[target].add(source)

    def remove_arc(self, source: str, target: str) -> None:
        """Remove a flow arc; raises if it does not exist."""
        if target not in self._succ.get(source, ()):
            raise DefinitionError(f"no flow arc {source!r} -> {target!r} to remove")
        self._version += 1
        self._succ[source].discard(target)
        self._pred[target].discard(source)

    def remove_transition(self, name: str) -> None:
        """Remove a transition together with all its flow arcs."""
        if name not in self.transitions:
            raise DefinitionError(f"unknown transition {name!r}")
        for succ in list(self._succ[name]):
            self.remove_arc(name, succ)
        for pred in list(self._pred[name]):
            self.remove_arc(pred, name)
        self._version += 1
        del self.transitions[name]
        del self._succ[name]
        del self._pred[name]

    def remove_place(self, name: str) -> None:
        """Remove a place together with all its flow arcs and marking."""
        if name not in self.places:
            raise DefinitionError(f"unknown place {name!r}")
        for succ in list(self._succ[name]):
            self.remove_arc(name, succ)
        for pred in list(self._pred[name]):
            self.remove_arc(pred, name)
        self._version += 1
        del self.places[name]
        del self._succ[name]
        del self._pred[name]
        self.initial.pop(name, None)

    def set_initial(self, name: str, tokens: int = 1) -> None:
        """Set the initial token count of a place."""
        if name not in self.places:
            raise DefinitionError(f"unknown place {name!r}")
        if tokens < 0:
            raise DefinitionError(f"negative initial token count for place {name!r}")
        if tokens:
            self.initial[name] = tokens
        else:
            self.initial.pop(name, None)

    def _check_fresh(self, name: str) -> None:
        if name in self.places or name in self.transitions:
            raise DefinitionError(f"duplicate net element name {name!r}")

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def preset(self, name: str) -> frozenset[str]:
        """``•x`` — the set of predecessors of element ``name``."""
        try:
            return frozenset(self._pred[name])
        except KeyError:
            raise DefinitionError(f"unknown net element {name!r}") from None

    def postset(self, name: str) -> frozenset[str]:
        """``x•`` — the set of successors of element ``name``."""
        try:
            return frozenset(self._succ[name])
        except KeyError:
            raise DefinitionError(f"unknown net element {name!r}") from None

    def token_index(self) -> TokenIndex:
        """The :class:`TokenIndex` of the current structure (cached)."""
        index = self._index
        if index is None or index.version != self._version:
            index = self._index = TokenIndex.of(self)
        return index

    def arcs(self) -> Iterator[tuple[str, str]]:
        """Iterate over all flow arcs as ``(source, target)`` pairs."""
        for source, targets in self._succ.items():
            for target in sorted(targets):
                yield (source, target)

    def initial_marking(self) -> Marking:
        """The initial marking ``M0`` as a :class:`Marking`."""
        return Marking(self.initial)

    def is_place(self, name: str) -> bool:
        return name in self.places

    def is_transition(self, name: str) -> bool:
        return name in self.transitions

    @property
    def num_arcs(self) -> int:
        return sum(len(targets) for targets in self._succ.values())

    def place_names(self) -> list[str]:
        """Place names in insertion order (stable for matrix layouts)."""
        return list(self.places)

    def transition_names(self) -> list[str]:
        """Transition names in insertion order."""
        return list(self.transitions)

    # ------------------------------------------------------------------
    # copying / equality helpers
    # ------------------------------------------------------------------
    def copy(self) -> "PetriNet":
        """Deep-enough copy: shares immutable Place/Transition objects."""
        clone = PetriNet(name=self.name)
        clone.places = dict(self.places)
        clone.transitions = dict(self.transitions)
        clone._succ = {k: set(v) for k, v in self._succ.items()}
        clone._pred = {k: set(v) for k, v in self._pred.items()}
        clone.initial = dict(self.initial)
        return clone

    def structure_equal(self, other: "PetriNet") -> bool:
        """True iff both nets have identical S, T, F and M0 (by name)."""
        return (
            set(self.places) == set(other.places)
            and set(self.transitions) == set(other.transitions)
            and {(s, t) for s, t in self.arcs()} == {(s, t) for s, t in other.arcs()}
            and self.initial == other.initial
        )

    def validate(self) -> None:
        """Check internal index consistency (defensive; used by tests)."""
        for source, targets in self._succ.items():
            for target in targets:
                if source not in self._pred[target]:
                    raise DefinitionError(
                        f"inconsistent adjacency for arc {source!r} -> {target!r}"
                    )
        for name in self.initial:
            if name not in self.places:
                raise DefinitionError(f"initial marking of unknown place {name!r}")

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PetriNet({self.name!r}: |S|={len(self.places)}, "
            f"|T|={len(self.transitions)}, |F|={self.num_arcs})"
        )


def chain(net: PetriNet, places: Iterable[str], *, prefix: str = "t") -> list[str]:
    """Connect existing places into a linear chain with fresh transitions.

    ``chain(net, ["s1", "s2", "s3"])`` creates transitions ``t_s1_s2`` and
    ``t_s2_s3`` and the arcs making ``s1 → s2 → s3`` sequential.  Returns
    the created transition names.  This is a convenience used heavily by
    the compiler and by tests.
    """
    names = list(places)
    created: list[str] = []
    for a, b in zip(names, names[1:]):
        tname = f"{prefix}_{a}_{b}"
        if tname in net.transitions or tname in net.places:
            i = 1
            while f"{tname}_{i}" in net.transitions or f"{tname}_{i}" in net.places:
                i += 1
            tname = f"{tname}_{i}"
        net.add_transition(tname)
        net.add_arc(a, tname)
        net.add_arc(tname, b)
        created.append(tname)
    return created
