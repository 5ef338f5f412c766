"""Symbolic reachability — static analysis without the interpreter — and
the diagnostics rendering of its and the equivalence checkers' verdicts.

The explicit explorer (:func:`repro.petri.reachability.explore`) walks the
marking graph one :class:`~repro.petri.marking.Marking` object at a time:
every successor costs Python dict churn, and the 100k-marking budget is
reached exactly where the paper's ``∥`` relation says concurrency should be
*cheap*.  This module is the scaling answer — three cooperating techniques,
none of which ever executes the two-phase interpreter:

**1. Symbolic frontier reachability** (:func:`frontier_explore`).
Markings are packed rows of a dense ``(N, P)`` numpy array over the frozen
place order of :class:`~repro.semantics.vector.CompiledSystem` (net
insertion order), firing is one vectorised incidence-matrix comparison per
transition — ``enabled = all(front >= pre[t])`` — so a single array op
advances *thousands* of frontier markings at once.  Deduplication hashes
the packed row bytes; per-marking predecessor/transition arrays make every
visited marking's firing sequence reconstructible as a counterexample.

**2. Partial-order reduction** (:func:`por_explore`).  Valmari-style
stubborn sets: at each marking a closed set of transitions is computed —
an enabled member pulls in the transitions it shares preset places with
(those that could disable it), a disabled member pulls in the producers of
one unmarked preset place (those that could enable it) — and only the
enabled members are fired.  Two transitions with disjoint place
neighbourhoods commute perfectly, which is precisely what Definition 3.2's
disjoint-subgraph guarantee provides for ``∥``-parallel branches
(:mod:`repro.core.dependence` exposes the same independence at the state
level); exploring one representative order therefore preserves every
deadlock, and per-place peak token counts are covered by the visited
markings' endpoints (the diamond argument: an interleaving's intermediate
marking agrees with the pre- or post-marking place by place).

**3. Complete finite prefix unfolding** (:func:`complete_prefix`).  A
McMillan-style branching-process prefix for 1-safe nets: conditions are
place occurrences, events are transition occurrences with their causal
history, and an event is *cut off* when its local configuration reaches a
marking already reached by a smaller configuration.  Acyclic queries —
which places can ever coexist, which transitions are in structural
conflict — read directly off the prefix's concurrency relation without
enumerating interleavings at all.

``backend="symbolic"`` in :mod:`repro.petri.reachability` calls these
engines directly, one exploration per query: ``is_safe`` and
``reachable_markings`` run :func:`frontier_explore`, and
``coexistent_place_pairs`` runs :func:`coexistence` (the prefix when it
applies, else the frontier).  :func:`safety_diagnostics` renders a safety
violation and :func:`equivalence_diagnostics` an inequivalence verdict
(each with its firing-sequence witness) as structured
:class:`~repro.diagnostics.Diagnostic` objects for the SARIF pipeline.
"""

from __future__ import annotations

import warnings
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from time import perf_counter
from typing import TYPE_CHECKING, Iterable

import numpy as np

from ..diagnostics import Diagnostic, Location
from ..errors import DefinitionError
from ..petri.marking import Marking
from ..petri.net import PetriNet
from ..petri.relations import bitset_matrix

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.equivalence import EquivalenceVerdict


class TruncationWarning(UserWarning):
    """A state-space verdict was computed from a *partial* exploration."""


# ---------------------------------------------------------------------------
# the compiled net — frozen orders shared with semantics.vector
# ---------------------------------------------------------------------------
class CompiledNet:
    """A :class:`~repro.petri.net.PetriNet` lowered to dense incidence form.

    Follows the exact frozen-order convention of
    :class:`repro.semantics.vector.CompiledSystem`: both read ``places``,
    ``transitions`` and the presets/postsets from the net's
    :class:`~repro.petri.net.TokenIndex`, and here they become
    ``pre``/``post``, dense ``(T, P)`` integer matrices.  Token counts
    travel as ``int16`` rows (the explorer's token bound is far below
    that range).
    """

    def __init__(self, net: PetriNet) -> None:
        self.net = net
        index = net.token_index()
        self.places: tuple[str, ...] = index.places
        self.place_index = index.place_index
        self.transitions: tuple[str, ...] = index.transitions
        n_p, n_t = len(self.places), len(self.transitions)
        self.pre = np.zeros((n_t, n_p), dtype=np.int16)
        self.post = np.zeros((n_t, n_p), dtype=np.int16)
        for ti, t in enumerate(self.transitions):
            for p in index.presets[t]:
                self.pre[ti, self.place_index[p]] += 1
            for p in index.postsets[t]:
                self.post[ti, self.place_index[p]] += 1
        self.delta = self.post - self.pre

    @cached_property
    def producers(self) -> list[np.ndarray]:
        """``producers[p]``: the transition indices with place ``p`` in
        their postset (only :func:`stubborn_set` reads them)."""
        return [np.nonzero(self.post[:, pi] > 0)[0]
                for pi in range(len(self.places))]

    @cached_property
    def conflicting(self) -> list[np.ndarray]:
        """``conflicting[t]``: the transition indices sharing a preset
        place with ``t``."""
        pre = (self.pre > 0).astype(np.int16)
        share = (pre @ pre.T) > 0
        return [np.nonzero(share[ti])[0]
                for ti in range(len(self.transitions))]

    # ------------------------------------------------------------------
    def marking_row(self, marking: Marking) -> np.ndarray:
        """Pack a marking into one frozen-order count row."""
        row = np.zeros(len(self.places), dtype=np.int16)
        for place, count in marking.items():
            try:
                row[self.place_index[place]] = count
            except KeyError:
                raise DefinitionError(
                    f"marking names unknown place {place!r}") from None
        return row

    def row_marking(self, row: np.ndarray) -> Marking:
        """Unpack one count row back into a :class:`Marking`."""
        return Marking({
            self.places[i]: int(c) for i, c in enumerate(row.tolist()) if c
        })

    def enabled_mask(self, rows: np.ndarray) -> np.ndarray:
        """``(T, N)`` boolean enabling matrix for a frontier of rows."""
        # one broadcast comparison: front (1,N,P) >= pre (T,1,P)
        return (rows[None, :, :] >= self.pre[:, None, :]).all(axis=2)


# ---------------------------------------------------------------------------
# frontier reachability
# ---------------------------------------------------------------------------
@dataclass
class SymbolicGraph:
    """Result of a frontier (or POR-reduced) exploration.

    ``rows`` holds every visited marking as one packed count row in BFS
    discovery order; ``pred``/``via`` record, per row, the discovery
    predecessor and the transition index that reached it (−1 for the
    initial marking), so :meth:`firing_sequence` can rebuild a
    counterexample path for any node.
    """

    compiled: CompiledNet
    rows: np.ndarray                      # (M, P) int16
    pred: np.ndarray                      # (M,) int64
    via: np.ndarray                       # (M,) int64, transition index
    complete: bool = True
    truncated: bool = False
    truncation_reason: str = ""
    bounded_by: int = 0
    deadlocks: int = 0
    terminals: int = 0
    reduced: bool = False                 # True for POR explorations
    elapsed_s: float = 0.0

    @property
    def num_markings(self) -> int:
        return int(self.rows.shape[0])

    @property
    def is_safe(self) -> bool:
        """True iff every *visited* marking is 1-bounded (a proof only
        when ``complete``)."""
        return self.bounded_by <= 1

    def markings(self) -> list[Marking]:
        """All visited markings (BFS discovery order)."""
        return [self.compiled.row_marking(row) for row in self.rows]

    def marking_set(self) -> frozenset[Marking]:
        return frozenset(self.markings())

    def firing_sequence(self, node: int) -> list[str]:
        """The discovery firing sequence from the initial marking to
        ``node`` — a replayable witness."""
        path: list[str] = []
        while node != 0:
            path.append(self.compiled.transitions[int(self.via[node])])
            node = int(self.pred[node])
        path.reverse()
        return path

    def coexistent_pairs(self) -> frozenset[frozenset[str]]:
        """Unordered place pairs simultaneously marked somewhere, plus
        singleton sets for places ever holding more than one token —
        the exact shape :func:`~repro.petri.reachability.
        coexistent_place_pairs` reports."""
        marked = self.rows > 0
        together = (marked.astype(np.int32).T @ marked.astype(np.int32)) > 0
        pairs: set[frozenset[str]] = set()
        places = self.compiled.places
        rows, cols = np.nonzero(np.triu(together, k=1))
        for i, j in zip(rows.tolist(), cols.tolist()):
            pairs.add(frozenset((places[i], places[j])))
        for pi in np.nonzero((self.rows > 1).any(axis=0))[0].tolist():
            pairs.add(frozenset((places[pi],)))
        return frozenset(pairs)

    def unsafe_witness(self) -> tuple[Marking, list[str]] | None:
        """A visited marking with a ≥2-token place, with its path."""
        over = np.nonzero((self.rows > 1).any(axis=1))[0]
        if not over.size:
            return None
        node = int(over[0])
        return self.compiled.row_marking(self.rows[node]), \
            self.firing_sequence(node)


def _dedupe_rows(rows: np.ndarray) -> np.ndarray:
    """Unique rows, preserving nothing but set identity (sorted order)."""
    return np.unique(rows, axis=0)


def frontier_explore(net: PetriNet, *, max_markings: int = 1_000_000,
                     token_bound: int = 8,
                     initial: Marking | None = None,
                     time_budget: float | None = None,
                     compiled: CompiledNet | None = None) -> SymbolicGraph:
    """Breadth-first symbolic exploration of the reachable marking set.

    Semantics mirror :func:`repro.petri.reachability.explore` over the
    unguarded net: exceeding ``token_bound`` in any place stops the search
    immediately (the violating marking *is* recorded, so safety refutation
    and witness extraction still work), exhausting ``max_markings`` (or
    the optional wall-clock ``time_budget`` in seconds) marks the result
    ``truncated`` instead of silently reporting a partial verdict.
    """
    cn = compiled if compiled is not None else CompiledNet(net)
    started = perf_counter()
    n_p = len(cn.places)
    n_t = len(cn.transitions)
    start = cn.marking_row(initial if initial is not None
                           else net.initial_marking())
    seen: dict[bytes, int] = {start.tobytes(): 0}
    all_rows: list[np.ndarray] = [start[None, :]]
    pred: list[np.ndarray] = [np.full(1, -1, dtype=np.int64)]
    via: list[np.ndarray] = [np.full(1, -1, dtype=np.int64)]
    graph = SymbolicGraph(cn, start[None, :], pred[0], via[0])
    graph.bounded_by = int(start.max()) if n_p else 0
    frontier = start[None, :]
    frontier_ids = np.zeros(1, dtype=np.int64)
    total = 1

    def finish() -> SymbolicGraph:
        graph.rows = np.concatenate(all_rows, axis=0)
        graph.pred = np.concatenate(pred)
        graph.via = np.concatenate(via)
        graph.elapsed_s = perf_counter() - started
        return graph

    while frontier.shape[0]:
        enabled = cn.enabled_mask(frontier) if n_t else \
            np.zeros((0, frontier.shape[0]), dtype=bool)
        any_enabled = enabled.any(axis=0) if n_t else \
            np.zeros(frontier.shape[0], dtype=bool)
        empties = ~frontier.any(axis=1)
        graph.terminals += int(empties.sum())
        graph.deadlocks += int((~any_enabled & ~empties).sum())
        # fire every enabled transition over the whole frontier at once;
        # row-major order groups the successors by transition, then lane
        tis, lanes = np.nonzero(enabled)
        if not tis.size:
            break
        succs = frontier[lanes] + cn.delta[tis]
        srcs = frontier_ids[lanes]
        vias = tis.astype(np.int64, copy=False)
        peak = int(succs.max()) if succs.size else 0
        graph.bounded_by = max(graph.bounded_by, peak)
        if peak > token_bound:
            # record one violating marking (like explore()) and stop
            bad = int(np.nonzero((succs > token_bound).any(axis=1))[0][0])
            row = succs[bad]
            key = row.tobytes()
            if key not in seen:
                seen[key] = total
                all_rows.append(row[None, :])
                pred.append(srcs[bad:bad + 1])
                via.append(vias[bad:bad + 1])
                total += 1
            graph.complete = False
            graph.truncated = True
            graph.truncation_reason = (
                f"token bound {token_bound} exceeded (a place reached "
                f"{peak} tokens)")
            return finish()
        # the first (src, via) of each unseen row, then the new rows in
        # lexicographic order (the order a stable sort of the batch gives)
        first: dict[bytes, int] = {}
        raw, width = succs.tobytes(), succs.shape[1] * succs.itemsize
        for i in range(succs.shape[0]):
            key = raw[i * width:(i + 1) * width]
            if key not in seen and key not in first:
                first[key] = i
        if not first:
            break
        keep = np.fromiter(first.values(), dtype=np.int64, count=len(first))
        order = np.lexsort(succs[keep].T[::-1])
        keep = keep[order]
        keys = list(first)
        for position, i in enumerate(order.tolist(), total):
            seen[keys[i]] = position
        new = succs[keep]
        if total + new.shape[0] > max_markings:
            room = max(0, max_markings - total)
            new = new[:room]
            keep = keep[:room]
            graph.complete = False
            graph.truncated = True
            graph.truncation_reason = (
                f"marking budget {max_markings} exhausted")
        if new.shape[0]:
            all_rows.append(new)
            pred.append(srcs[keep])
            via.append(vias[keep])
            frontier_ids = np.arange(total, total + new.shape[0],
                                     dtype=np.int64)
            total += new.shape[0]
            frontier = new
        else:
            frontier = new
        if graph.truncated:
            return finish()
        if time_budget is not None and perf_counter() - started > time_budget:
            graph.complete = False
            graph.truncated = True
            graph.truncation_reason = (
                f"time budget {time_budget:.3g}s exhausted")
            return finish()
    return finish()


# ---------------------------------------------------------------------------
# partial-order reduction — stubborn sets
# ---------------------------------------------------------------------------
def stubborn_set(cn: CompiledNet, row: np.ndarray,
                 enabled: np.ndarray) -> list[int]:
    """A Valmari-style stubborn set at one marking (transition indices).

    Seeds with the lowest-index enabled transition and closes under:

    * *enabled* members pull in every transition sharing a preset place
      (those are the only ones whose firing can disable them or compete
      for their tokens);
    * *disabled* members pull in the producers of one (deterministically
      chosen) unmarked preset place — the only transitions whose firing
      could enable them.

    Only the enabled members of the closure are explored.  Transitions
    outside the set have disjoint place neighbourhoods with every enabled
    member — the independence Definition 3.2 guarantees between
    ``∥``-parallel branches — so deferring them loses no deadlock, and
    any deferred interleaving's intermediate marking agrees place-by-place
    with markings the reduced search still visits.
    """
    enabled_idx = np.nonzero(enabled)[0]
    if not enabled_idx.size:
        return []
    stub: set[int] = set()
    work = [int(enabled_idx[0])]
    enabled_set = set(enabled_idx.tolist())
    while work:
        ti = work.pop()
        if ti in stub:
            continue
        stub.add(ti)
        if ti in enabled_set:
            for u in cn.conflicting[ti].tolist():
                if u not in stub:
                    work.append(u)
        else:
            pre_places = np.nonzero(cn.pre[ti] > 0)[0]
            unmarked = [int(p) for p in pre_places
                        if row[p] < cn.pre[ti, p]]
            if unmarked:
                for u in cn.producers[unmarked[0]].tolist():
                    if u not in stub:
                        work.append(u)
    return sorted(t for t in stub if t in enabled_set)


def por_explore(net: PetriNet, *, max_markings: int = 1_000_000,
                token_bound: int = 8,
                initial: Marking | None = None,
                compiled: CompiledNet | None = None) -> SymbolicGraph:
    """Stubborn-set-reduced exploration of the marking graph.

    Visits a (often exponentially smaller) subset of the reachable
    markings that still contains every deadlock; ``deadlocks > 0`` and
    ``terminals > 0`` verdicts coincide with the full exploration's.  A
    safety violation reported here (``bounded_by > 1``) is always real;
    the full frontier is the complete safety decision procedure.
    """
    cn = compiled if compiled is not None else CompiledNet(net)
    started = perf_counter()
    start = cn.marking_row(initial if initial is not None
                           else net.initial_marking())
    seen: dict[bytes, int] = {start.tobytes(): 0}
    rows: list[np.ndarray] = [start]
    pred: list[int] = [-1]
    via: list[int] = [-1]
    graph = SymbolicGraph(cn, start[None, :], np.zeros(1, dtype=np.int64),
                          np.zeros(1, dtype=np.int64), reduced=True)
    graph.bounded_by = int(start.max()) if cn.places else 0
    queue = [0]
    head = 0
    while head < len(queue):
        node = queue[head]
        head += 1
        row = rows[node]
        if not row.any():
            graph.terminals += 1
            continue
        enabled = (row >= cn.pre).all(axis=1)
        ample = stubborn_set(cn, row, enabled)
        if not ample:
            graph.deadlocks += 1
            continue
        for ti in ample:
            succ = row + cn.delta[ti]
            peak = int(succ.max())
            graph.bounded_by = max(graph.bounded_by, peak)
            key = succ.tobytes()
            target = seen.get(key)
            if target is None:
                if peak > token_bound:
                    seen[key] = len(rows)
                    rows.append(succ)
                    pred.append(node)
                    via.append(ti)
                    graph.complete = False
                    graph.truncated = True
                    graph.truncation_reason = (
                        f"token bound {token_bound} exceeded (a place "
                        f"reached {peak} tokens)")
                    break
                if len(rows) >= max_markings:
                    graph.complete = False
                    graph.truncated = True
                    graph.truncation_reason = (
                        f"marking budget {max_markings} exhausted")
                    break
                target = len(rows)
                seen[key] = target
                rows.append(succ)
                pred.append(node)
                via.append(ti)
                queue.append(target)
        if graph.truncated:
            break
    graph.rows = np.stack(rows, axis=0)
    graph.pred = np.asarray(pred, dtype=np.int64)
    graph.via = np.asarray(via, dtype=np.int64)
    graph.elapsed_s = perf_counter() - started
    return graph


# ---------------------------------------------------------------------------
# complete finite prefix unfolding (McMillan)
# ---------------------------------------------------------------------------
@dataclass
class _Condition:
    """A place occurrence in the branching process."""

    index: int
    place: str
    producer: int  # event index, -1 for initial conditions


@dataclass
class _Event:
    """A transition occurrence with its causal history."""

    index: int
    transition: str
    inputs: tuple[int, ...]        # condition indices consumed
    outputs: tuple[int, ...] = ()  # condition indices produced
    local_config: frozenset[int] = frozenset()  # event indices incl. self
    cutoff: bool = False


@dataclass
class Prefix:
    """A complete finite prefix of a 1-safe net's unfolding."""

    net_places: tuple[str, ...]
    conditions: list[_Condition] = field(default_factory=list)
    events: list[_Event] = field(default_factory=list)
    complete: bool = True
    truncation_reason: str = ""
    #: pairwise concurrency over conditions (co-relation), symmetric
    _co: np.ndarray | None = None

    @property
    def num_events(self) -> int:
        return len(self.events)

    def concurrent(self, b1: int, b2: int) -> bool:
        assert self._co is not None
        return bool(self._co[b1, b2])

    def coexistent_pairs(self) -> frozenset[frozenset[str]]:
        """Place pairs labelling concurrent conditions (exact coexistence
        for safe nets), singleton sets for self-concurrent places."""
        assert self._co is not None
        pairs: set[frozenset[str]] = set()
        n = len(self.conditions)
        rows, cols = np.nonzero(np.triu(self._co, k=1))
        for i, j in zip(rows.tolist(), cols.tolist()):
            p, q = self.conditions[i].place, self.conditions[j].place
            pairs.add(frozenset((p, q)))
            _ = n
        return frozenset(pairs)

    def unsafe_places(self) -> frozenset[str]:
        """Places with two concurrent occurrences — unsafe even though
        the initial marking was 1-bounded."""
        assert self._co is not None
        out: set[str] = set()
        rows, cols = np.nonzero(np.triu(self._co, k=1))
        for i, j in zip(rows.tolist(), cols.tolist()):
            if self.conditions[i].place == self.conditions[j].place:
                out.add(self.conditions[i].place)
        return frozenset(out)

    def conflict_transition_pairs(self) -> frozenset[frozenset[str]]:
        """Transition pairs competing for one condition — structural
        conflict made behavioural (both alternatives really enabled)."""
        consumers: dict[int, set[str]] = {}
        for event in self.events:
            for b in event.inputs:
                consumers.setdefault(b, set()).add(event.transition)
        pairs: set[frozenset[str]] = set()
        for names in consumers.values():
            ordered = sorted(names)
            for i, a in enumerate(ordered):
                for b in ordered[i + 1:]:
                    pairs.add(frozenset((a, b)))
        return frozenset(pairs)


def complete_prefix(net: PetriNet, *, max_events: int = 10_000) -> Prefix:
    """Build a McMillan complete finite prefix of a 1-safe net.

    Requires a 1-bounded initial marking (raises
    :class:`~repro.errors.DefinitionError` otherwise).  Every reachable
    marking of a safe net is the cut of some configuration of the prefix,
    so coexistence and conflict queries are answered exactly without
    interleaving enumeration.  If the net turns out not to be safe the
    unfolding itself surfaces it (:meth:`Prefix.unsafe_places`); callers
    wanting a verdict for possibly-unsafe nets should fall back to
    :func:`frontier_explore`.

    The unfolding proceeds in rounds.  A round extends the conditions
    that were not cut off and existed when it began, visiting transitions
    in rank order and, per transition, the pairwise-concurrent picks of
    one condition per preset place (places by name, conditions by index)
    in lexicographic order.  A pick made only of conditions an earlier
    round already saw was extended then, so each round visits only the
    consumers of places that gained a condition and only the picks that
    hold one.  Every condition carries the events below it and, as
    Python-int bitsets, its co-set and the conditions those events
    consumed and produced.  A new event's outputs are concurrent with the
    intersection of its inputs' co-sets and with each other, and its
    local configuration's cut is initial ∪ produced ∖ consumed.
    """
    initial = net.initial_marking()
    if any(count > 1 for count in initial.values()):
        raise DefinitionError(
            "complete_prefix needs a 1-bounded initial marking; use "
            "frontier_explore for multi-token nets")
    prefix = Prefix(net_places=tuple(net.places))
    conditions = prefix.conditions
    events = prefix.events
    for place in initial:
        conditions.append(_Condition(len(conditions), place, -1))
    initial_bits = (1 << len(conditions)) - 1
    # per condition: the events causally below it (its producer's local
    # configuration) and, as int bitsets, the conditions concurrent with
    # it and the conditions those events consumed and produced
    below: list[frozenset[int]] = [frozenset()] * len(conditions)
    co = [initial_bits ^ (1 << b) for b in range(len(conditions))]
    consumed = [0] * len(conditions)
    produced = [0] * len(conditions)

    def marking_of(cut: int) -> frozenset[tuple[str, int]]:
        """A cut as a place multiset."""
        counts: dict[str, int] = {}
        for b in _set_bits(cut):
            place = conditions[b].place
            counts[place] = counts.get(place, 0) + 1
        return frozenset(counts.items())

    seen_markings: dict[frozenset[tuple[str, int]], int] = {
        marking_of(initial_bits): 0
    }
    index = net.token_index()
    rank = index.rank.__getitem__
    presets = {t: sorted(net.preset(t)) for t in index.transitions}
    postsets = {t: sorted(net.postset(t)) for t in index.transitions}
    # conditions below a cutoff event are not extended further; the
    # others join their place's pool when the next round begins.  Only
    # consumers of a place are visited, so transitions with an empty
    # preset (which would unfold unboundedly) never are.
    pools: dict[str, list[int]] = {}
    fresh = list(range(len(conditions)))

    progress = True
    while progress:
        progress = False
        if len(events) >= max_events:
            prefix.complete = False
            prefix.truncation_reason = f"event budget {max_events} exhausted"
            break
        first_new = fresh[0] if fresh else len(conditions)
        touched: set[str] = set()
        for b in fresh:
            place = conditions[b].place
            pools.setdefault(place, []).append(b)
            touched.update(index.consumers[place])
        fresh = []
        for t in sorted(touched, key=rank):
            picks = [pools.get(p) for p in presets[t]]
            if not all(picks):
                continue
            for combo in _co_sets(picks, first_new, co):
                e = len(events)
                eaten = made = 0
                common = -1
                for b in combo:
                    eaten |= consumed[b] | (1 << b)
                    made |= produced[b]
                    common &= co[b]
                event = _Event(e, t, tuple(sorted(combo)))
                history = event.local_config = frozenset((e,)).union(
                    *(below[b] for b in combo))
                events.append(event)
                first = len(conditions)
                outputs = tuple(range(first, first + len(postsets[t])))
                siblings = ((1 << len(outputs)) - 1) << first
                made |= siblings
                for b, place in zip(outputs, postsets[t]):
                    conditions.append(_Condition(b, place, e))
                    co.append(common | (siblings ^ (1 << b)))
                    below.append(history)
                    consumed.append(eaten)
                    produced.append(made)
                for b in _set_bits(common):
                    co[b] |= siblings
                event.outputs = outputs
                mark = marking_of((initial_bits | made) & ~eaten)
                size = len(history)
                best = seen_markings.get(mark)
                if best is not None and best < size:
                    event.cutoff = True
                else:
                    if best is None or size < best:
                        seen_markings[mark] = size
                    fresh.extend(outputs)
                progress = True
                if len(events) >= max_events:
                    break
            if len(events) >= max_events:
                break

    prefix._co = bitset_matrix(co, len(conditions))
    return prefix


def _set_bits(bitset: int) -> list[int]:
    """The positions of the set bits of a non-negative int, ascending."""
    text = bin(bitset)[:1:-1]  # least significant bit first
    out = []
    position = text.find("1")
    while position >= 0:
        out.append(position)
        position = text.find("1", position + 1)
    return out


def _co_sets(pools: list[list[int]], first_new: int,
             co: list[int]) -> Iterable[tuple[int, ...]]:
    """The pairwise-concurrent picks of one condition per pool that hold
    at least one condition numbered ``first_new`` or above, in
    lexicographic order.  Pools are ascending, so a pool's new conditions
    are its tail."""
    last = len(pools) - 1
    if len(pools) == 1:
        pool = pools[0]
        return [(b,) for b in pool[bisect_left(pool, first_new):]]
    # new_after[i]: some pool after the i-th holds a new condition
    new_after = [False] * len(pools)
    for i in range(last - 1, -1, -1):
        new_after[i] = new_after[i + 1] or pools[i + 1][-1] >= first_new

    def extend(i: int, combo: tuple[int, ...], mask: int, has_new: bool):
        pool = pools[i]
        start = 0 if has_new or new_after[i] else bisect_left(pool, first_new)
        for b in pool[start:]:
            if not (mask >> b) & 1:
                continue
            if i == last:
                yield combo + (b,)
            else:
                yield from extend(i + 1, combo + (b,), mask & co[b],
                                  has_new or b >= first_new)
    return extend(0, (), -1, False)


# ---------------------------------------------------------------------------
# the queries the reachability checkers route here
# ---------------------------------------------------------------------------
#: the unfolding prefix answers coexistence only on 1-safe-looking nets
#: this small, within this many events; otherwise the frontier engine does
_PREFIX_MAX_TRANSITIONS = 64
_PREFIX_MAX_EVENTS = 2_000


def coexistence(net: PetriNet, *, max_markings: int
                ) -> tuple[frozenset[frozenset[str]], bool]:
    """``(pairs, complete)`` with the explicit checker's contract, read
    off the complete prefix when it is complete and finds no unsafe
    place, else off a full frontier exploration."""
    initial = net.initial_marking()
    if (all(c <= 1 for c in initial.values())
            and len(net.transitions) <= _PREFIX_MAX_TRANSITIONS):
        try:
            prefix = complete_prefix(net, max_events=_PREFIX_MAX_EVENTS)
        except DefinitionError:
            prefix = None
        if prefix is not None and prefix.complete \
                and not prefix.unsafe_places():
            pairs = set(prefix.coexistent_pairs())
            # seed with the initial marking's own coexistences
            marked0 = sorted(initial.marked_places())
            for i, p in enumerate(marked0):
                for q in marked0[i + 1:]:
                    pairs.add(frozenset((p, q)))
            return frozenset(pairs), True
    graph = frontier_explore(net, max_markings=max_markings)
    if graph.truncated:
        warn_truncated("coexistent place pairs", graph.truncation_reason)
    return graph.coexistent_pairs(), not graph.truncated


def safety_diagnostics(net: PetriNet, *,
                       system: str = "") -> list[Diagnostic]:
    """Structured findings for safety violations (``SY001``), with a
    firing-sequence counterexample each."""
    witness = frontier_explore(net, token_bound=1).unsafe_witness()
    if witness is None:
        return []
    marking, path = witness
    offenders = sorted(p for p, c in marking.items() if c > 1)
    return [Diagnostic(
        rule="SY001",
        severity="error",
        message=(f"net is not safe: place(s) {offenders} hold more "
                 f"than one token after firing {' -> '.join(path)}"),
        locations=tuple(
            [Location("place", p) for p in offenders]
            + [Location("marking", repr(marking))]),
        hint="fire the listed sequence from M0 to reproduce",
        system=system,
    )]


# ---------------------------------------------------------------------------
# diagnostics / SARIF bridge
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class _EquivRule:
    """Rule metadata shaped like a lint rule (for the SARIF driver)."""

    id: str
    title: str
    clause: str
    severity: str
    structural: bool = False


EQUIV_RULES: tuple[_EquivRule, ...] = (
    _EquivRule("EQ001", "systems are not semantically equivalent",
               "4.1", "error"),
    _EquivRule("EQ002", "equivalence verdict is budget-relative",
               "4.1", "info"),
)


def equivalence_diagnostics(verdict: "EquivalenceVerdict", *,
                            left: str, right: str) -> list[Diagnostic]:
    """Render an equivalence verdict as structured diagnostics.

    An inequivalence produces one ``EQ001`` error whose message embeds
    the reason and whose witness firing sequence (when present) rides
    along as ``marking`` locations — the SARIF pipeline then carries the
    counterexample into CI artifacts unchanged.
    """
    if verdict.equivalent:
        return []
    system = f"{left} vs {right}"
    locations: list[Location] = []
    if verdict.witness:
        for side in ("left", "right"):
            steps = verdict.witness.get(side, [])
            flat = " ; ".join(",".join(step) for step in steps)
            locations.append(Location(
                "marking", f"{side} firing sequence: {flat or '(empty)'}"))
    return [Diagnostic(
        rule="EQ001",
        severity="error",
        message=(f"{left} and {right} are not "
                 f"{verdict.relation}-equivalent: {verdict.reason}"),
        locations=tuple(locations),
        hint="replay the recorded firing sequences to reproduce the "
             "distinguishing behaviour",
        system=system,
    )]


def warn_truncated(what: str, reason: str) -> None:
    """Emit the standard partial-state-space warning."""
    warnings.warn(
        f"{what} computed from a truncated exploration ({reason}); "
        "the verdict is not a proof",
        TruncationWarning, stacklevel=3)


__all__ = [
    "CompiledNet",
    "SymbolicGraph",
    "Prefix",
    "TruncationWarning",
    "frontier_explore",
    "por_explore",
    "stubborn_set",
    "complete_prefix",
    "coexistence",
    "safety_diagnostics",
    "equivalence_diagnostics",
    "EQUIV_RULES",
    "warn_truncated",
]
