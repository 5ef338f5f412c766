"""Reachability analysis: the marking graph, boundedness and safety.

Used by the properly-designed checker (Definition 3.2(2): the net must be
*safe* — never more than one token per place) and by the analysis
benchmarks.  Exploration is breadth-first over interleaved single firings,
which covers every reachable marking of the (guard-free) net; guards can
only *remove* behaviours, so safety of the unguarded net is a sound
over-approximation for the guarded system.

For unbounded nets the exploration would not terminate, so the explorer
takes both a marking-count budget and a per-place token bound; exceeding
the token bound proves unboundedness *relative to the requested bound*
(enough to refute safety), while exhausting the marking budget yields an
explicit "unknown" verdict instead of a wrong answer.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from ..errors import ExecutionError
from .execution import GuardEval, always_true
from .marking import Marking
from .net import PetriNet


@dataclass
class ReachabilityGraph:
    """The explored portion of the marking graph.

    Attributes
    ----------
    markings:
        Every visited marking, in BFS discovery order (index = node id).
    edges:
        ``(source_id, transition_name, target_id)`` triples.
    complete:
        True iff the whole reachable set was enumerated within budget.
    truncated:
        True iff the search stopped early (marking budget or token bound);
        always the negation of ``complete`` for a fresh exploration, but
        carried explicitly so callers can distinguish "partial state
        space" from other reasons and so verdicts computed from a
        truncated graph are never silently presented as proofs.
    truncation_reason:
        Human-readable cause when ``truncated`` (empty otherwise).
    bounded_by:
        The smallest ``k`` such that every visited marking is k-bounded.
    deadlocks:
        Ids of visited markings with tokens left but no enabled transition.
    terminals:
        Ids of visited empty markings (proper termination, Def. 3.1(6)).
    """

    markings: list[Marking] = field(default_factory=list)
    edges: list[tuple[int, str, int]] = field(default_factory=list)
    complete: bool = True
    truncated: bool = False
    truncation_reason: str = ""
    bounded_by: int = 0
    deadlocks: list[int] = field(default_factory=list)
    terminals: list[int] = field(default_factory=list)

    @property
    def num_markings(self) -> int:
        return len(self.markings)

    @property
    def is_safe(self) -> bool:
        """True iff every visited marking is 1-bounded.

        Only a proof of safety when ``complete`` is also true; when the
        budget was exhausted it is merely "no violation found so far".
        """
        return self.bounded_by <= 1

    def index_of(self, marking: Marking) -> int:
        return self.markings.index(marking)

    def successors(self, node: int) -> list[tuple[str, int]]:
        return [(t, dst) for src, t, dst in self.edges if src == node]


def explore(net: PetriNet, *, max_markings: int = 100_000, token_bound: int = 8,
            guard_eval: GuardEval = always_true,
            initial: Marking | None = None) -> ReachabilityGraph:
    """Breadth-first enumeration of the reachable marking graph.

    Parameters
    ----------
    max_markings:
        Exploration budget; when exceeded the result has
        ``complete=False``.
    token_bound:
        If any place accumulates more than this many tokens the search
        stops immediately (the net is certainly not safe) with
        ``complete=False`` and ``bounded_by`` reflecting the violation.
    guard_eval:
        Optional guard evaluator; the default explores the unguarded net.
    """
    graph = ReachabilityGraph()
    start = initial if initial is not None else net.initial_marking()
    seen: dict[Marking, int] = {start: 0}
    graph.markings.append(start)
    graph.bounded_by = start.peak()
    queue: deque[int] = deque([0])
    index = net.token_index()
    presets, postsets = index.presets, index.postsets

    while queue:
        node = queue.popleft()
        marking = graph.markings[node]
        if marking.is_empty():
            graph.terminals.append(node)
            continue
        fired_any = False
        for transition in index.enabled(marking):
            if not guard_eval(transition):
                continue
            fired_any = True
            successor = marking.after_firing(
                presets[transition], postsets[transition])
            peak = successor.peak()
            graph.bounded_by = max(graph.bounded_by, peak)
            if peak > token_bound:
                graph.complete = False
                graph.truncated = True
                graph.truncation_reason = (
                    f"token bound {token_bound} exceeded "
                    f"(a place reached {peak} tokens)")
                target = seen.get(successor)
                if target is None:
                    target = len(graph.markings)
                    seen[successor] = target
                    graph.markings.append(successor)
                graph.edges.append((node, transition, target))
                return graph
            target = seen.get(successor)
            if target is None:
                if len(graph.markings) >= max_markings:
                    graph.complete = False
                    graph.truncated = True
                    graph.truncation_reason = (
                        f"marking budget {max_markings} exhausted")
                    continue
                target = len(graph.markings)
                seen[successor] = target
                graph.markings.append(successor)
                queue.append(target)
            graph.edges.append((node, transition, target))
        if not fired_any:
            graph.deadlocks.append(node)
    return graph


def _check_backend(backend: str) -> None:
    if backend not in ("explicit", "symbolic"):
        raise ExecutionError(
            f"unknown reachability backend {backend!r}: "
            "expected 'explicit' or 'symbolic'")


def is_safe(net: PetriNet, *, max_markings: int = 100_000,
            backend: str = "explicit") -> bool:
    """Decide safety (1-boundedness) of the unguarded net by exploration.

    Raises :class:`~repro.errors.ExecutionError` if the exploration budget
    is exhausted before a verdict is reached.  ``backend="symbolic"``
    routes through the vectorised frontier engine in
    :mod:`repro.analysis.symbolic` — same verdicts, far larger nets.
    """
    _check_backend(backend)
    if backend == "symbolic":
        from ..analysis.symbolic import frontier_explore

        graph = frontier_explore(net, max_markings=max_markings,
                                 token_bound=1)
    else:
        graph = explore(net, max_markings=max_markings, token_bound=1)
    if graph.bounded_by > 1:
        return False
    if graph.truncated:
        raise ExecutionError(
            "reachability budget exhausted before safety could be decided "
            f"({graph.truncation_reason})"
        )
    return True


def reachable_markings(net: PetriNet, *, max_markings: int = 100_000,
                       backend: str = "explicit") -> list[Marking]:
    """All reachable markings (requires the exploration to complete)."""
    _check_backend(backend)
    if backend == "symbolic":
        from ..analysis.symbolic import frontier_explore

        sym = frontier_explore(net, max_markings=max_markings)
        if sym.truncated:
            raise ExecutionError(
                f"reachability budget exhausted ({sym.truncation_reason})")
        return sym.markings()
    graph = explore(net, max_markings=max_markings)
    if graph.truncated:
        raise ExecutionError(
            f"reachability budget exhausted ({graph.truncation_reason})")
    return list(graph.markings)


def coexistent_place_pairs(net: PetriNet, *, max_markings: int = 100_000,
                           backend: str = "explicit"
                           ) -> tuple[frozenset[frozenset[str]], bool]:
    """Unordered place pairs that hold tokens simultaneously somewhere.

    Computed over the unguarded reachable marking graph — a sound
    over-approximation of the guarded system (guards only remove
    behaviours).  Returns ``(pairs, complete)``.

    This relation is the *behavioural* counterpart of the structural
    parallel order ``∥`` (Definition 2.3(5)) and is strictly more precise
    on cyclic nets: two states of a loop body are mutually reachable
    around the back edge (hence ``α``-ordered, *not* structurally
    parallel) yet can still be simultaneously marked inside one
    iteration.  The vertex-merger legality check and the
    properly-designed rule 1 both need the behavioural notion to stay
    sound for loops.

    A truncated exploration emits a
    :class:`~repro.analysis.symbolic.TruncationWarning` (the returned
    ``complete=False`` flag is easy to drop on the floor; the warning is
    not) — the pair set is then a *lower* bound on true coexistence.
    """
    _check_backend(backend)
    if backend == "symbolic":
        from ..analysis.symbolic import coexistence

        return coexistence(net, max_markings=max_markings)
    graph = explore(net, max_markings=max_markings)
    if graph.truncated:
        from ..analysis.symbolic import warn_truncated

        warn_truncated("coexistent place pairs", graph.truncation_reason)
    pairs: set[frozenset[str]] = set()
    for marking in graph.markings:
        marked = sorted(marking.marked_places())
        for i, p in enumerate(marked):
            if marking[p] > 1:
                pairs.add(frozenset((p,)))
            for q in marked[i + 1:]:
                pairs.add(frozenset((p, q)))
    return frozenset(pairs), graph.complete


def firing_sequences(net: PetriNet, *, max_depth: int, max_sequences: int = 100_000,
                     guard_eval: GuardEval = always_true) -> list[list[str]]:
    """Enumerate interleaved firing sequences up to ``max_depth``.

    Every maximal (quiescent or depth-capped) interleaving is returned.
    This is the exhaustive oracle used by the semantics tests to confirm
    that, for properly designed (conflict-free) systems, every interleaving
    produces the same external event structure.
    """
    results: list[list[str]] = []
    start = net.initial_marking()
    index = net.token_index()

    stack: list[tuple[Marking, list[str]]] = [(start, [])]
    while stack:
        marking, prefix = stack.pop()
        if len(results) >= max_sequences:
            raise ExecutionError("too many firing sequences to enumerate")
        options = [t for t in index.enabled(marking) if guard_eval(t)]
        if not options or len(prefix) >= max_depth:
            results.append(prefix)
            continue
        for transition in options:
            successor = marking.after_firing(
                index.presets[transition], index.postsets[transition])
            stack.append((successor, prefix + [transition]))
    return results
