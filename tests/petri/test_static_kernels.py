"""Reference cross-checks for the static analyses' integer and bitset kernels.

Each kernel is compared with a test-local copy of the algorithm it
replaced: Fraction Gaussian elimination for the P-/T-invariants, repeated
boolean squaring for the transitive closure, the per-round rescan with the
O(n²) co-relation loop for the unfolding, and one ``np.nonzero`` per
transition for the frontier step.  The replacements must give the same
results, not just equivalent ones.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from random import Random

import numpy as np
import pytest

from repro.analysis.symbolic import (
    CompiledNet,
    Prefix,
    SymbolicGraph,
    _Condition,
    _Event,
    complete_prefix,
    frontier_explore,
)
from repro.designs import ZOO
from repro.fuzz.generate import GeneratorConfig, generate_case
from repro.petri import (
    PetriNet,
    incidence_matrix,
    p_invariants,
    positive_p_invariants,
    t_invariants,
    transitive_closure_bool,
)

# ---------------------------------------------------------------------------
# reference algorithms
# ---------------------------------------------------------------------------
_ZERO, _ONE = Fraction(0), Fraction(1)


def reference_nullspace(matrix: np.ndarray) -> list[list[Fraction]]:
    """Sparse Fraction Gauss-Jordan elimination, basis per free column."""
    rows_n, cols = matrix.shape
    pivot_rows: dict[int, dict[int, Fraction]] = {}
    for i in range(rows_n):
        row = {j: Fraction(int(matrix[i, j])) for j in range(cols)
               if matrix[i, j]}
        for col in sorted(c for c in row if c in pivot_rows):
            factor = row.pop(col)
            for k, v in pivot_rows[col].items():
                if k == col:
                    continue
                value = row.get(k, _ZERO) - factor * v
                if value:
                    row[k] = value
                else:
                    row.pop(k, None)
        if not row:
            continue
        col = min(row)
        pivot = row.pop(col)
        row = {k: v / pivot for k, v in row.items()}
        row[col] = _ONE
        for prow in pivot_rows.values():
            factor = prow.pop(col, None)
            if factor is None:
                continue
            for k, v in row.items():
                if k == col:
                    continue
                value = prow.get(k, _ZERO) - factor * v
                if value:
                    prow[k] = value
                else:
                    prow.pop(k, None)
        pivot_rows[col] = row
    basis = []
    for free in range(cols):
        if free in pivot_rows:
            continue
        vector = [_ZERO] * cols
        vector[free] = _ONE
        for col, prow in pivot_rows.items():
            weight = prow.get(free)
            if weight:
                vector[col] = -weight
        basis.append(vector)
    return basis


def reference_integer_vector(vector: list[Fraction]) -> list[int]:
    lcm = 1
    for value in vector:
        lcm = lcm * value.denominator // gcd(lcm, value.denominator)
    ints = [int(value * lcm) for value in vector]
    divisor = 0
    for value in ints:
        divisor = gcd(divisor, abs(value))
    if divisor > 1:
        ints = [value // divisor for value in ints]
    return ints


def reference_p_invariants(net: PetriNet) -> list[dict[str, int]]:
    places = net.place_names()
    return [{p: w for p, w in zip(places, reference_integer_vector(v)) if w}
            for v in reference_nullspace(incidence_matrix(net).T)]


def reference_t_invariants(net: PetriNet) -> list[dict[str, int]]:
    transitions = net.transition_names()
    return [{t: w for t, w in zip(transitions, reference_integer_vector(v))
             if w}
            for v in reference_nullspace(incidence_matrix(net))]


def reference_closure(adjacency: np.ndarray) -> np.ndarray:
    """``R ∪ R² ∪ …`` by repeated boolean squaring."""
    if adjacency.shape[0] == 0:
        return adjacency.copy()
    reach = adjacency.astype(bool).copy()
    while True:
        new = reach | (reach @ reach)
        if np.array_equal(new, reach):
            return new
        reach = new


def reference_prefix(net: PetriNet, *, max_events: int) -> Prefix:
    """Every round rescans every transition and every known combination;
    the co-relation is filled pair by pair at the end."""
    initial = net.initial_marking()
    prefix = Prefix(net_places=tuple(net.places))
    conditions, events = prefix.conditions, prefix.events
    cond_events: list[frozenset[int]] = []
    cond_cmap: list[dict[int, int]] = []
    for place in initial:
        conditions.append(_Condition(len(conditions), place, -1))
        cond_events.append(frozenset())
        cond_cmap.append({})

    def concurrent(b1: int, b2: int) -> bool:
        if b1 == b2:
            return False
        cmap1, cmap2 = cond_cmap[b1], cond_cmap[b2]
        if b1 in cmap2 or b2 in cmap1:
            return False
        if len(cmap1) > len(cmap2):
            cmap1, cmap2 = cmap2, cmap1
        for cond, consumer in cmap1.items():
            other = cmap2.get(cond)
            if other is not None and other != consumer:
                return False
        return True

    def marking_of(config: frozenset[int]) -> frozenset[tuple[str, int]]:
        consumed: set[int] = set()
        produced: set[int] = set()
        for e in config:
            consumed.update(events[e].inputs)
            produced.update(events[e].outputs)
        initial_conds = {b for b in range(len(conditions))
                         if conditions[b].producer < 0}
        counts: dict[str, int] = {}
        for b in (initial_conds | produced) - consumed:
            counts[conditions[b].place] = counts.get(
                conditions[b].place, 0) + 1
        return frozenset(counts.items())

    def co_sets(pools):
        def extend(combo, rest):
            if not rest:
                yield combo
                return
            for candidate in rest[0]:
                if candidate in combo:
                    continue
                if all(concurrent(candidate, b) for b in combo):
                    yield from extend(combo + (candidate,), rest[1:])
        yield from extend((), pools)

    seen_markings = {marking_of(frozenset()): 0}
    transitions = list(net.transitions)
    presets = {t: sorted(net.preset(t)) for t in transitions}
    postsets = {t: sorted(net.postset(t)) for t in transitions}
    known_events: set = set()
    progress = True
    while progress:
        progress = False
        if len(events) >= max_events:
            prefix.complete = False
            prefix.truncation_reason = f"event budget {max_events} exhausted"
            break
        by_place: dict[str, list[int]] = {}
        for cond in conditions:
            if cond.producer >= 0 and events[cond.producer].cutoff:
                continue
            by_place.setdefault(cond.place, []).append(cond.index)
        for t in transitions:
            needed = presets[t]
            if not needed:
                continue
            pools = [by_place.get(p, []) for p in needed]
            if any(not pool for pool in pools):
                continue
            for combo in co_sets(pools):
                key = (t, tuple(sorted(combo)))
                if key in known_events:
                    continue
                known_events.add(key)
                history: set[int] = set()
                cmap: dict[int, int] = {}
                for b in combo:
                    history |= cond_events[b]
                    cmap.update(cond_cmap[b])
                event = _Event(len(events), t, tuple(sorted(combo)))
                event.local_config = frozenset(history | {event.index})
                events.append(event)
                for b in combo:
                    cmap[b] = event.index
                outputs = []
                for place in postsets[t]:
                    cond = _Condition(len(conditions), place, event.index)
                    conditions.append(cond)
                    cond_events.append(event.local_config)
                    cond_cmap.append(cmap)
                    outputs.append(cond.index)
                event.outputs = tuple(outputs)
                mark = marking_of(event.local_config)
                size = len(event.local_config)
                best = seen_markings.get(mark)
                if best is not None and best < size:
                    event.cutoff = True
                elif best is None or size < best:
                    seen_markings[mark] = size
                progress = True
                if len(events) >= max_events:
                    break
            if len(events) >= max_events:
                break
    n = len(conditions)
    co = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            if concurrent(i, j):
                co[i, j] = co[j, i] = True
    prefix._co = co
    return prefix


def reference_frontier(net: PetriNet, *, token_bound: int,
                       max_markings: int = 1_000_000) -> SymbolicGraph:
    """The frontier BFS with one ``np.nonzero`` per transition per level."""
    cn = CompiledNet(net)
    start = cn.marking_row(net.initial_marking())
    seen = {start.tobytes(): 0}
    all_rows, pred, via = [start[None, :]], [np.full(1, -1)], [np.full(1, -1)]
    graph = SymbolicGraph(cn, start[None, :], pred[0], via[0])
    graph.bounded_by = int(start.max()) if len(cn.places) else 0
    frontier, frontier_ids, total = start[None, :], np.zeros(1, np.int64), 1

    def finish() -> SymbolicGraph:
        graph.rows = np.concatenate(all_rows, axis=0)
        graph.pred = np.concatenate(pred)
        graph.via = np.concatenate(via)
        return graph

    n_t = len(cn.transitions)
    while frontier.shape[0]:
        enabled = cn.enabled_mask(frontier) if n_t else \
            np.zeros((0, frontier.shape[0]), dtype=bool)
        any_enabled = enabled.any(axis=0) if n_t else \
            np.zeros(frontier.shape[0], dtype=bool)
        empties = ~frontier.any(axis=1)
        graph.terminals += int(empties.sum())
        graph.deadlocks += int((~any_enabled & ~empties).sum())
        succ_chunks, src_chunks, via_chunks = [], [], []
        for ti in range(n_t):
            lanes = np.nonzero(enabled[ti])[0]
            if not lanes.size:
                continue
            succ_chunks.append(frontier[lanes] + cn.delta[ti])
            src_chunks.append(frontier_ids[lanes])
            via_chunks.append(np.full(lanes.size, ti, dtype=np.int64))
        if not succ_chunks:
            break
        succs = np.concatenate(succ_chunks, axis=0)
        srcs = np.concatenate(src_chunks)
        vias = np.concatenate(via_chunks)
        peak = int(succs.max()) if succs.size else 0
        graph.bounded_by = max(graph.bounded_by, peak)
        if peak > token_bound:
            bad = int(np.nonzero((succs > token_bound).any(axis=1))[0][0])
            if succs[bad].tobytes() not in seen:
                all_rows.append(succs[bad][None, :])
                pred.append(srcs[bad:bad + 1])
                via.append(vias[bad:bad + 1])
            graph.complete = False
            graph.truncated = True
            return finish()
        order = np.lexsort(succs.T[::-1])
        succs, srcs, vias = succs[order], srcs[order], vias[order]
        fresh = np.ones(succs.shape[0], dtype=bool)
        if succs.shape[0] > 1:
            fresh[1:] = (succs[1:] != succs[:-1]).any(axis=1)
        succs, srcs, vias = succs[fresh], srcs[fresh], vias[fresh]
        new_rows = []
        for i in range(succs.shape[0]):
            key = succs[i].tobytes()
            if key not in seen:
                seen[key] = total + len(new_rows)
                new_rows.append(i)
        if not new_rows:
            break
        keep = np.asarray(new_rows, dtype=np.int64)
        new = succs[keep]
        if total + new.shape[0] > max_markings:
            room = max(0, max_markings - total)
            new, keep = new[:room], keep[:room]
            graph.complete = False
            graph.truncated = True
        if new.shape[0]:
            all_rows.append(new)
            pred.append(srcs[keep])
            via.append(vias[keep])
            frontier_ids = np.arange(total, total + new.shape[0])
            total += new.shape[0]
        frontier = new
        if graph.truncated:
            return finish()
    return finish()


# ---------------------------------------------------------------------------
# the nets
# ---------------------------------------------------------------------------
def _zoo_nets() -> list[PetriNet]:
    return [design.build().net for design in ZOO.values()]


def _generated_net(seed: int) -> PetriNet:
    places = 4 + seed % 60
    config = GeneratorConfig(min_places=places, max_places=places,
                             mutation_rate=0.3)
    return generate_case(seed, config).system.net


def _random_net(seed: int) -> PetriNet:
    """Up to nine places and eight transitions with random arcs and a
    random 1-bounded initial marking."""
    rng = Random(seed)
    net = PetriNet(name=f"random{seed}")
    places = [f"p{i}" for i in range(rng.randint(3, 9))]
    for place in places:
        net.add_place(place, marked=rng.random() < 0.35)
    for j in range(rng.randint(2, 8)):
        net.add_transition(f"t{j}")
        for place in rng.sample(places, rng.randint(1, 3)):
            net.add_arc(place, f"t{j}")
        for place in rng.sample(places, rng.randint(1, 3)):
            net.add_arc(f"t{j}", place)
    return net


ZOO_NETS = _zoo_nets()
GENERATED_SEEDS = range(150)


@lru_cache(maxsize=1)
def _generated_nets() -> tuple[PetriNet, ...]:
    return tuple(_generated_net(seed) for seed in GENERATED_SEEDS)


def _nets():
    yield from ZOO_NETS
    yield from _generated_nets()


# ---------------------------------------------------------------------------
# P-/T-invariants
# ---------------------------------------------------------------------------
class TestInvariants:
    def test_bases_match_fraction_elimination(self):
        # the random nets' eliminations meet entries other than ±1
        checked = 0
        for net in [*_nets(), *map(_random_net, range(40))]:
            assert p_invariants(net) == reference_p_invariants(net)
            assert t_invariants(net) == reference_t_invariants(net)
            checked += 1
        assert checked == len(ZOO_NETS) + len(GENERATED_SEEDS) + 40 == 201

    def test_cache_follows_structure(self):
        net = PetriNet()
        for p in ("a", "b", "c"):
            net.add_place(p)
        net.add_transition("t")
        net.add_arc("a", "t")
        net.add_arc("t", "b")
        before = p_invariants(net)
        assert before == reference_p_invariants(net)
        net.add_arc("t", "c")
        after = p_invariants(net)
        assert after != before
        assert after == reference_p_invariants(net)
        net.remove_place("c")
        removed = p_invariants(net)
        assert removed not in (before, after)
        assert removed == reference_p_invariants(net)
        net.set_initial("a")  # the marking is not structure
        assert p_invariants(net) == removed

    def test_returned_dicts_are_fresh(self):
        net = ZOO_NETS[0]
        first = p_invariants(net)
        expected = [dict(invariant) for invariant in first]
        for invariant in first:
            invariant.clear()
        first.clear()
        assert p_invariants(net) == expected
        positive = positive_p_invariants(net)
        for invariant in positive:
            invariant["nowhere"] = 7
        assert p_invariants(net) == expected
        t_first = t_invariants(net)
        t_expected = [dict(invariant) for invariant in t_first]
        for invariant in t_first:
            invariant.clear()
        assert t_invariants(net) == t_expected


# ---------------------------------------------------------------------------
# transitive closure
# ---------------------------------------------------------------------------
class TestClosure:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 16, 40, 110, 300])
    def test_random_matrices(self, n):
        rng = np.random.default_rng(n)
        for density in (0.0, 0.5 / max(n, 1), 2.0 / max(n, 1), 0.05, 0.3):
            adjacency = rng.random((n, n)) < density
            original = adjacency.copy()
            closure = transitive_closure_bool(adjacency)
            expected = reference_closure(adjacency)
            assert closure.dtype == expected.dtype
            assert closure.shape == expected.shape
            assert np.array_equal(closure, expected)
            assert np.array_equal(adjacency, original)

    def test_cycles_and_self_loops(self):
        n = 12
        adjacency = np.zeros((n, n), dtype=bool)
        adjacency[0, 1] = adjacency[1, 2] = adjacency[2, 0] = True  # cycle
        adjacency[2, 3] = True                                      # exit
        adjacency[4, 4] = True                                      # self-loop
        adjacency[4, 5] = adjacency[5, 6] = True
        adjacency[7, 8] = adjacency[8, 7] = adjacency[8, 9] = True  # 2-cycle
        adjacency[9, 0] = True
        adjacency[11, 10] = True
        closure = transitive_closure_bool(adjacency)
        assert np.array_equal(closure, reference_closure(adjacency))
        assert closure[4, 4] and not closure[5, 5] and not closure[3, 3]

    def test_integer_input(self):
        adjacency = np.zeros((5, 5), dtype=np.int64)
        adjacency[0, 1] = 3
        adjacency[1, 4] = 1
        assert np.array_equal(transitive_closure_bool(adjacency),
                              reference_closure(adjacency))


# ---------------------------------------------------------------------------
# the unfolding
# ---------------------------------------------------------------------------
def _assert_same_prefix(actual: Prefix, expected: Prefix) -> None:
    assert actual.net_places == expected.net_places
    assert actual.complete == expected.complete
    assert actual.truncation_reason == expected.truncation_reason
    assert actual.conditions == expected.conditions
    assert len(actual.events) == len(expected.events)
    for mine, theirs in zip(actual.events, expected.events):
        assert mine == theirs
    assert actual._co.dtype == expected._co.dtype
    assert np.array_equal(actual._co, expected._co)


def _prefix_nets():
    for net in _nets():
        if all(count <= 1 for count in net.initial_marking().values()):
            yield net


class TestPrefix:
    @pytest.mark.parametrize("max_events", [2_000, 50])
    def test_matches_rescanning_unfolding(self, max_events):
        checked = truncated = 0
        for net in _prefix_nets():
            if len(net.transitions) > 64:
                continue
            actual = complete_prefix(net, max_events=max_events)
            expected = reference_prefix(net, max_events=max_events)
            _assert_same_prefix(actual, expected)
            checked += 1
            truncated += not actual.complete
        assert checked > 100
        if max_events == 50:
            assert truncated > 0

    def test_budget_edges(self):
        net = ZOO_NETS[0]
        for max_events in (0, 1, 2, 3):
            _assert_same_prefix(complete_prefix(net, max_events=max_events),
                                reference_prefix(net, max_events=max_events))

    def test_unsafe_and_conflicting_nets(self):
        # a marked place feeding two transitions, one of which doubles up
        net = PetriNet()
        for p in ("a", "b", "c"):
            net.add_place(p, marked=p == "a")
        net.add_place("d", marked=True)
        for t, pre, post in (("t1", "a", "bc"), ("t2", "a", "b"),
                             ("t3", "bd", "a"), ("t4", "c", "b")):
            net.add_transition(t)
            for p in pre:
                net.add_arc(p, t)
            for p in post:
                net.add_arc(t, p)
        for max_events in (2_000, 50):
            actual = complete_prefix(net, max_events=max_events)
            _assert_same_prefix(actual,
                                reference_prefix(net, max_events=max_events))

    @pytest.mark.parametrize("max_events", [150, 50])
    def test_random_nets(self, max_events):
        # arbitrary arcs and markings: conflicts, unsafe places, budgets
        truncated = unsafe = 0
        for seed in range(40):
            net = _random_net(seed)
            actual = complete_prefix(net, max_events=max_events)
            _assert_same_prefix(actual,
                                reference_prefix(net, max_events=max_events))
            truncated += not actual.complete
            unsafe += bool(actual.unsafe_places())
        assert truncated and unsafe

    def test_unmarked_net(self):
        net = PetriNet()
        net.add_place("p")
        net.add_transition("t")
        net.add_arc("p", "t")
        prefix = complete_prefix(net)
        _assert_same_prefix(prefix, reference_prefix(net, max_events=10))
        assert prefix._co.shape == (0, 0)


# ---------------------------------------------------------------------------
# the frontier step
# ---------------------------------------------------------------------------
class TestFrontier:
    @pytest.mark.parametrize("token_bound", [1, 8])
    def test_matches_per_transition_nonzero(self, token_bound):
        # the random nets overflow token bounds; some designs exhaust
        # the marking budget
        reasons = set()
        for net in [*_nets(), *map(_random_net, range(40))]:
            actual = frontier_explore(net, token_bound=token_bound,
                                      max_markings=20_000)
            expected = reference_frontier(net, token_bound=token_bound,
                                          max_markings=20_000)
            reasons.add(actual.truncation_reason.split(" (")[0])
            assert np.array_equal(actual.rows, expected.rows)
            assert np.array_equal(actual.pred, expected.pred)
            assert np.array_equal(actual.via, expected.via)
            assert (actual.complete, actual.truncated, actual.bounded_by,
                    actual.deadlocks, actual.terminals) == \
                (expected.complete, expected.truncated, expected.bounded_by,
                 expected.deadlocks, expected.terminals)
        assert reasons == {"", f"token bound {token_bound} exceeded",
                           "marking budget 20000 exhausted"}
