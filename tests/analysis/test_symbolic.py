"""The symbolic engine: differential properties against the explicit
explorer, POR soundness, unfolding queries, truncation semantics,
equivalence witnesses and SARIF rendering."""

import warnings

import pytest

from repro.analysis.symbolic import (
    EQUIV_RULES,
    CompiledNet,
    TruncationWarning,
    complete_prefix,
    equivalence_diagnostics,
    frontier_explore,
    por_explore,
    safety_diagnostics,
    stubborn_set,
)
from repro.core.equivalence import semantically_equivalent
from repro.errors import DefinitionError, ExecutionError
from repro.petri.execution import fire_step
from repro.petri.net import PetriNet
from repro.petri.reachability import (
    coexistent_place_pairs,
    explore,
    is_safe,
    reachable_markings,
)

from ..util import fork_join_net, independent_pair_system, loop_net, relay_system


def unsafe_net() -> PetriNet:
    """Two producers feeding one place: reachably 2-bounded."""
    net = PetriNet()
    net.add_place("a", tokens=1)
    net.add_place("b", tokens=1)
    net.add_place("c")
    net.add_transition("t1")
    net.add_arc("a", "t1")
    net.add_arc("t1", "c")
    net.add_transition("t2")
    net.add_arc("b", "t2")
    net.add_arc("t2", "c")
    return net


def pump_net() -> PetriNet:
    """Unbounded: every firing of ``t`` adds a token to ``q``."""
    net = PetriNet()
    net.add_place("p", tokens=1)
    net.add_place("q")
    net.add_transition("t")
    net.add_arc("p", "t")
    net.add_arc("t", "p")
    net.add_arc("t", "q")
    return net


def wide_parallel_net(branches: int = 4, length: int = 3) -> PetriNet:
    """A fork into ``branches`` independent chains joined at the end —
    the shape where interleaving enumeration explodes and Def. 3.2's
    disjoint subgraphs make POR maximal."""
    net = PetriNet()
    net.add_place("start", tokens=1)
    net.add_place("done")
    fork = net.add_transition("fork").name
    join = net.add_transition("join").name
    net.add_arc("start", fork)
    net.add_arc(join, "done")
    for b in range(branches):
        prev = None
        for i in range(length):
            place = f"p{b}_{i}"
            net.add_place(place)
            if prev is None:
                net.add_arc(fork, place)
            else:
                t = net.add_transition(f"t{b}_{i}").name
                net.add_arc(prev, t)
                net.add_arc(t, place)
            prev = place
        net.add_arc(prev, join)
    return net


class TestDifferentialZoo:
    """Symbolic and explicit backends agree on every zoo design."""

    def test_reachable_marking_sets_agree(self, zoo):
        for _name, (_design, system) in zoo.items():
            explicit = frozenset(explore(system.net).markings)
            symbolic = frontier_explore(system.net).marking_set()
            assert explicit == symbolic

    def test_safety_agrees(self, zoo):
        for _name, (_design, system) in zoo.items():
            assert is_safe(system.net) == is_safe(system.net,
                                                  backend="symbolic")

    def test_coexistent_pairs_agree(self, zoo):
        for _name, (_design, system) in zoo.items():
            pairs_explicit, complete_explicit = coexistent_place_pairs(
                system.net)
            pairs_symbolic, complete_symbolic = coexistent_place_pairs(
                system.net, backend="symbolic")
            assert pairs_explicit == pairs_symbolic
            assert complete_explicit == complete_symbolic

    def test_reachable_markings_helper_agrees(self, zoo):
        _design, system = zoo["gcd"]
        explicit = frozenset(reachable_markings(system.net))
        symbolic = frozenset(reachable_markings(system.net,
                                                backend="symbolic"))
        assert explicit == symbolic

    def test_self_equivalence_agrees(self, zoo):
        for _name, (design, _system) in zoo.items():
            explicit = semantically_equivalent(
                design.build(), design.build(), design.environment())
            symbolic = semantically_equivalent(
                design.build(), design.build(), design.environment(),
                backend="symbolic")
            assert explicit.equivalent and symbolic.equivalent

    def test_deadlock_and_terminal_counts_agree(self, zoo):
        for _name, (_design, system) in zoo.items():
            explicit = explore(system.net)
            symbolic = frontier_explore(system.net)
            assert len(explicit.deadlocks) == symbolic.deadlocks
            assert len(explicit.terminals) == symbolic.terminals
            assert explicit.bounded_by == symbolic.bounded_by

    def test_unknown_backend_rejected(self, zoo):
        _design, system = zoo["gcd"]
        with pytest.raises(ExecutionError):
            is_safe(system.net, backend="bdd")


class TestDifferentialMutants:
    """Deliberately broken variants must be flagged by both backends."""

    def test_rewired_datapath_detected(self):
        # the guard-invert/misroute fault family, applied structurally:
        # the summed operand is rewired so outputs differ
        left = independent_pair_system()
        right = independent_pair_system()
        right.datapath.remove_arc("a_ra")
        right.datapath.connect("rb.q", "sum.l", name="a_ra")
        from repro.semantics.environment import Environment

        env = Environment.of(x=[1])
        explicit = semantically_equivalent(left, right, env)
        symbolic = semantically_equivalent(left, right, env,
                                           backend="symbolic")
        assert not explicit.equivalent and not symbolic.equivalent
        assert explicit.witness is not None
        assert symbolic.witness is not None

    def test_interface_mismatch_prescreened(self, zoo):
        _d1, gcd = zoo["gcd"]
        _d2, counter = zoo["counter"]
        verdict = semantically_equivalent(gcd, counter, backend="symbolic")
        assert not verdict.equivalent
        assert "external interfaces differ" in verdict.reason


class TestFrontier:
    def test_firing_sequence_witness_replays(self):
        net = fork_join_net()
        graph = frontier_explore(net)
        # every recorded path must replay to its marking via fire_step
        for node in range(graph.num_markings):
            marking = net.initial_marking()
            for transition in graph.firing_sequence(node):
                marking = fire_step(net, marking, [transition])
            assert marking == graph.compiled.row_marking(graph.rows[node])

    def test_token_bound_truncates_with_reason(self):
        net = pump_net()
        graph = frontier_explore(net, token_bound=3)
        assert graph.truncated and not graph.complete
        assert "token bound" in graph.truncation_reason
        assert graph.bounded_by > 3

    def test_marking_budget_truncates_with_reason(self):
        net = wide_parallel_net()
        graph = frontier_explore(net, max_markings=5)
        assert graph.truncated
        assert "budget" in graph.truncation_reason

    def test_unsafe_witness_found(self):
        graph = frontier_explore(unsafe_net(), token_bound=1)
        witness = graph.unsafe_witness()
        assert witness is not None
        marking, path = witness
        assert marking["c"] == 2
        replayed = unsafe_net().initial_marking()
        net = unsafe_net()
        for transition in path:
            replayed = fire_step(net, replayed, [transition])
        assert replayed == marking

    def test_compiled_net_rejects_unknown_place(self):
        from repro.petri.marking import Marking

        compiled = CompiledNet(fork_join_net())
        with pytest.raises(DefinitionError):
            compiled.marking_row(Marking({"nope": 1}))


class TestPartialOrderReduction:
    def test_reduction_is_genuine_on_parallel_net(self):
        net = wide_parallel_net(branches=4, length=3)
        full = frontier_explore(net)
        reduced = por_explore(net)
        assert reduced.num_markings < full.num_markings
        assert reduced.marking_set() <= full.marking_set()

    def test_deadlock_verdicts_preserved(self, zoo):
        nets = [system.net for _n, (_d, system) in zoo.items()]
        nets += [fork_join_net(), loop_net(), wide_parallel_net()]
        for net in nets:
            full = frontier_explore(net)
            reduced = por_explore(net)
            assert (full.deadlocks > 0) == (reduced.deadlocks > 0)
            assert (full.terminals > 0) == (reduced.terminals > 0)

    def test_safety_violations_found_by_reduction_are_real(self):
        reduced = por_explore(unsafe_net())
        full = frontier_explore(unsafe_net())
        if reduced.bounded_by > 1:
            assert full.bounded_by > 1

    def test_stubborn_set_subset_of_enabled(self):
        net = wide_parallel_net()
        compiled = CompiledNet(net)
        graph = frontier_explore(net)
        for row in graph.rows:
            enabled = (row >= compiled.pre).all(axis=1)
            stub = stubborn_set(compiled, row, enabled)
            assert all(enabled[t] for t in stub)
            if enabled.any():
                assert stub  # never empty at a non-deadlock


class TestUnfolding:
    def test_coexistence_matches_frontier(self, zoo):
        for _name, (_design, system) in zoo.items():
            prefix = complete_prefix(system.net, max_events=2_000)
            if not prefix.complete or prefix.unsafe_places():
                continue
            frontier_pairs = frontier_explore(system.net).coexistent_pairs()
            prefix_pairs = set(prefix.coexistent_pairs())
            initial = sorted(system.net.initial_marking().marked_places())
            for i, p in enumerate(initial):
                for q in initial[i + 1:]:
                    prefix_pairs.add(frozenset((p, q)))
            assert frozenset(prefix_pairs) == frontier_pairs

    def test_unsafe_place_detected(self):
        prefix = complete_prefix(unsafe_net())
        assert prefix.unsafe_places() == frozenset({"c"})

    def test_conflict_pairs_on_choice(self):
        net = PetriNet()
        net.add_place("s", tokens=1)
        net.add_place("l")
        net.add_place("r")
        net.add_transition("go_left")
        net.add_arc("s", "go_left")
        net.add_arc("go_left", "l")
        net.add_transition("go_right")
        net.add_arc("s", "go_right")
        net.add_arc("go_right", "r")
        prefix = complete_prefix(net)
        assert frozenset({"go_left", "go_right"}) in \
            prefix.conflict_transition_pairs()

    def test_multi_token_initial_rejected(self):
        net = PetriNet()
        net.add_place("p", tokens=2)
        with pytest.raises(DefinitionError):
            complete_prefix(net)

    def test_event_budget_marks_incomplete(self):
        prefix = complete_prefix(fork_join_net(), max_events=1)
        assert not prefix.complete
        assert "budget" in prefix.truncation_reason


class TestTruncationSemantics:
    """The satellite bugfix: no more silent caps."""

    def test_explore_reports_truncation_flag(self):
        net = wide_parallel_net()
        graph = explore(net, max_markings=5)
        assert graph.truncated and not graph.complete
        assert "budget" in graph.truncation_reason

    def test_token_bound_reports_truncation_flag(self):
        graph = explore(pump_net(), token_bound=3)
        assert graph.truncated
        assert "token bound" in graph.truncation_reason

    def test_old_silent_cap_behaviour_is_gone(self):
        """Regression pin: a budget-capped exploration used to report
        only ``complete=False`` — indistinguishable from any other
        incompleteness and silently dropped by ``coexistent_place_pairs``
        callers.  It must now carry an explicit truncation marker."""
        net = wide_parallel_net()
        graph = explore(net, max_markings=5)
        assert hasattr(graph, "truncated")
        assert graph.truncated, (
            "budget-capped exploration must be flagged as truncated, "
            "not silently partial")

    def test_coexistent_pairs_warns_on_truncation(self):
        net = pump_net()
        with pytest.warns(TruncationWarning):
            _pairs, complete = coexistent_place_pairs(net, max_markings=100)
        assert not complete

    def test_is_safe_raises_on_exhaustion(self):
        net = wide_parallel_net(branches=6, length=4)
        with pytest.raises(ExecutionError, match="budget"):
            is_safe(net, max_markings=3)

    def test_symbolic_is_safe_raises_on_exhaustion(self):
        net = wide_parallel_net(branches=6, length=4)
        with pytest.raises(ExecutionError, match="budget"):
            is_safe(net, max_markings=3, backend="symbolic")

    def test_complete_run_emits_no_warning(self, zoo):
        _design, system = zoo["gcd"]
        with warnings.catch_warnings():
            warnings.simplefilter("error", TruncationWarning)
            coexistent_place_pairs(system.net)


class TestEquivalenceWitness:
    def test_witness_replays_on_both_nets(self):
        left = independent_pair_system()
        right = independent_pair_system()
        right.datapath.remove_arc("a_ra")
        right.datapath.connect("rb.q", "sum.l", name="a_ra")
        from repro.semantics.environment import Environment

        verdict = semantically_equivalent(left, right,
                                          Environment.of(x=[1]))
        assert verdict.witness is not None
        for system, side in ((left, "left"), (right, "right")):
            marking = system.net.initial_marking()
            for step in verdict.witness[side]:
                marking = fire_step(system.net, marking, step)

    def test_witness_text_rendering(self):
        from repro.core.equivalence import EquivalenceVerdict

        verdict = EquivalenceVerdict(
            False, "semantic", "differs",
            witness={"left": [["t1", "t2"], ["t3"]], "right": []})
        text = verdict.witness_text()
        assert "left: t1,t2 ; t3" in text
        assert "right: (empty)" in text

    def test_equivalent_verdict_has_no_witness(self):
        from repro.semantics.environment import Environment

        verdict = semantically_equivalent(relay_system(), relay_system(),
                                          Environment.of(x=[3]))
        assert verdict.equivalent and verdict.witness is None


class TestDiagnosticsAndSarif:
    def test_inequivalence_produces_eq001(self):
        from repro.core.equivalence import EquivalenceVerdict

        verdict = EquivalenceVerdict(
            False, "semantic", "values differ",
            witness={"left": [["a"]], "right": [["b"]]})
        diagnostics = equivalence_diagnostics(verdict, left="x", right="y")
        assert len(diagnostics) == 1
        assert diagnostics[0].rule == "EQ001"
        assert "values differ" in diagnostics[0].message
        kinds = [loc.kind for loc in diagnostics[0].locations]
        assert kinds == ["marking", "marking"]

    def test_equivalent_verdict_produces_nothing(self):
        from repro.core.equivalence import EquivalenceVerdict

        assert equivalence_diagnostics(EquivalenceVerdict(True, "semantic"),
                                       left="x", right="y") == []

    def test_sarif_log_shape(self):
        from repro.analysis.sarif import sarif_diagnostics_log
        from repro.core.equivalence import EquivalenceVerdict

        verdict = EquivalenceVerdict(
            False, "semantic", "differs",
            witness={"left": [["a"]], "right": [["b"]]})
        diagnostics = equivalence_diagnostics(verdict, left="x", right="y")
        log = sarif_diagnostics_log(diagnostics, EQUIV_RULES,
                                    systems=["x", "y"])
        run = log["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-equiv"
        assert [r["id"] for r in run["tool"]["driver"]["rules"]] == \
            ["EQ001", "EQ002"]
        assert run["results"][0]["ruleId"] == "EQ001"
        assert run["properties"]["systems"] == ["x", "y"]

    def test_safety_diagnostics_carry_witness(self):
        diagnostics = safety_diagnostics(unsafe_net(), system="unsafe")
        assert len(diagnostics) == 1
        assert diagnostics[0].rule == "SY001"
        assert "t1" in diagnostics[0].message or \
            "t2" in diagnostics[0].message


class TestScaling:
    """The headline property: frontier >> explicit on wide nets."""

    @pytest.mark.slow
    def test_frontier_covers_more_markings_in_same_budget(self):
        from time import perf_counter

        net = wide_parallel_net(branches=7, length=6)
        start = perf_counter()
        explicit = explore(net, max_markings=20_000)
        budget = perf_counter() - start
        symbolic = frontier_explore(net, max_markings=5_000_000,
                                    time_budget=budget)
        assert symbolic.num_markings >= 2 * explicit.num_markings
