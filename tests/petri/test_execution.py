"""Unit tests for the token game (Definition 3.1(2)-(6))."""

import random

import pytest

from repro.errors import ExecutionError
from repro.petri import (
    Marking,
    PetriNet,
    enabled_transitions,
    fire,
    fire_step,
    fireable_transitions,
    is_enabled,
    maximal_step,
    may_fire,
    run_to_completion,
)

from tests.util import fork_join_net, loop_net


def guard_table(table):
    """Guard evaluator from a dict (missing transitions default True)."""
    return lambda t: table.get(t, True)


class TestEnabling:
    def test_enabled_requires_all_input_tokens(self):
        net = fork_join_net()
        marking = net.initial_marking()
        assert is_enabled(net, marking, "t_fork")
        assert not is_enabled(net, marking, "t_join")
        after = fire(net, marking, "t_fork")
        assert is_enabled(net, after, "t_join")

    def test_source_transition_always_enabled(self):
        net = PetriNet()
        net.add_transition("t")
        net.add_place("p")
        net.add_arc("t", "p")
        assert is_enabled(net, Marking(), "t")

    def test_guard_blocks_firing(self):
        net = loop_net()
        marking = net.initial_marking()
        evaluator = guard_table({"t1": False})
        assert is_enabled(net, marking, "t1")
        assert not may_fire(net, marking, "t1", evaluator)
        assert fireable_transitions(net, marking, evaluator) == []

    def test_enabled_transitions_listing(self):
        net = fork_join_net()
        assert enabled_transitions(net, net.initial_marking()) == ["t_fork"]


class TestFiring:
    def test_fire_moves_tokens(self):
        net = fork_join_net()
        after = fire(net, net.initial_marking(), "t_fork")
        assert after == Marking({"p1": 1, "p2": 1})

    def test_fire_disabled_raises(self):
        net = fork_join_net()
        with pytest.raises(ExecutionError):
            fire(net, net.initial_marking(), "t_join")

    def test_fire_guard_false_raises(self):
        net = loop_net()
        with pytest.raises(ExecutionError):
            fire(net, net.initial_marking(), "t1", guard_table({"t1": False}))

    def test_fire_step_concurrent(self):
        net = fork_join_net()
        mid = fire(net, net.initial_marking(), "t_fork")
        # two more independent transitions to fire simultaneously
        net.add_transition("u1")
        net.add_transition("u2")
        net.add_place("q1")
        net.add_place("q2")
        net.add_arc("p1", "u1")
        net.add_arc("u1", "q1")
        net.add_arc("p2", "u2")
        net.add_arc("u2", "q2")
        after = fire_step(net, mid, ["u1", "u2"])
        assert after == Marking({"q1": 1, "q2": 1})

    def test_fire_step_detects_token_competition(self):
        net = PetriNet()
        net.add_place("p", marked=True)
        net.add_transition("t1")
        net.add_transition("t2")
        net.add_arc("p", "t1")
        net.add_arc("p", "t2")
        marking = net.initial_marking()
        with pytest.raises(ExecutionError):
            fire_step(net, marking, ["t1", "t2"])

    def test_fire_step_rejects_unfireable_member(self):
        net = fork_join_net()
        with pytest.raises(ExecutionError):
            fire_step(net, net.initial_marking(), ["t_fork", "t_join"])


class TestMaximalStep:
    def test_maximal_step_takes_all_independent(self):
        net = fork_join_net()
        mid = fire(net, net.initial_marking(), "t_fork")
        net.remove_transition("t_join")  # leave only the independent sinks
        net.add_transition("u1")
        net.add_transition("u2")
        net.add_place("q1")
        net.add_place("q2")
        net.add_arc("p1", "u1")
        net.add_arc("u1", "q1")
        net.add_arc("p2", "u2")
        net.add_arc("u2", "q2")
        assert sorted(maximal_step(net, mid)) == ["u1", "u2"]

    def test_maximal_step_respects_token_budget(self):
        net = PetriNet()
        net.add_place("p", marked=True)
        net.add_transition("t1")
        net.add_transition("t2")
        net.add_arc("p", "t1")
        net.add_arc("p", "t2")
        step = maximal_step(net, net.initial_marking())
        assert len(step) == 1  # only one may take the single token

    def test_priority_order_honoured(self):
        net = PetriNet()
        net.add_place("p", marked=True)
        net.add_transition("t1")
        net.add_transition("t2")
        net.add_arc("p", "t1")
        net.add_arc("p", "t2")
        assert maximal_step(net, net.initial_marking(),
                            priority=["t2", "t1"]) == ["t2"]

    def test_maximal_step_skips_guard_false(self):
        net = loop_net()
        assert maximal_step(net, net.initial_marking(),
                            guard_table({"t1": False})) == []


class TestRunToCompletion:
    def test_terminates_when_tokens_drain(self):
        net = PetriNet()
        net.add_place("p", marked=True)
        net.add_transition("t")   # sink transition: consumes, produces nothing
        net.add_arc("p", "t")
        final, history = run_to_completion(net)
        assert final.is_empty()
        assert history == [["t"]]

    def test_deadlock_returns_marking(self):
        net = fork_join_net()
        # remove join so p1/p2 deadlock
        net.remove_transition("t_join")
        final, history = run_to_completion(net)
        assert final == Marking({"p1": 1, "p2": 1})

    def test_nonterminating_raises(self):
        net = loop_net()
        with pytest.raises(ExecutionError):
            run_to_completion(net, max_steps=10)

    def test_guard_quiesces_loop(self):
        # t1 permanently guarded false: the loop cannot advance at all
        net = loop_net()
        final, history = run_to_completion(
            net, guard_eval=guard_table({"t1": False}))
        assert final == Marking({"p0": 1})
        assert history == []


def _conflict_net() -> PetriNet:
    """One token, two competing consumers — the rng has a real choice."""
    net = PetriNet()
    net.add_place("p", marked=True)
    net.add_place("q1")
    net.add_place("q2")
    net.add_transition("t1")
    net.add_transition("t2")
    net.add_arc("p", "t1")
    net.add_arc("t1", "q1")
    net.add_arc("p", "t2")
    net.add_arc("t2", "q2")
    return net


class TestSeededStep:
    def test_same_seed_same_choice(self):
        picks = {seed: maximal_step(_conflict_net(),
                                    Marking({"p": 1}),
                                    rng=random.Random(seed))
                 for seed in range(8)}
        for seed, step in picks.items():
            assert step == maximal_step(_conflict_net(), Marking({"p": 1}),
                                        rng=random.Random(seed))
        # across seeds both outcomes occur: the shuffle is not a no-op
        assert {tuple(step) for step in picks.values()} == {("t1",), ("t2",)}

    def test_priority_with_rng_shuffles_priority_list(self):
        net = _conflict_net()
        marking = Marking({"p": 1})
        for seed in range(10):
            # t1 and t2 compete for p: the greedy scan takes the first of
            # the shuffled priority list
            order = ["t2", "t1"]
            random.Random(seed).shuffle(order)
            assert maximal_step(net, marking, priority=["t2", "t1"],
                                rng=random.Random(seed)) == order[:1]

    def test_seeded_run_to_completion_reproducible(self):
        def choice_chain() -> PetriNet:
            net = PetriNet()
            net.add_place("p0", marked=True)
            for i in range(4):
                net.add_place(f"p{i + 1}")
                for branch in ("a", "b"):
                    net.add_transition(f"t{i}{branch}")
                    net.add_arc(f"p{i}", f"t{i}{branch}")
                    net.add_arc(f"t{i}{branch}", f"p{i + 1}")
            return net

        final1, history1 = run_to_completion(choice_chain(),
                                             rng=random.Random(11))
        final2, history2 = run_to_completion(choice_chain(),
                                             rng=random.Random(11))
        assert (final1, history1) == (final2, history2)
        histories = {tuple(map(tuple, run_to_completion(
            choice_chain(), rng=random.Random(seed))[1]))
            for seed in range(12)}
        assert len(histories) > 1  # distinct seeds explore distinct paths
