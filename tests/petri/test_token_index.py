"""The place-indexed token game against a full-scan reference.

:class:`~repro.petri.net.TokenIndex` lets every token game scan only the
consumers of the marked places (plus the preset-less transitions).  The
reference here is the plain reading of Definition 3.1(3)-(5): scan every
transition, read presets and postsets from the net's adjacency.  It
lives in the tests only.  The two must agree step by step — chosen
steps, successor markings and RNG state — on every zoo design under all
six policies and on generated (also mutated, conflicted) designs, and
``explore`` must build the same marking graph.  A second group checks
that the cached index follows every structural change of the net.
"""

from __future__ import annotations

import random
from collections import deque

import pytest

from repro.core.system import DataControlSystem
from repro.designs import all_designs
from repro.fuzz.generate import GeneratorConfig, apply_mutation, generate_case
from repro.petri import (
    Marking,
    PetriNet,
    enabled_transitions,
    explore,
    maximal_step,
)
from repro.semantics.environment import Environment
from repro.semantics.policies import (
    FixedOrderPolicy,
    MaximalStepPolicy,
    RandomPolicy,
    ScriptedPolicy,
    SeededMaximalPolicy,
    SequentialPolicy,
)
from repro.semantics.simulator import SimHook, Simulator
from repro.transform.control import ParallelizeStates

from tests.util import fork_join_net, independent_pair_system, loop_net


# ---------------------------------------------------------------------------
# the full-scan reference
# ---------------------------------------------------------------------------
def naive_maximal_step(net, marking, guard_eval, priority=None, rng=None):
    order = list(priority) if priority is not None else list(net.transitions)
    if rng is not None:
        rng.shuffle(order)
    available = dict(marking)
    step = []
    for t in order:
        preset = net.preset(t)
        if not (all(marking[p] >= 1 for p in preset) and guard_eval(t)):
            continue
        if all(available.get(p, 0) >= 1 for p in preset):
            for p in preset:
                available[p] = available.get(p, 0) - 1
            step.append(t)
    return step


def naive_enabled(net, marking):
    return [t for t in net.transitions
            if all(marking[p] >= 1 for p in net.preset(t))]


def naive_explore(net, max_markings):
    """Breadth-first marking graph over a full scan per marking (no
    token bound: no net compared here reaches ``explore``'s)."""
    start = net.initial_marking()
    markings, edges, deadlocks, terminals = [start], [], [], []
    seen = {start: 0}
    queue = deque([0])
    while queue:
        node = queue.popleft()
        marking = markings[node]
        if marking.is_empty():
            terminals.append(node)
            continue
        enabled = naive_enabled(net, marking)
        for t in enabled:
            successor = marking.after_firing(net.preset(t), net.postset(t))
            target = seen.get(successor)
            if target is None:
                if len(markings) >= max_markings:
                    continue
                target = seen[successor] = len(markings)
                markings.append(successor)
                queue.append(target)
            edges.append((node, t, target))
        if not enabled:
            deadlocks.append(node)
    return markings, edges, deadlocks, terminals


class NaiveMaximal:
    def choose(self, net, marking, guard_eval):
        return naive_maximal_step(net, marking, guard_eval)


class NaiveSequential:
    def choose(self, net, marking, guard_eval):
        return naive_maximal_step(net, marking, guard_eval,
                                  priority=sorted(net.transitions))[:1]


class NaiveSeeded:
    def __init__(self, seed):
        self._rng = random.Random(seed)

    def choose(self, net, marking, guard_eval):
        return naive_maximal_step(net, marking, guard_eval, rng=self._rng)


class NaiveRandom:
    def __init__(self, seed):
        self._rng = random.Random(seed)

    def choose(self, net, marking, guard_eval):
        order = list(net.transitions)
        self._rng.shuffle(order)
        step = naive_maximal_step(net, marking, guard_eval, priority=order)
        if len(step) <= 1:
            return step
        return step[:self._rng.randint(1, len(step))]


class NaiveScripted:
    def __init__(self, sequence):
        self._sequence = list(sequence)

    def choose(self, net, marking, guard_eval):
        if not self._sequence:
            return []
        transition = self._sequence.pop(0)
        assert all(marking[p] >= 1 for p in net.preset(transition))
        assert guard_eval(transition)
        return [transition]


class NaiveFixedOrder:
    def __init__(self, priority):
        self._priority = list(priority)

    def choose(self, net, marking, guard_eval):
        order = self._priority + sorted(set(net.transitions)
                                        - set(self._priority))
        return naive_maximal_step(net, marking, guard_eval,
                                  priority=order)[:1]


def policy_pairs(system, script):
    """(indexed policy, full-scan reference) for all six policies."""
    fixed = list(system.net.transitions)[::-2]
    return {
        "maximal": (MaximalStepPolicy(), NaiveMaximal()),
        "sequential": (SequentialPolicy(), NaiveSequential()),
        "seeded": (SeededMaximalPolicy(7), NaiveSeeded(7)),
        "random": (RandomPolicy(11), NaiveRandom(11)),
        "scripted": (ScriptedPolicy(script), NaiveScripted(script)),
        "fixed": (FixedOrderPolicy(fixed), NaiveFixedOrder(fixed)),
    }


class StepLog(SimHook):
    """Record each step's marking, chosen step and policy RNG state."""

    def __init__(self, policy):
        self.policy = policy
        self.rows = []

    def post_token_game(self, sim, step, marking, chosen):
        rng = getattr(self.policy, "_rng", None)
        self.rows.append((step, marking, list(chosen),
                          rng.getstate() if rng is not None else None))


def logged_run(system, environment, policy, max_steps=150):
    log = StepLog(policy)
    try:
        trace = Simulator(system, environment.fork(), policy, strict=False,
                          hooks=[log]).run(max_steps=max_steps,
                                           on_limit="return")
        outcome = (trace.steps, trace.conflicts, trace.events,
                   trace.final_marking, trace.terminated, trace.deadlocked)
    except Exception as error:  # noqa: BLE001 - both runs must fail alike
        outcome = (type(error).__name__, str(error))
    return log.rows, outcome


def assert_policies_agree(system, environment):
    """Step-by-step agreement under all six policies; returns the
    conflict kinds the maximal-step run recorded."""
    script_log, _ = logged_run(system, environment, SequentialPolicy())
    script = [t for _step, _m, chosen, _rng in script_log for t in chosen]
    for name, (indexed, naive) in policy_pairs(system, script).items():
        got = logged_run(system, environment, indexed)
        want = logged_run(system, environment, naive)
        assert got == want, name
        if name == "maximal":
            outcome = got[1]
    if isinstance(outcome[1], list):
        return {record.kind for record in outcome[1]}
    return {"raised"}


GENERATED = [(seed, 0.3 if seed % 2 else 0.0) for seed in range(60)]


def generated(seed, mutation_rate):
    return generate_case(seed, GeneratorConfig(mutation_rate=mutation_rate))


# ---------------------------------------------------------------------------
# differential checks
# ---------------------------------------------------------------------------
class TestAgainstFullScan:
    @pytest.mark.parametrize("design", all_designs(), ids=lambda d: d.name)
    def test_zoo_policies(self, design):
        assert_policies_agree(design.build(), design.environment())

    @pytest.mark.parametrize("seed,rate", GENERATED)
    def test_generated_policies(self, seed, rate):
        case = generated(seed, rate)
        assert_policies_agree(case.system, case.environment)

    @pytest.mark.parametrize("mutation,kind", [("guard_drop", "choice"),
                                               ("shared_drive", "drive")])
    def test_forced_conflicts(self, mutation, kind):
        # the same 60 seeds with a mutation forced in wherever it applies:
        # the rate-0.3 draws above make few conflicted nets
        kinds = set()
        for seed, _rate in GENERATED:
            case = generate_case(seed)
            if apply_mutation(case.system, mutation, random.Random(seed)):
                kinds |= assert_policies_agree(case.system,
                                               case.environment)
        assert kind in kinds

    @pytest.mark.parametrize("design", all_designs(), ids=lambda d: d.name)
    def test_zoo_explore(self, design):
        self.assert_explore_agrees(design.build().net)

    @pytest.mark.parametrize("seed,rate", GENERATED)
    def test_generated_explore(self, seed, rate):
        self.assert_explore_agrees(generated(seed, rate).system.net)

    @staticmethod
    def assert_explore_agrees(net):
        graph = explore(net, max_markings=400)
        assert (graph.markings, graph.edges, graph.deadlocks,
                graph.terminals) == naive_explore(net, 400)

    def test_step_and_rng_on_a_conflicted_net(self):
        # two transitions compete for p; a source transition is always a
        # candidate; the seeded shuffle consumes the same randomness
        net = PetriNet()
        for place in ("p", "q", "r"):
            net.add_place(place, marked=place == "p")
        for name, src, dst in (("t1", "p", "q"), ("t2", "p", "r")):
            net.add_transition(name)
            net.add_arc(src, name)
            net.add_arc(name, dst)
        net.add_transition("src")
        net.add_arc("src", "q")
        marking = net.initial_marking()
        for seed in range(20):
            left, right = random.Random(seed), random.Random(seed)
            assert (maximal_step(net, marking, rng=left)
                    == naive_maximal_step(net, marking, lambda t: True,
                                          rng=right))
            assert left.getstate() == right.getstate()
        assert maximal_step(net, marking) == ["t1", "src"]


# ---------------------------------------------------------------------------
# invalidation
# ---------------------------------------------------------------------------
class TestInvalidation:
    @staticmethod
    def warm(net):
        """Build and cache the index the way a simulation would."""
        maximal_step(net, net.initial_marking())
        assert net._index is not None

    def assert_sees(self, net):
        for marking in [net.initial_marking()] + [
                Marking({p: 1}) for p in net.places]:
            always = lambda t: True  # noqa: E731
            assert (maximal_step(net, marking)
                    == naive_maximal_step(net, marking, always))
            assert enabled_transitions(net, marking) == naive_enabled(
                net, marking)
        graph = explore(net, max_markings=200)
        assert (graph.markings, graph.edges, graph.deadlocks,
                graph.terminals) == naive_explore(net, 200)

    def test_add_and_remove_arc(self):
        net = fork_join_net()
        net.add_place("extra")
        self.warm(net)
        net.add_arc("extra", "t_fork")
        self.assert_sees(net)
        assert maximal_step(net, net.initial_marking()) == []
        net.remove_arc("extra", "t_fork")
        self.assert_sees(net)
        assert maximal_step(net, net.initial_marking()) == ["t_fork"]

    def test_add_and_remove_transition(self):
        net = loop_net()
        self.warm(net)
        start = next(iter(net.initial_marking()))
        net.add_transition("t_new")
        self.assert_sees(net)
        assert "t_new" in enabled_transitions(net, Marking())
        net.add_arc(start, "t_new")
        self.assert_sees(net)
        assert "t_new" not in enabled_transitions(net, Marking())
        assert "t_new" in enabled_transitions(net, net.initial_marking())
        net.remove_transition("t_new")
        self.assert_sees(net)
        assert "t_new" not in enabled_transitions(net,
                                                  net.initial_marking())
        # a transition without arcs: removing it changes no arc
        net.add_transition("t_lone")
        assert "t_lone" in enabled_transitions(net, Marking())
        net.remove_transition("t_lone")
        assert enabled_transitions(net, Marking()) == []
        self.assert_sees(net)

    def test_in_place_control_rewrite(self, monkeypatch):
        system = independent_pair_system()
        Simulator(system, Environment.of(x=[3])).run()
        before = system.net.token_index()
        middle = ParallelizeStates("s_a", "s_b")._middle_transition(system)
        assert middle in before.transitions
        # rewrite the simulated system itself instead of a copy of it
        monkeypatch.setattr(DataControlSystem, "copy", lambda self: self)
        ParallelizeStates("s_a", "s_b")._rewrite(system)
        after = system.net.token_index()
        assert after is not before
        assert middle not in after.transitions
        self.assert_sees(system.net)

    def test_cached_index_is_invisible(self):
        fresh = fork_join_net()
        used = fork_join_net()
        self.warm(used)
        assert used == fresh
        assert repr(used) == repr(fresh)
        assert used.copy() == fresh.copy()
        assert repr(used.copy()) == repr(fresh)
        assert used.copy()._index is None
