"""Simulator hook interface, checkpoint/restore, and the injector."""

import pytest

from repro.datapath.ports import PortId
from repro.designs import get_design
from repro.errors import DefinitionError
from repro.faults import FaultInjector, FaultSpec
from repro.semantics import Environment, SimHook, Simulator, simulate
from repro.semantics.simulator import StepPerturbation

from tests.util import relay_system


def _gcd():
    design = get_design("gcd")
    return design.build(), design.environment()


class TestHookNeutrality:
    """Hooks must cost nothing when absent and nothing when inert."""

    def test_noop_hook_trace_identical(self):
        system, env = _gcd()
        plain = simulate(system, env.fork())

        class Inert(SimHook):
            pass

        hooked = simulate(system, env.fork(), hooks=[Inert()])
        assert hooked == plain
        assert hooked.events == plain.events
        assert hooked.steps == plain.steps

    def test_empty_injector_trace_identical(self):
        system, env = _gcd()
        plain = simulate(system, env.fork())
        injector = FaultInjector([])
        injected = simulate(system, env.fork(), hooks=[injector])
        assert not injector.perturbs_values
        assert injected == plain
        assert injected.events == plain.events
        assert injected.latches == plain.latches

    def test_non_simhook_rejected(self):
        with pytest.raises(DefinitionError, match="SimHook"):
            Simulator(relay_system(), Environment.of(x=[1]),
                      hooks=[object()])

    def test_observer_hook_sees_every_step(self):
        system, env = _gcd()
        seen = []

        class Spy(SimHook):
            def post_token_game(self, sim, step, marking, chosen):
                seen.append((step, tuple(chosen)))

        trace = simulate(system, env.fork(), hooks=[Spy()])
        assert len(seen) == trace.step_count
        assert [list(chosen) for _step, chosen in seen] == trace.steps


class TestPerturbations:
    def test_marking_perturbation_reconciles_activations(self):
        # dropping the only token mid-run loses the pending events
        system, env = _gcd()

        class DropAll(SimHook):
            def pre_step(self, sim, step, marking):
                if step == 3:
                    empty = marking.with_tokens(
                        **{p: 0 for p in marking.marked_places()})
                    return StepPerturbation(marking=empty)
                return None

        trace = simulate(system, env.fork(), hooks=[DropAll()])
        assert trace.terminated
        assert trace.step_count == 3

    def test_poke_state_changes_next_step(self):
        # gcd(48, 36): step 5 is s5_assign_a, where sub6 = reg_a - reg_b
        # feeds reg_a; poking reg_a from 48 to 52 first makes it 16
        system, env = _gcd()
        sub6 = PortId("sub6", "o")

        class Poke(SimHook):
            def __init__(self, poke):
                self.poke = poke
                self.seen = {}

            def pre_step(self, sim, step, marking):
                if step == 5 and self.poke:
                    port = PortId("reg_a", "q")
                    sim.poke_state(port, sim.state_value(port) + 4)
                return None

            def post_evaluate(self, sim, step, active, out_values):
                self.seen[step] = out_values[sub6]

        plain_hook, poked_hook = Poke(False), Poke(True)
        plain = simulate(system, env.fork(), hooks=[plain_hook])
        poked = simulate(system, env.fork(), hooks=[poked_hook])
        assert plain_hook.seen[5] == 48 - 36
        assert poked_hook.seen[5] == 52 - 36
        reg_a = PortId("reg_a", "q")
        assert [(latch.step, latch.new) for latch in poked.latches
                if latch.port == reg_a][:2] == [(1, 48), (5, 16)]
        # gcd(52, 36) = 4, not 12
        assert [e.value for e in plain.events if e.arc == "a16"] == [12]
        assert [e.value for e in poked.events if e.arc == "a16"] == [4]

    def test_poke_state_rejects_stateless_port(self):
        simulator = Simulator(relay_system(), Environment.of(x=[1]))
        with pytest.raises(DefinitionError, match="sequential state"):
            simulator.poke_state(PortId("x", "nope"), 1)

    def test_stuck_at_rewrites_port_values(self):
        # sub6 (reg_a - reg_b) stuck at 7 during step 5, s5_assign_a:
        # reg_a latches 7 instead of 48 - 36, and gcd(7, 36) = 1
        system, env = _gcd()
        injector = FaultInjector(
            [FaultSpec("stuck_at", "sub6.o", value=7, start=5, end=5)])
        assert injector.perturbs_values
        seen = {}

        class Spy(SimHook):
            def post_evaluate(self, sim, step, active, out_values):
                seen[step] = out_values[PortId("sub6", "o")]

        trace = Simulator(system, env.fork(), hooks=[injector, Spy()]).run(
            max_steps=500, on_limit="return")
        assert seen[5] == 7
        assert [(latch.step, latch.new) for latch in trace.latches
                if latch.port == PortId("reg_a", "q")][:2] == [(1, 48), (5, 7)]
        assert [e.value for e in trace.events if e.arc == "a16"] == [1]

    @pytest.mark.parametrize("glitch_step", [8, 11])
    def test_arc_glitch_applies_to_its_step_only(self, glitch_step):
        # gcd(48, 36) visits s6_assign_b (reg_b = reg_b - reg_a) at steps
        # 8 and 11.  Closing a14 (reg_a -> sub7.r) at one visit leaves
        # sub7 undefined, so reg_b keeps its value and the loop takes one
        # more s3/s4/s6 round: the result event moves from step 13 to 16.
        # The other visits, with the same marking, must be unaffected.
        system, env = _gcd()

        class Glitch(SimHook):
            def pre_step(self, sim, step, marking):
                if step == glitch_step:
                    return StepPerturbation(close_arcs=frozenset({"a14"}))
                return None

        trace = simulate(system, env.fork(), hooks=[Glitch()])
        assert trace.terminated and trace.step_count == 17
        assert [(e.arc, e.value, e.start, e.end) for e in trace.events] == [
            ("a0", 48, 1, 1), ("a1", 36, 2, 2), ("a16", 12, 16, 16)]
        after_first = 36 if glitch_step == 8 else 24
        assert [(latch.step, latch.old, latch.new) for latch in trace.latches
                if latch.port == PortId("reg_b", "q")] == [
            (2, 0, 36), (8, 36, after_first), (11, after_first, 24),
            (14, 24, 12)]

    def test_injection_window_respected(self):
        system, env = _gcd()
        injector = FaultInjector(
            [FaultSpec("guard_invert", "t_exit6", start=2, end=4)])
        simulate(system, env.fork(), hooks=[injector], strict=False)
        steps = [step for step, _index in injector.injections]
        assert steps == [2, 3, 4]

    def test_probability_gate_is_seeded(self):
        system, env = _gcd()

        def steps_for(seed):
            injector = FaultInjector(
                [FaultSpec("guard_invert", "t_exit6", probability=0.5,
                           seed=seed)])
            simulate(system, env.fork(), hooks=[injector], strict=False,
                     max_steps=200, on_limit="return")
            return [step for step, _index in injector.injections]

        assert steps_for(3) == steps_for(3)
        distinct = {tuple(steps_for(seed)) for seed in range(6)}
        assert len(distinct) > 1

    def test_once_limits_to_single_application(self):
        system, env = _gcd()
        injector = FaultInjector(
            [FaultSpec("bit_flip", "reg_a.q", bit=0, start=3, once=True)])
        simulate(system, env.fork(), hooks=[injector], strict=False,
                 max_steps=500, on_limit="return")
        assert injector.injection_count == 1
        assert injector.first_injection_step == 3


class TestCheckpoint:
    def test_resume_extends_run_exactly(self):
        system, env = _gcd()
        full = simulate(system, env.fork())

        first = Simulator(system, env.fork())
        head = first.run(max_steps=4, on_limit="return")
        snapshot = first.checkpoint()
        second = Simulator(system, env.fork())
        tail = second.run(from_checkpoint=snapshot)

        assert head.events + tail.events == full.events
        assert head.latches + tail.latches == full.latches
        assert head.steps + tail.steps == full.steps
        assert tail.final_state == full.final_state
        assert tail.final_marking == full.final_marking
        assert tail.terminated == full.terminated

    def test_checkpoint_carries_environment_cursors(self):
        system, env = _gcd()
        first = Simulator(system, env.fork())
        first.run(max_steps=4, on_limit="return")
        snapshot = first.checkpoint()
        # both reads happened before step 4
        assert snapshot.env_cursors == {"a_in": 1, "b_in": 1}

    def test_resume_respects_absolute_budget(self):
        system, env = _gcd()
        first = Simulator(system, env.fork())
        first.run(max_steps=4, on_limit="return")
        snapshot = first.checkpoint()
        resumed = Simulator(system, env.fork()).run(
            from_checkpoint=snapshot, max_steps=6, on_limit="return")
        assert resumed.step_count == 6  # 4 -> 6, two more steps only
        assert len(resumed.steps) == 2
