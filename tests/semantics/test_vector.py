"""The compiled vector backend: byte-identity with the interpreter.

The contract under test (see :mod:`repro.semantics.vector`): compiling
a system once and advancing lanes in batch — with either the scalar or
the numpy engine — must reproduce the interpreter's traces exactly, on
every zoo design, under every supported policy, through checkpoints,
and in every degenerate shape (empty batch, single lane).
"""

from __future__ import annotations

import pytest

from repro.core import DataControlSystem
from repro.datapath import DataPath, input_pad, register
from repro.designs import all_designs, get_design
from repro.errors import DefinitionError, ExecutionError
from repro.petri import PetriNet
from repro.semantics import (
    Environment,
    FixedOrderPolicy,
    Lane,
    MaximalStepPolicy,
    RandomPolicy,
    SeededMaximalPolicy,
    SequentialPolicy,
    Simulator,
    VectorCheckpoint,
    VectorSimulator,
    compile_system,
    simulate,
    traces_equivalent,
)
from tests.util import guarded_choice_system, relay_system

DESIGNS = [d.name for d in all_designs()]
POLICIES = {
    "maximal": MaximalStepPolicy,
    "sequential": SequentialPolicy,
    "seeded": lambda: SeededMaximalPolicy(7),
}


def _interpreter(system, env, policy):
    sim = Simulator(system, env, policy, strict=False)
    try:
        return sim.run(max_steps=500, on_limit="return"), None
    except Exception as error:
        return None, f"{type(error).__name__}: {error}"


class TestZooParity:
    @pytest.mark.parametrize("mode", ["scalar", "numpy"])
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    @pytest.mark.parametrize("name", DESIGNS)
    def test_byte_identical_trace(self, zoo, name, policy, mode):
        design, system = zoo[name]
        mk = POLICIES[policy]
        ref, ref_err = _interpreter(system, design.environment(), mk())
        vsim = VectorSimulator(system, strict=False, mode=mode)
        try:
            got = vsim.run([Lane(design.environment(), mk())],
                           max_steps=500, on_limit="return").trace(0)
            got_err = None
        except Exception as error:
            got, got_err = None, f"{type(error).__name__}: {error}"
        assert got_err == ref_err
        if ref is not None:
            assert traces_equivalent(got, ref)


class TestBatchShapes:
    def test_empty_batch(self):
        result = VectorSimulator(relay_system()).run([])
        assert len(result) == 0
        assert result.traces() == []

    def test_single_lane_auto(self):
        design = get_design("counter")
        system = design.build()
        ref = simulate(system, design.environment())
        got = VectorSimulator(system).run(
            [Lane(design.environment())]).trace(0)
        assert traces_equivalent(got, ref)

    def test_heterogeneous_numpy_batch(self):
        """12 lanes with different inputs force the numpy engine."""
        design = get_design("counter")
        system = design.build()
        limits = [3 + i for i in range(12)]
        result = VectorSimulator(system).run(
            [Lane(design.environment({"limit_in": [n]})) for n in limits])
        for i, n in enumerate(limits):
            ref = simulate(system, design.environment({"limit_in": [n]}))
            assert traces_equivalent(result.trace(i), ref)

    def test_seeded_lanes_are_independent(self):
        """Each lane owns its RNG stream — lane order must not matter."""
        design = get_design("gcd")
        system = design.build()
        seeds = [1, 2, 3, 4, 5, 6, 7, 8]
        result = VectorSimulator(system).run(
            [Lane(design.environment(), SeededMaximalPolicy(s))
             for s in seeds])
        for i, s in enumerate(seeds):
            ref = simulate(system, design.environment(),
                           policy=SeededMaximalPolicy(s))
            assert traces_equivalent(result.trace(i), ref)

    def test_compiled_system_is_reusable(self):
        design = get_design("gcd")
        compiled = compile_system(design.build())
        first = VectorSimulator(compiled).run([Lane(design.environment())])
        second = VectorSimulator(compiled).run([Lane(design.environment())])
        assert traces_equivalent(first.trace(0), second.trace(0))


def _wide_fork_system(width: int, guarded: bool):
    """One read state forking into ``width`` places, each left by its own
    transition: ``width`` transitions are enabled at once.  When
    ``guarded``, every other one is guarded by the latched input, so
    lanes with zero and non-zero inputs get different guard bits."""
    dp = DataPath(name="wide")
    dp.add_vertex(input_pad("x"))
    dp.add_vertex(register("r"))
    dp.connect("x.out", "r.d", name="a_read")
    net = PetriNet(name="wide")
    net.add_place("s_read", marked=True)
    net.add_transition("t_fork")
    net.add_arc("s_read", "t_fork")
    for i in range(width):
        net.add_place(f"p{i}")
        net.add_arc("t_fork", f"p{i}")
        net.add_transition(f"u{i}")
        net.add_arc(f"p{i}", f"u{i}")
    system = DataControlSystem(dp, net, name="wide")
    system.set_control("s_read", ["a_read"])
    if guarded:
        for i in range(0, width, 2):
            system.set_guard(f"u{i}", ["r.q"])
    return system


class TestWideFork:
    """More than 62 enabled transitions: guard bits no longer fit the
    int64 weight vector, so the numpy engine groups lanes by unique
    guard columns instead."""

    @pytest.mark.parametrize("guarded", [False, True])
    def test_numpy_lanes_match_interpreter(self, guarded):
        system = _wide_fork_system(70, guarded)
        inputs = [0, 3, 0, 5]
        compiled = compile_system(system)
        result = VectorSimulator(compiled, strict=False, mode="numpy").run(
            [Lane(Environment.of(x=[v])) for v in inputs])
        assert max(len(p.enabled) for p in compiled.plan_registry) == 70
        outcomes = set()
        for i, v in enumerate(inputs):
            ref = simulate(system, Environment.of(x=[v]), strict=False)
            assert traces_equivalent(result.trace(i), ref), v
            outcomes.add((ref.terminated, ref.deadlocked))
        # guarded: zero inputs deadlock on the false guards
        assert outcomes == ({(True, False), (False, True)} if guarded
                            else {(True, False)})


class TestCheckpoints:
    def _split_vs_straight(self, system, env_factory, budget):
        """Interpreter and vector backends must agree across a split."""
        interp = Simulator(system, env_factory(), strict=False)
        interp.run(max_steps=budget, on_limit="return")
        cp = interp.checkpoint()
        ref = interp.run(max_steps=500, on_limit="return",
                         from_checkpoint=cp)

        vsim = VectorSimulator(system, strict=False)
        got = vsim.run([Lane(env_factory())], max_steps=500,
                       on_limit="return", from_checkpoint=cp).trace(0)
        assert traces_equivalent(got, ref)

    def test_resume_interpreter_checkpoint(self, zoo):
        for name in ("counter", "gcd", "traffic"):
            design, system = zoo[name]
            self._split_vs_straight(system, design.environment, 5)

    def test_batch_checkpoint_roundtrip(self):
        design = get_design("counter")
        system = design.build()
        limits = [6, 9, 12]
        lanes = lambda: [Lane(design.environment({"limit_in": [n]}))
                         for n in limits]
        vsim = VectorSimulator(system, mode="scalar")
        vsim.run(lanes(), max_steps=4, on_limit="return")
        cp = vsim.checkpoint()
        assert isinstance(cp, VectorCheckpoint)
        resumed = vsim.run(lanes(), max_steps=500, on_limit="return",
                           from_checkpoint=cp)
        for i, n in enumerate(limits):
            interp = Simulator(system,
                               design.environment({"limit_in": [n]}),
                               strict=False)
            interp.run(max_steps=4, on_limit="return")
            ref = interp.run(max_steps=500, on_limit="return",
                             from_checkpoint=interp.checkpoint())
            assert traces_equivalent(resumed.trace(i), ref)

    def test_vector_checkpoint_resumes_under_interpreter(self):
        """Per-lane entries are plain interpreter checkpoints."""
        design = get_design("counter")
        system = design.build()
        vsim = VectorSimulator(system, mode="scalar")
        vsim.run([Lane(design.environment({"limit_in": [8]}))],
                 max_steps=4, on_limit="return")
        lane_cp = vsim.checkpoint().lane(0)
        got = Simulator(system,
                        design.environment({"limit_in": [8]})).run(
                            max_steps=500, from_checkpoint=lane_cp)
        interp = Simulator(system, design.environment({"limit_in": [8]}))
        interp.run(max_steps=4, on_limit="return")
        ref = interp.run(max_steps=500,
                         from_checkpoint=interp.checkpoint())
        assert traces_equivalent(got, ref)

    def test_lane_count_mismatch(self):
        design = get_design("counter")
        system = design.build()
        vsim = VectorSimulator(system, mode="scalar")
        vsim.run([Lane(design.environment())], max_steps=3,
                 on_limit="return")
        cp = vsim.checkpoint()
        with pytest.raises(DefinitionError, match="1 lane"):
            vsim.run([Lane(design.environment()),
                      Lane(design.environment())], from_checkpoint=cp)


class TestValidationAndErrors:
    def test_unsupported_policy(self):
        with pytest.raises(DefinitionError, match="polic"):
            VectorSimulator(relay_system()).run(
                [Lane(Environment.of(x=[1]), RandomPolicy())])
        with pytest.raises(DefinitionError, match="polic"):
            VectorSimulator(relay_system()).run(
                [Lane(Environment.of(x=[1]), FixedOrderPolicy(()))])

    def test_bad_mode(self):
        with pytest.raises(ValueError, match="unknown mode"):
            VectorSimulator(relay_system(), mode="fast")

    def test_run_validation_matches_interpreter(self):
        vsim = VectorSimulator(relay_system())
        with pytest.raises(ValueError,
                           match="choose 'raise' or 'return'"):
            vsim.run([Lane(Environment.of(x=[1]))], on_limit="stop")
        with pytest.raises(ValueError, match="positive step budget"):
            vsim.run([Lane(Environment.of(x=[1]))], max_steps=0)

    def test_strict_conflict_raises_per_interpreter(self):
        from tests.regression.test_conflict_record_order import (
            four_way_conflict_system,
        )

        system = four_way_conflict_system()
        ref_err = vec_err = None
        try:
            simulate(system, max_steps=10)
        except ExecutionError as error:
            ref_err = str(error)
        try:
            simulate(system, max_steps=10, backend="vector")
        except ExecutionError as error:
            vec_err = str(error)
        assert ref_err is not None and "compete for the token" in ref_err
        assert vec_err == ref_err

    def test_guarded_choice_parity(self):
        system = guarded_choice_system()
        for x in (0, 7):
            ref = simulate(system, Environment.of(x=[x]), max_steps=500)
            got = simulate(system, Environment.of(x=[x]), max_steps=500,
                           backend="vector")
            assert traces_equivalent(got, ref)

    def test_limit_exhaustion_raises_like_interpreter(self):
        design = get_design("counter")
        system = design.build()
        env = design.environment({"limit_in": [50]})
        with pytest.raises(ExecutionError,
                           match="did not finish within 10 steps"):
            simulate(system, env, max_steps=10, backend="vector")

    def test_capture_errors_isolates_bad_lane(self):
        design = get_design("counter")
        system = design.build()
        good = design.environment({"limit_in": [3]})
        result = VectorSimulator(system, mode="scalar").run(
            [Lane(good), Lane(design.environment({"limit_in": [50]}))],
            max_steps=20, capture_errors=True)
        assert result.error(0) is None
        assert isinstance(result.error(1), ExecutionError)
        assert result.trace(0).terminated
        with pytest.raises(ExecutionError):
            result.trace(1)


class TestSimulatorBackend:
    def test_simulate_backend_kwarg(self):
        design = get_design("gcd")
        system = design.build()
        ref = simulate(system, design.environment())
        got = simulate(system, design.environment(), backend="vector")
        assert traces_equivalent(got, ref)

    def test_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown backend"):
            Simulator(relay_system(), Environment.of(x=[1]),
                      backend="gpu")

    def test_hooks_rejected(self):
        from repro.semantics import SimHook

        sim = Simulator(relay_system(), Environment.of(x=[1]),
                        hooks=[SimHook()], backend="vector")
        with pytest.raises(DefinitionError, match="hooks"):
            sim.run(max_steps=10)

    def test_checkpoint_through_backend(self):
        design = get_design("counter")
        system = design.build()
        sim = Simulator(system, design.environment({"limit_in": [9]}),
                        backend="vector")
        with pytest.raises(DefinitionError, match="nothing to snapshot"):
            sim.checkpoint()
        sim.run(max_steps=4, on_limit="return")
        cp = sim.checkpoint()
        got = Simulator(system, design.environment({"limit_in": [9]}),
                        backend="vector").run(max_steps=500,
                                              from_checkpoint=cp)
        interp = Simulator(system, design.environment({"limit_in": [9]}))
        interp.run(max_steps=4, on_limit="return")
        ref = interp.run(max_steps=500,
                         from_checkpoint=interp.checkpoint())
        assert traces_equivalent(got, ref)
