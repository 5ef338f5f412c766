"""Activation tables against the per-step derivation they replace.

A control state's control set ``C(S)`` fixes which registers latch when
it loses its token (Definition 3.1(9)), which external arcs emit an
event stamped with its activation (Definition 3.4) and which input pads
are drawn when it gains one.  Both engines read those facts from one
:class:`~repro.semantics.simulator.ActivationTable` per state.  The
reference here is the derivation the interpreter made on every step
before: walk ``C(S)`` through the data path each time a token leaves or
arrives, scan every marked place for choice conflicts, and evaluate a
guard each time it is asked for.  It lives in the tests only.  The
tables must equal it state by state, and every engine's trace must
equal the reference interpreter's on the zoo under every policy, on
generated (also mutated) designs, under fault hooks and across a
checkpoint fork.
"""

from __future__ import annotations

import copy
import warnings
from collections import Counter

import pytest

from repro.core import DataControlSystem
from repro.core.events import ExternalEvent
from repro.datapath import DataPath, PortId, input_pad, output_pad, register
from repro.datapath.operations import OpKind
from repro.designs import all_designs
from repro.errors import ExecutionError, ReproError
from repro.faults import FaultInjector
from repro.faults.spec import generate_faults
from repro.fuzz import GeneratorConfig, generate_case
from repro.petri import PetriNet
from repro.semantics import (
    UNDEF,
    Environment,
    FixedOrderPolicy,
    MaximalStepPolicy,
    RandomPolicy,
    ScriptedPolicy,
    SeededMaximalPolicy,
    SequentialPolicy,
    SimHook,
    Simulator,
)
from repro.semantics.simulator import (
    LATCH_FUNC,
    LATCH_OUT,
    LATCH_PLAIN,
    ActivationTables,
    _Activation,
    activation_table,
)
from repro.semantics.trace import ConflictRecord, LatchRecord
from repro.semantics.values import truthy
from repro.semantics.vector import Lane, VectorSimulator

warnings.filterwarnings("ignore", message=".*truncated exploration.*")


# ---------------------------------------------------------------------------
# the per-step reference derivation
# ---------------------------------------------------------------------------
def reference_table(system, place):
    """``(events, latches, draws)`` of one state, derived as the
    interpreter derived them on every step."""
    dp = system.datapath
    arcs = system.control_arcs(place)
    external = system.external_arc_names()
    events = [(name, dp.arc(name).source) for name in sorted(arcs & external)]
    latches = []
    for name in sorted(arcs):
        arc = dp.arc(name)
        vertex = dp.vertex(arc.target.vertex)
        if not vertex.is_sequential:
            continue
        for port_name in vertex.out_ports:
            op = vertex.operation(port_name)
            if op.kind not in (OpKind.SEQ, OpKind.OUTPUT):
                continue
            if op.kind is OpKind.OUTPUT:
                mode = LATCH_OUT
            elif op.func is None:
                mode = LATCH_PLAIN
            else:
                mode = LATCH_FUNC
            latches.append((arc.target, PortId(vertex.name, port_name),
                            mode, op))
    sources = set()
    for name in arcs:
        source = dp.arc(name).source
        if dp.vertex(source.vertex).is_input_vertex:
            sources.add(source.vertex)
    draws = [(vertex, PortId(vertex, dp.vertex(vertex).out_ports[0]))
             for vertex in sorted(sources)]
    return events, latches, draws


class ReferenceSimulator(Simulator):
    """The interpreter with every activation fact re-derived per step,
    every marked place scanned for choice conflicts and every guard
    evaluated each time it is asked for."""

    def _guard_eval(self, out_values):
        guard_ports = self._guard_ports

        def evaluate(transition):
            ports = guard_ports[transition]
            value = (True if not ports
                     else any(truthy(out_values.get(p, UNDEF)) for p in ports))
            for resolve in self._value_hooks:
                value = bool(resolve(self, self._current_step, "guard",
                                     transition, value))
            return value
        return evaluate

    def _choice_conflicts(self, marking, _contested, guard_eval, step, trace):
        net = self._net
        records = []
        for place in sorted(marking.marked_places()):
            if marking[place] >= 2:
                continue
            fireable = [t for t in sorted(net.postset(place))
                        if marking.covers(net.preset(t)) and guard_eval(t)]
            if len(fireable) > 1:
                records.append(ConflictRecord(
                    step, "choice",
                    f"transitions {fireable} compete for the token in "
                    f"place {place!r}"))
        trace.conflicts.extend(records)
        return records

    def _start_activations(self, places, step, activations):
        draw = set()
        for place in places:
            self._activation_counter += 1
            activations[place] = _Activation(self._activation_counter,
                                             place, step)
            draw.update(vertex for vertex, _pad
                        in reference_table(self.system, place)[2])
        for vertex in sorted(draw):
            port = PortId(vertex, self._dp.vertex(vertex).out_ports[0])
            self._state[port] = self.environment.draw(vertex)

    def _complete_activation(self, place, step, activation, out_values,
                             source_of, latch_plan, trace):
        events, latches, _draws = reference_table(self.system, place)
        for arc_name, source in events:
            index = self._event_index.get(arc_name, 0)
            self._event_index[arc_name] = index + 1
            trace.events.append(ExternalEvent(
                arc=arc_name, value=out_values.get(source, UNDEF),
                index=index, state=place, activation=activation.ident,
                start=activation.start, end=step))
        if latch_plan is None:
            return
        for target, port, mode, op in latches:
            incoming = out_values.get(source_of.get(target), UNDEF)
            old = self._state.get(port, UNDEF)
            if mode == LATCH_OUT:
                new = incoming
            elif mode == LATCH_PLAIN:
                new = incoming if incoming is not UNDEF else old
            else:
                computed = op.evaluate(old, incoming)
                new = computed if computed is not UNDEF else old
            if port in latch_plan and latch_plan[port][0] != new:
                record = ConflictRecord(
                    step, "latch",
                    f"port {port} latched by {latch_plan[port][1]!r} and "
                    f"{place!r} in the same step")
                trace.conflicts.append(record)
                if self.strict:
                    raise ExecutionError(record.detail)
            latch_plan[port] = (new, place)
            trace.latches.append(LatchRecord(step, port, old, new, place))


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------
def fingerprint(trace):
    """Every observable of a trace as one string (metrics excluded)."""
    return repr((
        trace.steps, trace.events, trace.latches, trace.conflicts,
        trace.final_marking,
        sorted((str(port), value) for port, value in trace.final_state.items()),
        trace.terminated, trace.deadlocked, trace.step_count))


def outcome(run):
    """A run's fingerprint, or its error's type and message."""
    try:
        return fingerprint(run())
    except ReproError as error:
        return (type(error).__name__, str(error))


def interpreter_outcome(cls, system, environment, policy, *, strict=True,
                        hooks=(), max_steps=400):
    return outcome(lambda: cls(
        system, copy.deepcopy(environment), copy.deepcopy(policy), strict,
        hooks=hooks).run(max_steps=max_steps, on_limit="return"))


def vector_outcomes(system, environment, policy, modes, *, strict=True,
                    max_steps=400):
    """The vector engines' outcomes of one run, one per mode."""
    results = []
    for mode in modes:
        def run(mode=mode):
            result = VectorSimulator(system, strict=strict, mode=mode).run(
                [Lane(copy.deepcopy(environment), copy.deepcopy(policy))],
                max_steps=max_steps, on_limit="return", capture_errors=True)
            return result.trace(0)
        results.append(outcome(run))
    return results


def assert_engines_agree(system, environment, policy, *, strict=True,
                         max_steps=400, modes=("scalar", "numpy")):
    """The table-driven interpreter and the vector engines of ``modes``
    give the reference interpreter's outcome."""
    expected = interpreter_outcome(ReferenceSimulator, system, environment,
                                   policy, strict=strict, max_steps=max_steps)
    assert interpreter_outcome(Simulator, system, environment, policy,
                               strict=strict, max_steps=max_steps) == expected
    for got in vector_outcomes(system, environment, policy, modes,
                               strict=strict, max_steps=max_steps):
        assert got == expected
    return expected


def fork_draw_system():
    """Two states gain their tokens in one step and both read pad ``x``:
    that step draws ``x`` once and ``y`` once, in vertex order."""
    dp = DataPath(name="forkdraw")
    for pad in ("x", "y"):
        dp.add_vertex(input_pad(pad))
    for reg in ("ra", "rb", "rc"):
        dp.add_vertex(register(reg))
    dp.add_vertex(output_pad("o"))
    dp.connect("x.out", "ra.d", name="a_xa")
    dp.connect("y.out", "rb.d", name="a_yb")
    dp.connect("x.out", "rc.d", name="a_xc")
    dp.connect("rb.q", "o.in", name="a_o")
    net = PetriNet(name="forkdraw")
    net.add_place("s0", marked=True)
    for place in ("s_a", "s_b", "s_out"):
        net.add_place(place)
    for transition in ("t_fork", "t_join", "t_end"):
        net.add_transition(transition)
    net.add_arc("s0", "t_fork")
    net.add_arc("t_fork", "s_a")
    net.add_arc("t_fork", "s_b")
    net.add_arc("s_a", "t_join")
    net.add_arc("s_b", "t_join")
    net.add_arc("t_join", "s_out")
    net.add_arc("s_out", "t_end")
    system = DataControlSystem(dp, net, name="forkdraw")
    system.set_control("s0", ["a_xa"])
    system.set_control("s_a", ["a_xa"])
    system.set_control("s_b", ["a_yb", "a_xc"])
    system.set_control("s_out", ["a_o"])
    return system


def vector_policies():
    """The policies the vector engines emulate."""
    return {
        "maximal": MaximalStepPolicy(),
        "sequential": SequentialPolicy(),
        "seeded": SeededMaximalPolicy(7),
    }


def all_policies(system, environment):
    """Every policy, the scripted one replaying the sequential run."""
    sequential = Simulator(system, copy.deepcopy(environment),
                           SequentialPolicy(), strict=False).run(
        max_steps=400, on_limit="return")
    return {
        **vector_policies(),
        "random": RandomPolicy(11),
        "fixed": FixedOrderPolicy(list(system.net.transitions)[::-2]),
        "scripted": ScriptedPolicy([t for step in sequential.steps
                                    for t in step]),
    }


#: Generated designs reach values past 64 bits, which the numpy engine
#: refuses to store; the scalar engine computes them exactly.
GENERATED_MODES = ("scalar",)

ZOO = all_designs()


# ---------------------------------------------------------------------------
# the tables themselves
# ---------------------------------------------------------------------------
def _assert_tables_match(system):
    tables = ActivationTables(system)
    for place in system.net.places:
        table = tables[place]
        events, latches, draws = reference_table(system, place)
        assert list(table.events) == events, place
        assert list(table.latches) == latches, place
        assert list(table.draws) == draws, place
        assert activation_table(system, place) == table


@pytest.mark.parametrize("design", ZOO, ids=lambda d: d.name)
def test_zoo_tables_equal_reference(design):
    _assert_tables_match(design.build())


def test_generated_tables_equal_reference():
    for seed in range(60):
        config = GeneratorConfig(mutation_rate=0.3 if seed % 2 else 0.0)
        _assert_tables_match(generate_case(seed, config).system)


def test_tables_are_built_lazily_once():
    system = fork_draw_system()
    tables = ActivationTables(system)
    assert not tables
    first = tables["s_b"]
    assert list(tables) == ["s_b"]
    assert tables["s_b"] is first
    assert [vertex for vertex, _pad in first.draws] == ["x", "y"]
    assert [arc for arc, _source in first.events] == ["a_xc", "a_yb"]
    assert [(latch[1], latch[2]) for latch in first.latches] == [
        (PortId("rc", "q"), LATCH_PLAIN), (PortId("rb", "q"), LATCH_PLAIN)]
    # a state that controls no arc has an empty table
    empty = activation_table(system, "nowhere")
    assert (empty.events, empty.latches, empty.draws) == ((), (), ())


def test_simulator_builds_tables_of_activated_states_only():
    system = fork_draw_system()
    sim = Simulator(system, Environment.of(x=[1, 2], y=[3]))
    sim.run(max_steps=1, on_limit="return")
    assert set(sim._tables) == {"s0", "s_a", "s_b"}


def test_fork_draws_each_pad_once():
    system = fork_draw_system()
    environment = Environment.of(x=[1, 2, 3], y=[4, 5])
    trace = assert_engines_agree(system, environment, MaximalStepPolicy())
    assert "arc='a_xc', value=2" in trace
    assert "arc='a_yb', value=4" in trace
    final = Simulator(system, copy.deepcopy(environment)).run()
    assert final.final_state[PortId("ra", "q")] == 2
    assert final.final_state[PortId("rc", "q")] == 2


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("design", ZOO, ids=lambda d: d.name)
def test_zoo_traces_identical_under_every_policy(design):
    system = design.build()
    environment = design.environment()
    for name, policy in all_policies(system, environment).items():
        assert_engines_agree(
            system, environment, policy, max_steps=2_000,
            modes=("scalar", "numpy") if name in vector_policies() else ())


def test_generated_traces_identical():
    outcomes = Counter()
    for seed in range(60):
        config = GeneratorConfig(mutation_rate=0.3 if seed % 2 else 0.0)
        case = generate_case(seed, config)
        result = assert_engines_agree(case.system, case.environment,
                                      MaximalStepPolicy(), strict=False,
                                      max_steps=200, modes=GENERATED_MODES)
        outcomes["error" if isinstance(result, tuple) else "trace"] += 1
    assert outcomes["trace"] > 40


def test_generated_traces_identical_with_conflicts_recorded():
    # mutated designs with recorded conflicts, under the vector policies
    conflicted = 0
    for seed in range(1, 60, 2):
        case = generate_case(seed, GeneratorConfig(mutation_rate=1.0))
        for policy in vector_policies().values():
            result = assert_engines_agree(case.system, case.environment,
                                          policy, strict=False,
                                          max_steps=200,
                                          modes=GENERATED_MODES)
            conflicted += "ConflictRecord" in result
    assert conflicted > 0


# ---------------------------------------------------------------------------
# fault hooks
# ---------------------------------------------------------------------------
FAULT_KINDS = ("stuck_at", "guard_invert", "token_loss", "token_duplicate",
               "token_misroute", "arc_open", "arc_close", "bit_flip")


def test_fault_hooked_runs_identical():
    applied = Counter()
    for index, design in enumerate(ZOO):
        system = design.build()
        per_kind = Counter()
        for spec in generate_faults(system, 10_000, seed=index):
            per_kind[spec.kind] += 1
            if per_kind[spec.kind] > 4:
                continue
            results = []
            for cls in (ReferenceSimulator, Simulator):
                injector = FaultInjector([spec])
                results.append(interpreter_outcome(
                    cls, system, design.environment(),
                    SeededMaximalPolicy(3), strict=False,
                    hooks=[injector], max_steps=300))
                results.append(injector.injections)
            assert results[0] == results[2], spec
            assert results[1] == results[3], spec
            if results[1]:
                applied[spec.kind] += 1
    # every kind took effect somewhere, token loss and duplication (the
    # marking perturbations _reconcile_activations re-aligns) included
    assert set(applied) == set(FAULT_KINDS)


class GuardTaps(SimHook):
    """Counts guard taps per (step, transition)."""

    def __init__(self):
        self.calls = Counter()

    def resolve_value(self, sim, step, kind, target, value):
        if kind == "guard":
            self.calls[step, target] += 1
        return value


@pytest.mark.parametrize("design", ZOO, ids=lambda d: d.name)
def test_guard_tapped_once_per_transition_per_step(design):
    system = design.build()
    taps = {}
    for cls in (ReferenceSimulator, Simulator):
        hook = taps[cls] = GuardTaps()
        cls(system, design.environment(), hooks=[hook]).run(max_steps=2_000)
    new, old = taps[Simulator].calls, taps[ReferenceSimulator].calls
    assert set(new) == set(old)
    assert set(new.values()) == {1}
    assert sum(old.values()) > sum(new.values())


def test_guard_tapped_once_on_conflicted_designs():
    for seed in range(1, 40, 2):
        case = generate_case(seed, GeneratorConfig(mutation_rate=1.0))
        hook = GuardTaps()
        try:
            Simulator(case.system, copy.deepcopy(case.environment),
                      strict=False, hooks=[hook]).run(
                max_steps=200, on_limit="return")
        except ReproError:
            pass
        assert set(hook.calls.values()) <= {1}


# ---------------------------------------------------------------------------
# checkpoint fork on warm tables
# ---------------------------------------------------------------------------
class Snapshot(SimHook):
    def __init__(self, at):
        self.at = at
        self.checkpoint = None

    def pre_step(self, sim, step, marking):
        if step == self.at:
            self.checkpoint = sim.checkpoint()


@pytest.mark.parametrize("design", ZOO, ids=lambda d: d.name)
def test_checkpoint_fork_resumes_on_warm_tables(design):
    system = design.build()
    snapshot = Snapshot(at=7)
    sim = Simulator(system, design.environment(), SeededMaximalPolicy(5),
                    hooks=[snapshot])
    full = sim.run(max_steps=2_000)
    if snapshot.checkpoint is None:
        pytest.skip(f"{design.name} finishes before step 7")
    warm = set(sim._tables)
    assert warm
    resumed = sim.run(max_steps=2_000, from_checkpoint=snapshot.checkpoint)
    assert set(sim._tables) >= warm
    reference = ReferenceSimulator(
        system, design.environment(), SeededMaximalPolicy(5)).run(
        max_steps=2_000, from_checkpoint=snapshot.checkpoint)
    assert fingerprint(resumed) == fingerprint(reference)
    # the continuation extends the original run exactly
    assert resumed.steps == full.steps[7:]
    assert resumed.final_state == full.final_state
    assert resumed.events == [event for event in full.events
                              if event.end >= 7]
