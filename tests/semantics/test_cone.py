"""Both engines evaluate only the COM vertices the open arcs drive.

A COM input no open arc drives reads UNDEF (Definition 3.1(10)), so a
COM vertex no open arc targets outputs a fixed *undriven value* at every
step.  The interpreter and the vector engines compute it once per system
and evaluate the remaining, live vertices per step.  These tests hold
that against a full pass over every COM vertex, and pin the edge
cases: a non-strict operation with a defined value on all-UNDEF inputs,
an operation that cannot be evaluated at all, a stuck-at fault on an
undriven port, and a loop an arc glitch closes.
"""

import copy
import warnings

import pytest

from repro.core import DataControlSystem
from repro.datapath import (
    DataPath,
    Operation,
    OpKind,
    PortId,
    Vertex,
    constant,
    input_pad,
    operator,
    output_pad,
    register,
)
from repro.datapath.validate import com_order, com_vertices
from repro.designs import all_designs
from repro.errors import DefinitionError, ReproError, RuntimeFaultError, ValidationError
from repro.faults import FaultInjector, FaultSpec
from repro.fuzz import GeneratorConfig, generate_case
from repro.petri import PetriNet, chain
from repro.semantics import UNDEF, Environment, SimHook, Simulator
from repro.semantics.profile import traces_equivalent
from repro.semantics.vector import Lane, VectorSimulator

warnings.filterwarnings("ignore", message=".*truncated exploration.*")


# ---------------------------------------------------------------------------
# the full-pass reference: every COM vertex, every step
# ---------------------------------------------------------------------------
def _full_plan(dp, com, active):
    """Input sources and the topological order of *every* COM vertex."""
    sources = {}
    for name in active:
        arc = dp.arc(name)
        sources.setdefault(arc.target, set()).add(arc.source)
    source_of = {port: next(iter(srcs)) if len(srcs) == 1 else None
                 for port, srcs in sources.items()}
    order = com_order(dp, com, active)
    steps = []
    for name in order:
        vertex = dp.vertex(name)
        steps.append((
            tuple(source_of.get(port) for port in vertex.input_ids()),
            tuple((PortId(name, port), vertex.operation(port).evaluate)
                  for port in vertex.out_ports)))
    return steps


def _full_pass(steps, state):
    """Every COM port recomputed from the sequential state."""
    values = dict(state)
    get = values.get
    for sources, outputs in steps:
        args = [get(source, UNDEF) for source in sources]
        for port, evaluate in outputs:
            values[port] = evaluate(*args)
    return values


class _FullPassCheck(SimHook):
    """Compares every step's fixpoint with the full-pass reference."""

    def __init__(self, system):
        self.dp = system.datapath
        self.com = com_vertices(self.dp)
        self.plans = {}
        self.steps_checked = 0

    def post_evaluate(self, sim, step, active, out_values):
        plan = self.plans.get(active)
        if plan is None:
            plan = self.plans[active] = _full_plan(self.dp, self.com, active)
        assert out_values == _full_pass(plan, sim._state), f"step {step}"
        self.steps_checked += 1


def _check_against_full_pass(system, environment, *, strict, max_steps):
    check = _FullPassCheck(system)
    try:
        Simulator(system, environment, strict=strict, hooks=[check]).run(
            max_steps=max_steps, on_limit="return")
    except ReproError:
        pass  # the steps before the error were still checked
    return check.steps_checked


@pytest.mark.parametrize("design", all_designs(), ids=lambda d: d.name)
def test_zoo_fixpoints_equal_full_pass(design):
    checked = _check_against_full_pass(design.build(), design.environment(),
                                       strict=True, max_steps=2_000)
    assert checked > 0


def test_generated_fixpoints_equal_full_pass():
    config = GeneratorConfig(mutation_rate=0.3)
    checked = 0
    for seed in range(60):
        case = generate_case(seed, config)
        checked += _check_against_full_pass(
            case.system, copy.deepcopy(case.environment), strict=False,
            max_steps=200)
    assert checked > 60


# ---------------------------------------------------------------------------
# edge cases
# ---------------------------------------------------------------------------
def _three_engine_traces(system, environment, max_steps=64):
    reference = Simulator(system, copy.deepcopy(environment)).run(
        max_steps=max_steps)
    traces = [reference]
    for mode in ("scalar", "numpy"):
        result = VectorSimulator(system, mode=mode).run(
            [Lane(copy.deepcopy(environment))], max_steps=max_steps)
        traces.append(result.trace(0))
    return traces


def _engine_errors(system, environment):
    errors = []
    try:
        Simulator(system, copy.deepcopy(environment)).run(max_steps=16)
    except ReproError as error:
        errors.append(error)
    for mode in ("scalar", "numpy"):
        result = VectorSimulator(system, mode=mode).run(
            [Lane(copy.deepcopy(environment))], max_steps=16,
            capture_errors=True)
        errors.append(result.error(0))
    return errors


def _seven_when_undefined(value):
    return 7 if value is UNDEF else value + 1


NON_STRICT = Operation("dflt", OpKind.COM, 1, _seven_when_undefined)


def _non_strict_system():
    """``nd`` is driven by ``x`` in ``s_drive`` (whose value ``r1``
    latches) and read undriven in ``s_read`` (whose value ``r2``
    latches): the read must see 7, not the value ``s_drive`` computed."""
    dp = DataPath(name="nonstrict")
    dp.add_vertex(input_pad("x"))
    dp.add_vertex(Vertex("nd", ("i",), ("o",), {"o": NON_STRICT}))
    dp.add_vertex(register("r1"))
    dp.add_vertex(register("r2"))
    dp.add_vertex(output_pad("y"))
    dp.connect("x.out", "nd.i", name="a_x")
    dp.connect("nd.o", "r1.d", name="a_r1")
    dp.connect("nd.o", "r2.d", name="a_r2")
    dp.connect("r2.q", "y.in", name="a_y")
    net = PetriNet(name="nonstrict")
    net.add_place("s_drive", marked=True)
    net.add_place("s_read")
    net.add_place("s_out")
    chain(net, ["s_drive", "s_read", "s_out"])
    net.add_transition("t_end")
    net.add_arc("s_out", "t_end")
    system = DataControlSystem(dp, net, name="nonstrict")
    system.set_control("s_drive", ["a_x", "a_r1"])
    system.set_control("s_read", ["a_r2"])
    system.set_control("s_out", ["a_y"])
    return system


def test_non_strict_undriven_value_agrees_across_engines():
    system = _non_strict_system()
    traces = _three_engine_traces(system, Environment.of(x=[10]))
    reference = traces[0]
    latched = {latch.port.vertex: latch.new for latch in reference.latches}
    assert latched["r1"] == 11 and latched["r2"] == 7
    assert [event.value for event in reference.events
            if event.arc == "a_y"] == [7]
    for trace in traces[1:]:
        assert traces_equivalent(reference, trace)


def test_unevaluable_undriven_vertex_raises_in_every_engine():
    dp = DataPath(name="nofunc")
    dp.add_vertex(Vertex("broken", ("i",), ("o",),
                         {"o": Operation("nofunc", OpKind.COM, 1)}))
    dp.add_vertex(constant("k", 3))
    dp.add_vertex(register("r"))
    dp.connect("k.o", "r.d", name="a_k")
    net = PetriNet(name="nofunc")
    net.add_place("s0", marked=True)
    net.add_transition("t_end")
    net.add_arc("s0", "t_end")
    system = DataControlSystem(dp, net, name="nofunc")
    system.set_control("s0", ["a_k"])
    errors = _engine_errors(system, Environment())
    message = "operation 'nofunc' has no value function"
    for error in errors:
        assert type(error) is DefinitionError
        assert str(error) == message


def test_stuck_at_on_undriven_port_reaches_live_reader():
    # `u` (an adder) is never driven, so it outputs UNDEF; `w` reads it
    # through an open arc and `r` latches what `w` computes
    dp = DataPath(name="stuck")
    dp.add_vertex(operator("u", "add"))
    dp.add_vertex(operator("w", "neg"))
    dp.add_vertex(register("r"))
    dp.connect("u.o", "w.i", name="a_uw")
    dp.connect("w.o", "r.d", name="a_wr")
    net = PetriNet(name="stuck")
    net.add_place("s0", marked=True)
    net.add_transition("t_end")
    net.add_arc("s0", "t_end")
    system = DataControlSystem(dp, net, name="stuck")
    system.set_control("s0", ["a_uw", "a_wr"])
    r = PortId("r", "q")
    clean = Simulator(system, Environment()).run(max_steps=8)
    assert clean.final_state[r] is UNDEF
    injector = FaultInjector([FaultSpec("stuck_at", "u.o", value=9,
                                        start=0, end=0)])
    faulty = Simulator(system, Environment(), hooks=[injector]).run(
        max_steps=8)
    assert [(latch.port, latch.new) for latch in faulty.latches] == [(r, -9)]
    assert faulty.final_state[r] == -9


def test_arc_glitch_loop_message_unchanged():
    # a -> b is open in s0; b -> a is never opened by the control, so
    # only an arc_open glitch closes the loop a -> b -> a
    dp = DataPath(name="glitch")
    dp.add_vertex(input_pad("x"))
    dp.add_vertex(operator("a", "add"))
    dp.add_vertex(operator("b", "neg"))
    dp.add_vertex(register("r"))
    dp.connect("x.out", "a.l", name="a_x")
    dp.connect("a.o", "b.i", name="a_ab")
    dp.connect("b.o", "a.r", name="a_ba")
    dp.connect("b.o", "r.d", name="a_r")
    net = PetriNet(name="glitch")
    net.add_place("s0", marked=True)
    net.add_transition("t_end")
    net.add_arc("s0", "t_end")
    system = DataControlSystem(dp, net, name="glitch")
    system.set_control("s0", ["a_x", "a_ab", "a_r"])
    active = frozenset({"a_x", "a_ab", "a_r", "a_ba"})
    with pytest.raises(ValidationError) as full:
        com_order(dp, com_vertices(dp), active)
    injector = FaultInjector([FaultSpec("arc_open", "a_ba", start=0, end=0)])
    with pytest.raises(RuntimeFaultError) as raised:
        Simulator(system, Environment.of(x=[1]), hooks=[injector]).run(
            max_steps=8)
    assert raised.value.kind == "comb_loop"
    assert str(raised.value) == (
        f"combinational loop closed at step 0: {full.value}")
    assert str(raised.value) == (
        "combinational loop closed at step 0: combinational loop among "
        "active vertices: b -> a")
