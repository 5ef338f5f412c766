"""Unit tests for data-path validation and combinational-loop detection."""

from random import Random

import pytest

from repro.datapath import (
    DataPath,
    adder,
    assert_valid,
    combinational_cycle,
    constant,
    input_pad,
    output_pad,
    register,
    topological_com_order,
    validate_datapath,
)
from repro.datapath.validate import com_order, com_vertices
from repro.errors import ValidationError
from repro.fuzz import GeneratorConfig, apply_mutation, generate_case
from repro.petri.reachability import explore


def valid_path() -> DataPath:
    dp = DataPath()
    dp.add_vertex(input_pad("x"))
    dp.add_vertex(register("r"))
    dp.add_vertex(output_pad("y"))
    dp.connect("x.out", "r.d", name="a_in")
    dp.connect("r.q", "y.in", name="a_out")
    return dp


class TestValidation:
    def test_valid_path_has_no_problems(self):
        assert validate_datapath(valid_path()) == []
        assert_valid(valid_path())

    def test_dangling_input_pad_reported(self):
        dp = DataPath()
        dp.add_vertex(input_pad("x"))
        problems = validate_datapath(dp)
        assert any("drives no arc" in p for p in problems)

    def test_dangling_output_pad_reported(self):
        dp = DataPath()
        dp.add_vertex(output_pad("y"))
        problems = validate_datapath(dp)
        assert any("receives no arc" in p for p in problems)

    def test_assert_valid_raises(self):
        dp = DataPath()
        dp.add_vertex(output_pad("y"))
        with pytest.raises(ValidationError):
            assert_valid(dp)


class TestCombinationalCycles:
    def _feedback_path(self) -> tuple[DataPath, list[str]]:
        """a1 and a2 feed each other combinationally (illegal if both
        arcs are active); constants fill the second operands."""
        dp = DataPath()
        dp.add_vertex(adder("a1"))
        dp.add_vertex(adder("a2"))
        dp.add_vertex(constant("k", 1))
        names = [
            dp.connect("a1.o", "a2.l", name="fwd").name,
            dp.connect("a2.o", "a1.l", name="bwd").name,
            dp.connect("k.o", "a1.r", name="k1").name,
            dp.connect("k.o", "a2.r", name="k2").name,
        ]
        return dp, names

    def test_cycle_detected(self):
        dp, names = self._feedback_path()
        cycle = combinational_cycle(dp, names)
        assert cycle is not None
        assert set(cycle) <= {"a1", "a2"}

    def test_cycle_broken_by_inactive_arc(self):
        dp, _names = self._feedback_path()
        # only the forward arc active: no loop
        assert combinational_cycle(dp, ["fwd", "k1", "k2"]) is None

    def test_register_breaks_cycle(self):
        dp = DataPath()
        dp.add_vertex(adder("a1"))
        dp.add_vertex(register("r"))
        dp.add_vertex(constant("k", 1))
        arcs = [
            dp.connect("a1.o", "r.d", name="to_r").name,
            dp.connect("r.q", "a1.l", name="from_r").name,
            dp.connect("k.o", "a1.r", name="k").name,
        ]
        assert combinational_cycle(dp, arcs) is None

    def test_self_loop_detected(self):
        dp = DataPath()
        dp.add_vertex(adder("a1"))
        arcs = [dp.connect("a1.o", "a1.l", name="self").name]
        cycle = combinational_cycle(dp, arcs)
        assert cycle is not None


class TestTopologicalOrder:
    def test_order_respects_active_dependencies(self):
        dp = DataPath()
        dp.add_vertex(constant("k", 1))
        dp.add_vertex(adder("first"))
        dp.add_vertex(adder("second"))
        arcs = [
            dp.connect("k.o", "first.l", name="a1").name,
            dp.connect("k.o", "first.r", name="a2").name,
            dp.connect("first.o", "second.l", name="a3").name,
            dp.connect("k.o", "second.r", name="a4").name,
        ]
        order = topological_com_order(dp, arcs)
        assert order.index("first") < order.index("second")
        assert "k" in order  # constants are combinational too

    def test_inactive_vertices_still_listed(self):
        dp = DataPath()
        dp.add_vertex(adder("lonely"))
        order = topological_com_order(dp, [])
        assert order == ["lonely"]

    def test_loop_raises(self):
        dp = DataPath()
        dp.add_vertex(adder("a1"))
        arcs = [dp.connect("a1.o", "a1.l", name="self").name]
        with pytest.raises(ValidationError) as caught:
            topological_com_order(dp, arcs)
        assert str(caught.value) == (
            "combinational loop among active vertices: a1 -> a1")


def _reference_com_order(dp, arc_names):
    """The DFS-then-Kahn ``topological_com_order`` this module replaced,
    kept verbatim as the reference for the differential test below."""
    arc_list = list(arc_names)
    cycle = combinational_cycle(dp, arc_list)
    if cycle is not None:
        raise ValidationError(
            f"combinational loop among active vertices: {' -> '.join(cycle)}"
        )
    com = {v.name for v in dp.vertices.values() if v.is_combinational}
    indegree: dict[str, int] = {v: 0 for v in com}
    out_edges: dict[str, list[str]] = {v: [] for v in com}
    for name in arc_list:
        arc = dp.arc(name)
        if arc.target.vertex in com:
            if arc.source.vertex in com:
                out_edges[arc.source.vertex].append(arc.target.vertex)
                indegree[arc.target.vertex] += 1
    ready = sorted(v for v, d in indegree.items() if d == 0)
    order: list[str] = []
    while ready:
        node = ready.pop()
        order.append(node)
        for succ in out_edges[node]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                ready.append(succ)
    return order


def _order_or_message(order_fn, *args):
    try:
        return order_fn(*args)
    except ValidationError as error:
        return f"ValidationError: {error}"


def _reached_arc_sets(system):
    """Every open-arc set of a reachable marking (explored up to a
    budget), plus the set of all arcs."""
    graph = explore(system.net, max_markings=2_000)
    arc_sets = {frozenset(system.datapath.arcs)}
    for marking in graph.markings:
        arcs: set[str] = set()
        for place in marking.marked_places():
            arcs.update(system.control_arcs(place))
        arc_sets.add(frozenset(arcs))
    return arc_sets


def _generated_systems():
    config = GeneratorConfig(mutation_rate=0.5, quirk_rate=0.2)
    for seed in range(40):
        yield generate_case(seed, config).system
        # every seed also once with a forced combinational loop
        system = generate_case(seed, GeneratorConfig(quirk_rate=0.0)).system
        if apply_mutation(system, "comb_loop", Random(seed)):
            yield system


class TestComOrderMatchesReference:
    """The Kahn-only order equals the DFS-then-Kahn reference on every
    open-arc set the zoo and generated cases reach, loops included."""

    def _check(self, systems):
        loops = 0
        for system in systems:
            dp = system.datapath
            com = com_vertices(dp)
            for arcs in _reached_arc_sets(system):
                # the same iteration order for all three: the set itself
                # and one fixed list
                for arc_names in (arcs, sorted(arcs)):
                    expected = _order_or_message(
                        _reference_com_order, dp, arc_names)
                    assert _order_or_message(
                        topological_com_order, dp, arc_names) == expected
                    assert _order_or_message(
                        com_order, dp, com, arc_names) == expected
                    loops += isinstance(expected, str)
        return loops

    def test_zoo(self, zoo):
        assert len(zoo) == 11
        self._check(system for _design, system in zoo.values())

    def test_generated_cases_with_loops(self):
        assert self._check(_generated_systems()) > 0
