"""Unit tests for DataControlSystem: C/G mappings and derived sets."""

import pytest

from repro.datapath import PortId
from repro.errors import DefinitionError

from tests.util import guarded_choice_system, independent_pair_system, relay_system


class TestControlMapping:
    def test_control_arcs(self):
        system = relay_system()
        assert system.control_arcs("s_read") == frozenset({"a_in"})
        assert system.control_arcs("s_write") == frozenset({"a_out"})

    def test_controlling_states_inverse(self):
        system = relay_system()
        assert system.controlling_states("a_in") == frozenset({"s_read"})

    def test_set_control_unknown_place(self):
        system = relay_system()
        with pytest.raises(DefinitionError):
            system.set_control("ghost", ["a_in"])

    def test_set_control_unknown_arc(self):
        system = relay_system()
        with pytest.raises(DefinitionError):
            system.set_control("s_read", ["ghost"])

    def test_add_control_accumulates(self):
        system = relay_system()
        system.add_control("s_read", "a_out")
        assert system.control_arcs("s_read") == frozenset({"a_in", "a_out"})

    def test_empty_control_removes_entry(self):
        system = relay_system()
        system.set_control("s_read", [])
        assert "s_read" not in system.control


class TestGuardMapping:
    def test_guard_ports_and_inverse(self):
        system = guarded_choice_system()
        assert system.guard_ports("t_pos") == frozenset({PortId("isnz", "o")})
        assert system.guarded_transitions(PortId("isnz", "o")) == \
            frozenset({"t_pos"})
        assert system.guard_ports("t_zero") == frozenset({PortId("inv", "o")})

    def test_unguarded_default(self):
        system = guarded_choice_system()
        assert system.guard_ports("t_end_pos") == frozenset()

    def test_guard_must_be_output_port(self):
        system = guarded_choice_system()
        with pytest.raises(DefinitionError):
            system.set_guard("t_pos", ["rx.d"])

    def test_guard_on_unknown_transition(self):
        system = guarded_choice_system()
        with pytest.raises(DefinitionError):
            system.set_guard("ghost", ["isnz.o"])

    def test_clearing_guard(self):
        system = guarded_choice_system()
        system.set_guard("t_pos", [])
        assert "t_pos" not in system.guards


class TestDerivedSets:
    def test_associated_vertices_input_side_only(self):
        # Definition 2.4: only arcs *into* a vertex associate it
        system = relay_system()
        assert system.associated_vertices("s_read") == frozenset({"r"})
        assert system.associated_vertices("s_write") == frozenset({"y"})

    def test_ass_returns_arcs_and_vertices(self):
        system = relay_system()
        arcs, vertices = system.ass("s_read")
        assert arcs == frozenset({"a_in"})
        assert vertices == frozenset({"r"})

    def test_dom_and_cod(self):
        system = independent_pair_system()
        assert system.dom("s_out") == frozenset({"ra", "rb", "sum"})
        assert system.cod("s_out") == frozenset({"sum", "y"})

    def test_result_set_sequential_only(self):
        system = independent_pair_system()
        # cod(s_out) = {sum (COM), y (pad, sequential)}
        assert system.result_set("s_out") == frozenset({"y"})
        assert system.result_set("s_a") == frozenset({"ra"})

    def test_operations_of(self):
        system = independent_pair_system()
        assert "add" in system.operations_of("s_out")

    def test_states_associated_with_vertex(self):
        system = independent_pair_system()
        assert system.states_associated_with_vertex("ra") == frozenset({"s_a"})

    def test_external_arc_names(self):
        system = relay_system()
        assert system.external_arc_names() == frozenset({"a_in", "a_out"})
        assert system.controlled_external_arcs("s_read") == frozenset({"a_in"})


class TestValidationAndCopy:
    def test_validate_clean_system(self):
        assert relay_system().validate() == []

    def test_validate_reports_uncontrolled_arc(self):
        system = relay_system()
        system.set_control("s_write", [])
        problems = system.validate()
        assert any("a_out" in p for p in problems)

    def test_copy_is_independent(self):
        system = relay_system()
        clone = system.copy()
        clone.set_control("s_read", [])
        assert system.control_arcs("s_read") == frozenset({"a_in"})
        assert clone.name == system.name

    def test_relations_cache_invalidation(self):
        system = relay_system()
        relations = system.relations
        assert relations is system.relations  # cached
        system.invalidate()
        assert relations is not system.relations

    def test_coexistence_relation(self):
        system = relay_system()
        pairs, complete = system.coexistence()
        assert complete
        assert frozenset(("s_read", "s_write")) not in pairs
        assert not system.may_coexist("s_read", "s_write")

    def test_truncated_coexistence_does_not_shadow_a_larger_budget(self):
        from repro.analysis.symbolic import TruncationWarning
        from repro.designs import get_design

        system = get_design("traffic").build()
        with pytest.warns(TruncationWarning):
            truncated = system.coexistence(max_markings=2)
        assert truncated == (frozenset(), False)
        pairs, complete = system.coexistence()
        assert complete and len(pairs) == 4
        assert (pairs, complete) == \
            get_design("traffic").build().coexistence()
        # a complete answer serves any later budget or backend
        assert system.coexistence(max_markings=2) == (pairs, True)
        assert system.coexistence(backend="symbolic") == (pairs, True)
