"""Petri-net substrate: the control-flow half of the computation model.

Public surface:

* :class:`~repro.petri.net.PetriNet`, :class:`~repro.petri.net.Place`,
  :class:`~repro.petri.net.Transition` — net construction;
* :class:`~repro.petri.marking.Marking` — immutable token assignments;
* the token game — :func:`~repro.petri.execution.fire`,
  :func:`~repro.petri.execution.fire_step`,
  :func:`~repro.petri.execution.maximal_step`,
  :func:`~repro.petri.execution.run_to_completion`;
* :class:`~repro.petri.relations.StructuralRelations` — the ``⇒``/``α``/``∥``
  orders of Definition 2.3;
* reachability (:func:`~repro.petri.reachability.explore`), invariants
  (:func:`~repro.petri.invariants.p_invariants`), and property checks
  (:func:`~repro.petri.properties.check_safety`).
"""

from .execution import (
    always_true,
    enabled_transitions,
    fire,
    fire_step,
    fireable_transitions,
    is_enabled,
    maximal_step,
    may_fire,
    run_to_completion,
)
from .invariants import (
    apply_state_equation,
    incidence_matrix,
    invariant_token_sum,
    p_invariants,
    positive_p_invariants,
    structurally_safe_places,
    t_invariants,
)
from .marking import Marking
from .net import PetriNet, Place, Transition, chain
from .properties import (
    LivenessReport,
    SafetyReport,
    check_liveness,
    check_safety,
    is_marked_graph,
    is_state_machine,
    structural_conflicts,
    unsafe_witness_message,
)
from .reachability import (
    ReachabilityGraph,
    coexistent_place_pairs,
    explore,
    firing_sequences,
    is_safe,
    reachable_markings,
)
from .relations import StructuralRelations, dominators, transitive_closure_bool
from .structure import (
    commoner_holds,
    is_free_choice,
    is_siphon,
    is_trap,
    maximal_siphon_within,
    maximal_trap_within,
    minimal_siphons,
    token_free_siphon,
)

__all__ = [
    "PetriNet",
    "Place",
    "Transition",
    "Marking",
    "chain",
    "always_true",
    "is_enabled",
    "may_fire",
    "enabled_transitions",
    "fireable_transitions",
    "fire",
    "fire_step",
    "maximal_step",
    "run_to_completion",
    "StructuralRelations",
    "transitive_closure_bool",
    "dominators",
    "is_siphon",
    "is_trap",
    "maximal_siphon_within",
    "maximal_trap_within",
    "minimal_siphons",
    "is_free_choice",
    "commoner_holds",
    "token_free_siphon",
    "ReachabilityGraph",
    "explore",
    "is_safe",
    "reachable_markings",
    "firing_sequences",
    "coexistent_place_pairs",
    "incidence_matrix",
    "apply_state_equation",
    "p_invariants",
    "t_invariants",
    "positive_p_invariants",
    "structurally_safe_places",
    "invariant_token_sum",
    "SafetyReport",
    "LivenessReport",
    "check_safety",
    "check_liveness",
    "structural_conflicts",
    "unsafe_witness_message",
    "is_marked_graph",
    "is_state_machine",
]
