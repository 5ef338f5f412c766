"""Execution semantics of the data/control flow model (Section 3).

* :mod:`~repro.semantics.values` — the value domain with ⊥ (UNDEF);
* :class:`~repro.semantics.environment.Environment` — predefined input
  sequences per input vertex;
* :class:`~repro.semantics.simulator.Simulator` — the two-phase
  interpreter of Definition 3.1, the hook-capable reference semantics
  (one evaluator: per step, a pass over the COM vertices the open arcs
  drive, in a plan memoised per open-arc set);
* :mod:`~repro.semantics.policies` — firing-choice strategies;
* :mod:`~repro.semantics.profile` — :class:`~repro.semantics.profile.
  SimMetrics` step-level observability and
  :func:`~repro.semantics.profile.traces_equivalent`, the trace
  equality every engine is held to;
* :mod:`~repro.semantics.event_structure` — extraction of ``S(Γ)``;
* :mod:`~repro.semantics.vector` — the compiled batch backend:
  :func:`~repro.semantics.vector.compile_system` lowers a system to
  flat numeric form once and
  :class:`~repro.semantics.vector.VectorSimulator` advances many lanes
  per step with byte-identical traces.
"""

from .environment import Environment
from .event_structure import (
    default_policy_sweep,
    event_structure_from_trace,
    extract_event_structure,
    observed_conflicts,
    policy_invariant_structure,
)
from .policies import (
    FiringPolicy,
    FixedOrderPolicy,
    MaximalStepPolicy,
    RandomPolicy,
    ScriptedPolicy,
    SeededMaximalPolicy,
    SequentialPolicy,
)
from .profile import (
    SimMetrics,
    profile_simulation,
    traces_equivalent,
)
from .simulator import Checkpoint, SimHook, Simulator, StepPerturbation, simulate
from .trace import ConflictRecord, LatchRecord, Outcome, Trace
from .values import UNDEF, Value, as_word, is_defined, strict, truthy
from .vector import (
    BatchResult,
    CompiledSystem,
    Lane,
    VectorSimulator,
    compile_system,
)

__all__ = [
    "UNDEF",
    "Value",
    "is_defined",
    "truthy",
    "strict",
    "as_word",
    "Environment",
    "Simulator",
    "SimHook",
    "StepPerturbation",
    "Checkpoint",
    "simulate",
    "SimMetrics",
    "profile_simulation",
    "traces_equivalent",
    "Trace",
    "Outcome",
    "LatchRecord",
    "ConflictRecord",
    "FiringPolicy",
    "MaximalStepPolicy",
    "SeededMaximalPolicy",
    "SequentialPolicy",
    "RandomPolicy",
    "FixedOrderPolicy",
    "ScriptedPolicy",
    "extract_event_structure",
    "event_structure_from_trace",
    "policy_invariant_structure",
    "default_policy_sweep",
    "observed_conflicts",
    "CompiledSystem",
    "VectorSimulator",
    "BatchResult",
    "Lane",
    "compile_system",
]
