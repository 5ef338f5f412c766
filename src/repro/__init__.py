"""repro — reproduction of Zebo Peng, *Semantics of a Parallel Computation
Model and its Applications in Digital Hardware Design* (ICPP 1988).

The library implements the paper's data/control flow computation model —
a data path (directed port graph) controlled by a guarded Petri net —
together with its external-event semantics, the data-invariant and
control-invariant equivalence relations, the semantics-preserving
transformations built on them, and a CAMAD-style high-level synthesis
pipeline that uses those transformations to optimise designs.

Quick tour::

    from repro import compile_source, Environment, simulate, pad_outputs

    system = compile_source('''
        design double {
          input x_in; output y_out; var x, y;
          x = read(x_in);
          y = x * 2;
          write(y_out, y);
        }
    ''')
    trace = simulate(system, Environment.of(x_in=[21]))
    print(pad_outputs(system, trace))       # {'y_out': [42]}

Sub-packages:

=====================  ====================================================
:mod:`repro.petri`      Petri-net substrate (token game, reachability,
                        invariants, structural relations)
:mod:`repro.datapath`   data-path substrate (ports, vertices, operations,
                        module library, validation)
:mod:`repro.core`       the model Γ, properly-designed check, dependence,
                        event structures, equivalence relations
:mod:`repro.semantics`  the executable semantics (simulator, environment,
                        firing policies, event-structure extraction)
:mod:`repro.transform`  semantics-preserving transformations
:mod:`repro.synthesis`  behavioural frontend + scheduling, allocation,
                        critical path, cost model, optimizer
:mod:`repro.analysis`   CCS/regex baselines and state-space statistics
:mod:`repro.designs`    the benchmark design zoo
:mod:`repro.io`         DOT export, JSON round-trips, report tables
:mod:`repro.runtime`    parallel batch-execution engine with a
                        content-addressed result cache
=====================  ====================================================
"""

from .core import (
    DataControlSystem,
    EventStructure,
    ExternalEvent,
    assert_properly_designed,
    check_properly_designed,
    control_invariant_equivalent,
    data_invariant_equivalent,
    merger_legal,
    semantically_equivalent,
)
from .datapath import DataPath, PortId, Vertex
from .designs import ZOO, all_designs, get_design, pad_inputs, pad_outputs
from .errors import (
    DefinitionError,
    EnvironmentExhausted,
    ExecutionError,
    ParseError,
    ReproError,
    TransformError,
    ValidationError,
)
from .petri import Marking, PetriNet
from .semantics import (
    Environment,
    Simulator,
    Trace,
    extract_event_structure,
    policy_invariant_structure,
    simulate,
)
from .synthesis import (
    Objective,
    ProgramBuilder,
    compact,
    compile_program,
    compile_source,
    critical_path,
    optimize,
    parse,
    share_all,
    system_cost,
)
from .runtime import (
    BatchResult,
    ExecutionEngine,
    FleetMetrics,
    JobResult,
    JobSpec,
    ResultCache,
    check_job,
    equiv_job,
    lint_job,
    load_job_file,
    probe_job,
    reachability_job,
    simulate_job,
    synthesize_job,
    write_job_file,
)
from .transform import (
    ParallelizeStates,
    RestructureBlock,
    SerializeStates,
    VertexMerger,
    VertexSplitter,
    apply_sequence,
    behaviourally_equivalent,
)
from .values import UNDEF

try:  # single-sourced from the installed package metadata (pyproject.toml)
    from importlib.metadata import PackageNotFoundError, version as _version

    __version__ = _version("repro")
except PackageNotFoundError:  # running from a source tree without install
    __version__ = "1.0.0"

__all__ = [
    "__version__",
    # model
    "DataControlSystem", "DataPath", "PetriNet", "Marking", "Vertex", "PortId",
    "UNDEF",
    # semantics
    "Environment", "Simulator", "Trace", "simulate",
    "extract_event_structure", "policy_invariant_structure",
    "EventStructure", "ExternalEvent",
    # verification / equivalence
    "check_properly_designed", "assert_properly_designed",
    "data_invariant_equivalent", "control_invariant_equivalent",
    "merger_legal", "semantically_equivalent", "behaviourally_equivalent",
    # transformations
    "ParallelizeStates", "SerializeStates", "RestructureBlock",
    "VertexMerger", "VertexSplitter", "apply_sequence",
    # synthesis
    "parse", "compile_source", "compile_program", "ProgramBuilder",
    "compact", "share_all", "critical_path", "system_cost",
    "optimize", "Objective",
    # designs
    "ZOO", "all_designs", "get_design", "pad_outputs", "pad_inputs",
    # batch runtime
    "ExecutionEngine", "BatchResult", "JobSpec", "JobResult", "ResultCache",
    "FleetMetrics", "simulate_job", "check_job", "lint_job", "reachability_job",
    "equiv_job", "synthesize_job", "probe_job", "load_job_file",
    "write_job_file",
    # errors
    "ReproError", "DefinitionError", "ValidationError", "ExecutionError",
    "EnvironmentExhausted", "TransformError", "ParseError",
]
