"""Analysis tooling: the structural lint engine and comparison baselines.

* :mod:`~repro.analysis.lint` — rule-registry design-rule checker over
  :class:`~repro.core.system.DataControlSystem` (structural, zero
  reachability enumeration) producing :class:`~repro.diagnostics.Diagnostic`
  findings;
* :mod:`~repro.analysis.sarif` — SARIF 2.1.0 serialization of lint runs;
* :mod:`~repro.analysis.symbolic` — static reachability engine
  (vectorised frontier bitsets, stubborn-set partial-order reduction,
  McMillan complete finite prefixes) that never executes the
  interpreter, plus the safety and equivalence diagnostics;
* :mod:`~repro.analysis.interleaving` — CCS-style shuffle composition and
  the composition-explosion measurement (Section 1 comparison);
* :mod:`~repro.analysis.regex_baseline` — McFarland-style total-order
  event model and the over-constraint measurement;
* :mod:`~repro.analysis.statespace` — marking-graph statistics.
"""

from .interleaving import (
    Agent,
    ProductResult,
    composition_growth,
    cycle_agent,
    interleaving_count,
    petri_representation,
    sequence_agent,
    shuffle_product,
)
from .regex_baseline import (
    chains_linearisations,
    count_linear_extensions,
    order_relation,
    overconstraint_report,
)
from .lint import (
    LintContext,
    LintReport,
    LintRule,
    all_rules,
    assert_lint_preserved,
    baseline_document,
    error_fingerprints,
    get_rule,
    lint_regressions,
    lint_rule,
    load_baseline,
    run_lint,
)
from .sarif import sarif_dumps, sarif_log
from .statespace import StateSpaceStats, state_space_stats
from .symbolic import (
    CompiledNet,
    Prefix,
    SymbolicGraph,
    TruncationWarning,
    complete_prefix,
    equivalence_diagnostics,
    frontier_explore,
    por_explore,
    safety_diagnostics,
    stubborn_set,
)

__all__ = [
    "LintRule",
    "LintContext",
    "LintReport",
    "lint_rule",
    "all_rules",
    "get_rule",
    "run_lint",
    "baseline_document",
    "load_baseline",
    "error_fingerprints",
    "lint_regressions",
    "assert_lint_preserved",
    "sarif_log",
    "sarif_dumps",
    "Agent",
    "cycle_agent",
    "sequence_agent",
    "shuffle_product",
    "ProductResult",
    "interleaving_count",
    "petri_representation",
    "composition_growth",
    "count_linear_extensions",
    "chains_linearisations",
    "order_relation",
    "overconstraint_report",
    "StateSpaceStats",
    "state_space_stats",
    "CompiledNet",
    "SymbolicGraph",
    "Prefix",
    "TruncationWarning",
    "frontier_explore",
    "por_explore",
    "stubborn_set",
    "complete_prefix",
    "safety_diagnostics",
    "equivalence_diagnostics",
]
