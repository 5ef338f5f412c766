"""Fault injection, runtime monitors, and campaign analysis.

The robustness counterpart to the static Definition 3.2 checker: instead
of proving a system properly designed, *break* it on purpose and measure
whether the breakage is observable.

* :mod:`~repro.faults.spec` — declarative, JSON-serialisable
  :class:`FaultSpec`\\ s (stuck-at, SEU bit-flips, token loss /
  duplication / misrouting, guard inversion, arc glitches) with
  activation windows and per-fault seeds;
* :mod:`~repro.faults.inject` — :class:`FaultInjector`, the
  :class:`~repro.semantics.simulator.SimHook` that materialises the
  specs during a run;
* :mod:`~repro.faults.monitors` — runtime monitors (RT001–RT007) that
  watch the properness clauses *while running* and raise structured
  :class:`~repro.diagnostics.Diagnostic`\\ s;
* :mod:`~repro.faults.campaign` — the campaign runner: chunks of
  faults sharing one golden run, faulty runs forked from and rejoined
  to it, golden-vs-faulty event-structure comparison (the deviation
  oracle), and the masked / detected / silent verdict report.
"""

from .campaign import (
    CampaignReport,
    deviation_count,
    event_structure_digest,
    run_campaign,
    run_single_fault,
    watchdog_budget,
)
from .inject import FaultInjector
from .monitors import (
    DeadlockMonitor,
    DriveConflictMonitor,
    GuardConflictMonitor,
    MonitorFinding,
    MonitorViolation,
    RuntimeMonitor,
    SafetyMonitor,
    WatchdogMonitor,
    finding_from_error,
    standard_monitors,
)
from .spec import (
    FAULT_KINDS,
    FaultSpec,
    derive_seed,
    generate_faults,
    load_faults,
    resolve_seeds,
    save_faults,
)

__all__ = [
    "FAULT_KINDS",
    "FaultSpec",
    "derive_seed",
    "resolve_seeds",
    "generate_faults",
    "save_faults",
    "load_faults",
    "FaultInjector",
    "RuntimeMonitor",
    "MonitorFinding",
    "MonitorViolation",
    "SafetyMonitor",
    "DriveConflictMonitor",
    "GuardConflictMonitor",
    "WatchdogMonitor",
    "DeadlockMonitor",
    "finding_from_error",
    "standard_monitors",
    "CampaignReport",
    "run_campaign",
    "run_single_fault",
    "watchdog_budget",
    "event_structure_digest",
    "deviation_count",
]
