"""repro.runtime — parallel batch-execution engine for expensive workloads.

Every heavyweight operation the library offers — simulation,
properly-designed checking (Definition 3.2), bounded semantic-equivalence
extraction (Definitions 3.3–3.6 / 4.1), reachability exploration, and the
multi-start synthesis optimizer — is a pure function of a system plus
parameters.  That makes the workloads embarrassingly parallel across
designs, environments, objective weights and random seeds; what was
missing is a job engine, and this package is it:

:mod:`repro.runtime.jobs`
    Declarative, JSON-serializable :class:`JobSpec`\\ s for every
    workload kind in :data:`JOB_KINDS`, each with a content-addressed
    key hashed from the system's canonical JSON plus parameters, and the
    deterministic :func:`execute_job` interpreter that workers run.
:mod:`repro.runtime.executor`
    :class:`ExecutionEngine` — a ``ProcessPoolExecutor``-backed fleet
    with per-job timeouts, bounded full-jitter retry, crash isolation (a
    killed worker fails only its job, found by re-running the suspects
    one at a time), and serial in-process execution when no pool can
    be started.  That is the engine's whole failure policy.
:mod:`repro.runtime.cache`
    :class:`ResultCache` — an on-disk content-addressed result store, so
    re-running a sweep with one changed design re-executes only that
    design.
:mod:`repro.runtime.metrics`
    :class:`FleetMetrics` — queue/run wall time, retries, timeouts,
    cache hit rate, and aggregated simulator :class:`~repro.semantics.
    profile.SimMetrics` across the batch.
:mod:`repro.runtime.durable`
    The crash-safety layer: atomic fsynced writes
    (:func:`atomic_write_text`) and the fsync-per-record write-ahead
    :class:`Journal` with torn-tail recovery (:func:`read_journal`), so
    batches and campaigns resume across process restarts.
:mod:`repro.runtime.resilience`
    :class:`GracefulShutdown`, converting SIGTERM/SIGINT into a
    cooperative stop event the engine polls.

Quick tour::

    from repro.designs import ZOO
    from repro.runtime import ExecutionEngine, simulate_job

    jobs = [simulate_job(d.build(), d.environment(), label=d.name)
            for d in ZOO.values()]
    with ExecutionEngine(workers=4) as engine:
        batch = engine.run(jobs)
    print(batch.metrics.summary())
"""

from .cache import ResultCache
from .durable import (
    Journal,
    atomic_write_text,
    dispatch_record,
    iter_settled,
    read_journal,
    settle_record,
)
from .executor import BatchResult, ExecutionEngine, JobResult
from .resilience import GracefulShutdown
from .jobs import (
    JOB_KINDS,
    JobSpec,
    canonical_json,
    check_job,
    lint_job,
    equiv_job,
    execute_job,
    fuzz_job,
    job_key,
    load_job_file,
    probe_job,
    reachability_job,
    simulate_job,
    synthesize_job,
    vecbatch_faults_job,
    vecbatch_simulate_job,
    write_job_file,
)
from .metrics import FleetMetrics, aggregate_sim_metrics

__all__ = [
    "JOB_KINDS",
    "JobSpec",
    "JobResult",
    "BatchResult",
    "ExecutionEngine",
    "ResultCache",
    "Journal",
    "atomic_write_text",
    "read_journal",
    "dispatch_record",
    "settle_record",
    "iter_settled",
    "GracefulShutdown",
    "FleetMetrics",
    "aggregate_sim_metrics",
    "canonical_json",
    "job_key",
    "execute_job",
    "simulate_job",
    "check_job",
    "lint_job",
    "reachability_job",
    "equiv_job",
    "synthesize_job",
    "vecbatch_simulate_job",
    "vecbatch_faults_job",
    "probe_job",
    "fuzz_job",
    "load_job_file",
    "write_job_file",
]
