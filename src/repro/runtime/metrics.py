"""Per-job and fleet-level statistics for the batch engine.

Every :class:`~repro.runtime.executor.JobResult` carries its own queue
and run wall times plus retry/timeout flags; :class:`FleetMetrics`
aggregates them across a batch — throughput, retries, timeouts, pool
resets, cache hit rate — and folds every simulate job's
:class:`~repro.semantics.profile.SimMetrics` into one fleet-wide record
(:func:`aggregate_sim_metrics`), so a zoo-wide sweep reports the same
observability a single ``simulate --profile`` run does.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from ..semantics.profile import SimMetrics

#: SimMetrics counters summed during aggregation (wall times included:
#: the aggregate reports total simulator effort across the fleet).
_SUMMED_FIELDS = (
    "steps", "firings", "port_evaluations", "combinational_seconds",
    "control_seconds", "wall_seconds",
)


def aggregate_sim_metrics(records: Iterable[Mapping | SimMetrics]
                          ) -> SimMetrics:
    """Fold many per-run metrics into one fleet-wide :class:`SimMetrics`.

    Counter fields are summed and ``peak_marked_places`` is the maximum.
    Dict records go through :meth:`SimMetrics.from_dict`, so keys the
    record no longer has (older records' cache and pass counters) are
    ignored.
    """
    total = SimMetrics()
    for record in records:
        metrics = (record if isinstance(record, SimMetrics)
                   else SimMetrics.from_dict(dict(record)))
        for name in _SUMMED_FIELDS:
            setattr(total, name, getattr(total, name) + getattr(metrics, name))
        total.peak_marked_places = max(total.peak_marked_places,
                                       metrics.peak_marked_places)
    return total


@dataclass
class FleetMetrics:
    """What one :meth:`ExecutionEngine.run` batch did, in aggregate."""

    workers: int = 0
    jobs: int = 0
    succeeded: int = 0
    failed: int = 0
    cached: int = 0
    replayed: int = 0          # answered from a write-ahead journal
    interrupted_jobs: int = 0  # unfinished when the batch was stopped
    dispatched: int = 0        # worker executions actually attempted
    retries: int = 0
    timeouts: int = 0
    pool_resets: int = 0       # pool rebuilds after a crash or timeout
    interrupted: bool = False  # batch stopped before every job finished
    degraded_to_serial: bool = False
    queue_seconds: float = 0.0  # summed per-job time waiting for a worker
    run_seconds: float = 0.0    # summed per-job execution wall time
    wall_seconds: float = 0.0   # end-to-end batch wall time
    sim: SimMetrics = field(default_factory=SimMetrics)

    # ------------------------------------------------------------------
    @property
    def cache_hit_rate(self) -> float:
        return self.cached / self.jobs if self.jobs else 0.0

    @property
    def jobs_per_second(self) -> float:
        return self.jobs / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def record(self, result: "JobResult") -> None:
        """Fold one finished job into the aggregate."""
        self.jobs += 1
        if result.status == "cached":
            self.cached += 1
        elif result.status == "replayed":
            self.replayed += 1
        elif result.status == "ok":
            self.succeeded += 1
        elif result.status == "interrupted":
            self.interrupted_jobs += 1
        else:
            self.failed += 1
        self.dispatched += result.attempts
        self.retries += max(result.attempts - 1, 0)
        if result.timed_out:
            self.timeouts += 1
        self.queue_seconds += result.queue_seconds
        self.run_seconds += result.run_seconds
        if result.sim_metrics:
            self.sim = aggregate_sim_metrics([self.sim, result.sim_metrics])

    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        return {
            "workers": self.workers,
            "jobs": self.jobs,
            "succeeded": self.succeeded,
            "failed": self.failed,
            "cached": self.cached,
            "replayed": self.replayed,
            "interrupted_jobs": self.interrupted_jobs,
            "dispatched": self.dispatched,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "pool_resets": self.pool_resets,
            "interrupted": self.interrupted,
            "degraded_to_serial": self.degraded_to_serial,
            "cache_hit_rate": self.cache_hit_rate,
            "queue_seconds": self.queue_seconds,
            "run_seconds": self.run_seconds,
            "wall_seconds": self.wall_seconds,
            "jobs_per_second": self.jobs_per_second,
            "sim": self.sim.as_dict(),
        }

    def to_json(self, *, indent: int | None = None) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

    def summary(self) -> str:
        """Multi-line human-readable fleet report."""
        mode = ("serial (degraded)" if self.degraded_to_serial
                else "serial" if self.workers == 0
                else f"{self.workers} worker(s)")
        lines = [
            f"fleet ({mode}):",
            f"  jobs                 {self.jobs}"
            f" ({self.succeeded} ok / {self.failed} failed"
            f" / {self.cached} cached)",
            f"  worker dispatches    {self.dispatched}"
            f" ({self.retries} retried, {self.timeouts} timed out)",
            f"  pool resets          {self.pool_resets}",
        ]
        if self.replayed:
            lines.append(f"  journal replays      {self.replayed}")
        if self.interrupted:
            lines.append(f"  INTERRUPTED          {self.interrupted_jobs}"
                         f" job(s) unfinished")
        lines += [
            f"  cache hit rate       {self.cache_hit_rate:.1%}",
            f"  queue time (sum)     {self.queue_seconds * 1e3:.2f} ms",
            f"  run time (sum)       {self.run_seconds * 1e3:.2f} ms",
            f"  batch wall time      {self.wall_seconds * 1e3:.2f} ms"
            f" ({self.jobs_per_second:.1f} jobs/s)",
        ]
        if self.sim.steps:
            lines.append("  aggregated simulation metrics:")
            lines.extend("  " + line for line in
                         self.sim.summary().splitlines()[1:])
        return "\n".join(lines)
