"""Service workers: claim → execute → settle, locally or over HTTP.

A :class:`ServiceWorker` is a daemon thread owning one
:class:`~repro.runtime.executor.ExecutionEngine`.  It pulls claims from
a *job source*, runs each claim as a single-job batch through the
engine — inheriting its content-addressed cache check before any
dispatch, per-job timeout, bounded jittered retry, crash isolation and
optional process-pool fan-out — and settles the outcome back into the
source.

Two sources exist:

* the in-process :class:`~repro.runtime.service.api.ExecutionService`
  itself (``repro serve`` runs server + workers in one process), and
* :class:`RemoteQueueSource` — the same claim/settle contract spoken
  over a running server's ``/v1/claim`` / ``/v1/settle`` endpoints, so
  extra worker processes (on this or any other machine) can attach to
  one server and drain its queue.  Pointing their engines at a shared
  :class:`~repro.runtime.service.store.RemoteBackend` (or a
  :class:`~repro.runtime.service.store.TieredBackend` over it) is what
  dedupes work fleet-wide: the second worker to see a key finds the
  payload cached and dispatches nothing.

**Per-node health**: ``unhealthy_after`` consecutive infrastructure
failures (engine errors, source errors — *not* ordinary job failures)
mark the node unhealthy and stop its claim loop, so one sick node
degrades the fleet by exactly its own capacity instead of poisoning the
queue.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from time import monotonic, sleep
from typing import Any, Protocol

from ..executor import ExecutionEngine, JobResult
from ..jobs import JobSpec
from .queue import QueuedJob


class JobSource(Protocol):
    """Where a worker gets claims and returns settlements."""

    def claim_job(self, *, shard: int | None = None,
                  worker: str = "") -> QueuedJob | None:
        ...  # pragma: no cover - protocol

    def settle_job(self, job: QueuedJob, result: JobResult) -> None:
        ...  # pragma: no cover - protocol


class ServiceWorker(threading.Thread):
    """One claim→execute→settle loop (daemon thread).

    ``engine`` defaults to a fresh serial in-process engine; pass one
    configured with ``workers > 0`` to give this worker its own process
    pool, or with a cache backend to join the fleet-wide dedupe.
    ``shard`` pins the worker to one queue partition (``None`` = any).
    """

    def __init__(self, source: JobSource, *,
                 engine: ExecutionEngine | None = None,
                 name: str = "worker-0", shard: int | None = None,
                 tick: float = 0.05, unhealthy_after: int = 5) -> None:
        super().__init__(name=f"repro-{name}", daemon=True)
        self.source = source
        self.engine = engine if engine is not None else ExecutionEngine()
        self.worker_name = name
        self.shard = shard
        self.tick = tick
        self.unhealthy_after = unhealthy_after
        self.stop_event = threading.Event()
        self.healthy = True
        self.jobs_done = 0
        self.jobs_failed = 0
        self.consecutive_errors = 0
        self.last_error = ""

    # ------------------------------------------------------------------
    def run(self) -> None:  # pragma: no cover - exercised via service tests
        try:
            self.work_loop()
        finally:
            self.engine.close()

    def work_loop(self) -> None:
        """The claim loop (public so tests can drive it synchronously)."""
        while not self.stop_event.is_set():
            if not self.step():
                self.stop_event.wait(self.tick)

    def step(self) -> bool:
        """Claim and run at most one job; True when one was processed."""
        try:
            job = self.source.claim_job(shard=self.shard,
                                        worker=self.worker_name)
        except Exception as error:
            self._node_error(f"claim failed: {error}")
            return False
        if job is None:
            return False
        try:
            batch = self.engine.run([job.spec])
            result = batch[0]
        except Exception as error:
            self._node_error(f"engine failed on {job.key[:10]}: {error}")
            result = JobResult(job.spec, "failed", None,
                               error=f"worker infrastructure error: {error}")
        else:
            self.consecutive_errors = 0
        if result.ok:
            self.jobs_done += 1
        else:
            self.jobs_failed += 1
        try:
            self.source.settle_job(job, result)
        except Exception as error:
            self._node_error(f"settle failed for {job.key[:10]}: {error}")
        return True

    def _node_error(self, message: str) -> None:
        self.last_error = message
        self.consecutive_errors += 1
        if self.consecutive_errors >= self.unhealthy_after:
            self.healthy = False
            self.stop_event.set()

    # ------------------------------------------------------------------
    def stop(self, *, join_timeout: float = 5.0) -> None:
        self.stop_event.set()
        if self.is_alive():
            self.join(timeout=join_timeout)

    def report(self) -> dict[str, Any]:
        """This node's health record for ``/v1/metrics``."""
        record = {
            "name": self.worker_name,
            "shard": self.shard,
            "healthy": self.healthy,
            "alive": self.is_alive(),
            "jobs_done": self.jobs_done,
            "jobs_failed": self.jobs_failed,
            "consecutive_errors": self.consecutive_errors,
            "last_error": self.last_error,
        }
        # a RemoteBackend cache exposes its partition view (breaker
        # state, degradations) — surface it so /v1/metrics shows which
        # nodes are cut off from the shared store
        cache = getattr(self.engine, "cache", None)
        cache_report = getattr(cache, "report", None)
        if callable(cache_report):
            record["cache"] = cache_report()
        return record


@dataclass
class _RemoteClaim(QueuedJob):
    """A claim received over HTTP (shape-compatible with QueuedJob)."""


class RemoteQueueSource:
    """Claim/settle against a remote server's ``/v1`` endpoints.

    Wraps a :class:`~repro.runtime.service.client.ServiceClient`; the
    server enforces lease expiry (:meth:`ShardedQueue.requeue_expired`),
    so a remote worker that dies mid-claim merely delays its job.
    """

    def __init__(self, client) -> None:
        self.client = client

    def claim_job(self, *, shard: int | None = None,
                  worker: str = "") -> QueuedJob | None:
        claim = self.client.claim(shard=shard, worker=worker)
        if claim is None:
            return None
        return _RemoteClaim(JobSpec.from_dict(claim["spec"]),
                            claim.get("shard", 0), claim.get("seq", 0),
                            claimed_at=monotonic())

    def settle_job(self, job: QueuedJob, result: JobResult) -> None:
        self.client.settle(
            key=job.key, status=result.status,
            payload=result.payload if result.ok else None,
            error=result.error, attempts=result.attempts,
            timed_out=result.timed_out,
            queue_seconds=result.queue_seconds,
            run_seconds=result.run_seconds,
            sim_metrics=result.sim_metrics)


def attach_workers(source: JobSource, count: int, *,
                   engine_factory=None, name_prefix: str = "worker",
                   shards: int | None = None,
                   unhealthy_after: int = 5) -> list[ServiceWorker]:
    """Build (not start) ``count`` workers over one source.

    ``engine_factory()`` supplies each worker's engine (default: fresh
    serial engines).  With ``shards`` set, workers round-robin over the
    partitions so a fleet statically covers the whole keyspace.
    """
    workers = []
    for index in range(count):
        engine = engine_factory() if engine_factory is not None else None
        shard = index % shards if shards is not None else None
        workers.append(ServiceWorker(
            source, engine=engine, name=f"{name_prefix}-{index}",
            shard=shard, unhealthy_after=unhealthy_after))
    return workers


def drain(worker: ServiceWorker, *, idle_ticks: int = 3,
          max_seconds: float = 60.0) -> int:
    """Run a worker's loop inline until the source stays empty.

    Test/synchronous utility: processes jobs until ``idle_ticks``
    consecutive empty claims (or the deadline).  Returns jobs processed.
    """
    deadline = monotonic() + max_seconds
    processed = 0
    idle = 0
    while idle < idle_ticks and monotonic() < deadline:
        if worker.stop_event.is_set():
            break
        if worker.step():
            processed += 1
            idle = 0
        else:
            idle += 1
            sleep(worker.tick / 10)
    return processed
