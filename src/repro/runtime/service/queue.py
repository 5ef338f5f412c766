"""The service's durable sharded work queue.

Jobs enter the service as content-addressed
:class:`~repro.runtime.jobs.JobSpec`\\ s and park here until a worker
claims them.  Two properties make the queue a service-grade component
rather than a list:

**Sharding.**  Work is partitioned into ``shards`` independent FIFO
lanes by the stable function ``int(key, 16) % shards`` over the job's
SHA-256 key.  Because the key is content-addressed, the same spec lands
on the same shard on every node and across restarts — which is what
lets workers own disjoint shards, and makes "two workers settling
distinct shards into one journal" a well-defined (and tested) mode of
operation.  Claims across all shards come out in acceptance order.

**Durability.**  With a :class:`~repro.runtime.durable.Journal`
attached, every acceptance is fsynced as an ``accept`` record (carrying
the full spec — the WAL *is* the queue's persistent form) before
:meth:`submit` returns, and every completion as a standard ``settle``
record.  :meth:`ShardedQueue.resume` replays the log: accepted keys
without an ok settle are re-enqueued, settled payloads are handed back
for the result map — so a SIGKILLed server restarts with exactly the
work it had accepted and nothing re-executes that already finished
(at-least-once dispatch, exactly-once settle, same contract as the
batch engine's journal).

The one admission bound is ``max_pending``: past it, submissions are
shed with :class:`OverloadedError` (HTTP 503 + ``Retry-After``).
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from time import monotonic
from typing import Any, Mapping

from ...errors import DefinitionError, ExecutionError
from ..durable import Journal, read_journal, settle_record
from ..jobs import JobSpec

#: Journal record type for one accepted job (the WAL form of the queue).
ACCEPT_RECORD = "accept"


class OverloadedError(ExecutionError):
    """The queue is at ``max_pending``; the submission was shed.

    Overload is a whole-server health bound: accepting past it just
    converts fresh work into timeouts.  Shedding early with a ``Retry-After`` hint is
    deterministic (depth is exact, not probabilistic) and cheap — a
    refused job was never journalled, so there is nothing to undo.
    """

    def __init__(self, message: str, *, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


def shard_of(key: str, shards: int) -> int:
    """Stable shard assignment: ``int(key, 16) % shards``."""
    return int(key, 16) % shards


def accept_record(job: "QueuedJob") -> dict[str, Any]:
    """The WAL record that makes one accepted job durable."""
    return {"type": ACCEPT_RECORD, "key": job.spec.key, "shard": job.shard,
            "spec": job.spec.to_dict()}


@dataclass
class QueuedJob:
    """One accepted job waiting in (or claimed from) the queue."""

    spec: JobSpec
    shard: int
    seq: int
    claimed_at: float | None = None

    @property
    def key(self) -> str:
        return self.spec.key

    def as_dict(self) -> dict[str, Any]:
        return {"key": self.key, "kind": self.spec.kind,
                "label": self.spec.label, "shard": self.shard}


class ShardedQueue:
    """Thread-safe sharded FIFO queue, journal-backed when asked.

    Parameters
    ----------
    shards:
        Number of partitions; job → shard is ``int(key, 16) % shards``.
    journal:
        Optional :class:`Journal`; acceptances and settles are fsynced
        through it, making the queue crash-recoverable via
        :meth:`resume` / :func:`replay_queue_journal`.
    max_pending:
        Optional bound on total queued (unclaimed) depth; submissions
        past it raise :class:`OverloadedError` (HTTP 503 +
        ``Retry-After`` at the API).  ``None`` is unbounded.
    """

    def __init__(self, *, shards: int = 8, journal: Journal | None = None,
                 max_pending: int | None = None) -> None:
        if shards < 1:
            raise DefinitionError(f"shards must be >= 1, got {shards}")
        if max_pending is not None and max_pending < 1:
            raise DefinitionError(
                f"max_pending must be >= 1, got {max_pending}")
        self.shards = shards
        self.journal = journal
        self.max_pending = max_pending
        self.shed = 0
        self._lock = threading.Lock()
        self._lanes: list[deque[QueuedJob]] = [deque() for _ in range(shards)]
        self._queued: dict[str, QueuedJob] = {}
        self._claimed: dict[str, QueuedJob] = {}
        self._seq = 0

    # ------------------------------------------------------------------
    def submit(self, spec: JobSpec) -> QueuedJob:
        """Accept one job; durable once this returns.

        Idempotent per key: re-submitting a queued or claimed key
        returns the existing entry without a duplicate journal record.
        Raises :class:`OverloadedError` when the queue is at
        ``max_pending`` (counted, never journalled — a refused job was
        never accepted).
        """
        key = spec.key
        with self._lock:
            existing = self._queued.get(key) or self._claimed.get(key)
            if existing is not None:
                return existing
            if (self.max_pending is not None
                    and len(self._queued) >= self.max_pending):
                self.shed += 1
                raise OverloadedError(
                    f"queue is at max_pending={self.max_pending}; "
                    f"submission shed",
                    retry_after=max(0.1, 0.01 * self.max_pending))
            job = self._new_job(spec)
            if self.journal is not None:
                self.journal.append(accept_record(job))
            self._enqueue(job)
            return job

    def _new_job(self, spec: JobSpec) -> QueuedJob:
        self._seq += 1
        return QueuedJob(spec, shard_of(spec.key, self.shards), self._seq)

    def _enqueue(self, job: QueuedJob) -> None:
        self._lanes[job.shard].append(job)
        self._queued[job.spec.key] = job

    # ------------------------------------------------------------------
    def claim(self, *, shard: int | None = None) -> QueuedJob | None:
        """Pop the next job: the oldest in ``shard``, or overall.

        ``shard`` restricts the claim to one partition — how a fleet
        statically partitions work; ``None`` takes the oldest head
        across all shards.  The job moves to the *claimed* set until
        :meth:`settle` (or :meth:`requeue_expired`) disposes of it.
        """
        with self._lock:
            lanes = self._lanes if shard is None else [self._lanes[shard]]
            heads = [lane for lane in lanes if lane]
            if not heads:
                return None
            job = min(heads, key=lambda lane: lane[0].seq).popleft()
            del self._queued[job.key]
            job.claimed_at = monotonic()
            self._claimed[job.key] = job
            return job

    def settle(self, key: str, status: str, *, error: str = "",
               payload: Mapping[str, Any] | None = None) -> None:
        """Record a claimed job's final status (journalled durably)."""
        with self._lock:
            if self._claimed.pop(key, None) is None:
                job = self._queued.pop(key, None)
                if job is not None:  # settled without a claim (cache hit)
                    self._lanes[job.shard].remove(job)
            if self.journal is not None:
                self.journal.append(settle_record(
                    key, status, error=error, payload=payload))

    def requeue_expired(self, lease_seconds: float) -> list[str]:
        """Return claimed-but-unsettled jobs older than the lease.

        The at-least-once safety valve for *remote* workers: a worker
        that claimed over HTTP and then died never settles, so its
        claims eventually re-enter the queue (exactly-once settlement is
        preserved by the content-addressed cache: a re-executed job
        produces the identical payload).
        """
        now = monotonic()
        requeued: list[str] = []
        with self._lock:
            for key, job in list(self._claimed.items()):
                if (job.claimed_at is not None
                        and now - job.claimed_at > lease_seconds):
                    del self._claimed[key]
                    job.claimed_at = None
                    self._enqueue(job)
                    requeued.append(key)
        return requeued

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._queued)

    def depth(self) -> int:
        return len(self)

    def pending(self) -> list[QueuedJob]:
        """Queued jobs in claim order (snapshot)."""
        with self._lock:
            return sorted(self._queued.values(), key=lambda job: job.seq)

    def claimed(self) -> list[QueuedJob]:
        with self._lock:
            return sorted(self._claimed.values(), key=lambda job: job.seq)

    def stats(self) -> dict[str, Any]:
        """Queue observability: shard depths and totals."""
        with self._lock:
            shard_depths = [0] * self.shards
            for job in self._queued.values():
                shard_depths[job.shard] += 1
            return {
                "shards": self.shards,
                "depth": len(self._queued),
                "claimed": len(self._claimed),
                "shard_depths": shard_depths,
                "max_pending": self.max_pending,
                "shed": self.shed,
            }

    # ------------------------------------------------------------------
    def resume(self, path: str | Any) -> dict[str, dict[str, Any]]:
        """Rebuild queue state from a journal written by a dead server.

        Re-enqueues every accepted job without an ok settle (in original
        acceptance order) and returns ``key -> settle record`` for the
        ones that did settle ok, so the service can repopulate its
        result map.  Call before attaching
        the (re-opened, ``fresh=False``) journal's first new append.
        Only an accept record's ``key`` and ``spec`` are read, so extra
        fields written by older servers are ignored.
        """
        accepts, settles = replay_queue_journal(path)
        with self._lock:
            for key, record in accepts.items():
                settle = settles.get(key)
                if settle is not None and settle.get("payload") is not None:
                    continue  # finished: nothing to redo
                if key in self._queued or key in self._claimed:
                    continue
                self._enqueue(self._new_job(JobSpec.from_dict(record["spec"])))
        return {key: record for key, record in settles.items()
                if record.get("payload") is not None}


def replay_queue_journal(path) -> tuple[dict[str, dict[str, Any]],
                                        dict[str, dict[str, Any]]]:
    """Scan a queue journal: ``(accepts, settles)`` keyed by job key.

    Torn tails are repaired by :func:`read_journal`; within each map the
    latest record wins (re-acceptance after requeue, re-settle after a
    duplicate execution — both benign under content addressing).
    """
    accepts: dict[str, dict[str, Any]] = {}
    settles: dict[str, dict[str, Any]] = {}
    for record in read_journal(path):
        kind = record.get("type")
        if kind == ACCEPT_RECORD and "spec" in record:
            accepts[record["key"]] = record
        elif kind == "settle":
            settles[record["key"]] = record
    return accepts, settles
