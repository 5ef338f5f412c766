"""The batch engine: a process-pool fleet with fault isolation.

:class:`ExecutionEngine` runs :class:`~repro.runtime.jobs.JobSpec`
batches either serially in-process (``workers=0``, also the graceful
degradation path when a pool cannot be started) or on a
``ProcessPoolExecutor`` fleet.  The parallel path provides:

* **per-job timeout** — the in-flight window never exceeds the worker
  count, so a job starts (essentially) when submitted and its deadline
  is measured from that point; an expired job is charged an attempt and
  the pool is rebuilt to reclaim the stuck worker;
* **bounded retry with full-jitter exponential backoff** — a failed
  attempt requeues the job with a delay drawn uniformly from
  ``[0, backoff · 2^(attempt-1)]`` until the attempt budget
  (``retries + 1``) is spent.  The jitter matters at fleet scale: a
  deterministic delay would march every simultaneous failure back into
  the pool in lockstep;
* **crash isolation** — a killed worker breaks the whole
  ``ProcessPoolExecutor``, which cannot tell the engine *which* job was
  guilty.  The engine therefore voids the interrupted attempts, rebuilds
  the pool, and re-runs the suspects one at a time: a job that crashes
  alone is definitively guilty and is charged (and eventually failed),
  while the innocent bystanders complete normally.  Every pool reset
  either finalises or charges at least one job out of a finite attempt
  budget, so the loop terminates — the engine never deadlocks.  A job
  that keeps killing its worker spends its attempts and ends
  ``failed``; a hung one is caught by the timeout;
* **write-ahead journal** (:mod:`repro.runtime.durable`) — with a
  :class:`~repro.runtime.durable.Journal` attached, every dispatch and
  every settle is fsynced to disk before the engine moves on, so a
  SIGKILLed batch can be resumed (``resume_from=``) without re-running
  settled jobs;
* **graceful shutdown** — ``stop_event`` (typically wired to
  SIGTERM/SIGINT via :class:`~repro.runtime.resilience.GracefulShutdown`)
  stops dispatch at the next tick; unfinished jobs are finalised as
  ``interrupted``, the journal is already flushed per record, and the
  partial batch returns in order;
* **content-addressed caching** — with a
  :class:`~repro.runtime.cache.ResultCache` attached, jobs whose key is
  already stored are answered without any worker dispatch, and fresh
  successes are written back.

Results come back in submission order as :class:`JobResult` records
inside a :class:`BatchResult`, alongside the batch's aggregated
:class:`~repro.runtime.metrics.FleetMetrics`.
"""

from __future__ import annotations

import contextlib
import random
import threading
from collections import deque
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, Future, wait
from concurrent.futures.process import ProcessPoolExecutor
from dataclasses import dataclass
from time import monotonic, sleep
from typing import Any, Callable, Iterator, Mapping, Sequence

from ..errors import DefinitionError
from .cache import ResultCache
from .durable import Journal, dispatch_record, settle_record
from .jobs import JobSpec, canonical_json, execute_job
from .metrics import FleetMetrics

_TICK_SECONDS = 0.05

#: How long a terminated worker gets to exit before it is killed.
_REAP_SECONDS = 1.0

#: Statuses that count as a successful outcome.
_OK_STATUSES = ("ok", "cached", "replayed")


def _worker_run(spec_dict: dict) -> dict:
    """Top-level worker entry point (importable, hence spawn-safe).

    Converts exceptions into error records so an ordinary job failure
    travels back as data instead of breaking the pool; only a genuine
    worker death (SIGKILL, segfault) surfaces as a broken executor.
    """
    try:
        out = execute_job(spec_dict)
        return {"status": "ok", "payload": out["payload"],
                "sim_metrics": out.get("sim_metrics")}
    except Exception as error:
        return {"status": "error",
                "error": f"{type(error).__name__}: {error}"}


@dataclass
class JobResult:
    """Outcome of one job.

    ``status`` is one of ``ok`` (executed), ``cached`` (answered from
    the result cache), ``replayed`` (answered from a journal on resume),
    ``failed`` (attempt budget exhausted), or ``interrupted`` (batch
    was stopped before the job finished).
    """

    spec: JobSpec
    status: str
    payload: dict[str, Any] | None = None
    error: str = ""
    attempts: int = 0
    timed_out: bool = False
    queue_seconds: float = 0.0
    run_seconds: float = 0.0
    sim_metrics: dict[str, Any] | None = None

    @property
    def ok(self) -> bool:
        return self.status in _OK_STATUSES

    @property
    def key(self) -> str:
        return self.spec.key

    def payload_bytes(self) -> bytes:
        """Canonical byte encoding of the deterministic payload."""
        return canonical_json(self.payload).encode("ascii")

    def as_dict(self) -> dict[str, Any]:
        return {
            "key": self.key,
            "kind": self.spec.kind,
            "label": self.spec.label,
            "status": self.status,
            "error": self.error,
            "attempts": self.attempts,
            "timed_out": self.timed_out,
            "queue_seconds": self.queue_seconds,
            "run_seconds": self.run_seconds,
            "payload": self.payload,
        }


@dataclass
class BatchResult:
    """All job results of one batch, in submission order, plus metrics."""

    results: list[JobResult]
    metrics: FleetMetrics

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.results)

    @property
    def interrupted(self) -> bool:
        """True when the batch was stopped before every job finished."""
        return self.metrics.interrupted

    def failures(self) -> list[JobResult]:
        return [result for result in self.results if not result.ok]

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[JobResult]:
        return iter(self.results)

    def __getitem__(self, index: int) -> JobResult:
        return self.results[index]


@dataclass
class _Task:
    """Engine-internal mutable state of one not-yet-finished job."""

    index: int
    spec: JobSpec
    attempts: int = 0
    timed_out: bool = False
    error: str = ""
    not_before: float = 0.0      # backoff gate (monotonic time)
    ready_since: float = 0.0     # for queue-time accounting
    queue_seconds: float = 0.0
    run_seconds: float = 0.0


class ExecutionEngine:
    """Batch runner over serial or process-pool backends.

    Parameters
    ----------
    workers:
        Pool size; ``0`` selects serial in-process execution.
    timeout:
        Per-job wall-time limit in seconds (enforced on the pool backend;
        serial execution cannot preempt a running job and ignores it).
    retries:
        Additional attempts granted after a failed/timed-out/crashed
        attempt (total attempt budget is ``retries + 1``).
    backoff:
        Retry delay base: attempt ``n`` retries after a delay drawn
        uniformly from ``[0, backoff · 2^(n-1)]`` (full jitter).
    cache:
        Optional :class:`ResultCache`; hits skip dispatch entirely and
        fresh successes are stored back.
    journal:
        Optional :class:`~repro.runtime.durable.Journal`; every dispatch
        and settle is durably appended, making the batch resumable after
        SIGKILL via ``run(..., resume_from=...)``.
    jitter_seed:
        Seed for the retry-jitter RNG (``None`` = nondeterministic).
        Tests pin it to make backoff schedules reproducible.
    """

    def __init__(self, *, workers: int = 0, timeout: float | None = None,
                 retries: int = 1, backoff: float = 0.05,
                 cache: ResultCache | None = None,
                 journal: Journal | None = None,
                 jitter_seed: int | None = None) -> None:
        if workers < 0:
            raise ValueError("workers must be >= 0")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if backoff < 0:
            raise DefinitionError(f"backoff base must be >= 0, got {backoff}")
        self.workers = workers
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.cache = cache
        self.journal = journal
        self.metrics: FleetMetrics | None = None  # last batch's aggregate
        self._jitter = random.Random(jitter_seed)
        self._pool: ProcessPoolExecutor | None = None
        self._on_result: Callable[[JobResult], None] | None = None

    # ------------------------------------------------------------------
    def __enter__(self) -> "ExecutionEngine":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def close(self) -> None:
        """Shut the pool down, terminating any lingering workers."""
        self._teardown_pool()

    # ------------------------------------------------------------------
    def _retry_delay(self, attempts: int) -> float:
        """Full-jitter backoff: uniform over [0, backoff · 2^(n-1)]."""
        return self._jitter.uniform(0.0, self.backoff * 2 ** (attempts - 1))

    # ------------------------------------------------------------------
    def run(self, specs: Sequence[JobSpec], *,
            on_result: Callable[[JobResult], None] | None = None,
            stop_event: threading.Event | None = None,
            resume_from: Mapping[str, dict[str, Any] | None] | None = None
            ) -> BatchResult:
        """Execute a batch; results come back in submission order.

        ``on_result`` is invoked once per job the moment it reaches a
        final status — the streaming hook journalling callers use.
        ``stop_event`` requests a graceful stop: dispatch halts at the
        next tick and unfinished jobs finalise as ``interrupted``
        (``KeyboardInterrupt`` mid-batch behaves the same way).
        ``resume_from`` maps content-addressed keys to previously
        settled payloads (e.g. from :func:`~repro.runtime.durable.
        read_journal`); matching jobs are answered as ``replayed``
        without dispatch.
        """
        started = monotonic()
        metrics = FleetMetrics(workers=self.workers)
        results: list[JobResult | None] = [None] * len(specs)
        self._on_result = on_result
        pending: deque[_Task] = deque()
        try:
            for index, spec in enumerate(specs):
                if resume_from is not None and spec.key in resume_from:
                    self._finalize(results, index, JobResult(
                        spec, "replayed", resume_from[spec.key]))
                    continue
                if self.cache is not None:
                    payload = self.cache.get(spec.key)
                    if payload is not None:
                        self._finalize(results, index,
                                       JobResult(spec, "cached", payload))
                        continue
                pending.append(_Task(index, spec, ready_since=started))

            if pending:
                if self.workers == 0:
                    self._run_serial(pending, results, stop_event)
                elif self._ensure_pool() is None:
                    metrics.degraded_to_serial = True
                    self._run_serial(pending, results, stop_event)
                else:
                    self._run_parallel(pending, results, metrics, stop_event)
        except KeyboardInterrupt:
            metrics.interrupted = True
            self._teardown_pool()
        if stop_event is not None and stop_event.is_set():
            metrics.interrupted = True

        # finalise whatever never finished (graceful stop / interrupt)
        for index, spec in enumerate(specs):
            if results[index] is None:
                metrics.interrupted = True
                self._finalize(results, index, JobResult(
                    spec, "interrupted", None,
                    error="batch stopped before this job finished"))

        finished: list[JobResult] = [r for r in results if r is not None]
        assert len(finished) == len(specs), "engine lost a job"
        for result in finished:
            metrics.record(result)
        metrics.wall_seconds = monotonic() - started
        self.metrics = metrics
        self._on_result = None
        return BatchResult(finished, metrics)

    # ------------------------------------------------------------------
    def _finalize(self, results: list[JobResult | None], index: int,
                  result: JobResult) -> None:
        """Commit one final status: results slot, journal, callback."""
        results[index] = result
        if self.journal is not None and not self.journal.closed:
            self.journal.append(settle_record(
                result.key, result.status, error=result.error,
                payload=result.payload if result.ok else None))
        if self._on_result is not None:
            self._on_result(result)

    def _journal_dispatch(self, task: _Task) -> None:
        if self.journal is not None and not self.journal.closed:
            self.journal.append(dispatch_record(task.spec.key, task.attempts))

    # ------------------------------------------------------------------
    # serial backend (workers=0, or degradation when the pool won't start)
    # ------------------------------------------------------------------
    def _run_serial(self, pending: deque[_Task],
                    results: list[JobResult | None],
                    stop_event: threading.Event | None = None) -> None:
        for task in pending:
            if stop_event is not None and stop_event.is_set():
                return
            while True:
                task.attempts += 1
                self._journal_dispatch(task)
                if (task.spec.kind == "probe"
                        and task.spec.params.get("action") == "crash"):
                    # in-process, this would kill the engine itself
                    out = {"status": "error",
                           "error": "ExecutionError: crash probe requires "
                                    "a process-pool backend (workers > 0)"}
                else:
                    attempt_started = monotonic()
                    out = _worker_run(task.spec.to_dict())
                    task.run_seconds += monotonic() - attempt_started
                if out["status"] == "ok":
                    self._finalize(results, task.index,
                                   self._success(task, out))
                    break
                task.error = out["error"]
                if task.attempts > self.retries:
                    self._finalize(results, task.index, self._failure(task))
                    break
                sleep(self._retry_delay(task.attempts))

    # ------------------------------------------------------------------
    # process-pool backend
    # ------------------------------------------------------------------
    def _run_parallel(self, pending: deque[_Task],
                      results: list[JobResult | None],
                      metrics: FleetMetrics,
                      stop_event: threading.Event | None = None) -> None:
        inflight: dict[Future, tuple[_Task, float]] = {}
        suspects: deque[_Task] = deque()  # post-crash isolation queue
        pool_dead = False

        def stopped() -> bool:
            return stop_event is not None and stop_event.is_set()

        def submit(task: _Task, queue: deque[_Task]) -> bool:
            """Dispatch one attempt of ``task``, just popped from ``queue``.

            Returns False, with ``task`` back at the front of ``queue``,
            when no pool can be started.  A worker that died after the
            last wait makes the pool refuse the dispatch: ``task`` goes
            back the same way, uncharged, and the crash is handled as the
            wait loop handles it.
            """
            pool = self._ensure_pool()
            if pool is None:
                queue.appendleft(task)
                return False
            try:
                future = pool.submit(_worker_run, task.spec.to_dict())
            except BrokenExecutor:
                queue.appendleft(task)
                pool_broke()
                return True
            now = monotonic()
            task.attempts += 1
            task.queue_seconds += max(now - max(task.ready_since,
                                                task.not_before), 0.0)
            self._journal_dispatch(task)
            inflight[future] = (task, now)
            return True

        def requeue(task: _Task, *, delay: float = 0.0,
                    suspect: bool = False) -> None:
            now = monotonic()
            task.ready_since = now
            task.not_before = now + delay
            (suspects if suspect else pending).append(task)

        def settle_failure(task: _Task, error: str, *, timed_out: bool = False,
                           suspect: bool = False) -> None:
            """Charge one failed attempt; retry with backoff or finalise."""
            task.error = error
            task.timed_out = task.timed_out or timed_out
            if task.attempts > self.retries:
                self._finalize(results, task.index, self._failure(task))
            else:
                requeue(task, delay=self._retry_delay(task.attempts),
                        suspect=suspect)

        def reset_pool(interrupted: list[_Task], *, crashed: bool) -> None:
            """Rebuild the pool after a crash or a timeout expiry."""
            metrics.pool_resets += 1
            self._teardown_pool()
            if crashed and len(interrupted) == 1:
                # a job that dies alone is definitively guilty; keep it in
                # isolation for any retry it has left
                settle_failure(interrupted[0], "worker process died",
                               suspect=True)
            elif crashed:
                # guilt unknown: void the interrupted attempts and re-run
                # the suspects one at a time so the culprit self-identifies
                for task in interrupted:
                    task.attempts -= 1
                    requeue(task, suspect=True)
            else:
                for task in interrupted:  # innocent bystanders of a timeout
                    task.attempts -= 1
                    requeue(task)

        def pool_broke() -> None:
            """A worker died: every in-flight attempt is a crash suspect."""
            interrupted = [task for task, _ in inflight.values()]
            inflight.clear()
            reset_pool(interrupted, crashed=True)

        while (pending or suspects or inflight) and not pool_dead:
            if stopped():
                break
            now = monotonic()
            # top up the window; suspects run strictly isolated
            if suspects:
                if not inflight:
                    if suspects[0].not_before <= now:
                        if not submit(suspects.popleft(), suspects):
                            pool_dead = True
                            continue
                    else:
                        sleep(_TICK_SECONDS)
                        continue
                # else: drain the in-flight window before isolating suspects
            else:
                while pending and len(inflight) < self.workers:
                    task = self._pop_ready(pending, now)
                    if task is None:
                        break
                    if not submit(task, pending):
                        pool_dead = True
                        break
                if pool_dead:
                    continue
                if not inflight:
                    sleep(_TICK_SECONDS)  # every pending job is backing off
                    continue

            done, _ = wait(set(inflight), timeout=_TICK_SECONDS,
                           return_when=FIRST_COMPLETED)
            broken = False
            for future in done:
                if future not in inflight:
                    continue
                task, submitted_at = inflight.pop(future)
                try:
                    out = future.result()
                except BrokenExecutor:
                    inflight[future] = (task, submitted_at)  # keep for reset
                    broken = True
                    break
                except Exception as error:  # unpicklable result, …
                    task.run_seconds += monotonic() - submitted_at
                    settle_failure(task, f"{type(error).__name__}: {error}")
                    continue
                task.run_seconds += monotonic() - submitted_at
                if out["status"] == "ok":
                    self._finalize(results, task.index,
                                   self._success(task, out))
                else:
                    settle_failure(task, out["error"])
            if broken:
                pool_broke()
                continue

            if self.timeout is not None and inflight:
                now = monotonic()
                expired = [(future, task, submitted_at)
                           for future, (task, submitted_at) in inflight.items()
                           if now - submitted_at > self.timeout]
                if expired:
                    expired_futures = {future for future, _, _ in expired}
                    bystanders = [task for future, (task, _)
                                  in inflight.items()
                                  if future not in expired_futures]
                    for _, task, submitted_at in expired:
                        task.run_seconds += now - submitted_at
                        settle_failure(task,
                                       f"timed out after {self.timeout:g}s",
                                       timed_out=True)
                    inflight.clear()
                    reset_pool(bystanders, crashed=False)

        if stopped():
            self._teardown_pool()
            return  # unfinished jobs finalise as interrupted in run()

        # the pool could not be rebuilt: drain the remainder serially
        leftovers: deque[_Task] = deque()
        leftovers.extend(suspects)
        leftovers.extend(sorted(pending, key=lambda t: t.index))
        if leftovers:
            metrics.degraded_to_serial = True
            self._run_serial(leftovers, results, stop_event)

    @staticmethod
    def _pop_ready(queue: deque[_Task], now: float) -> _Task | None:
        """Remove and return the first task whose backoff gate is open."""
        for _ in range(len(queue)):
            task = queue.popleft()
            if task.not_before <= now:
                return task
            queue.append(task)
        return None

    # ------------------------------------------------------------------
    def _success(self, task: _Task, out: dict) -> JobResult:
        payload = out["payload"]
        if self.cache is not None:
            self.cache.put(task.spec.key, task.spec.kind, payload)
        return JobResult(task.spec, "ok", payload,
                         attempts=task.attempts, timed_out=task.timed_out,
                         queue_seconds=task.queue_seconds,
                         run_seconds=task.run_seconds,
                         sim_metrics=out.get("sim_metrics"))

    @staticmethod
    def _failure(task: _Task) -> JobResult:
        return JobResult(task.spec, "failed", None, error=task.error,
                         attempts=task.attempts, timed_out=task.timed_out,
                         queue_seconds=task.queue_seconds,
                         run_seconds=task.run_seconds)

    # ------------------------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor | None:
        if self._pool is None:
            try:
                self._pool = ProcessPoolExecutor(max_workers=self.workers)
            except Exception:
                self._pool = None
        return self._pool

    def _teardown_pool(self) -> None:
        pool, self._pool = self._pool, None
        if pool is None:
            return
        processes = list((getattr(pool, "_processes", None) or {}).values())
        for process in processes:
            with contextlib.suppress(Exception):
                process.terminate()
        # Reap the workers, then wait for the pool's manager thread: with
        # its workers gone it closes its wakeup pipe and exits at once.
        # Left running, it races the interpreter's exit hook, which then
        # writes to the closed pipe ("Bad file descriptor" on stderr).
        for process in processes:
            with contextlib.suppress(Exception):
                process.join(timeout=_REAP_SECONDS)
                if process.is_alive():
                    process.kill()
                    process.join()
        with contextlib.suppress(Exception):
            pool.shutdown(wait=True, cancel_futures=True)
