"""The execution service: HTTP/JSON API over the sharded queue.

:class:`ExecutionService` is the composition root — queue + store +
workers + metrics behind one thread-safe facade — and
:func:`make_server` wraps it in a stdlib ``ThreadingHTTPServer``.  The
API speaks the existing declarative job-spec JSON **verbatim**: the
body of ``POST /v1/jobs`` is exactly a :meth:`JobSpec.to_dict
<repro.runtime.jobs.JobSpec.to_dict>` document (or a job file's
``{"jobs": [...]}``), so a spec submitted over HTTP hashes to the same
content-addressed SHA-256 key as the same spec run by ``repro batch``,
and its cached payload is byte-identical on disk.

Endpoints
---------

====================  ======================================================
``POST /v1/jobs``     Submit one spec or a batch; per-item states; 503
                      when every item was shed.
``GET /v1/jobs/K``    Status + result of job key ``K`` (404 unknown).
``GET /v1/queue``     Queue snapshot: shard depths, pending, running.
``GET /v1/metrics``   Service counters, worker health, aggregated
                      FleetMetrics.
``GET /v1/healthz``   Liveness (also reports version and uptime).
``GET /v1/cache/K``   Shared-store read (the RemoteBackend wire protocol).
``PUT /v1/cache/K``   Shared-store publish.
``POST /v1/claim``    Hand one queued job to a (remote) worker.
``POST /v1/settle``   Accept a worker's final status for a claimed job.
====================  ======================================================

Durability: with a journal attached, every *accept* is fsynced before
the submit response leaves, and every *settle* before the job's state
flips — SIGKILL the server at any point, restart with ``resume=True``,
and accepted-but-unsettled work is re-queued while settled work replays
from the log (at-least-once dispatch, exactly-once settle).

Overload and failure behaviour (the chaos-hardening contract):

* **Load shedding** is deterministic, not probabilistic: the queue
  refuses past ``max_pending`` with 503 and a ``Retry-After`` hint so
  resilient clients re-arrive politely.
* **Deadline budgets** travel in the ``X-Repro-Deadline`` header; a
  request whose budget is already spent (e.g. it sat in a queue or a
  slow network leg) is answered 504 before any work happens.
* **Graceful drain** (SIGTERM path): new submissions are shed with 503
  while status/metrics GETs keep answering, in-flight claims settle,
  then the WAL is fsynced and closed — no accepted job is lost, no
  result is half-written.
* Every injected fault a chaos proxy stamps into ``X-Repro-Chaos`` and
  every deduplicated resubmission is counted in ``/v1/metrics``, so a
  chaos run can *prove* faults fired and retries recovered.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from time import monotonic, sleep
from typing import Any, Mapping

from ... import __version__
from ...errors import DefinitionError
from ..durable import Journal
from ..executor import ExecutionEngine, JobResult
from ..jobs import JobSpec
from ..metrics import FleetMetrics
from ..resilience import CHAOS_HEADER, DEADLINE_HEADER, parse_retry_after
from .queue import OverloadedError, QueuedJob, ShardedQueue
from .store import CacheBackend
from .worker import ServiceWorker, attach_workers

#: Job lifecycle states reported by ``GET /v1/jobs/{key}``.
JOB_STATES = ("queued", "running", "done", "failed")


class ExecutionService:
    """Long-lived façade: accept jobs, queue them, run them, serve results.

    Parameters
    ----------
    store:
        The result backend shared by every worker engine (default: an
        in-memory-less local dir is *not* created — pass one; the CLI
        builds a :class:`LocalDirBackend`).  ``None`` disables caching.
    journal_path / resume:
        Queue WAL.  With ``resume=True`` an existing log is replayed
        first: settled jobs come back as ``done``, accepted ones re-queue.
    shards:
        Queue partition count.
    workers / engine_factory:
        How many in-process worker threads to run and how to build each
        one's engine (default: serial engines wired to ``store``).
    lease_seconds:
        Claims older than this are re-queued (remote-worker death
        insurance).  ``None`` disables lease expiry.
    max_pending:
        Bound on queued (unclaimed) depth; submissions past it are shed
        with 503 + ``Retry-After`` (see :class:`OverloadedError`).
    """

    def __init__(self, *, store: CacheBackend | None = None,
                 journal_path: str | None = None, resume: bool = False,
                 shards: int = 8, workers: int = 1,
                 engine_factory=None, lease_seconds: float | None = 60.0,
                 unhealthy_after: int = 5,
                 max_pending: int | None = None) -> None:
        self.store = store
        self.journal = (Journal(journal_path, fresh=not resume)
                        if journal_path is not None else None)
        self.queue = ShardedQueue(shards=shards, journal=None,
                                  max_pending=max_pending)
        self.lease_seconds = lease_seconds
        self._lock = threading.Lock()
        self._jobs: dict[str, dict[str, Any]] = {}
        self._running: dict[str, QueuedJob] = {}
        self.fleet = FleetMetrics(workers=workers)
        self.started_at = monotonic()
        self._lease_checked = 0.0
        self.accepted = 0
        self.completed = 0
        self.failed = 0
        self.replayed = 0
        self.resubmissions = 0       # dedupe hits = client retries observed
        self.deadline_rejected = 0   # requests 504ed with a spent budget
        self.chaos_observed: dict[str, int] = {}  # X-Repro-Chaos sightings
        self.draining = False
        if resume and journal_path is not None:
            settled = self.queue.resume(journal_path)
            with self._lock:
                for key, record in settled.items():
                    self.replayed += 1
                    self._jobs[key] = {
                        "key": key, "state": "done",
                        "status": "replayed",
                        "payload": record.get("payload"),
                        "error": "", "attempts": 0, "kind": "", "label": "",
                    }
                for job in self.queue.pending():
                    self._jobs[job.key] = self._queued_record(job)
        self.queue.journal = self.journal  # WAL attaches after replay

        if engine_factory is None:
            def engine_factory() -> ExecutionEngine:
                return ExecutionEngine(cache=self.store)
        self.workers: list[ServiceWorker] = attach_workers(
            self, workers, engine_factory=engine_factory,
            unhealthy_after=unhealthy_after)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        for worker in self.workers:
            worker.start()

    def stop(self) -> None:
        for worker in self.workers:
            worker.stop_event.set()
        for worker in self.workers:
            worker.stop()
        if self.journal is not None:
            self.journal.close()

    def __enter__(self) -> "ExecutionService":
        self.start()
        return self

    def __exit__(self, *_exc) -> None:
        self.stop()

    def begin_drain(self) -> None:
        """Stop accepting new work; everything else keeps answering."""
        self.draining = True

    def drain(self, *, grace: float = 10.0, poll: float = 0.05) -> bool:
        """Wait (up to ``grace`` seconds) for accepted work to settle.

        Call after :meth:`begin_drain`.  Returns True when the queue and
        the running set emptied in time — the clean-shutdown signal the
        CLI reports.  The WAL is *not* closed here (that is
        :meth:`stop`); this only waits for the work.
        """
        deadline = monotonic() + grace
        while monotonic() < deadline:
            with self._lock:
                running = len(self._running)
            if len(self.queue) == 0 and running == 0:
                return True
            sleep(poll)
        with self._lock:
            running = len(self._running)
        return len(self.queue) == 0 and running == 0

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    @staticmethod
    def _queued_record(job: QueuedJob) -> dict[str, Any]:
        return {"key": job.key, "state": "queued", "status": "queued",
                "payload": None, "error": "", "attempts": 0,
                "kind": job.spec.kind, "label": job.spec.label}

    def submit(self, spec: JobSpec) -> dict[str, Any]:
        """Accept one spec; returns its state record.

        Content addressing makes this idempotent and deduplicating:
        a key already done (or present in the store) is answered
        immediately; a key already queued/running is not re-queued.
        Raises :class:`OverloadedError` when the queue is full.
        """
        key = spec.key
        with self._lock:
            record = self._jobs.get(key)
            if record is not None and record["state"] != "failed":
                # a key we already hold: either a duplicate spec in the
                # same batch or a client retry whose first submit *did*
                # land — the count is the server-side proof that retried
                # submissions deduplicate instead of double-executing
                self.resubmissions += 1
                return dict(record)
        if self.store is not None:
            payload = self.store.get(key)
            if payload is not None:
                with self._lock:
                    record = {
                        "key": key, "state": "done", "status": "cached",
                        "payload": payload, "error": "", "attempts": 0,
                        "kind": spec.kind, "label": spec.label,
                    }
                    self._jobs[key] = record
                    self.accepted += 1
                    self.completed += 1
                    return dict(record)
        job = self.queue.submit(spec)
        with self._lock:
            record = self._queued_record(job)
            self._jobs[key] = record
            self.accepted += 1
            return dict(record)

    def submit_many(self, specs) -> list[dict[str, Any]]:
        """Submit a batch; shed items come back as state records.

        ``state="shed"`` (queue at ``max_pending``) is per-item, so one
        refused spec does not fail the batch; resilient clients retry
        just those.
        """
        records = []
        for spec in specs:
            try:
                records.append(self.submit(spec))
            except OverloadedError as error:
                records.append({
                    "key": spec.key, "state": "shed", "status": "shed",
                    "payload": None, "error": str(error), "attempts": 0,
                    "kind": spec.kind, "label": spec.label,
                    "retry_after": error.retry_after})
        return records

    # ------------------------------------------------------------------
    # worker side (local threads and remote HTTP workers both land here)
    # ------------------------------------------------------------------
    def claim_job(self, *, shard: int | None = None,
                  worker: str = "") -> QueuedJob | None:
        if self.lease_seconds is not None:
            now = monotonic()
            if now - self._lease_checked > self.lease_seconds / 2:
                self._lease_checked = now
                for key in self.queue.requeue_expired(self.lease_seconds):
                    with self._lock:
                        record = self._jobs.get(key)
                        if record is not None and record["state"] == "running":
                            record["state"] = "queued"
                            record["status"] = "queued"
        job = self.queue.claim(shard=shard)
        if job is None:
            return None
        with self._lock:
            self._running[job.key] = job
            record = self._jobs.get(job.key)
            if record is not None:
                record["state"] = "running"
                record["status"] = "running"
                record["worker"] = worker
        return job

    def settle_job(self, job: QueuedJob, result: JobResult) -> None:
        """Fold one worker outcome in: queue WAL, state map, metrics."""
        ok = result.ok
        self.queue.settle(job.key, result.status, error=result.error,
                          payload=result.payload if ok else None)
        with self._lock:
            self._running.pop(job.key, None)
            self._jobs[job.key] = {
                "key": job.key, "state": "done" if ok else "failed",
                "status": result.status, "payload": result.payload,
                "error": result.error, "attempts": result.attempts,
                "run_seconds": result.run_seconds,
                "kind": job.spec.kind, "label": job.spec.label,
            }
            if ok:
                self.completed += 1
            else:
                self.failed += 1
            self.fleet.record(result)

    def settle_remote(self, key: str, *, status: str,
                      payload: Mapping[str, Any] | None = None,
                      error: str = "", attempts: int = 0,
                      timed_out: bool = False, queue_seconds: float = 0.0,
                      run_seconds: float = 0.0,
                      sim_metrics: Mapping[str, Any] | None = None) -> bool:
        """HTTP settle: reconstruct the claim, then the normal path.

        Returns False for a key this server has no outstanding claim
        for (double settle after a lease expiry — dropped, because the
        other execution's settle already won; exactly-once settlement).
        """
        with self._lock:
            job = self._running.get(key)
        if job is None:
            return False
        result = JobResult(
            job.spec, status, dict(payload) if payload is not None else None,
            error=error, attempts=attempts, timed_out=timed_out,
            queue_seconds=queue_seconds, run_seconds=run_seconds,
            sim_metrics=dict(sim_metrics) if sim_metrics else None)
        if result.ok and self.store is not None and result.payload is not None:
            # remote workers may not share the server's store; publish
            # so later submissions of the same key are cache hits
            if key not in self.store:
                self.store.put(key, job.spec.kind, result.payload)
        self.settle_job(job, result)
        return True

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def job_record(self, key: str) -> dict[str, Any] | None:
        with self._lock:
            record = self._jobs.get(key)
            return dict(record) if record is not None else None

    def queue_snapshot(self, *, limit: int = 100) -> dict[str, Any]:
        snapshot = self.queue.stats()
        snapshot["pending"] = [job.as_dict()
                               for job in self.queue.pending()[:limit]]
        snapshot["running"] = [job.as_dict()
                               for job in self.queue.claimed()[:limit]]
        return snapshot

    def metrics(self) -> dict[str, Any]:
        with self._lock:
            fleet = self.fleet.as_dict()
            service = {
                "accepted": self.accepted,
                "completed": self.completed,
                "failed": self.failed,
                "replayed": self.replayed,
                "running": len(self._running),
                "uptime_seconds": monotonic() - self.started_at,
                "version": __version__,
                "draining": self.draining,
            }
            resilience = {
                "resubmissions": self.resubmissions,
                "shed": self.queue.shed,
                "deadline_rejected": self.deadline_rejected,
                "chaos_observed": dict(self.chaos_observed),
            }
        return {
            "service": service,
            "resilience": resilience,
            "queue": self.queue.stats(),
            "workers": [worker.report() for worker in self.workers],
            "fleet": fleet,
        }

    def observe_chaos(self, header: str | None) -> None:
        """Count fault kinds a chaos proxy stamped into the request."""
        if not header:
            return
        with self._lock:
            for kind in header.split(","):
                kind = kind.strip()
                if kind:
                    self.chaos_observed[kind] = \
                        self.chaos_observed.get(kind, 0) + 1

    def healthz(self) -> dict[str, Any]:
        return {
            "ok": all(worker.healthy for worker in self.workers),
            "version": __version__,
            "uptime_seconds": monotonic() - self.started_at,
            "workers": sum(1 for worker in self.workers if worker.is_alive()),
            "draining": self.draining,
        }


# ---------------------------------------------------------------------------
# the HTTP layer
# ---------------------------------------------------------------------------
class _ServiceHandler(BaseHTTPRequestHandler):
    """Routes ``/v1/*`` onto the service.  One instance per request."""

    server_version = f"repro-serve/{__version__}"
    protocol_version = "HTTP/1.1"

    @property
    def service(self) -> ExecutionService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if getattr(self.server, "verbose", False):  # pragma: no cover
            super().log_message(format, *args)

    # ------------------------------------------------------------------
    def _send(self, code: int, body: Mapping[str, Any] | list, *,
              retry_after: float | None = None) -> None:
        data = json.dumps(body, sort_keys=True).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        if retry_after is not None:
            self.send_header("Retry-After", f"{retry_after:g}")
        self.end_headers()
        self.wfile.write(data)

    def _send_empty(self, code: int) -> None:
        self.send_response(code)
        self.send_header("Content-Length", "0")
        self.end_headers()

    def _read_body(self) -> Any:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            return json.loads(raw.decode("utf-8"))
        except ValueError:
            return None

    def _route(self) -> str:
        """The request path without query string or trailing slash."""
        path = self.path.partition("?")[0]
        return path.rstrip("/") or "/"

    # ------------------------------------------------------------------
    def _gate_mutation(self) -> bool:
        """Deadline admission for POST/PUT (GETs stay free).

        Returns False after answering 504 (the request's
        ``X-Repro-Deadline`` budget is already spent).
        """
        self.service.observe_chaos(self.headers.get(CHAOS_HEADER))
        budget = parse_retry_after(self.headers.get(DEADLINE_HEADER))
        if budget is not None and budget <= 0.0:
            with self.service._lock:
                self.service.deadline_rejected += 1
            self._send(504, {"error": "deadline budget already spent"})
            return False
        return True

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path = self._route()
        self.service.observe_chaos(self.headers.get(CHAOS_HEADER))
        try:
            if path == "/v1/healthz":
                self._send(200, self.service.healthz())
            elif path == "/v1/metrics":
                self._send(200, self.service.metrics())
            elif path == "/v1/queue":
                self._send(200, self.service.queue_snapshot())
            elif path.startswith("/v1/jobs/"):
                record = self.service.job_record(path[len("/v1/jobs/"):])
                if record is None:
                    self._send(404, {"error": "unknown job key"})
                else:
                    self._send(200, record)
            elif path.startswith("/v1/cache/"):
                key = path[len("/v1/cache/"):]
                store = self.service.store
                payload = store.get(key) if store is not None else None
                if payload is None:
                    self._send(404, {"error": "cache miss", "key": key})
                else:
                    self._send(200, {"key": key, "payload": payload})
            else:
                self._send(404, {"error": f"no such endpoint {path!r}"})
        except Exception as error:  # pragma: no cover - handler fail-safe
            self._send(500, {"error": f"{type(error).__name__}: {error}"})

    def do_PUT(self) -> None:  # noqa: N802
        path = self._route()
        if not self._gate_mutation():
            return
        try:
            if path.startswith("/v1/cache/"):
                key = path[len("/v1/cache/"):]
                body = self._read_body()
                if (not isinstance(body, dict)
                        or not isinstance(body.get("payload"), dict)):
                    self._send(400, {"error": "body must be "
                                              '{"kind", "payload"}'})
                    return
                store = self.service.store
                if store is None:
                    self._send(503, {"error": "server has no result store"})
                    return
                store.put(key, str(body.get("kind", "remote")),
                          body["payload"])
                self._send(200, {"key": key, "stored": True})
            else:
                self._send(404, {"error": f"no such endpoint {path!r}"})
        except Exception as error:  # pragma: no cover - handler fail-safe
            self._send(500, {"error": f"{type(error).__name__}: {error}"})

    def do_POST(self) -> None:  # noqa: N802
        path = self._route()
        if not self._gate_mutation():
            return
        try:
            if path == "/v1/jobs":
                self._post_jobs()
            elif path == "/v1/claim":
                self._post_claim()
            elif path == "/v1/settle":
                self._post_settle()
            else:
                self._send(404, {"error": f"no such endpoint {path!r}"})
        except Exception as error:  # pragma: no cover - handler fail-safe
            self._send(500, {"error": f"{type(error).__name__}: {error}"})

    # ------------------------------------------------------------------
    def _post_jobs(self) -> None:
        if self.service.draining:
            self._send(503, {"error": "server is draining; "
                                      "resubmit elsewhere or later"},
                       retry_after=1.0)
            return
        body = self._read_body()
        if body is None:
            self._send(400, {"error": "request body is not valid JSON"})
            return
        if isinstance(body, dict) and "jobs" in body:
            entries = body["jobs"]
        elif isinstance(body, list):
            entries = body
        elif isinstance(body, dict) and "kind" in body:
            entries = [body]
        else:
            self._send(400, {"error": "body must be a job spec, a list of "
                                      'specs, or {"jobs": [...]}'})
            return
        try:
            specs = [JobSpec.from_dict(entry) for entry in entries]
        except (DefinitionError, KeyError, TypeError) as error:
            self._send(400, {"error": f"bad job spec: {error}"})
            return
        records = self.service.submit_many(specs)
        shed = sum(1 for r in records if r["state"] == "shed")
        code, retry_after = 200, None
        if records and shed == len(records):
            # nothing got in at all: a plain 503 + Retry-After, so even
            # the dumbest client knows when to come back
            code = 503
            retry_after = max(r["retry_after"] for r in records)
        self._send(code, {
            "results": records,
            "accepted": len(records) - shed,
            "shed": shed,
        }, retry_after=retry_after)

    def _post_claim(self) -> None:
        body = self._read_body() or {}
        shard = body.get("shard") if isinstance(body, dict) else None
        worker = (body.get("worker", "") if isinstance(body, dict) else "")
        job = self.service.claim_job(
            shard=int(shard) if shard is not None else None,
            worker=str(worker))
        if job is None:
            self._send_empty(204)
            return
        self._send(200, {"key": job.key, "spec": job.spec.to_dict(),
                         "shard": job.shard, "seq": job.seq})

    def _post_settle(self) -> None:
        body = self._read_body()
        if not isinstance(body, dict) or "key" not in body:
            self._send(400, {"error": 'body must carry "key" and "status"'})
            return
        accepted = self.service.settle_remote(
            body["key"], status=str(body.get("status", "failed")),
            payload=body.get("payload"), error=str(body.get("error", "")),
            attempts=int(body.get("attempts", 0)),
            timed_out=bool(body.get("timed_out", False)),
            queue_seconds=float(body.get("queue_seconds", 0.0)),
            run_seconds=float(body.get("run_seconds", 0.0)),
            sim_metrics=body.get("sim_metrics"))
        if not accepted:
            self._send(409, {"error": "no outstanding claim for this key "
                                      "(lease expired or double settle)"})
            return
        self._send(200, {"key": body["key"], "settled": True})


class ServiceServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying its :class:`ExecutionService`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: tuple[str, int],
                 service: ExecutionService, *,
                 verbose: bool = False) -> None:
        super().__init__(address, _ServiceHandler)
        self.service = service
        self.verbose = verbose


def make_server(service: ExecutionService, *, host: str = "127.0.0.1",
                port: int = 0, verbose: bool = False) -> ServiceServer:
    """Bind the HTTP server (``port=0`` picks a free port)."""
    return ServiceServer((host, port), service, verbose=verbose)


def serve_forever(server: ServiceServer, *, stop_event=None,
                  poll: float = 0.2,
                  drain_grace: float | None = None) -> bool:
    """Run the accept loop until ``stop_event`` is set (or forever).

    With ``drain_grace`` set, a stop drains gracefully instead of
    slamming the door: new submissions are shed with 503 (status and
    metrics GETs keep answering — pollers see their jobs finish), then
    up to ``drain_grace`` seconds are spent settling accepted work
    before the accept loop stops.  Returns True when the queue emptied
    in time (the CLI's clean-exit signal); ``drain_grace=None``
    preserves the original immediate stop and returns True.
    """
    if stop_event is None:
        server.serve_forever(poll_interval=poll)  # pragma: no cover
        return True
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": poll},
                              name="repro-serve-accept", daemon=True)
    thread.start()
    drained = True
    try:
        while not stop_event.wait(poll):
            pass
        if drain_grace is not None:
            server.service.begin_drain()
            drained = server.service.drain(grace=drain_grace)
    finally:
        server.shutdown()
        thread.join(timeout=5.0)
    return drained
