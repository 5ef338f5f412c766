"""repro.runtime.service — the long-lived distributed execution service.

The batch engine (:mod:`repro.runtime`) runs one batch and exits; this
package promotes it into a *service*: an HTTP/JSON API accepting the
same declarative, content-addressed job specs, a durable sharded work
queue behind it, pluggable result-cache backends so a fleet of workers
dedupes work globally, and worker loops that run server-side or attach
remotely.

:mod:`repro.runtime.service.api`
    :class:`ExecutionService` (queue + store + workers + metrics) and
    the stdlib ``ThreadingHTTPServer`` speaking ``/v1/jobs``,
    ``/v1/queue``, ``/v1/metrics``, ``/v1/healthz``, ``/v1/cache``,
    ``/v1/claim``, ``/v1/settle``.
:mod:`repro.runtime.service.queue`
    :class:`ShardedQueue` — SHA-256-partitioned FIFO lanes,
    WAL-journalled (restart-resumable), with ``max_pending`` shedding.
:mod:`repro.runtime.service.store`
    The :class:`CacheBackend` protocol with
    :class:`LocalDirBackend` (today's on-disk store, byte-identical),
    :class:`RemoteBackend` (HTTP client of a server's shared store) and
    :class:`TieredBackend` (local-over-remote).
:mod:`repro.runtime.service.worker`
    :class:`ServiceWorker` claim→execute→settle threads over the
    existing engine, with per-node health accounting, and
    :class:`RemoteQueueSource` for workers attaching over HTTP.
:mod:`repro.runtime.service.client`
    :class:`ServiceClient` — the ``repro batch --server`` transport,
    resilient by default: capped full-jitter retries, ``Retry-After``
    honouring, per-call deadlines and a shared circuit breaker.

Overload, drain and chaos testing (the robustness layer) live in
:mod:`repro.runtime.resilience` (backoff/deadline primitives) and
:mod:`repro.runtime.chaos` (the fault-injecting TCP proxy driven by
``repro chaos``); this package's server answers 503 + ``Retry-After``
when shedding, 504 on spent deadline budgets, and counts everything in
``/v1/metrics`` under ``resilience``.

Quick tour::

    from repro.designs import ZOO
    from repro.runtime import check_job
    from repro.runtime.service import (ExecutionService, LocalDirBackend,
                                       make_server, ServiceClient)

    service = ExecutionService(store=LocalDirBackend("cache"),
                               journal_path="queue.jsonl", workers=2)
    server = make_server(service)          # port 0 = pick a free port
    host, port = server.server_address
    with service:
        import threading
        threading.Thread(target=server.serve_forever, daemon=True).start()
        client = ServiceClient(f"http://{host}:{port}")
        batch = client.run_batch([check_job(d.build(), label=d.name)
                                  for d in ZOO.values()])
        server.shutdown()
    print(batch.metrics.summary())
"""

from .api import (
    ExecutionService,
    ServiceServer,
    make_server,
    serve_forever,
)
from .client import (
    ServiceClient,
    ServiceError,
    parse_server_url,
    submit_job_file,
    wait_until_healthy,
)
from .queue import (
    OverloadedError,
    QueuedJob,
    ShardedQueue,
    replay_queue_journal,
    shard_of,
)
from .store import (
    CacheBackend,
    LocalDirBackend,
    RemoteBackend,
    TieredBackend,
)
from .worker import (
    RemoteQueueSource,
    ServiceWorker,
    attach_workers,
    drain,
)

__all__ = [
    "ExecutionService",
    "ServiceServer",
    "make_server",
    "serve_forever",
    "ServiceClient",
    "ServiceError",
    "parse_server_url",
    "submit_job_file",
    "wait_until_healthy",
    "OverloadedError",
    "QueuedJob",
    "ShardedQueue",
    "replay_queue_journal",
    "shard_of",
    "CacheBackend",
    "LocalDirBackend",
    "RemoteBackend",
    "TieredBackend",
    "RemoteQueueSource",
    "ServiceWorker",
    "attach_workers",
    "drain",
]
