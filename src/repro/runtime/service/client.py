"""HTTP client for the execution service (stdlib ``urllib`` only).

:class:`ServiceClient` speaks the ``/v1`` API of a running
``repro serve`` instance.  ``repro batch --server URL`` uses it to
submit a job file over HTTP instead of running locally, poll to
completion, and rebuild the familiar
:class:`~repro.runtime.executor.BatchResult` so reporting (and exit
codes) match the local path exactly.  Remote workers use :meth:`claim`
and :meth:`settle` through
:class:`~repro.runtime.service.worker.RemoteQueueSource`.

Since the chaos hardening pass the client is *resilient by default*:

* transport failures (refused connections, resets, truncated or
  corrupted responses) and 503 load shedding are retried with the
  engine's capped full-jitter exponential backoff
  (:class:`~repro.runtime.resilience.Backoff`), honouring the server's
  ``Retry-After`` hint when one is sent;
* every logical call carries a **deadline** distinct from the
  per-attempt socket ``timeout`` — the timeout bounds one connect/read,
  the deadline bounds the whole retry loop, and the remaining budget
  travels in the ``X-Repro-Deadline`` header so the server drops
  already-hopeless requests;
* an optional shared
  :class:`~repro.runtime.resilience.ConnectionBreaker` fails calls
  instantly while the server is known-dead instead of paying a timeout
  per call, probing recovery through half-open.

Retrying submissions is safe because job keys are content-addressed
(a duplicate submit deduplicates server-side) and settlement is
exactly-once (a duplicate settle is answered 409).
"""

from __future__ import annotations

import json
from time import monotonic, sleep
from typing import Any, Sequence

from ...errors import ExecutionError
from ..executor import BatchResult, JobResult
from ..jobs import JobSpec
from ..metrics import FleetMetrics
from ..resilience import (
    DEADLINE_HEADER,
    Backoff,
    ConnectionBreaker,
    Deadline,
    parse_retry_after,
)

#: Statuses that are worth retrying on an idempotent route.
_RETRIABLE_STATUSES = (503,)


class ServiceError(ExecutionError):
    """The server answered with an error (carries the HTTP status)."""

    def __init__(self, message: str, status: int = 0) -> None:
        super().__init__(message)
        self.status = status


class ServiceClient:
    """JSON-over-HTTP client for one server, resilient by default.

    Parameters
    ----------
    timeout:
        Per-attempt socket timeout (covers connect and read of one
        request).
    deadline:
        Default end-to-end budget for one logical call across all its
        retries; ``None`` leaves only ``timeout`` per attempt.
    retries / backoff / backoff_cap / jitter_seed:
        Retry budget for idempotent calls and the full-jitter schedule
        (attempt ``n`` waits uniformly in
        ``[0, min(cap, backoff · 2^(n-1))]``); the seed pins schedules
        in tests.  ``retries=0`` restores fail-fast behaviour.
    breaker:
        Optional :class:`ConnectionBreaker`, possibly shared with other
        clients of the same host (e.g. a
        :class:`~repro.runtime.service.store.RemoteBackend`); when the
        breaker is open, calls raise immediately instead of timing out.
    """

    def __init__(self, base_url: str, *, timeout: float = 30.0,
                 deadline: float | None = None, retries: int = 4,
                 backoff: float = 0.05, backoff_cap: float = 2.0,
                 jitter_seed: int | None = None,
                 breaker: ConnectionBreaker | None = None) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.deadline = deadline
        self.retries = retries
        self.backoff_policy = Backoff(backoff, cap=backoff_cap,
                                      seed=jitter_seed)
        self.breaker = breaker
        self.retries_performed = 0
        self.last_retry_after: float | None = None

    # ------------------------------------------------------------------
    def request(self, method: str, path: str, body: Any = None, *,
                deadline: Deadline | None = None) -> tuple[int, Any]:
        """One raw request; returns ``(status, decoded JSON or None)``.

        No retries at this layer (tests drive exact statuses through
        it); transport failures — unreachable server, resets, truncated
        or undecodable responses — raise :class:`ServiceError` with
        ``status=0``.  ``deadline`` clamps the socket timeout and is
        advertised to the server via ``X-Repro-Deadline``.
        """
        import http.client
        import urllib.error
        import urllib.request

        data = (json.dumps(body, sort_keys=True).encode("utf-8")
                if body is not None else None)
        headers = {"Content-Type": "application/json"} if data else {}
        timeout = self.timeout
        if deadline is not None:
            remaining = deadline.remaining()
            if remaining <= 0:
                raise ServiceError(
                    f"deadline exhausted before {method} {path}")
            timeout = deadline.clamp(timeout)
            if remaining != float("inf"):
                headers[DEADLINE_HEADER] = f"{remaining:.3f}"
        request = urllib.request.Request(
            f"{self.base_url}{path}", data=data, method=method,
            headers=headers)
        self.last_retry_after = None
        try:
            with urllib.request.urlopen(request,
                                        timeout=timeout) as response:
                raw = response.read()
                self.last_retry_after = parse_retry_after(
                    response.headers.get("Retry-After"))
                status = response.status
        except urllib.error.HTTPError as error:
            raw = error.read()
            self.last_retry_after = parse_retry_after(
                error.headers.get("Retry-After") if error.headers else None)
            try:
                decoded = json.loads(raw.decode("utf-8")) if raw else None
            except ValueError:
                decoded = None
            return error.code, decoded
        except (http.client.HTTPException, OSError) as error:
            # refused/reset/timeout/truncated — the transport failed
            raise ServiceError(
                f"cannot reach server at {self.base_url}: "
                f"{type(error).__name__}: {error}") from None
        if not raw:
            return status, None
        try:
            return status, json.loads(raw.decode("utf-8"))
        except ValueError as error:
            # a 200 whose body does not decode is a damaged response
            # (e.g. corrupted in flight), not a server answer
            raise ServiceError(
                f"undecodable response from {method} {path}: "
                f"{error}") from None

    def request_retry(self, method: str, path: str, body: Any = None, *,
                      idempotent: bool = True,
                      max_seconds: float | None = None) -> tuple[int, Any]:
        """:meth:`request` with backoff retries and breaker protection.

        Retries transport failures and 503 shedding (honouring
        ``Retry-After``) while the route is ``idempotent``, the retry
        budget lasts, and the deadline has not expired.  Non-idempotent
        calls get exactly one attempt.
        """
        deadline = Deadline(max_seconds if max_seconds is not None
                            else self.deadline)
        attempt = 0
        while True:
            attempt += 1
            if self.breaker is not None and not self.breaker.allow():
                raise ServiceError(
                    f"circuit breaker open for {self.base_url} "
                    f"({self.breaker.report()['consecutive_failures']} "
                    f"consecutive failures)")
            try:
                status, decoded = self.request(method, path, body,
                                               deadline=deadline)
            except ServiceError:
                if self.breaker is not None:
                    self.breaker.record_failure()
                if (not idempotent or attempt > self.retries
                        or deadline.expired):
                    raise
                self._backoff_sleep(attempt, deadline, None)
                continue
            if self.breaker is not None:
                # any HTTP answer proves the host is alive; HTTP-level
                # errors (4xx/5xx) are the application's business
                self.breaker.record_success()
            if (status in _RETRIABLE_STATUSES and idempotent
                    and attempt <= self.retries and not deadline.expired):
                self._backoff_sleep(attempt, deadline,
                                    self.last_retry_after)
                continue
            return status, decoded

    def _backoff_sleep(self, attempt: int, deadline: Deadline,
                       hint: float | None) -> None:
        delay = hint if hint is not None else \
            self.backoff_policy.delay(attempt)
        remaining = deadline.remaining()
        if remaining != float("inf"):
            delay = min(delay, max(0.0, remaining))
        self.retries_performed += 1
        if delay > 0:
            sleep(delay)

    def _get(self, path: str) -> Any:
        status, body = self.request_retry("GET", path)
        if status != 200:
            raise ServiceError(
                f"GET {path} failed with HTTP {status}: "
                f"{(body or {}).get('error', '')}", status)
        return body

    # ------------------------------------------------------------------
    def healthz(self) -> dict[str, Any]:
        return self._get("/v1/healthz")

    def metrics(self) -> dict[str, Any]:
        return self._get("/v1/metrics")

    def queue(self) -> dict[str, Any]:
        return self._get("/v1/queue")

    def job(self, key: str) -> dict[str, Any] | None:
        status, body = self.request_retry("GET", f"/v1/jobs/{key}")
        if status == 404:
            return None
        if status != 200:
            raise ServiceError(
                f"GET /v1/jobs/{key} failed with HTTP {status}", status)
        return body

    # ------------------------------------------------------------------
    def submit(self, specs: Sequence[JobSpec] | JobSpec
               ) -> list[dict[str, Any]]:
        """Submit specs; returns per-spec state records (incl. shed).

        Content-addressed keys make resubmission idempotent, so
        transport failures and 503 shedding are retried transparently.
        Items still shed come back as records, not raised — callers
        decide whether to back off (see :meth:`submit_all`).
        """
        if isinstance(specs, JobSpec):
            specs = [specs]
        body = {"jobs": [spec.to_dict() for spec in specs]}
        status, decoded = self.request_retry("POST", "/v1/jobs", body,
                                             idempotent=True)
        # 503-with-results = every item shed: per-item refusals that
        # submit_all keeps retrying, not errors
        if (status not in (200, 503) or not isinstance(decoded, dict)
                or "results" not in decoded):
            raise ServiceError(
                f"POST /v1/jobs failed with HTTP {status}: "
                f"{(decoded or {}).get('error', '')}", status)
        return decoded["results"]

    def submit_all(self, specs: Sequence[JobSpec], *,
                   retry_seconds: float = 0.1,
                   max_seconds: float = 300.0) -> list[dict[str, Any]]:
        """Submit, retrying shed items until capacity frees.

        Waits between rounds with capped full-jitter backoff seeded per
        client (N blocked clients spread out instead of re-arriving in
        lockstep when the queue drains), honouring the server's
        ``Retry-After`` hint when one came back.
        """
        records: dict[str, dict[str, Any]] = {}
        remaining = list(specs)
        deadline = monotonic() + max_seconds
        round_index = 0
        while remaining:
            blocked: list[JobSpec] = []
            for spec, record in zip(remaining, self.submit(remaining)):
                if record["state"] == "shed":
                    blocked.append(spec)
                else:
                    records[spec.key] = record
            if blocked and monotonic() > deadline:
                raise ServiceError(
                    f"{len(blocked)} job(s) still refused after "
                    f"{max_seconds:g}s")
            remaining = blocked
            if remaining:
                round_index += 1
                hint = self.last_retry_after
                delay = hint if hint is not None else (
                    retry_seconds / 2 + self.backoff_policy.delay(
                        min(round_index, 8), base=retry_seconds) / 2)
                sleep(min(delay, max(0.0, deadline - monotonic())))
        return [records[spec.key] for spec in specs]

    # ------------------------------------------------------------------
    def wait(self, keys: Sequence[str], *, poll: float = 0.1,
             max_seconds: float = 600.0) -> dict[str, dict[str, Any]]:
        """Poll until every key is done/failed; returns final records.

        Polling backs off with capped full jitter while no key makes
        progress (and snaps back to ``poll`` when one does), so many
        blocked clients do not hammer the server in lockstep.
        """
        outstanding = set(keys)
        final: dict[str, dict[str, Any]] = {}
        deadline = monotonic() + max_seconds
        idle_rounds = 0
        while outstanding:
            for key in sorted(outstanding):
                record = self.job(key)
                if record is not None and record["state"] in ("done",
                                                              "failed"):
                    final[key] = record
            progressed = bool(outstanding & set(final))
            outstanding -= set(final)
            idle_rounds = 0 if progressed else idle_rounds + 1
            if outstanding:
                if monotonic() > deadline:
                    raise ServiceError(
                        f"{len(outstanding)} job(s) still running after "
                        f"{max_seconds:g}s")
                delay = poll / 2 + self.backoff_policy.delay(
                    min(idle_rounds + 1, 8), base=poll) / 2
                sleep(min(delay, max(0.0, deadline - monotonic())))
        return final

    # ------------------------------------------------------------------
    def claim(self, *, shard: int | None = None,
              worker: str = "") -> dict[str, Any] | None:
        """Claim one job.  Safe to retry: an orphaned claim (response
        lost after the server recorded it) is re-queued by lease expiry.
        """
        status, body = self.request_retry("POST", "/v1/claim",
                                          {"shard": shard,
                                           "worker": worker})
        if status == 204:
            return None
        if status != 200 or not isinstance(body, dict):
            raise ServiceError(
                f"POST /v1/claim failed with HTTP {status}", status)
        return body

    def settle(self, **fields: Any) -> bool:
        """Settle one claim.  Safe to retry: a duplicate settle (first
        response lost in flight) is answered 409 — exactly-once
        settlement holds either way.
        """
        status, _body = self.request_retry("POST", "/v1/settle", fields)
        if status == 409:
            return False  # lease expired under us; the other settle won
        if status != 200:
            raise ServiceError(
                f"POST /v1/settle failed with HTTP {status}", status)
        return True

    # ------------------------------------------------------------------
    def run_batch(self, specs: Sequence[JobSpec], *, poll: float = 0.1,
                  max_seconds: float = 600.0) -> BatchResult:
        """Submit + wait + rebuild a local-shaped :class:`BatchResult`.

        Statuses travel through unchanged (``ok``/``cached``/
        ``replayed``/``failed``), so
        ``repro batch --server`` reports and exits exactly like the
        local path on the same outcomes.
        """
        by_key = {spec.key: spec for spec in specs}
        started = monotonic()
        self.submit_all(specs, max_seconds=max_seconds)
        final = self.wait(list(by_key), poll=poll, max_seconds=max_seconds)
        metrics = FleetMetrics()
        results = []
        for spec in specs:
            record = final[spec.key]
            results.append(JobResult(
                spec, record.get("status", "failed"),
                record.get("payload"), error=record.get("error", ""),
                attempts=record.get("attempts", 0),
                run_seconds=record.get("run_seconds", 0.0)))
        # de-duplicated specs share one record; count each submission
        for result in results:
            metrics.record(result)
        metrics.retries += self.retries_performed
        metrics.wall_seconds = monotonic() - started
        return BatchResult(results, metrics)


def parse_server_url(url: str) -> str:
    """Normalise a ``--server`` value (bare host:port gains http://)."""
    if "://" not in url:
        return f"http://{url}"
    return url


def fetch_json(url: str, *, timeout: float = 30.0) -> Any:
    """GET one absolute URL as JSON (CI/scripting helper)."""
    import urllib.request

    with urllib.request.urlopen(url, timeout=timeout) as response:
        return json.loads(response.read().decode("utf-8"))


def submit_job_file(client: ServiceClient, path: str, *,
                    poll: float = 0.1,
                    max_seconds: float = 600.0) -> BatchResult:
    """Load a job file and run it through :meth:`ServiceClient.run_batch`."""
    from ..jobs import load_job_file

    return client.run_batch(load_job_file(path), poll=poll,
                            max_seconds=max_seconds)


def wait_until_healthy(base_url: str, *, max_seconds: float = 30.0,
                       poll: float = 0.1) -> dict[str, Any]:
    """Block until a just-started server answers ``/v1/healthz``."""
    client = ServiceClient(base_url, timeout=poll + 1.0, retries=0)
    deadline = monotonic() + max_seconds
    while True:
        try:
            return client.healthz()
        except ServiceError:
            if monotonic() > deadline:
                raise
            sleep(poll)
