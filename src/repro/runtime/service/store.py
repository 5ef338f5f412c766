"""Pluggable result-cache backends for the execution service.

The batch engine only ever asks its cache two questions — *do you have
the payload for this key?* and *store this payload under this key* — so
the contract is tiny and :class:`~repro.runtime.cache.ResultCache`
already satisfies it.  This module names that contract
(:class:`CacheBackend`) and adds two more implementations:

:class:`LocalDirBackend`
    Today's behaviour, byte-identical on-disk layout — it *is*
    :class:`~repro.runtime.cache.ResultCache`, re-exported under the
    protocol's name so service configuration reads uniformly.
:class:`RemoteBackend`
    An HTTP client for a running execution service's ``/v1/cache``
    endpoints.  A fleet of workers pointed at one server dedupes work
    globally: the first worker to finish a key publishes the payload,
    every later worker's engine sees a cache hit and dispatches nothing.
    Network and server errors degrade to misses (reads) or are dropped
    (writes) — a flaky cache must never fail a job — with
    :attr:`RemoteBackend.errors` counting the degradations.  A
    :class:`~repro.runtime.resilience.ConnectionBreaker` turns a *dead*
    server into instant misses instead of a connect timeout per key
    (partition tolerance: jobs keep completing from local state), and a
    cheap ``/v1/healthz`` probe closes the breaker again once the server
    answers.
:class:`TieredBackend`
    Local-over-remote composition: reads check the local tier first and
    backfill it on a remote hit; writes go to both.  The local tier
    absorbs repeat reads; the remote tier is the fleet-wide rendezvous.

Every backend exposes the same ``hits`` / ``misses`` / ``writes``
counters :class:`~repro.runtime.cache.ResultCache` keeps, so fleet
metrics aggregate identically whichever backend is plugged in.
"""

from __future__ import annotations

import json
from typing import Any, Iterator, Protocol, runtime_checkable

from ..cache import ResultCache
from ..resilience import ConnectionBreaker


@runtime_checkable
class CacheBackend(Protocol):
    """What the engine (and the service) require of a result cache."""

    hits: int
    misses: int
    writes: int

    def get(self, key: str) -> dict[str, Any] | None:
        """The stored payload for ``key``, or ``None`` on a miss."""
        ...  # pragma: no cover - protocol

    def put(self, key: str, kind: str, payload: dict[str, Any]) -> None:
        """Store ``payload`` under ``key``."""
        ...  # pragma: no cover - protocol

    def __contains__(self, key: str) -> bool:
        ...  # pragma: no cover - protocol


#: Today's on-disk store, unchanged: same sharded layout, same atomic
#: durable writes, same envelope bytes.  The alias is the configuration
#: vocabulary ("local"), not a new implementation.
LocalDirBackend = ResultCache


class RemoteBackend:
    """HTTP client for a service's shared result store.

    ``base_url`` is the server root (``http://host:port``); entries live
    under ``/v1/cache/<key>``.  The server stores them through its own
    :class:`LocalDirBackend`, so the bytes on the server's disk are
    identical to a local run's.

    The breaker opens after ``failure_threshold`` consecutive transport
    failures; while open, every cache call is an instant miss/drop
    (counted in :attr:`short_circuits`) — no timeout paid, no job
    failed.  After ``recovery_seconds`` one call probes ``/v1/healthz``
    (cheap and side-effect free, unlike a data read) and a healthy
    answer closes the breaker for everyone sharing it.
    """

    def __init__(self, base_url: str, *, timeout: float = 10.0,
                 breaker: ConnectionBreaker | None = None) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.breaker = breaker if breaker is not None else \
            ConnectionBreaker()
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.errors = 0
        self.short_circuits = 0

    def _url(self, key: str) -> str:
        return f"{self.base_url}/v1/cache/{key}"

    def _admit(self) -> bool:
        """Breaker gate; half-open calls re-probe ``/v1/healthz`` first."""
        if self.breaker.allow():
            if self.breaker.state == "half_open" and not self._probe():
                return False
            return True
        self.short_circuits += 1
        return False

    def _probe(self) -> bool:
        """One cheap liveness check; settles the half-open breaker."""
        import urllib.error
        import urllib.request

        try:
            with urllib.request.urlopen(f"{self.base_url}/v1/healthz",
                                        timeout=self.timeout):
                pass
        except urllib.error.HTTPError:
            pass  # any HTTP answer proves the server is back
        except OSError:
            self.breaker.record_failure()
            return False
        self.breaker.record_success()
        return True

    def get(self, key: str) -> dict[str, Any] | None:
        import urllib.error
        import urllib.request

        if not self._admit():
            self.misses += 1
            return None
        try:
            with urllib.request.urlopen(self._url(key),
                                        timeout=self.timeout) as response:
                entry = json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as error:
            # an HTTP answer proves the server is alive, whatever it said
            self.breaker.record_success()
            if error.code != 404:
                self.errors += 1
            self.misses += 1
            return None
        except (OSError, ValueError):
            self.breaker.record_failure()
            self.errors += 1
            self.misses += 1
            return None
        self.breaker.record_success()
        payload = entry.get("payload") if isinstance(entry, dict) else None
        if payload is None:
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def put(self, key: str, kind: str, payload: dict[str, Any]) -> None:
        import urllib.error
        import urllib.request

        if not self._admit():
            return  # best-effort publish; dropped while partitioned
        body = json.dumps({"kind": kind, "payload": payload},
                          sort_keys=True).encode("utf-8")
        request = urllib.request.Request(
            self._url(key), data=body, method="PUT",
            headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(request, timeout=self.timeout):
                pass
        except urllib.error.HTTPError:
            self.breaker.record_success()
            self.errors += 1
            return
        except (OSError, ValueError):
            self.breaker.record_failure()
            self.errors += 1  # best-effort publish; the job still succeeded
            return
        self.breaker.record_success()
        self.writes += 1

    def report(self) -> dict[str, Any]:
        """Counters plus the breaker's view, for worker reports."""
        return {"hits": self.hits, "misses": self.misses,
                "writes": self.writes, "errors": self.errors,
                "short_circuits": self.short_circuits,
                "breaker": self.breaker.report()}

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None


class TieredBackend:
    """Local cache over a remote one (read-through, write-through).

    ``get`` consults the local tier first; a remote hit is written back
    into the local tier so the next read never leaves the machine.
    ``put`` writes both tiers.  Counters reflect the *composite* view:
    a hit in either tier is one hit.
    """

    def __init__(self, local: CacheBackend, remote: CacheBackend) -> None:
        self.local = local
        self.remote = remote
        self.hits = 0
        self.misses = 0
        self.writes = 0

    def get(self, key: str) -> dict[str, Any] | None:
        payload = self.local.get(key)
        if payload is not None:
            self.hits += 1
            return payload
        payload = self.remote.get(key)
        if payload is None:
            self.misses += 1
            return None
        # backfill: the kind is not recoverable from the remote payload
        # alone, so tiered entries record it as "remote" — the envelope
        # kind is advisory; key and payload are what the engine compares
        self.local.put(key, "remote", payload)
        self.hits += 1
        return payload

    def put(self, key: str, kind: str, payload: dict[str, Any]) -> None:
        self.local.put(key, kind, payload)
        self.remote.put(key, kind, payload)
        self.writes += 1

    def __contains__(self, key: str) -> bool:
        return key in self.local or key in self.remote


def iter_keys(backend: CacheBackend) -> Iterator[str]:
    """Keys of a backend that supports enumeration (local tiers only)."""
    keys = getattr(backend, "keys", None)
    if keys is None:
        return iter(())
    return keys()
