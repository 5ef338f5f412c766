"""CacheBackend conformance: every backend honours the same contract."""

from __future__ import annotations

import pytest

from repro.runtime.service import (
    CacheBackend,
    LocalDirBackend,
    RemoteBackend,
    TieredBackend,
)
from repro.runtime.cache import ResultCache
from repro.runtime.resilience import ConnectionBreaker

KEY_A = "ab" + "0" * 62
KEY_B = "cd" + "0" * 62
KEY_MISSING = "ff" + "0" * 62


@pytest.fixture(params=["local", "remote", "tiered"])
def backend(request, tmp_path, live_server):
    """One of each backend flavour, empty, ready for puts and gets."""
    if request.param == "local":
        return LocalDirBackend(tmp_path / "local")
    _service, base = live_server(
        store=LocalDirBackend(tmp_path / "server-store"), workers=0)
    remote = RemoteBackend(base)
    if request.param == "remote":
        return remote
    return TieredBackend(LocalDirBackend(tmp_path / "tier-local"), remote)


class TestConformance:
    """The parametrised contract every backend must satisfy."""

    def test_satisfies_protocol(self, backend):
        assert isinstance(backend, CacheBackend)

    def test_miss_returns_none_and_counts(self, backend):
        assert backend.get(KEY_MISSING) is None
        assert backend.misses == 1
        assert backend.hits == 0

    def test_put_then_get_round_trips(self, backend):
        payload = {"x": 1, "nested": {"y": [2, 3]}, "s": "text"}
        backend.put(KEY_A, "probe", payload)
        assert backend.writes >= 1
        assert backend.get(KEY_A) == payload
        assert backend.hits >= 1

    def test_contains(self, backend):
        assert KEY_A not in backend
        backend.put(KEY_A, "probe", {"v": 1})
        assert KEY_A in backend
        assert KEY_B not in backend

    def test_overwrite_is_last_write_wins(self, backend):
        backend.put(KEY_A, "probe", {"v": 1})
        backend.put(KEY_A, "probe", {"v": 2})
        assert backend.get(KEY_A) == {"v": 2}

    def test_distinct_keys_are_independent(self, backend):
        backend.put(KEY_A, "probe", {"v": "a"})
        backend.put(KEY_B, "probe", {"v": "b"})
        assert backend.get(KEY_A) == {"v": "a"}
        assert backend.get(KEY_B) == {"v": "b"}


class TestLocalDirBackend:
    def test_is_the_result_cache(self, tmp_path):
        # byte-identical layout guarantee: same class, same files
        assert LocalDirBackend is ResultCache


class TestRemoteBackend:
    def test_reads_server_store(self, tmp_path, live_server):
        store = LocalDirBackend(tmp_path / "s")
        _service, base = live_server(store=store, workers=0)
        store.put(KEY_A, "probe", {"from": "server"})
        assert RemoteBackend(base).get(KEY_A) == {"from": "server"}

    def test_put_publishes_to_server_store(self, tmp_path, live_server):
        store = LocalDirBackend(tmp_path / "s")
        _service, base = live_server(store=store, workers=0)
        RemoteBackend(base).put(KEY_A, "probe", {"from": "worker"})
        assert store.get(KEY_A) == {"from": "worker"}

    def test_unreachable_server_degrades_to_miss(self):
        backend = RemoteBackend("http://127.0.0.1:1", timeout=0.2)
        assert backend.get(KEY_A) is None
        backend.put(KEY_A, "probe", {"v": 1})  # must not raise
        assert backend.errors >= 2


class TestTieredBackend:
    def test_remote_hit_backfills_local(self, tmp_path, live_server):
        store = LocalDirBackend(tmp_path / "s")
        _service, base = live_server(store=store, workers=0)
        store.put(KEY_A, "probe", {"v": 1})
        local = LocalDirBackend(tmp_path / "l")
        tiered = TieredBackend(local, RemoteBackend(base))
        assert tiered.get(KEY_A) == {"v": 1}
        # second read is served locally, no HTTP round-trip
        assert local.get(KEY_A) == {"v": 1}

    def test_write_through_reaches_both_tiers(self, tmp_path, live_server):
        store = LocalDirBackend(tmp_path / "s")
        _service, base = live_server(store=store, workers=0)
        local = LocalDirBackend(tmp_path / "l")
        tiered = TieredBackend(local, RemoteBackend(base))
        tiered.put(KEY_A, "probe", {"v": 1})
        assert local.get(KEY_A) == {"v": 1}
        assert store.get(KEY_A) == {"v": 1}

    def test_local_hit_skips_remote(self, tmp_path):
        local = LocalDirBackend(tmp_path / "l")
        local.put(KEY_A, "probe", {"v": 1})
        dead = RemoteBackend("http://127.0.0.1:1", timeout=0.2)
        tiered = TieredBackend(local, dead)
        assert tiered.get(KEY_A) == {"v": 1}
        assert dead.errors == 0


class TestRemoteBreaker:
    """Partition tolerance: a dead server costs one timeout, not N."""

    def test_breaker_opens_and_short_circuits(self):
        breaker = ConnectionBreaker(failure_threshold=2,
                                    recovery_seconds=3600.0)
        backend = RemoteBackend("http://127.0.0.1:1", timeout=0.2,
                                breaker=breaker)
        for _ in range(5):
            assert backend.get(KEY_A) is None
        # two real connect failures open the breaker; the remaining
        # three calls are instant misses — no further timeout paid
        assert breaker.state == "open"
        assert backend.errors == 2
        assert backend.short_circuits == 3
        assert backend.misses == 5

    def test_open_breaker_drops_writes_silently(self):
        breaker = ConnectionBreaker(failure_threshold=1,
                                    recovery_seconds=3600.0)
        backend = RemoteBackend("http://127.0.0.1:1", timeout=0.2,
                                breaker=breaker)
        backend.get(KEY_A)  # opens the breaker
        backend.put(KEY_A, "probe", {"v": 1})  # must not raise, not connect
        assert backend.errors == 1
        assert backend.short_circuits == 1

    def test_healthz_probe_closes_the_breaker(self, tmp_path, live_server):
        store = LocalDirBackend(tmp_path / "s")
        _service, base = live_server(store=store, workers=0)
        clock = {"now": 0.0}
        breaker = ConnectionBreaker(failure_threshold=1, recovery_seconds=5.0,
                                    clock=lambda: clock["now"])
        backend = RemoteBackend(base, breaker=breaker)
        breaker.record_failure()  # a partition happened
        assert breaker.state == "open"
        clock["now"] = 10.0  # recovery window elapsed → half-open
        store.put(KEY_A, "probe", {"v": 7})
        # the next call probes /v1/healthz, closes the breaker, and the
        # data read itself goes through
        assert backend.get(KEY_A) == {"v": 7}
        assert breaker.state == "closed"
        assert backend.short_circuits == 0

    def test_failed_probe_reopens(self):
        clock = {"now": 0.0}
        breaker = ConnectionBreaker(failure_threshold=1, recovery_seconds=5.0,
                                    clock=lambda: clock["now"])
        backend = RemoteBackend("http://127.0.0.1:1", timeout=0.2,
                                breaker=breaker)
        backend.get(KEY_A)  # opens
        clock["now"] = 10.0  # half-open: one probe allowed
        assert backend.get(KEY_A) is None  # probe fails → open again
        assert breaker.state == "open"

    def test_report_includes_breaker_state(self):
        backend = RemoteBackend("http://127.0.0.1:1", timeout=0.2)
        report = backend.report()
        assert report["breaker"]["state"] == "closed"
        for counter in ("hits", "misses", "writes", "errors",
                        "short_circuits"):
            assert report[counter] == 0

    def test_shared_breaker_shields_all_clients(self):
        # one breaker, two backends: the first's failures protect both
        breaker = ConnectionBreaker(failure_threshold=1,
                                    recovery_seconds=3600.0)
        a = RemoteBackend("http://127.0.0.1:1", timeout=0.2, breaker=breaker)
        b = RemoteBackend("http://127.0.0.1:1", timeout=0.2, breaker=breaker)
        a.get(KEY_A)  # pays the timeout, opens the breaker
        assert b.get(KEY_A) is None
        assert b.errors == 0  # b never even connected
        assert b.short_circuits == 1
