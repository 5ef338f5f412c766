"""End-to-end service tests: HTTP parity, crash resume, fleet dedupe."""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from repro.designs import get_design
from repro.runtime import (
    ExecutionEngine,
    JobSpec,
    check_job,
    probe_job,
    read_journal,
    simulate_job,
)
from repro.runtime.service import (
    ExecutionService,
    LocalDirBackend,
    RemoteBackend,
    RemoteQueueSource,
    ServiceClient,
    ServiceError,
    ServiceWorker,
    drain,
)


FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _zoo_specs():
    design = get_design("gcd")
    system = design.build()
    return [check_job(system, label="gcd-check"),
            simulate_job(system, design.environment(), label="gcd-sim")]


# ---------------------------------------------------------------------------
# parity: HTTP submission == local CLI execution, byte for byte
# ---------------------------------------------------------------------------
class TestParity:
    def test_http_and_local_agree_byte_for_byte(self, tmp_path, live_server):
        specs = _zoo_specs()
        local_cache = LocalDirBackend(tmp_path / "local")
        local = ExecutionEngine(cache=local_cache).run(specs)
        assert local.ok

        server_cache = LocalDirBackend(tmp_path / "server")
        _service, base = live_server(store=server_cache, workers=1)
        remote = ServiceClient(base).run_batch(specs, max_seconds=60)
        assert remote.ok
        assert [r.status for r in remote] == ["ok", "ok"]

        for spec in specs:
            local_path = local_cache.path_for(spec.key)
            server_path = server_cache.path_for(spec.key)
            assert local_path.read_bytes() == server_path.read_bytes()

    def test_http_payloads_match_local(self, tmp_path, live_server):
        specs = _zoo_specs()
        local = ExecutionEngine().run(specs)
        _service, base = live_server(
            store=LocalDirBackend(tmp_path / "s"), workers=1)
        remote = ServiceClient(base).run_batch(specs, max_seconds=60)
        assert [r.payload for r in remote] == [r.payload for r in local]

    def test_resubmission_is_answered_from_the_record(self, tmp_path,
                                                      live_server):
        _service, base = live_server(
            store=LocalDirBackend(tmp_path / "s"), workers=1)
        client = ServiceClient(base)
        specs = _zoo_specs()
        client.run_batch(specs, max_seconds=60)
        accepted = _service.accepted
        again = client.run_batch(specs, max_seconds=60)
        assert again.ok
        assert _service.accepted == accepted  # no new acceptances

    def test_warm_store_answers_cached_without_dispatch(self, tmp_path,
                                                        live_server):
        store = LocalDirBackend(tmp_path / "s")
        specs = _zoo_specs()
        ExecutionEngine(cache=store).run(specs)  # pre-warm the store
        _service, base = live_server(store=store, workers=1)
        batch = ServiceClient(base).run_batch(specs, max_seconds=60)
        assert [r.status for r in batch] == ["cached", "cached"]
        assert _service.queue.stats()["depth"] == 0


# ---------------------------------------------------------------------------
# crash safety: SIGKILL the server, restart, lose nothing accepted
# ---------------------------------------------------------------------------
class TestCrashResume:
    def test_accepted_jobs_survive_a_dead_server(self, tmp_path,
                                                 live_server):
        journal = tmp_path / "queue.jsonl"
        # accept-only server (no workers): jobs are queued, never run
        service, base = live_server(journal_path=str(journal), workers=0)
        specs = [probe_job("ok", payload={"n": i}) for i in range(5)]
        records = ServiceClient(base).submit(specs)
        assert all(r["state"] == "queued" for r in records)
        # ... SIGKILL: nothing orderly happens to the service state ...
        revived = ExecutionService(journal_path=str(journal), resume=True,
                                   workers=1)
        try:
            assert revived.queue.depth() == 5
            worker = revived.workers[0]
            assert drain(worker, max_seconds=60) == 5
            for spec in specs:
                record = revived.job_record(spec.key)
                assert record["state"] == "done"
        finally:
            revived.stop()

    def test_settled_jobs_replay_not_rerun(self, tmp_path, live_server):
        journal = tmp_path / "queue.jsonl"
        service, base = live_server(journal_path=str(journal), workers=1)
        specs = _zoo_specs()
        first = ServiceClient(base).run_batch(specs, max_seconds=60)
        assert first.ok
        revived = ExecutionService(journal_path=str(journal), resume=True,
                                   workers=0)
        try:
            assert revived.replayed == len(specs)
            assert revived.queue.depth() == 0
            for spec, result in zip(specs, first):
                record = revived.job_record(spec.key)
                assert record["state"] == "done"
                assert record["status"] == "replayed"
                assert record["payload"] == result.payload
        finally:
            revived.stop()

    def test_mixed_journal_requeues_only_unsettled(self, tmp_path):
        journal = tmp_path / "queue.jsonl"
        service = ExecutionService(journal_path=str(journal), workers=0)
        specs = [probe_job("ok", payload={"n": i}) for i in range(4)]
        service.submit_many(specs)
        # hand-settle two of them through the worker path
        for _ in range(2):
            job = service.claim_job()
            from repro.runtime.executor import JobResult

            service.settle_job(job, JobResult(job.spec, "ok", {"done": 1}))
        service.stop()  # orderly close stands in for the crash here
        revived = ExecutionService(journal_path=str(journal), resume=True,
                                   workers=0)
        try:
            assert revived.replayed == 2
            assert revived.queue.depth() == 2
        finally:
            revived.stop()

    def test_resumes_a_wal_with_tenant_and_priority_fields(self, tmp_path):
        # written by a server that still had tenant lanes: its accept
        # records carry "tenant"/"priority", which replay ignores
        journal = tmp_path / "queue.jsonl"
        shutil.copy(FIXTURES / "parent-service-wal.jsonl", journal)
        accepts = [r for r in read_journal(journal) if r["type"] == "accept"]
        assert all("tenant" in r and "priority" in r for r in accepts)
        revived = ExecutionService(journal_path=str(journal), resume=True,
                                   workers=1)
        try:
            assert revived.replayed == 1
            assert revived.queue.depth() == 3
            assert drain(revived.workers[0], max_seconds=60) == 3
            for record in accepts:
                spec = JobSpec.from_dict(record["spec"])
                assert spec.key == record["key"]
                final = revived.job_record(spec.key)
                assert final["state"] == "done"
                if final["status"] == "ok":
                    assert final["payload"] == {
                        "echo": spec.params["payload"]}
        finally:
            revived.stop()


# ---------------------------------------------------------------------------
# fleet dedupe: two workers, one shared remote store, one execution
# ---------------------------------------------------------------------------
class TestFleetDedupe:
    def test_second_worker_hits_cache_dispatches_nothing(self, tmp_path,
                                                         live_server):
        _service, base = live_server(
            store=LocalDirBackend(tmp_path / "s"), workers=0)
        spec = _zoo_specs()[0]

        engine_one = ExecutionEngine(cache=RemoteBackend(base))
        first = engine_one.run([spec])
        assert first[0].status == "ok"
        assert first.metrics.dispatched == 1

        engine_two = ExecutionEngine(cache=RemoteBackend(base))
        second = engine_two.run([spec])
        assert second[0].status == "cached"
        assert second.metrics.dispatched == 0  # exactly-once fleet-wide
        assert second[0].payload == first[0].payload

    def test_remote_workers_share_the_server_store(self, tmp_path,
                                                   live_server):
        service, base = live_server(
            store=LocalDirBackend(tmp_path / "s"), workers=0)
        client = ServiceClient(base)
        spec = _zoo_specs()[0]
        client.submit([spec, probe_job("ok", payload={"x": 1})])

        source = RemoteQueueSource(ServiceClient(base))
        worker = ServiceWorker(
            source, engine=ExecutionEngine(cache=RemoteBackend(base)),
            name="remote-0")
        try:
            assert drain(worker, max_seconds=60) == 2
        finally:
            worker.engine.close()
        record = client.job(spec.key)
        assert record["state"] == "done"
        # the payload was published into the server store over HTTP
        assert service.store.get(spec.key) is not None


# ---------------------------------------------------------------------------
# protocol edges: double settle, unknown keys, bad input
# ---------------------------------------------------------------------------
class TestProtocol:
    def test_double_settle_is_409(self, live_server):
        _service, base = live_server(workers=0)
        client = ServiceClient(base)
        spec = probe_job("ok", payload={"v": 1})
        client.submit(spec)
        claim = client.claim()
        assert claim["key"] == spec.key
        assert client.settle(key=spec.key, status="ok",
                             payload={"r": 1}) is True
        assert client.settle(key=spec.key, status="ok",
                             payload={"r": 1}) is False

    def test_unknown_job_is_404(self, live_server):
        _service, base = live_server(workers=0)
        assert ServiceClient(base).job("ff" * 32) is None

    def test_malformed_spec_is_400(self, live_server):
        _service, base = live_server(workers=0)
        status, body = ServiceClient(base).request(
            "POST", "/v1/jobs", {"kind": "no-such-kind", "params": {}})
        assert status == 400
        assert "bad job spec" in body["error"]

    def test_claim_on_empty_queue_is_none(self, live_server):
        _service, base = live_server(workers=0)
        assert ServiceClient(base).claim() is None

    def test_expired_lease_requeues(self, live_server):
        service, base = live_server(workers=0, lease_seconds=0.0)
        client = ServiceClient(base)
        spec = probe_job("ok", payload={"v": 2})
        client.submit(spec)
        first = client.claim()
        assert first is not None
        # lease 0 expired instantly: the next claim cycle re-offers it
        second = client.claim()
        assert second is not None and second["key"] == spec.key


# ---------------------------------------------------------------------------
# observability
# ---------------------------------------------------------------------------
class TestObservability:
    def test_metrics_report_queue_depth_per_shard(self, live_server):
        _service, base = live_server(workers=0, shards=4)
        client = ServiceClient(base)
        client.submit([probe_job("ok", payload={"n": i}) for i in range(3)])
        queue = client.metrics()["queue"]
        assert queue["depth"] == 3
        assert len(queue["shard_depths"]) == 4
        assert sum(queue["shard_depths"]) == 3

    def test_metrics_aggregate_fleet_results(self, tmp_path, live_server):
        _service, base = live_server(
            store=LocalDirBackend(tmp_path / "s"), workers=1)
        client = ServiceClient(base)
        client.run_batch(_zoo_specs(), max_seconds=60)
        metrics = client.metrics()
        assert metrics["service"]["completed"] == 2
        assert metrics["fleet"]["jobs"] == 2
        assert metrics["fleet"]["succeeded"] == 2
        assert all(w["healthy"] for w in metrics["workers"])

    def test_healthz_and_queue_endpoints(self, live_server):
        _service, base = live_server(workers=1)
        client = ServiceClient(base)
        health = client.healthz()
        assert health["ok"] and health["workers"] == 1
        spec = probe_job("sleep", seconds=0.0, payload={"q": 1})
        client.submit(spec)
        snapshot = client.queue()
        assert snapshot["shards"] == 8

    def test_worker_marked_unhealthy_after_node_errors(self):
        class BrokenSource:
            def claim_job(self, **_kw):
                raise OSError("network down")

            def settle_job(self, job, result):  # pragma: no cover
                pass

        worker = ServiceWorker(BrokenSource(), name="sick",
                               unhealthy_after=3)
        for _ in range(3):
            worker.step()
        assert not worker.healthy
        assert worker.stop_event.is_set()
        assert "network down" in worker.report()["last_error"]


# ---------------------------------------------------------------------------
# equiv jobs round-trip through the service with cache hits
# ---------------------------------------------------------------------------
class TestEquivRoundTrip:
    def test_equiv_job_round_trips_with_cache_hits(self, tmp_path,
                                                   live_server):
        from repro.runtime import equiv_job

        design = get_design("gcd")
        spec = equiv_job(design.build(), design.build(),
                         design.environment(), label="gcd-equiv")
        store = LocalDirBackend(tmp_path / "s")
        _service, base = live_server(store=store, workers=1)
        client = ServiceClient(base)
        first = client.run_batch([spec], max_seconds=60)
        assert first.ok
        assert first[0].payload["equivalent"] is True
        # content-addressed re-submission: no new acceptance, same bytes
        accepted = _service.accepted
        again = client.run_batch([spec], max_seconds=60)
        assert again.ok
        assert _service.accepted == accepted
        assert again[0].payload == first[0].payload
        # a fresh service over the warm store answers without dispatch
        _service2, base2 = live_server(store=store, workers=1)
        warm = ServiceClient(base2).run_batch([spec], max_seconds=60)
        assert warm[0].status == "cached"
        assert warm[0].payload == first[0].payload

    def test_equiv_matches_local_engine_bytes(self, tmp_path, live_server):
        from repro.runtime import equiv_job

        design = get_design("counter")
        spec = equiv_job(design.build(), design.build(),
                         design.environment())
        local_cache = LocalDirBackend(tmp_path / "local")
        local = ExecutionEngine(cache=local_cache).run([spec])
        assert local.ok
        server_cache = LocalDirBackend(tmp_path / "server")
        _service, base = live_server(store=server_cache, workers=1)
        remote = ServiceClient(base).run_batch([spec], max_seconds=60)
        assert remote.ok
        assert local_cache.path_for(spec.key).read_bytes() == \
            server_cache.path_for(spec.key).read_bytes()


# ---------------------------------------------------------------------------
# overload protection, deadline budgets, graceful drain
# ---------------------------------------------------------------------------
class TestOverload:
    def test_max_pending_sheds_deterministically(self, live_server):
        service, base = live_server(workers=0, max_pending=2)
        client = ServiceClient(base, retries=0)
        specs = [probe_job("ok", payload={"n": i}) for i in range(4)]
        records = client.submit(specs)
        states = [r["state"] for r in records]
        assert states == ["queued", "queued", "shed", "shed"]
        assert all("max_pending" in r["error"]
                   for r in records if r["state"] == "shed")
        assert service.queue.shed == 2
        assert service.metrics()["resilience"]["shed"] == 2

    def test_all_shed_is_503_with_retry_after(self, live_server):
        _service, base = live_server(workers=0, max_pending=1)
        client = ServiceClient(base, retries=0)
        client.submit([probe_job("ok", payload={"n": 0})])
        status, body = client.request(
            "POST", "/v1/jobs",
            {"jobs": [probe_job("ok", payload={"n": 1}).to_dict()]})
        assert status == 503
        assert body["shed"] == 1
        assert client.last_retry_after is not None

    def test_shed_submissions_recover_once_capacity_frees(self, live_server):
        """submit_all keeps retrying shed items as the queue drains."""
        service, base = live_server(workers=1, max_pending=2)
        client = ServiceClient(base, retries=0, jitter_seed=3)
        specs = [probe_job("ok", payload={"n": i}) for i in range(6)]
        records = client.submit_all(specs, retry_seconds=0.05,
                                    max_seconds=30.0)
        assert len(records) == 6
        final = client.wait([s.key for s in specs], max_seconds=30.0)
        assert all(r["state"] == "done" for r in final.values())
        assert service.queue.shed > 0  # the bound really was hit


class TestDeadline:
    def test_spent_budget_is_rejected_504(self, live_server):
        service, base = live_server(workers=0)
        client = ServiceClient(base, retries=0)
        import urllib.request

        request = urllib.request.Request(
            f"{base}/v1/jobs", data=b"{}", method="POST",
            headers={"Content-Type": "application/json",
                     "X-Repro-Deadline": "0.000"})
        import urllib.error

        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=5.0)
        assert info.value.code == 504
        assert service.deadline_rejected == 1
        assert client.healthz()["ok"] is True  # server unharmed

    def test_live_budget_travels_and_is_accepted(self, live_server):
        from repro.runtime.resilience import Deadline

        service, base = live_server(workers=0)
        client = ServiceClient(base, retries=0)
        status, _body = client.request(
            "POST", "/v1/jobs",
            {"jobs": [probe_job("ok", payload={"n": 1}).to_dict()]},
            deadline=Deadline(30.0))
        assert status == 200
        assert service.deadline_rejected == 0

    def test_expired_deadline_never_leaves_the_client(self, live_server):
        from repro.runtime.resilience import Deadline

        _service, base = live_server(workers=0)
        client = ServiceClient(base, retries=0)
        clock = {"now": 0.0}
        dead = Deadline(1.0, clock=lambda: clock["now"])
        clock["now"] = 2.0
        with pytest.raises(ServiceError):
            client.request("GET", "/v1/healthz", deadline=dead)


class TestDrain:
    def test_draining_sheds_submits_but_answers_reads(self, live_server):
        service, base = live_server(workers=1)
        client = ServiceClient(base, retries=0)
        spec = probe_job("ok", payload={"n": 1}, label="pre-drain")
        client.submit_all([spec])
        client.wait([spec.key], max_seconds=30.0)
        service.begin_drain()
        status, body = client.request(
            "POST", "/v1/jobs",
            {"jobs": [probe_job("ok", payload={"n": 2}).to_dict()]})
        assert status == 503
        assert "draining" in body["error"]
        assert client.healthz()["draining"] is True
        assert client.job(spec.key)["state"] == "done"  # reads still work

    def test_drain_waits_for_accepted_work(self, live_server):
        service, base = live_server(workers=1)
        client = ServiceClient(base, retries=0)
        specs = [probe_job("sleep", seconds=0.05, payload={"n": i},
                           label=f"slow{i}") for i in range(3)]
        client.submit_all(specs)
        service.begin_drain()
        assert service.drain(grace=30.0) is True
        for spec in specs:
            assert service.job_record(spec.key)["state"] == "done"

    def test_drain_times_out_with_unfinished_work(self, live_server):
        service, base = live_server(workers=0)  # nobody will ever claim
        ServiceClient(base, retries=0).submit_all(
            [probe_job("ok", payload={"n": 1})])
        service.begin_drain()
        assert service.drain(grace=0.2) is False

    def test_serve_forever_drain_grace_settles_then_stops(self, tmp_path):
        import threading

        from repro.runtime.service import make_server, serve_forever

        journal = tmp_path / "queue.jsonl"
        service = ExecutionService(journal_path=str(journal), workers=1)
        server = make_server(service)
        host, port = server.server_address[:2]
        stop = threading.Event()
        service.start()
        outcome: list[bool] = []
        runner = threading.Thread(
            target=lambda: outcome.append(
                serve_forever(server, stop_event=stop, poll=0.05,
                              drain_grace=10.0)),
            daemon=True)
        runner.start()
        try:
            client = ServiceClient(f"http://{host}:{port}", retries=0)
            specs = [probe_job("sleep", seconds=0.05, payload={"n": i})
                     for i in range(3)]
            client.submit_all(specs)
            stop.set()
            runner.join(timeout=30)
            assert outcome == [True]
            for spec in specs:
                assert service.job_record(spec.key)["state"] == "done"
        finally:
            server.server_close()
            service.stop()
        # the journal closed cleanly: a resume finds everything settled
        revived = ExecutionService(journal_path=str(journal), resume=True,
                                   workers=0)
        try:
            assert revived.queue.depth() == 0
            assert revived.replayed == 3
        finally:
            revived.stop()
