"""The batch engine: serial/parallel parity, retries, fault isolation.

The multiprocessing tests use ``workers=2`` with small probe jobs so
they stay fast even on a single-core machine; the byte-identity test is
the contract that parallel execution is a pure throughput optimisation.
"""

import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.errors import DefinitionError
from repro.runtime import (
    ExecutionEngine,
    Journal,
    ResultCache,
    check_job,
    iter_settled,
    load_job_file,
    probe_job,
    read_journal,
    simulate_job,
    synthesize_job,
)

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def zoo_jobs(zoo):
    jobs = []
    for name in ("gcd", "counter", "parsum"):
        design, system = zoo[name]
        jobs.append(simulate_job(system, design.environment(), label=name))
        jobs.append(check_job(system, label=name))
    return jobs


class TestSerial:
    def test_batch_in_submission_order(self, zoo):
        jobs = zoo_jobs(zoo)
        batch = ExecutionEngine().run(jobs)
        assert batch.ok
        assert [r.spec for r in batch] == jobs
        assert all(r.status == "ok" and r.attempts == 1 for r in batch)

    def test_failed_job_does_not_stop_batch(self):
        batch = ExecutionEngine(retries=0, backoff=0).run(
            [probe_job("ok"), probe_job("fail"), probe_job("ok")])
        assert [r.status for r in batch] == ["ok", "failed", "ok"]
        assert not batch.ok
        assert len(batch.failures()) == 1
        assert "probe failure" in batch[1].error

    def test_retry_budget_is_bounded(self):
        batch = ExecutionEngine(retries=2, backoff=0).run([probe_job("fail")])
        assert batch[0].status == "failed"
        assert batch[0].attempts == 3  # retries + 1

    def test_flaky_job_recovers(self, tmp_path):
        marker = tmp_path / "flaky"
        batch = ExecutionEngine(retries=2, backoff=0).run(
            [probe_job("flaky", marker=str(marker), failures=2)])
        assert batch[0].status == "ok"
        assert batch[0].attempts == 3

    def test_crash_probe_refused_in_process(self):
        # running it would SIGKILL the engine itself
        batch = ExecutionEngine(retries=0).run([probe_job("crash")])
        assert batch[0].status == "failed"
        assert "process-pool backend" in batch[0].error


class TestParallel:
    def test_byte_identical_to_serial(self, zoo):
        jobs = zoo_jobs(zoo)
        serial = ExecutionEngine(workers=0).run(jobs)
        with ExecutionEngine(workers=2) as engine:
            parallel = engine.run(jobs)
        assert parallel.ok
        assert [r.payload_bytes() for r in parallel] == \
            [r.payload_bytes() for r in serial]

    def test_synthesis_fanout_deterministic(self, zoo):
        _, system = zoo["fir4"]
        jobs = [synthesize_job(system, algorithm="random+greedy", seed=seed)
                for seed in (1, 2)]
        serial = ExecutionEngine(workers=0).run(jobs)
        with ExecutionEngine(workers=2) as engine:
            parallel = engine.run(jobs)
        assert [r.payload_bytes() for r in parallel] == \
            [r.payload_bytes() for r in serial]

    def test_crash_isolation(self, zoo):
        design, system = zoo["gcd"]
        jobs = [simulate_job(system, design.environment()),
                probe_job("crash"),
                check_job(system),
                probe_job("ok")]
        with ExecutionEngine(workers=2, retries=1, backoff=0) as engine:
            batch = engine.run(jobs)
        statuses = [r.status for r in batch]
        assert statuses == ["ok", "failed", "ok", "ok"]
        assert "died" in batch[1].error
        assert batch[1].attempts == 2
        assert engine.metrics.pool_resets >= 1
        # the engine is still healthy for the next batch
        again = engine.run([probe_job("ok")])
        assert again.ok

    def test_crash_job_fails_after_its_attempt_budget(self):
        # the engine's whole answer to a poison job: it spends retries + 1
        # attempts, ends failed, and the jobs around it complete
        jobs = [probe_job("ok", payload=1, label="a"),
                probe_job("crash", label="poison"),
                probe_job("ok", payload=2, label="b"),
                probe_job("ok", payload=3, label="c")]
        with ExecutionEngine(workers=2, retries=2, backoff=0) as engine:
            batch = engine.run(jobs)
        by_label = {r.spec.label: r for r in batch}
        assert by_label["poison"].status == "failed"
        assert by_label["poison"].attempts == 3
        assert "died" in by_label["poison"].error
        assert [by_label[x].payload for x in "abc"] == [
            {"echo": 1}, {"echo": 2}, {"echo": 3}]
        assert batch.failures() == [by_label["poison"]]
        assert batch.metrics.failed == 1 and batch.metrics.succeeded == 3

    def test_timeout_charges_only_the_slow_job(self, zoo):
        design, system = zoo["gcd"]
        jobs = [probe_job("sleep", seconds=30.0),
                simulate_job(system, design.environment()),
                probe_job("ok")]
        with ExecutionEngine(workers=2, timeout=1.0, retries=0,
                             backoff=0) as engine:
            batch = engine.run(jobs)
        assert [r.status for r in batch] == ["failed", "ok", "ok"]
        assert batch[0].timed_out
        assert "timed out" in batch[0].error
        assert engine.metrics.timeouts == 1
        innocents = [r for r in batch if r.ok]
        assert all(not r.timed_out for r in innocents)

    def test_flaky_retry_across_processes(self, tmp_path):
        marker = tmp_path / "flaky"
        with ExecutionEngine(workers=2, retries=2, backoff=0) as engine:
            batch = engine.run(
                [probe_job("flaky", marker=str(marker), failures=1),
                 probe_job("ok")])
        assert batch.ok
        assert batch[0].attempts == 2
        assert engine.metrics.retries == 1

    def test_pids_prove_out_of_process(self):
        import os
        with ExecutionEngine(workers=2) as engine:
            batch = engine.run([probe_job("pid")])
        assert batch[0].payload["pid"] != os.getpid()


class TestDegradation:
    def test_pool_failure_degrades_to_serial(self, zoo, monkeypatch):
        design, system = zoo["gcd"]
        engine = ExecutionEngine(workers=2)
        monkeypatch.setattr(engine, "_ensure_pool", lambda: None)
        batch = engine.run([simulate_job(system, design.environment()),
                            check_job(system)])
        assert batch.ok
        assert engine.metrics.degraded_to_serial

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            ExecutionEngine(workers=-1)
        with pytest.raises(ValueError):
            ExecutionEngine(retries=-1)


class _InlinePool:
    """A stand-in pool that runs each job at submit time.

    Its ``refuse_at``-th submit raises ``BrokenProcessPool``, as a real
    pool does when a worker died after the engine's last wait.
    """

    def __init__(self, refuse_at: int | None):
        self.refuse_at = refuse_at
        self.submits = 0

    def submit(self, fn, *args):
        from concurrent.futures import Future
        from concurrent.futures.process import BrokenProcessPool

        self.submits += 1
        if self.submits == self.refuse_at:
            raise BrokenProcessPool("a worker died after the last wait")
        future = Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, **_options):
        pass


class TestBrokenSubmit:
    @pytest.mark.parametrize("refuse_at", [1, 3])
    def test_refused_submit_loses_and_charges_nothing(
            self, tmp_path, monkeypatch, refuse_at):
        """The first pool refuses one submit; every job still settles ok.

        At ``refuse_at=3`` two attempts are in flight when the pool
        breaks: their guilt is unknown, so they re-run one at a time.
        """
        import repro.runtime.executor as executor

        pools = []

        def make_pool(max_workers):
            pools.append(_InlinePool(refuse_at if not pools else None))
            return pools[-1]

        monkeypatch.setattr(executor, "ProcessPoolExecutor", make_pool)
        jobs = [probe_job("ok", payload=n, label=str(n)) for n in range(4)]
        journal = Journal(tmp_path / "wal.jsonl", fresh=True)
        with ExecutionEngine(workers=3, retries=0, backoff=0,
                             journal=journal) as engine:
            batch = engine.run(jobs)
        journal.close()
        assert [r.status for r in batch] == ["ok"] * 4
        assert [r.payload for r in batch] == [{"echo": n} for n in range(4)]
        assert [r.attempts for r in batch] == [1] * 4
        assert engine.metrics.pool_resets == 1
        assert len(pools) == 2
        settles = list(iter_settled(read_journal(tmp_path / "wal.jsonl")))
        assert sorted(key for key, _ in settles) == sorted(
            job.key for job in jobs)  # each job settles exactly once
        assert all(record["status"] == "ok" for _, record in settles)


class TestCachedBatches:
    def test_mixed_hit_miss_batch(self, tmp_path, zoo):
        design, system = zoo["gcd"]
        cache = ResultCache(tmp_path / "c")
        first = ExecutionEngine(cache=cache).run(
            [simulate_job(system, design.environment())])
        second = ExecutionEngine(cache=cache).run(
            [simulate_job(system, design.environment()), check_job(system)])
        assert [r.status for r in second] == ["cached", "ok"]
        assert second[0].payload == first[0].payload
        assert second.metrics.cached == 1
        assert second.metrics.dispatched == 1

    def test_key_is_computed_once_per_spec(self, tmp_path, zoo,
                                           monkeypatch):
        from repro.runtime import jobs

        calls = []
        real = jobs.job_key
        monkeypatch.setattr(jobs, "job_key",
                            lambda *args: calls.append(args) or real(*args))
        specs = zoo_jobs(zoo)
        engine = ExecutionEngine(cache=ResultCache(tmp_path / "c"))
        cold = engine.run(specs)
        warm = engine.run(specs)
        assert [r.status for r in cold] == ["ok"] * len(specs)
        assert [r.status for r in warm] == ["cached"] * len(specs)
        assert len(calls) == len(specs)

    def test_failures_are_not_cached(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        engine = ExecutionEngine(retries=0, backoff=0, cache=cache)
        engine.run([probe_job("fail")])
        assert len(cache) == 0
        rerun = engine.run([probe_job("fail")])
        assert rerun[0].status == "failed"  # re-executed, not served


def _resume_map(path):
    return {key: record.get("payload")
            for key, record in iter_settled(read_journal(path))
            if record.get("payload") is not None}


class TestEngineControl:
    def test_full_jitter_bounded_and_seeded(self):
        engine = ExecutionEngine(backoff=0.08, jitter_seed=7)
        delays = [engine._retry_delay(n) for n in (1, 2, 3)]
        for attempt, delay in zip((1, 2, 3), delays):
            assert 0.0 <= delay <= 0.08 * (2 ** (attempt - 1))
        again = ExecutionEngine(backoff=0.08, jitter_seed=7)
        assert [again._retry_delay(n) for n in (1, 2, 3)] == delays

    def test_seeded_jitter_schedule_is_pinned(self):
        engine = ExecutionEngine(jitter_seed=7, backoff=0.05)
        assert [engine._retry_delay(n) for n in (1, 2, 3)] == [
            0.01619163824165812, 0.015084917392450194, 0.13018689460797075]

    def test_negative_backoff_rejected(self):
        with pytest.raises(DefinitionError, match="backoff"):
            ExecutionEngine(backoff=-0.1)

    def test_stop_event_interrupts_batch(self):
        stop = threading.Event()
        stop.set()
        with ExecutionEngine() as engine:
            batch = engine.run([probe_job("ok", payload=1)], stop_event=stop)
        assert batch.interrupted
        assert batch[0].status == "interrupted"
        assert batch.metrics.interrupted_jobs == 1

    def test_on_result_streams_finalisations(self):
        seen = []
        with ExecutionEngine() as engine:
            engine.run([probe_job("ok", payload=1, label="x"),
                        probe_job("fail", label="y")],
                       on_result=lambda r: seen.append(r.status))
        assert sorted(seen) == ["failed", "ok"]


class TestEngineJournal:
    def test_journal_records_dispatch_and_settle(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        jobs = [probe_job("ok", payload=1, label="x"),
                probe_job("fail", label="y")]
        with Journal(path, fresh=True) as journal:
            with ExecutionEngine(retries=0, journal=journal) as engine:
                engine.run(jobs)
        records = read_journal(path)
        kinds = [(r["type"], r.get("status")) for r in records]
        assert kinds == [("dispatch", None), ("settle", "ok"),
                         ("dispatch", None), ("settle", "failed")]

    def test_resume_replays_settled_payloads(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        jobs = [probe_job("ok", payload={"n": 1}, label="x"),
                probe_job("ok", payload={"n": 2}, label="y")]
        with Journal(path, fresh=True) as journal:
            with ExecutionEngine(journal=journal) as engine:
                first = engine.run(jobs)
        with ExecutionEngine() as engine:
            second = engine.run(jobs, resume_from=_resume_map(path))
        assert all(r.status == "replayed" for r in second)
        assert [r.payload for r in second] == [r.payload for r in first]
        assert second.metrics.replayed == 2
        assert second.metrics.dispatched == 0  # nothing re-executed

    def test_resumes_a_journal_with_a_quarantined_settle(self, tmp_path):
        # written by an engine that still quarantined poison keys: the
        # "quarantined" settle carries no payload, so its job runs again
        path = tmp_path / "wal.jsonl"
        shutil.copy(FIXTURES / "parent-batch-journal.jsonl", path)
        jobs = load_job_file(FIXTURES / "parent-batch-jobs.json")
        statuses = {key: record["status"]
                    for key, record in iter_settled(read_journal(path))}
        assert sorted(statuses.values()) == ["ok", "ok", "quarantined"]
        with Journal(path, fresh=False) as journal:
            with ExecutionEngine(retries=0, journal=journal) as engine:
                batch = engine.run(jobs, resume_from=_resume_map(path))
        by_label = {r.spec.label: r for r in batch}
        assert by_label["a"].status == by_label["b"].status == "replayed"
        assert by_label["a"].payload == {"echo": {"n": 1}}
        assert by_label["poison"].status == "failed"
        assert batch.metrics.dispatched == 1
        assert list(iter_settled(read_journal(path)))[-1][1]["status"] == \
            "failed"


def test_pool_teardown_leaves_stderr_empty():
    """Closing a pool reaps its workers and its manager thread, so the
    interpreter's exit hook finds nothing to write to a closed pipe
    ("Exception ignored ... Bad file descriptor")."""
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(
        repro.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "faults", "gcd", "--auto", "24",
         "--seed", "1", "--workers", "2"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, timeout=300)
    assert proc.returncode in (0, 1)  # 1: the report has silent faults
    assert proc.stderr == ""
