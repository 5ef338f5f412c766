"""ShardedQueue: sharding, FIFO claims, WAL resume."""

from __future__ import annotations

import pytest

from repro.errors import DefinitionError
from repro.runtime import probe_job
from repro.runtime.durable import Journal, read_journal
from repro.runtime.service import (
    ShardedQueue,
    replay_queue_journal,
    shard_of,
)


def _specs(n, prefix="q"):
    return [probe_job("ok", payload={"n": i, "p": prefix}) for i in range(n)]


class TestSharding:
    def test_shard_is_stable_and_in_range(self):
        specs = _specs(32)
        for spec in specs:
            shard = shard_of(spec.key, 8)
            assert 0 <= shard < 8
            assert shard == shard_of(spec.key, 8)  # deterministic

    def test_submit_routes_to_key_shard(self):
        queue = ShardedQueue(shards=4)
        for spec in _specs(16):
            job = queue.submit(spec)
            assert job.shard == shard_of(spec.key, 4)

    def test_claim_respects_shard_pin(self):
        # 3 jobs over 16 shards: at least 13 shards are provably empty
        queue = ShardedQueue(shards=16)
        jobs = [queue.submit(spec) for spec in _specs(3)]
        target = jobs[0].shard
        claimed = queue.claim(shard=target)
        assert claimed is not None and claimed.shard == target
        empty_shard = next(s for s in range(16)
                           if not any(j.shard == s for j in jobs))
        assert queue.claim(shard=empty_shard) is None

    def test_bad_shard_count_rejected(self):
        with pytest.raises(DefinitionError):
            ShardedQueue(shards=0)


class TestOrdering:
    def test_fifo_within_a_priority(self):
        queue = ShardedQueue(shards=1)
        specs = _specs(5)
        for spec in specs:
            queue.submit(spec)
        order = [queue.claim().key for _ in specs]
        assert order == [spec.key for spec in specs]

    def test_unpinned_claims_follow_acceptance_order_across_shards(self):
        queue = ShardedQueue(shards=4)
        specs = _specs(12)
        for spec in specs:
            queue.submit(spec)
        assert len({shard_of(spec.key, 4) for spec in specs}) > 1
        assert [queue.claim().key for _ in specs] == [s.key for s in specs]
        assert queue.claim() is None

    def test_submit_is_idempotent_per_key(self):
        queue = ShardedQueue(shards=2)
        spec = _specs(1)[0]
        first = queue.submit(spec)
        again = queue.submit(spec)
        assert again is first
        assert len(queue) == 1


class TestSettle:
    def test_settle_removes_claimed_job(self):
        queue = ShardedQueue(shards=1)
        spec = _specs(1)[0]
        queue.submit(spec)
        job = queue.claim()
        queue.settle(job.key, "ok", payload={"v": 1})
        assert len(queue) == 0
        assert queue.stats()["claimed"] == 0

    def test_requeue_expired_returns_lost_claims(self):
        queue = ShardedQueue(shards=1)
        spec = _specs(1)[0]
        queue.submit(spec)
        job = queue.claim()
        job.claimed_at -= 100.0  # pretend the worker died long ago
        assert queue.requeue_expired(lease_seconds=30.0) == [job.key]
        assert queue.claim().key == job.key  # claimable again


class TestDurability:
    def test_accepts_and_settles_are_journalled(self, tmp_path):
        path = tmp_path / "q.jsonl"
        with Journal(path, fresh=True) as journal:
            queue = ShardedQueue(shards=2, journal=journal)
            specs = _specs(3)
            for spec in specs:
                queue.submit(spec)
            job = queue.claim()
            queue.settle(job.key, "ok", payload={"v": 1})
        accepts, settles = replay_queue_journal(path)
        assert set(accepts) == {spec.key for spec in specs}
        assert set(settles) == {job.key}
        # the WAL *is* the queue: accepts carry the whole spec
        assert accepts[job.key]["spec"]["kind"] == "probe"

    def test_resume_requeues_unsettled_preserving_metadata(self, tmp_path):
        path = tmp_path / "q.jsonl"
        specs = _specs(4)
        with Journal(path, fresh=True) as journal:
            queue = ShardedQueue(shards=2, journal=journal)
            for spec in specs:
                queue.submit(spec)
            done = queue.claim()
            queue.settle(done.key, "ok", payload={"v": 1})
        # ... SIGKILL ... restart:
        revived = ShardedQueue(shards=2)
        settled = revived.resume(path)
        assert set(settled) == {done.key}
        assert settled[done.key]["payload"] == {"v": 1}
        assert len(revived) == 3
        assert [job.key for job in revived.pending()] == [
            spec.key for spec in specs if spec.key != done.key]
        for job in revived.pending():
            assert job.shard == shard_of(job.key, 2)
            assert job.spec.key == job.key

    def test_failed_settle_is_requeued_on_resume(self, tmp_path):
        # at-least-once: a failure is not a completion
        path = tmp_path / "q.jsonl"
        spec = _specs(1)[0]
        with Journal(path, fresh=True) as journal:
            queue = ShardedQueue(shards=1, journal=journal)
            queue.submit(spec)
            job = queue.claim()
            queue.settle(job.key, "failed", error="boom")
        revived = ShardedQueue(shards=1)
        assert revived.resume(path) == {}
        assert len(revived) == 1

    def test_resume_then_continue_extends_the_log(self, tmp_path):
        path = tmp_path / "q.jsonl"
        specs = _specs(2)
        with Journal(path, fresh=True) as journal:
            queue = ShardedQueue(shards=1, journal=journal)
            for spec in specs:
                queue.submit(spec)
        revived = ShardedQueue(shards=1)
        revived.resume(path)
        with Journal(path, fresh=False) as journal:
            revived.journal = journal
            job = revived.claim()
            revived.settle(job.key, "ok", payload={"v": 9})
        records = read_journal(path)
        assert [r["type"] for r in records].count("accept") == 2
        assert records[-1]["type"] == "settle"


class TestWalCorruption:
    """Crash damage to the WAL: torn tails heal, mid-file rot refuses."""

    def _journalled_queue(self, path, n=5):
        specs = _specs(n)
        with Journal(path, fresh=True) as journal:
            queue = ShardedQueue(shards=2, journal=journal)
            for spec in specs:
                queue.submit(spec)
        return specs

    def test_torn_tail_is_repaired_on_resume(self, tmp_path):
        path = tmp_path / "q.jsonl"
        specs = self._journalled_queue(path)
        # kill -9 mid-append: a partial record with no newline
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"v": 1, "sha": "deadbeef", "rec": {"type": "acc')
        revived = ShardedQueue(shards=2)
        assert revived.resume(path) == {}
        assert len(revived) == len(specs)
        assert {job.key for job in revived.pending()} == {s.key for s in specs}

    def test_repair_truncates_so_appends_continue(self, tmp_path):
        path = tmp_path / "q.jsonl"
        self._journalled_queue(path, n=2)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("garbage that is not json\n")
        revived = ShardedQueue(shards=2)
        revived.resume(path)  # repairs: truncates the torn tail
        with Journal(path, fresh=False) as journal:
            revived.journal = journal
            job = revived.claim()
            revived.settle(job.key, "ok", payload={"v": 1})
        # the log replays cleanly end to end — no garbage left behind
        records = read_journal(path)
        assert [r["type"] for r in records].count("accept") == 2
        assert records[-1]["type"] == "settle"

    def test_flipped_byte_in_tail_record_is_torn_tail(self, tmp_path):
        path = tmp_path / "q.jsonl"
        specs = self._journalled_queue(path, n=3)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        # corrupt the *last* record's body: digest mismatch, still a tail
        lines[-1] = lines[-1].replace('"type"', '"tape"', 1)
        path.write_text("".join(lines), encoding="utf-8")
        revived = ShardedQueue(shards=2)
        revived.resume(path)
        assert len(revived) == len(specs) - 1

    def test_mid_file_corruption_refuses_to_resume(self, tmp_path):
        from repro.errors import PersistenceError

        path = tmp_path / "q.jsonl"
        self._journalled_queue(path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        assert len(lines) >= 3
        # rot in the middle with intact records after it: not a torn
        # tail, so repair would silently drop committed work — refuse.
        lines[1] = lines[1].replace('"type"', '"tape"', 1)
        path.write_text("".join(lines), encoding="utf-8")
        revived = ShardedQueue(shards=2)
        with pytest.raises(PersistenceError):
            revived.resume(path)
        # and the file is left untouched for forensics
        assert path.read_text(encoding="utf-8") == "".join(lines)
