"""Tests for repro.runtime.durable: atomic writes and the journal."""

from __future__ import annotations

import json

import pytest

from repro.errors import PersistenceError
from repro.runtime.durable import (
    Journal,
    atomic_write_text,
    dispatch_record,
    iter_settled,
    read_journal,
    settle_record,
)


# ---------------------------------------------------------------------------
# atomic writes
# ---------------------------------------------------------------------------
class TestAtomicWrite:
    def test_atomic_write_creates_parents(self, tmp_path):
        target = tmp_path / "a" / "b" / "x.txt"
        atomic_write_text(target, "hello")
        assert target.read_text() == "hello"


# ---------------------------------------------------------------------------
# the write-ahead journal
# ---------------------------------------------------------------------------
class TestJournal:
    def test_append_read_roundtrip(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        with Journal(path) as journal:
            journal.append(dispatch_record("k1", 1))
            journal.append(settle_record("k1", "ok", payload={"x": 1}))
        records = read_journal(path)
        assert records == [
            {"type": "dispatch", "key": "k1", "attempt": 1},
            {"type": "settle", "key": "k1", "status": "ok",
             "payload": {"x": 1}},
        ]

    def test_missing_file_is_empty(self, tmp_path):
        assert read_journal(tmp_path / "absent.jsonl") == []

    def test_closed_journal_refuses_append(self, tmp_path):
        journal = Journal(tmp_path / "wal.jsonl")
        journal.close()
        assert journal.closed
        with pytest.raises(PersistenceError, match="closed"):
            journal.append(dispatch_record("k", 1))

    def test_fresh_truncates(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        with Journal(path) as journal:
            journal.append(dispatch_record("old", 1))
        with Journal(path, fresh=True) as journal:
            journal.append(dispatch_record("new", 1))
        assert [r["key"] for r in read_journal(path)] == ["new"]

    def test_torn_tail_is_truncated(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        with Journal(path) as journal:
            journal.append(settle_record("k1", "ok"))
            journal.append(settle_record("k2", "ok"))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"v": 1, "sha": "feedbeef", "rec": {"tru')
        records = read_journal(path)
        assert [r["key"] for r in records] == ["k1", "k2"]
        # the file itself was repaired: clean appends continue the log
        with Journal(path) as journal:
            journal.append(settle_record("k3", "ok"))
        assert [r["key"] for r in read_journal(path)] == ["k1", "k2", "k3"]

    def test_mid_file_corruption_refused(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        with Journal(path) as journal:
            journal.append(settle_record("k1", "ok"))
            journal.append(settle_record("k2", "ok"))
        lines = path.read_text().splitlines()
        lines[0] = lines[0][:-10] + "corruption"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(PersistenceError, match="mid-file"):
            read_journal(path)

    def test_tampered_record_fails_digest(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        with Journal(path) as journal:
            journal.append(settle_record("k1", "ok"))
        line = json.loads(path.read_text())
        line["rec"]["status"] = "failed"  # tamper without re-hashing
        path.write_text(json.dumps(line) + "\n")
        assert read_journal(path, repair=False) == []

    def test_iter_settled_filters(self):
        records = [dispatch_record("a", 1), settle_record("a", "ok"),
                   {"type": "campaign"}, settle_record("b", "failed")]
        assert [key for key, _ in iter_settled(records)] == ["a", "b"]


# ---------------------------------------------------------------------------
# concurrent writers share one journal
# ---------------------------------------------------------------------------
class TestConcurrentSettle:
    """Several threads settling disjoint keys into one journal."""

    def test_interleaved_settles_all_survive_intact(self, tmp_path):
        import threading

        from repro.runtime import probe_job

        path = tmp_path / "wal.jsonl"
        specs = [probe_job("ok", payload={"n": i}) for i in range(60)]
        owner = {spec.key: i % 3 for i, spec in enumerate(specs)}
        start = threading.Barrier(3)
        with Journal(path, fresh=True) as journal:
            def worker(w):
                # each worker owns every third key: disjoint keys, one
                # journal; the barrier lines the writers up
                start.wait()
                for spec in specs[w::3]:
                    journal.append(settle_record(
                        spec.key, "ok",
                        payload={"worker": w, "pad": "x" * 4096}))

            threads = [threading.Thread(target=worker, args=(w,))
                       for w in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert journal.records_written == 60

        records = read_journal(path)  # every line must verify its digest
        settles = [r for r in records if r.get("type") == "settle"]
        assert len(settles) == 60
        assert {r["key"] for r in settles} == {s.key for s in specs}
        for record in settles:
            assert record["payload"]["worker"] == owner[record["key"]]

    def test_resume_from_replays_concurrently_settled_keys(self, tmp_path):
        import threading

        from repro.runtime import ExecutionEngine, probe_job

        path = tmp_path / "wal.jsonl"
        specs = [probe_job("ok", payload={"n": i}) for i in range(40)]
        half = len(specs) // 2
        with Journal(path, fresh=True) as journal:
            def settle_range(chunk):
                for spec in chunk:
                    journal.append(settle_record(
                        spec.key, "ok", payload={"v": spec.params}))

            threads = [threading.Thread(target=settle_range, args=(c,))
                       for c in (specs[:half], specs[half:])]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)

        resume_from = {key: record.get("payload")
                       for key, record in iter_settled(read_journal(path))}
        assert len(resume_from) == len(specs)
        batch = ExecutionEngine().run(specs, resume_from=resume_from)
        assert [r.status for r in batch] == ["replayed"] * len(specs)
        assert batch.metrics.dispatched == 0
