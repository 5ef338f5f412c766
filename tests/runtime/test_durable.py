"""Tests for repro.runtime.durable: checkpoints, store, journal."""

from __future__ import annotations

import json

import pytest

from repro.designs import ZOO
from repro.errors import DefinitionError, PersistenceError
from repro.runtime.durable import (
    CheckpointHook,
    CheckpointStore,
    Journal,
    atomic_write_text,
    checkpoint_from_dict,
    checkpoint_to_dict,
    dispatch_record,
    iter_settled,
    read_journal,
    settle_record,
)
from repro.semantics import SeededMaximalPolicy
from repro.semantics.simulator import Simulator


def _gcd_sim(seed=None):
    design = ZOO["gcd"]
    policy = SeededMaximalPolicy(seed) if seed is not None else None
    kwargs = {"policy": policy} if policy is not None else {}
    return Simulator(design.build(), design.environment(), **kwargs)


def _events(trace):
    return [(event.end, str(event)) for event in trace.events]


# ---------------------------------------------------------------------------
# checkpoint serialisation
# ---------------------------------------------------------------------------
class TestCheckpointRoundtrip:
    def test_json_roundtrip_is_identity(self):
        sim = _gcd_sim()
        sim.run(max_steps=5, on_limit="return")
        ckpt = sim.checkpoint()
        data = json.loads(json.dumps(checkpoint_to_dict(ckpt)))
        restored = checkpoint_from_dict(data)
        assert restored.step == ckpt.step
        assert dict(restored.marking) == dict(ckpt.marking)
        assert restored.state == ckpt.state
        assert restored.activations == ckpt.activations
        assert restored.activation_counter == ckpt.activation_counter
        assert restored.event_index == ckpt.event_index
        assert restored.env_cursors == ckpt.env_cursors

    def test_undef_values_survive(self):
        # fresh simulator: INPUT/OUTPUT record ports start UNDEF
        sim = _gcd_sim()
        sim.run(max_steps=1, on_limit="return")
        ckpt = sim.checkpoint()
        data = json.loads(json.dumps(checkpoint_to_dict(ckpt)))
        restored = checkpoint_from_dict(data)
        assert restored.state == ckpt.state  # UNDEF identity preserved

    def test_rng_state_roundtrip(self):
        sim = _gcd_sim(seed=11)
        sim.run(max_steps=4, on_limit="return")
        ckpt = sim.checkpoint()
        assert ckpt.rng_state is not None
        data = json.loads(json.dumps(checkpoint_to_dict(ckpt)))
        restored = checkpoint_from_dict(data)
        assert restored.rng_state == ckpt.rng_state  # tuples, not lists

    def test_unknown_format_rejected(self):
        with pytest.raises(PersistenceError, match="format"):
            checkpoint_from_dict({"format": 999})

    def test_malformed_payload_rejected(self):
        with pytest.raises(PersistenceError, match="malformed"):
            checkpoint_from_dict({"format": 1, "step": 0})


# ---------------------------------------------------------------------------
# atomic writes and the checkpoint store
# ---------------------------------------------------------------------------
class TestCheckpointStore:
    def test_atomic_write_creates_parents(self, tmp_path):
        target = tmp_path / "a" / "b" / "x.txt"
        atomic_write_text(target, "hello")
        assert target.read_text() == "hello"

    def test_save_load_roundtrip(self, tmp_path):
        sim = _gcd_sim()
        sim.run(max_steps=5, on_limit="return")
        ckpt = sim.checkpoint()
        store = CheckpointStore(tmp_path)
        path = store.save(ckpt)
        assert path.exists()
        loaded = store.load(path)
        assert loaded.step == ckpt.step
        assert loaded.state == ckpt.state

    def test_rotation_keeps_newest(self, tmp_path):
        sim = _gcd_sim()
        store = CheckpointStore(tmp_path, keep=2)
        for steps in (2, 4, 6, 8):
            fresh = _gcd_sim()
            fresh.run(max_steps=steps, on_limit="return")
            store.save(fresh.checkpoint())
        names = [path.name for path in store.paths()]
        assert names == ["ckpt-0000000006.json", "ckpt-0000000008.json"]

    def test_keep_must_allow_fallback(self, tmp_path):
        with pytest.raises(DefinitionError):
            CheckpointStore(tmp_path, keep=1)

    def test_load_latest_empty_store(self, tmp_path):
        assert CheckpointStore(tmp_path).load_latest() is None

    def test_corrupt_latest_falls_back(self, tmp_path):
        store = CheckpointStore(tmp_path)
        for steps in (3, 6):
            sim = _gcd_sim()
            sim.run(max_steps=steps, on_limit="return")
            store.save(sim.checkpoint())
        newest = store.paths()[-1]
        newest.write_text(newest.read_text()[:-40] + "garbage")
        loaded = store.load_latest()
        assert loaded is not None
        assert loaded.step == 3  # fell back to the previous good snapshot
        assert store.corrupt_skipped == 1

    def test_digest_mismatch_detected(self, tmp_path):
        store = CheckpointStore(tmp_path)
        sim = _gcd_sim()
        sim.run(max_steps=3, on_limit="return")
        path = store.save(sim.checkpoint())
        envelope = json.loads(path.read_text())
        envelope["checkpoint"]["step"] = 999  # bit-rot the body
        path.write_text(json.dumps(envelope))
        with pytest.raises(PersistenceError, match="integrity"):
            store.load(path)


# ---------------------------------------------------------------------------
# the periodic-checkpoint hook
# ---------------------------------------------------------------------------
class TestCheckpointHook:
    def test_interval_must_be_positive(self, tmp_path):
        with pytest.raises(DefinitionError):
            CheckpointHook(CheckpointStore(tmp_path), 0)

    def test_saves_every_n_steps(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=16)
        hook = CheckpointHook(store, 3)
        design = ZOO["gcd"]
        sim = Simulator(design.build(), design.environment(), hooks=[hook])
        sim.run(max_steps=100, on_limit="return")
        assert hook.saved_steps
        assert all(step % 3 == 0 for step in hook.saved_steps)
        assert len(store.paths()) == len(hook.saved_steps)

    def test_resume_from_hook_snapshot_matches_uninterrupted(self, tmp_path):
        design = ZOO["gcd"]
        golden = Simulator(design.build(), design.environment())
        full = golden.run(max_steps=100, on_limit="return")

        store = CheckpointStore(tmp_path, keep=16)
        hook = CheckpointHook(store, 4)
        first = Simulator(design.build(), design.environment(), hooks=[hook])
        first.run(max_steps=100, on_limit="return")

        ckpt = store.load_latest()
        assert ckpt is not None
        resumed = Simulator(design.build(), design.environment())
        tail = resumed.run(max_steps=100, on_limit="return",
                           from_checkpoint=ckpt)
        prefix = [e for e in full.events if e.end <= ckpt.step]
        assert ([(e.end, str(e)) for e in prefix]
                + _events(tail) == _events(full))
        assert tail.step_count == full.step_count

    def test_hook_leaves_trace_identical(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=16)
        hook = CheckpointHook(store, 5)
        assert not hook.perturbs_values
        design = ZOO["gcd"]
        hooked = Simulator(design.build(), design.environment(),
                           hooks=[hook]).run()
        plain = Simulator(design.build(), design.environment()).run()
        assert hook.saved_steps
        assert hooked == plain
        assert hooked.events == plain.events
        assert hooked.latches == plain.latches
        assert hooked.final_state == plain.final_state


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
# concurrent writers: service workers share one journal
# ---------------------------------------------------------------------------
class TestConcurrentSettle:
    """Two workers settling distinct queue shards into one journal."""

    def test_interleaved_settles_all_survive_intact(self, tmp_path):
        import threading

        from repro.runtime import probe_job
        from repro.runtime.service import ShardedQueue, shard_of

        path = tmp_path / "wal.jsonl"
        specs = [probe_job("ok", payload={"n": i}) for i in range(60)]
        with Journal(path, fresh=True) as journal:
            queue = ShardedQueue(shards=2, journal=journal)
            for spec in specs:
                queue.submit(spec)

            def worker(shard):
                # each worker owns one shard: disjoint keys, one journal
                while True:
                    job = queue.claim(shard=shard)
                    if job is None:
                        return
                    queue.settle(job.key, "ok",
                                 payload={"shard": shard, "n": job.seq})

            threads = [threading.Thread(target=worker, args=(s,))
                       for s in (0, 1)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)

        records = read_journal(path)  # every line must verify its digest
        settles = [r for r in records if r.get("type") == "settle"]
        assert len(settles) == 60
        assert {r["key"] for r in settles} == {s.key for s in specs}
        for record in settles:
            assert record["payload"]["shard"] == shard_of(record["key"], 2)

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
