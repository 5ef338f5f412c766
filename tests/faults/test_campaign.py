"""Fault campaigns: verdict oracle, journal resume, job integration."""

import hashlib
import json
import shutil
from pathlib import Path

import pytest

from repro.designs import get_design
from repro.faults import (
    CampaignReport,
    FaultSpec,
    deviation_count,
    event_structure_digest,
    generate_faults,
    run_campaign,
    run_single_fault,
    watchdog_budget,
)
from repro.core.events import EventStructure
import repro.faults.campaign as campaign_module
from repro.faults.spec import resolve_seeds
from repro.runtime import ExecutionEngine, execute_job, vecbatch_faults_job
from repro.runtime.durable import read_journal
from repro.semantics import simulate
from repro.semantics.event_structure import event_structure_from_trace

#: A journal written by the one-job-per-fault campaign path this module
#: used to have: gcd, ``TestCampaign.FAULTS``, seed 7, ``limit=2``.
PARENT_JOURNAL = (Path(__file__).resolve().parent.parent / "runtime"
                  / "fixtures" / "parent-campaign-journal.jsonl")


def _design(name):
    design = get_design(name)
    return design.build(), design.environment()


# One detected-with-latency case and one masked case per fault class,
# verified against the zoo designs.  Format:
#   (design, spec, expected_rule, expected_latency)  for detections
#   (design, spec)                                   for masked faults
DETECTED_CASES = [
    ("gcd", FaultSpec("stuck_at", "not1.o", value=1, start=0),
     "RT003", 3),
    ("counter", FaultSpec("bit_flip", "reg_limit.q", bit=20, start=3,
                          once=True),
     "RT005", 85),
    ("traffic", FaultSpec("token_loss", "s4_assign_ns", start=0),
     "RT006", 1),
    ("gcd", FaultSpec("token_duplicate", "s0_entry", start=0, end=0),
     "RT001", 0),
    ("traffic", FaultSpec("token_misroute", "s4_assign_ns",
                          to_place="s6_assign_ew", start=0),
     "RT001", 0),
    ("gcd", FaultSpec("guard_invert", "t_exit6", start=0),
     "RT003", 3),
    ("gcd", FaultSpec("arc_open", "a0", while_place="s5_assign_a"),
     "RT002", 0),
    ("gcd", FaultSpec("arc_close", "a2", start=0),
     "RT006", 3),
]

MASKED_CASES = [
    ("gcd", FaultSpec("stuck_at", "ne0.o", value=1, start=1, end=3)),
    ("counter", FaultSpec("bit_flip", "count.snk", bit=0, start=3,
                          once=True)),
    ("gcd", FaultSpec("token_loss", "s3_while", start=9999)),
    ("gcd", FaultSpec("token_duplicate", "s0_entry", start=1, end=1)),
    ("traffic", FaultSpec("token_misroute", "s4_assign_ns",
                          to_place="s6_assign_ew", start=9999)),
    ("gcd", FaultSpec("guard_invert", "t_then2", start=0, end=2)),
    ("gcd", FaultSpec("arc_open", "a2", while_place="s3_while")),
    ("gcd", FaultSpec("arc_close", "a0", start=3)),
]


def _case_id(case):
    return f"{case[1].kind}:{case[1].target}"


class TestVerdictMatrix:
    @pytest.mark.parametrize("design,spec,rule,latency", DETECTED_CASES,
                             ids=[_case_id(c) for c in DETECTED_CASES])
    def test_detected_with_latency(self, design, spec, rule, latency):
        system, env = _design(design)
        payload = run_single_fault(system, spec, env)
        assert payload["verdict"] == "detected"
        assert rule in payload["detected_by"]
        assert payload["detection_latency"] == latency
        assert payload["detection_step"] == (
            payload["first_injection_step"] + latency)

    @pytest.mark.parametrize("design,spec", MASKED_CASES,
                             ids=[_case_id(c) for c in MASKED_CASES])
    def test_masked(self, design, spec):
        system, env = _design(design)
        payload = run_single_fault(system, spec, env)
        assert payload["verdict"] == "masked"
        assert payload["findings"] == []
        assert payload["deviation_events"] == 0


class TestOracle:
    def test_digest_stable_and_sensitive(self):
        system, env = _design("gcd")
        structure = event_structure_from_trace(
            system, simulate(system, env.fork()))
        assert event_structure_digest(structure) == \
            event_structure_digest(structure)
        empty = EventStructure((), frozenset(), frozenset())
        assert event_structure_digest(structure) != \
            event_structure_digest(empty)

    def test_deviation_count(self):
        system, env = _design("gcd")
        structure = event_structure_from_trace(
            system, simulate(system, env.fork()))
        assert deviation_count(structure, structure) == 0
        empty = EventStructure((), frozenset(), frozenset())
        # every golden value is a deviation against an empty faulty run
        total = sum(len(vs) for vs in structure.value_sequences().values())
        assert deviation_count(structure, empty) == total

    def test_watchdog_budget_clamps(self):
        assert watchdog_budget(0, 10_000) == 16
        assert watchdog_budget(14, 10_000) == 72
        assert watchdog_budget(5_000, 100) == 100


class TestCampaign:
    FAULTS = [
        FaultSpec("stuck_at", "ne0.o", value=1, start=1, end=3),  # masked
        FaultSpec("guard_invert", "t_exit6", start=0),            # detected
        FaultSpec("token_duplicate", "s0_entry", start=0, end=0),  # detected
        FaultSpec("arc_close", "a2", start=0),                    # detected
        FaultSpec("token_loss", "s3_while", start=0),             # silent
    ]

    def test_counts_and_exit_code(self):
        system, env = _design("gcd")
        report = run_campaign(system, self.FAULTS, env, seed=3)
        assert report.complete
        assert len(report.results) == len(self.FAULTS)
        assert report.counts == {"masked": 1, "detected": 3, "silent": 1,
                                 "error": 0}
        assert report.exit_code == 1  # silent corruption present
        assert not report.ok

    def test_report_round_trip(self):
        system, env = _design("gcd")
        report = run_campaign(system, self.FAULTS[:2], env, seed=3)
        clone = CampaignReport.from_dict(report.to_dict())
        assert clone.to_dict() == report.to_dict()
        text = report.to_text()
        assert "detected" in text and "masked" in text

    def test_interrupted_campaign_resumes_identically(self, tmp_path):
        """A journal from the retired per-fault path still resumes."""
        system, env = _design("gcd")
        journal = tmp_path / "campaign.jsonl"
        shutil.copyfile(PARENT_JOURNAL, journal)
        records = read_journal(str(journal))
        assert records[0] == {"type": "campaign", "system": "gcd",
                              "seed": 7, "max_steps": 10_000}
        assert sum(r["type"] == "verdict" for r in records) == 2

        straight = run_campaign(system, self.FAULTS, env, seed=7)
        resumed = run_campaign(system, self.FAULTS, env, seed=7,
                               journal_path=str(journal), resume=True)
        assert resumed.complete
        assert resumed.to_dict() == straight.to_dict()
        verdicts = [r for r in read_journal(str(journal))
                    if r["type"] == "verdict"]
        assert [r["key"] for r in verdicts] == [
            r["key"] for r in straight.results]

    def test_generated_campaign_runs(self):
        system, env = _design("gcd")
        faults = generate_faults(system, 6, seed=2)
        report = run_campaign(system, faults, env, seed=2)
        assert len(report.results) == 6
        assert all(r["verdict"] in ("masked", "detected", "silent")
                   for r in report.results)

    # ------------------------------------------------------------------
    # write-ahead journal resume
    # ------------------------------------------------------------------
    def test_journal_resume_identical_without_redispatch(self, tmp_path):
        system, env = _design("gcd")
        journal = str(tmp_path / "campaign.jsonl")

        straight = run_campaign(system, self.FAULTS, env, seed=7)

        partial = run_campaign(system, self.FAULTS, env, seed=7,
                               journal_path=journal, limit=2)
        assert not partial.complete
        records = read_journal(journal)
        assert records[0]["type"] == "campaign"
        assert sum(r["type"] == "verdict" for r in records) == 2

        with ExecutionEngine() as engine:
            dispatched = []
            run = engine.run

            def spy(specs, **options):
                dispatched.extend(specs)
                return run(specs, **options)

            engine.run = spy
            resumed = run_campaign(system, self.FAULTS, env, seed=7,
                                   engine=engine, journal_path=journal,
                                   resume=True)
        assert resumed.complete
        assert resumed.to_dict()["results"] == straight.to_dict()["results"]
        # only the three missing faults were dispatched on resume, in one
        # chunk on the serial engine
        assert [len(spec.params["entries"]) for spec in dispatched] == [
            len(self.FAULTS) - 2]
        assert engine.metrics.jobs == 1

        # a second resume dispatches nothing at all
        with ExecutionEngine() as engine:
            again = run_campaign(system, self.FAULTS, env, seed=7,
                                 engine=engine, journal_path=journal,
                                 resume=True)
        assert again.to_dict()["results"] == straight.to_dict()["results"]
        assert engine.metrics is None  # engine.run never called

    def test_journal_resume_survives_torn_tail(self, tmp_path):
        system, env = _design("gcd")
        journal = str(tmp_path / "campaign.jsonl")
        run_campaign(system, self.FAULTS, env, seed=7,
                     journal_path=journal, limit=2)
        with open(journal, "a", encoding="utf-8") as handle:
            handle.write('{"v": 1, "sha": "00", "rec": {"type": "verd')
        resumed = run_campaign(system, self.FAULTS, env, seed=7,
                               journal_path=journal, resume=True)
        straight = run_campaign(system, self.FAULTS, env, seed=7)
        assert resumed.to_dict()["results"] == straight.to_dict()["results"]

    def test_journal_config_mismatch_refused(self, tmp_path):
        from repro.errors import PersistenceError

        system, env = _design("gcd")
        journal = str(tmp_path / "campaign.jsonl")
        run_campaign(system, self.FAULTS, env, seed=7,
                     journal_path=journal, limit=1)
        with pytest.raises(PersistenceError, match="different campaign"):
            run_campaign(system, self.FAULTS, env, seed=8,
                         journal_path=journal, resume=True)

    def test_stop_event_interrupts_and_resume_completes(self, tmp_path):
        import threading

        system, env = _design("gcd")
        journal = str(tmp_path / "campaign.jsonl")
        stop = threading.Event()
        stop.set()
        partial = run_campaign(system, self.FAULTS, env, seed=7,
                               journal_path=journal, stop_event=stop)
        assert not partial.complete
        assert partial.results == []  # interrupted jobs are not verdicts
        resumed = run_campaign(system, self.FAULTS, env, seed=7,
                               journal_path=journal, resume=True)
        straight = run_campaign(system, self.FAULTS, env, seed=7)
        assert resumed.complete
        assert resumed.to_dict()["results"] == straight.to_dict()["results"]


class TestFaultsJob:
    """One fault inside a ``vecbatch`` chunk, the unit a campaign runs."""

    def test_execute_job_matches_direct_run(self):
        system, env = _design("gcd")
        spec = FaultSpec("guard_invert", "t_exit6", start=0, seed=1)
        job = vecbatch_faults_job(system, [spec], env)
        assert job.kind == "vecbatch"
        (entry,) = execute_job(job.to_dict())["payload"]["entries"]
        direct = run_single_fault(system, spec, env)
        assert entry == dict(direct, key=entry["key"])

    def test_key_stable_and_fault_sensitive(self):
        system, env = _design("gcd")
        spec = FaultSpec("guard_invert", "t_exit6", start=0, seed=1)
        other = FaultSpec("guard_invert", "t_exit6", start=1, seed=1)

        def keys(*faults):
            job = vecbatch_faults_job(system, list(faults), env)
            return [entry["key"] for entry in job.params["entries"]]

        # a fault's key does not depend on the chunk around it
        assert keys(spec) == keys(spec) == keys(spec, other)[:1]
        assert keys(spec) != keys(other)

    def test_bad_target_rejected_eagerly(self):
        from repro.errors import DefinitionError
        system, env = _design("gcd")
        with pytest.raises(DefinitionError):
            vecbatch_faults_job(system, [FaultSpec("token_loss", "nowhere")],
                                env)


def _verdict_map(path):
    return {r["key"]: r["entry"] for r in read_journal(path)
            if r.get("type") == "verdict"}


class TestVectorBackend:
    """Campaign chunks: ``vecbatch`` jobs sharing a compiled golden run."""

    FAULTS = TestCampaign.FAULTS

    def test_report_identical_to_interpreter(self):
        """Each entry equals the interpreter-only ``run_single_fault``."""
        system, env = _design("gcd")
        report = run_campaign(system, self.FAULTS, env, seed=3)
        specs = resolve_seeds(list(self.FAULTS), 3)
        keys = [entry["key"] for entry in vecbatch_faults_job(
            system, specs, env, campaign_seed=3).params["entries"]]
        assert report.results == [
            dict(run_single_fault(system, spec, env, campaign_seed=3),
                 key=key)
            for spec, key in zip(specs, keys)]

    def test_generated_faults_identical(self):
        """Twenty generated faults: the report bytes the per-fault path
        produced, so the chunked path changes no verdict."""
        system, env = _design("gcd")
        faults = generate_faults(system, 20, seed=2)  # > one 16-chunk
        report = run_campaign(system, faults, env, seed=2)
        blob = json.dumps(report.to_dict(), sort_keys=True)
        assert hashlib.sha256(blob.encode()).hexdigest() == (
            "3ee4fe092d264cb1ea12ea25442996232767f348"
            "250fc896ef42b1dfc12c393c")

    @pytest.mark.parametrize("chunk_size", [1, 3, 64])
    def test_chunk_size_never_changes_verdicts_or_journal(self, tmp_path,
                                                          monkeypatch,
                                                          chunk_size):
        """The chunk cap is throughput-only: reports and journals are
        invariant whether a chunk holds 1, 3 or every fault."""
        system, env = _design("gcd")
        faults = generate_faults(system, 7, seed=2)  # spans chunks at 1, 3

        baseline_journal = str(tmp_path / "baseline.jsonl")
        baseline = run_campaign(system, faults, env, seed=2,
                                journal_path=baseline_journal)
        monkeypatch.setattr(campaign_module, "MAX_CHUNK_FAULTS", chunk_size)
        chunked_journal = str(tmp_path / f"chunk{chunk_size}.jsonl")
        chunked = run_campaign(system, faults, env, seed=2,
                               journal_path=chunked_journal)

        assert chunked.to_dict() == baseline.to_dict()
        assert _verdict_map(chunked_journal) == _verdict_map(baseline_journal)
        assert len(_verdict_map(chunked_journal)) == 7

    def test_workers_never_change_verdicts_or_journal(self, tmp_path):
        """Serial chunks of 16 and pool-sized chunks of 10 agree."""
        system, env = _design("gcd")
        faults = generate_faults(system, 20, seed=2)
        reports, journals = [], []
        for workers in (0, 2):
            journal = str(tmp_path / f"workers{workers}.jsonl")
            with ExecutionEngine(workers=workers) as engine:
                reports.append(run_campaign(system, faults, env, seed=2,
                                            engine=engine,
                                            journal_path=journal))
            journals.append(_verdict_map(journal))
        assert reports[0].to_dict() == reports[1].to_dict()
        assert journals[0] == journals[1]
        assert len(journals[0]) == 20

    def test_journal_interop_across_backends(self, tmp_path):
        """A journal resumes whatever chunking wrote it."""
        system, env = _design("gcd")
        straight = run_campaign(system, self.FAULTS, env, seed=7)

        serial = str(tmp_path / "serial.jsonl")
        partial = run_campaign(system, self.FAULTS, env, seed=7,
                               journal_path=serial, limit=3)
        assert not partial.complete
        assert len(partial.results) == 3  # limit counts faults
        per_fault = tmp_path / "per-fault.jsonl"
        shutil.copyfile(PARENT_JOURNAL, per_fault)
        for journal in (serial, str(per_fault)):
            with ExecutionEngine(workers=2) as engine:
                resumed = run_campaign(system, self.FAULTS, env, seed=7,
                                       engine=engine, journal_path=journal,
                                       resume=True)
            assert resumed.complete
            assert resumed.to_dict()["results"] == \
                straight.to_dict()["results"]
