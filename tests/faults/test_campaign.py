"""Fault campaigns: verdict oracle, journal resume, job integration."""

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.designs import ZOO, get_design
from repro.faults import (
    CampaignReport,
    FaultInjector,
    FaultSpec,
    MonitorViolation,
    deviation_count,
    event_structure_digest,
    generate_faults,
    run_campaign,
    run_single_fault,
    standard_monitors,
    watchdog_budget,
)
from repro.core.events import EventStructure
from repro.errors import ExecutionError
import repro.faults.campaign as campaign_module
from repro.faults.campaign import golden_run
from repro.faults.monitors import _TraceConflictMonitor, finding_from_error
from repro.faults.spec import resolve_seeds
from repro.fuzz.generate import GeneratorConfig, generate_case
from repro.runtime import ExecutionEngine, execute_job, vecbatch_faults_job
from repro.runtime.durable import read_journal
from repro.semantics import SimHook, Simulator, simulate
from repro.semantics.environment import Environment
from repro.semantics.event_structure import event_structure_from_trace
from repro.semantics.policies import SeededMaximalPolicy

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


# ---------------------------------------------------------------------------
# fork and rejoin: differential tests against a full faulty run
# ---------------------------------------------------------------------------
def _reference_golden(system, env, *, max_steps=10_000, campaign_seed=0):
    return Simulator(system, env.fork(), SeededMaximalPolicy(campaign_seed),
                     strict=False).run(max_steps=max_steps, on_limit="return")


def _reference_single_fault(system, fault, environment=None, *,
                            max_steps=10_000, campaign_seed=0,
                            _golden=None):
    """The faulty run replayed in full from step 0, classified exactly as
    ``run_single_fault`` did before faulty runs forked from the golden
    run: the oracle the fork-and-rejoin payloads must equal.  ``_golden``
    is the golden trace, when the caller already has it."""
    fault.validate(system)
    env = environment if environment is not None else Environment()

    if _golden is None:
        golden = _reference_golden(system, env, max_steps=max_steps,
                                   campaign_seed=campaign_seed)
    else:
        golden = _golden
    golden_structure = event_structure_from_trace(system, golden)
    budget = watchdog_budget(golden.step_count, max_steps)

    injector = FaultInjector([fault], seed=campaign_seed)
    monitors = standard_monitors(budget,
                                 include_deadlock=not golden.deadlocked)
    faulty_sim = Simulator(system, env.fork(),
                           SeededMaximalPolicy(campaign_seed), strict=False,
                           hooks=[injector, *monitors])
    error_text = None
    extra_findings = []
    try:
        faulty = faulty_sim.run(max_steps=max_steps, on_limit="return")
    except MonitorViolation:
        faulty = None  # the halting monitor already holds the finding
    except ExecutionError as error:
        extra_findings.append(
            finding_from_error(error, system.name,
                               step=faulty_sim._current_step))
        error_text = str(error)
        faulty = None
    faulty_trace = faulty if faulty is not None else faulty_sim.current_trace
    if faulty_trace is not None:
        for monitor in monitors:
            if isinstance(monitor, _TraceConflictMonitor):
                monitor.scan(faulty_sim, faulty_trace)
    findings = sorted(
        (finding for monitor in monitors for finding in monitor.findings),
        key=lambda f: (f.step, f.diagnostic.rule))
    findings.extend(extra_findings)

    faulty_structure = (event_structure_from_trace(system, faulty_trace)
                        if faulty_trace is not None
                        else EventStructure((), frozenset(), frozenset()))
    deviations = deviation_count(golden_structure, faulty_structure)

    first_injection = injector.first_injection_step
    if findings:
        verdict = "detected"
        detection_step = findings[0].step
        latency = (detection_step - first_injection
                   if first_injection is not None else None)
    else:
        verdict = "masked" if deviations == 0 else "silent"
        detection_step = None
        latency = None

    return {
        "fault": fault.to_dict(),
        "label": fault.describe(),
        "verdict": verdict,
        "detected_by": sorted({f.diagnostic.rule for f in findings}),
        "detection_step": detection_step,
        "detection_latency": latency,
        "first_injection_step": first_injection,
        "injection_count": injector.injection_count,
        "deviation_events": deviations,
        "golden_steps": golden.step_count,
        "golden_digest": event_structure_digest(golden_structure),
        "faulty_steps": (faulty_trace.step_count if faulty is not None
                         else faulty_sim._current_step),
        "findings": [dict(f.diagnostic.as_dict(), step=f.step)
                     for f in findings],
        "error": error_text,
    }


@pytest.fixture
def runs(monkeypatch):
    """Spy on every ``Simulator.run``: the step it forked from (None for
    a run from step 0) and the step it rejoined at (None: it did not)."""
    calls = []
    run = Simulator.run

    def spy(self, **options):
        checkpoint = options.get("from_checkpoint")
        call = {"fork": checkpoint.step if checkpoint is not None else None,
                "rejoin": None}
        calls.append(call)
        try:
            return run(self, **options)
        except campaign_module._Rejoined as rejoin:
            call["rejoin"] = rejoin.step
            raise

    monkeypatch.setattr(Simulator, "run", spy)
    return calls


def _chunk_matches_reference(system, env, faults, *, seed, max_steps):
    """Run a chunk the way a worker does and compare every payload with
    the full-run reference; return the shared golden run."""
    faults = resolve_seeds(list(faults), seed)
    try:
        golden = golden_run(system, faults, env, max_steps=max_steps,
                            campaign_seed=seed)
    except ExecutionError as error:
        # the golden run itself fails: so must the reference, alike
        with pytest.raises(type(error),
                           match="^" + re.escape(str(error)) + "$"):
            _reference_golden(system, env, max_steps=max_steps,
                              campaign_seed=seed)
        return None
    assert len(golden.checkpoints) <= 2 * len(faults)
    reference = _reference_golden(system, env, max_steps=max_steps,
                                  campaign_seed=seed)
    assert golden.trace == reference
    for fault in faults:
        assert run_single_fault(
            system, fault, env, max_steps=max_steps, campaign_seed=seed,
            _golden=golden) == _reference_single_fault(
                system, fault, env, max_steps=max_steps, campaign_seed=seed,
                _golden=reference)
    return golden


def _matches_reference(system, spec, env, runs):
    """Run one fault both ways; return the payload and how the faulty
    run went (forked from, rejoined at)."""
    payload = run_single_fault(system, spec, env)
    faulty_run = runs[-1]
    assert payload == _reference_single_fault(system, spec, env)
    return payload, faulty_run


class TestForkAndRejoin:
    """A faulty run covers only where it can differ from the golden run;
    its payload must equal the full run's, byte for byte."""

    @pytest.mark.parametrize("name", sorted(ZOO))
    def test_zoo_generated_faults(self, name, runs):
        system, env = _design(name)
        faults = generate_faults(system, 8, seed=5)
        _chunk_matches_reference(system, env, faults, seed=5,
                                 max_steps=10_000)
        forked = [call for call in runs if call["fork"] is not None]
        assert forked  # the zoo's auto windows open inside the golden run

    def test_generated_designs(self, runs):
        """Sixty mutated designs: unclean goldens, goldens that fail,
        deadlocks and step limits all take part."""
        config = GeneratorConfig(mutation_rate=0.3)
        failed = unclean = 0
        for seed in range(60):
            case = generate_case(seed, config)
            faults = generate_faults(case.system, 8, seed=seed)
            golden = _chunk_matches_reference(
                case.system, case.environment, faults, seed=seed,
                max_steps=256)
            if golden is None:
                failed += 1
            elif golden.trace.conflicts:
                unclean += 1
        assert failed and unclean
        assert any(call["rejoin"] is not None for call in runs)

    def test_rejoins_one_step_after_the_window(self, runs):
        system, env = _design("gcd")
        spec = FaultSpec("stuck_at", "ne0.o", value=1, start=1, end=3,
                         seed=0)
        payload, faulty_run = _matches_reference(system, spec, env, runs)
        assert payload["verdict"] == "masked"
        assert faulty_run == {"fork": 1, "rejoin": 4}

    def test_open_ended_window_runs_in_full(self, runs):
        system, env = _design("gcd")
        spec = FaultSpec("stuck_at", "ne0.o", value=1, start=2, seed=0)
        _payload, faulty_run = _matches_reference(system, spec, env, runs)
        assert faulty_run == {"fork": None, "rejoin": None}

    def test_window_after_the_golden_end_runs_in_full(self, runs):
        system, env = _design("gcd")
        spec = FaultSpec("token_loss", "s3_while", start=9999, end=10_001,
                         seed=0)
        payload, faulty_run = _matches_reference(system, spec, env, runs)
        assert payload["first_injection_step"] is None
        assert faulty_run == {"fork": None, "rejoin": None}

    def test_watchdog_halt_inside_the_forked_segment(self, runs):
        system, env = _design("counter")
        spec = FaultSpec("bit_flip", "reg_limit.q", bit=20, start=3, end=3,
                         once=True, seed=0)
        payload, faulty_run = _matches_reference(system, spec, env, runs)
        assert payload["detected_by"] == ["RT005"]
        assert faulty_run == {"fork": 3, "rejoin": None}

    def test_probabilistic_fault(self, runs):
        system, env = _design("gcd")
        for seed in range(6):
            spec = FaultSpec("guard_invert", "t_exit6", start=2, end=12,
                             probability=0.3, seed=seed)
            _payload, faulty_run = _matches_reference(system, spec, env,
                                                      runs)
            assert faulty_run["fork"] == 2

    @pytest.mark.parametrize("seed,dirt", [(4, "conflict"), (13, "unsafe")])
    def test_unclean_golden_falls_back(self, seed, dirt, runs):
        case = generate_case(seed, GeneratorConfig(mutation_rate=0.3))
        faults = resolve_seeds(generate_faults(case.system, 8, seed=seed),
                               seed)
        golden = golden_run(case.system, faults, case.environment,
                            max_steps=256, campaign_seed=seed)
        assert bool(golden.trace.conflicts) == (dirt == "conflict")
        assert golden.checkpoints == {}
        del runs[:]
        _chunk_matches_reference(case.system, case.environment, faults,
                                 seed=seed, max_steps=256)
        assert all(call["fork"] is None for call in runs)

    def test_forked_monitor_state_equals_full_run(self):
        """At ``start`` the forked run's simulator and monitor state is
        the full run's: the exactness premise of forking."""
        system, env = _design("gcd")
        spec = FaultSpec("stuck_at", "ne0.o", value=1, start=5, end=7,
                         seed=0)
        golden = golden_run(system, [spec], env)

        class Probe(SimHook):
            def __init__(self, monitors):
                self.monitors = monitors
                self.seen = None

            def pre_step(self, sim, step, marking):
                if step == spec.start:
                    self.seen = (sim.checkpoint(), [
                        (type(m).__name__, list(m.findings),
                         getattr(m, "_cursor", None),
                         set(getattr(m, "_reported", ())))
                        for m in self.monitors])

        states = []
        for fork in (None, golden.checkpoints[spec.start]):
            monitors = standard_monitors(
                watchdog_budget(golden.trace.step_count, 10_000))
            probe = Probe(monitors)
            Simulator(system, env.fork(), SeededMaximalPolicy(0),
                      strict=False,
                      hooks=[FaultInjector([spec]), *monitors, probe]).run(
                          max_steps=10_000, on_limit="return",
                          from_checkpoint=fork)
            states.append(probe.seen)
        assert states[0] is not None
        assert states[0] == states[1]


_HASHSEED_CAMPAIGN = """
import json, sys
sys.path.insert(0, {src!r})
from repro.faults import generate_faults, run_campaign
from repro.fuzz.generate import GeneratorConfig, generate_case

case = generate_case(170, GeneratorConfig(mutation_rate=0.3))
report = run_campaign(case.system, generate_faults(case.system, 4, seed=0),
                      case.environment, seed=0, max_steps=256)
print(json.dumps(report.to_dict(), sort_keys=True))
"""


def test_loop_message_independent_of_hash_seed():
    """A combinational loop's message lands in chunk payloads: it must
    name the loop the same way in every process."""
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(
        repro.__file__)))
    outputs = set()
    for seed in (1, 4):
        env = dict(os.environ, PYTHONHASHSEED=str(seed))
        proc = subprocess.run(
            [sys.executable, "-c", _HASHSEED_CAMPAIGN.format(src=src)],
            env=env, capture_output=True, text=True, check=True,
            timeout=300)
        outputs.add(proc.stdout)
    (output,) = outputs
    assert "combinational loop" in output
