"""Fault campaigns — fan faults across the batch engine, judge each run.

One campaign takes a system, its environment, and a fault list, and
answers for every fault: *did the hardware notice?*  The faults travel
in ``vecbatch`` chunks (:func:`repro.runtime.jobs.vecbatch_faults_job`);
a worker computes the **golden** (fault-free) run once per chunk, then
replays each faulty run with the
:class:`~repro.faults.inject.FaultInjector` and the standard
:mod:`~repro.faults.monitors` stack attached, and classifies:

``masked``
    no monitor fired and the faulty run's external event structure is
    semantically equal to the golden one (Definition 3.5 / 4.1 — the
    deviation oracle);
``detected``
    at least one runtime monitor raised a finding; the payload carries
    the detecting rules and the **detection latency** (steps from first
    effective injection to first finding);
``silent``
    no monitor fired but the observable behaviour deviated — the
    dangerous case the report exists to surface.

A chunk is one job to the engine: its timeout (``repro faults
--timeout``) and retries apply per chunk, and a chunk that fails
reports ``error`` for each of its faults.

Campaign-level reproducibility: the campaign ``seed`` derives every
per-fault RNG (:func:`~repro.faults.spec.derive_seed`) and seeds the
firing policy (:class:`~repro.semantics.policies.SeededMaximalPolicy`)
of golden and faulty runs alike, so the same ``(system, faults,
environment, seed)`` always produces the same report, however the
faults are chunked — including across interruption:
:func:`run_campaign` can write every verdict, under its per-fault
content-addressed key, to a fsynced write-ahead journal
(``journal_path=``) the moment its chunk settles, and a killed campaign
restarted with ``resume=True`` skips every journaled fault — the final
report is identical to an uninterrupted run.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from ..core.events import EventStructure
from ..errors import DefinitionError, ExecutionError
from ..semantics.environment import Environment
from ..semantics.event_structure import event_structure_from_trace
from ..semantics.policies import SeededMaximalPolicy
from ..semantics.simulator import Simulator
from .inject import FaultInjector
from .monitors import MonitorViolation, _TraceConflictMonitor, finding_from_error, standard_monitors
from .spec import FaultSpec, resolve_seeds

#: The three verdicts, plus the infrastructure failure bucket.
VERDICTS = ("masked", "detected", "silent", "error")

CAMPAIGN_REPORT_FORMAT = 1

#: Most faults in one ``vecbatch`` chunk.  A chunk's verdicts are
#: journaled only when the whole chunk settles, so a SIGKILL loses at
#: most one chunk of verdicts per worker; the cap bounds that loss on
#: long campaigns, while the golden run is still shared by up to 16
#: faults.
MAX_CHUNK_FAULTS = 16


def _json_value(value) -> int | str:
    return value if isinstance(value, int) else str(value)


def event_structure_digest(structure: EventStructure) -> str:
    """Stable hash of the *observable* content of an event structure.

    Hashes the per-arc value sequences (what
    :meth:`~repro.core.events.EventStructure.semantically_equal`
    compares first) plus the causal pairs — two structures with equal
    digests are semantically equal for campaign purposes.
    """
    material = json.dumps({
        "values": {arc: [_json_value(v) for v in values]
                   for arc, values in sorted(
                       structure.value_sequences().items())},
        "causal": sorted(
            sorted(f"{arc}#{index}" for arc, index in pair)
            for pair in structure.casual_pairs()),
    }, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(material.encode("utf-8")).hexdigest()[:16]


def deviation_count(golden: EventStructure, faulty: EventStructure) -> int:
    """Number of external events that differ between two runs.

    Per arc: positionally differing values plus the length difference —
    lost, extra and corrupted events all count as deviations.
    """
    golden_seqs = golden.value_sequences()
    faulty_seqs = faulty.value_sequences()
    count = 0
    for arc in sorted(set(golden_seqs) | set(faulty_seqs)):
        left = golden_seqs.get(arc, ())
        right = faulty_seqs.get(arc, ())
        count += sum(1 for a, b in zip(left, right) if a != b)
        count += abs(len(left) - len(right))
    return count


def watchdog_budget(golden_steps: int, max_steps: int) -> int:
    """Step budget for the faulty run's watchdog (RT005).

    Generous enough that a fault merely *slowing* the computation is not
    misreported as non-termination, tight enough that a genuinely
    divergent run is cut short quickly; never beyond the caller's own
    ``max_steps``.
    """
    return min(max(16, 4 * golden_steps + 16), max_steps)


def run_single_fault(system, fault: FaultSpec,
                     environment: Environment | None = None, *,
                     max_steps: int = 10_000,
                     campaign_seed: int = 0,
                     _golden=None) -> dict[str, Any]:
    """Run one fault experiment; return the JSON-safe result payload.

    Self-contained by design: the golden run is recomputed here rather
    than shipped in, so the payload is a pure function of ``(system,
    fault, environment, max_steps, campaign_seed)`` — the reference each
    entry of a campaign's ``vecbatch`` chunks must equal.

    ``_golden`` is a memoization hand-off for batch runners (the
    ``vecbatch`` job kind): a golden :class:`~repro.semantics.trace.
    Trace` for this exact ``(system, environment, campaign_seed,
    max_steps)`` configuration.  Because the golden run is deterministic
    in those inputs (and the vector backend is byte-identical to the
    interpreter), passing it cannot change the payload — it only skips
    recomputing the same trace for every fault in a chunk.
    """
    fault.validate(system)
    env = environment if environment is not None else Environment()

    if _golden is None:
        golden_sim = Simulator(system, env.fork(),
                               SeededMaximalPolicy(campaign_seed),
                               strict=False)
        golden = golden_sim.run(max_steps=max_steps, on_limit="return")
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
    error_text: str | None = None
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


# ---------------------------------------------------------------------------
# the campaign report
# ---------------------------------------------------------------------------
@dataclass
class CampaignReport:
    """Aggregated verdicts of one fault campaign (JSON round-trippable)."""

    system: str
    seed: int
    max_steps: int
    results: list[dict[str, Any]] = field(default_factory=list)
    complete: bool = True

    @property
    def counts(self) -> dict[str, int]:
        """Verdict histogram (always all four buckets)."""
        counts = {verdict: 0 for verdict in VERDICTS}
        for result in self.results:
            counts[result.get("verdict", "error")] += 1
        return counts

    @property
    def ok(self) -> bool:
        """True iff every fault was masked or caught by a monitor."""
        counts = self.counts
        return counts["silent"] == 0 and counts["error"] == 0

    @property
    def exit_code(self) -> int:
        """0 all masked/detected; 1 silent deviation; 2 job failure."""
        counts = self.counts
        if counts["error"]:
            return 2
        return 1 if counts["silent"] else 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "format": CAMPAIGN_REPORT_FORMAT,
            "system": self.system,
            "seed": self.seed,
            "max_steps": self.max_steps,
            "complete": self.complete,
            "counts": self.counts,
            "ok": self.ok,
            "results": self.results,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignReport":
        if data.get("format") != CAMPAIGN_REPORT_FORMAT:
            raise DefinitionError(
                f"unsupported campaign report format {data.get('format')!r}")
        return cls(system=data["system"], seed=data["seed"],
                   max_steps=data["max_steps"],
                   results=list(data.get("results", [])),
                   complete=data.get("complete", True))

    def to_text(self) -> str:
        """Human-readable campaign summary."""
        lines = [f"fault campaign: {self.system} "
                 f"(seed {self.seed}, {len(self.results)} faults"
                 + ("" if self.complete else ", INCOMPLETE") + ")"]
        width = max((len(r["label"]) for r in self.results), default=5)
        for result in self.results:
            verdict = result.get("verdict", "error")
            extra = ""
            if verdict == "detected":
                rules = ",".join(result.get("detected_by", []))
                latency = result.get("detection_latency")
                extra = f"  by {rules}"
                if latency is not None:
                    extra += f"  latency {latency}"
            elif verdict == "silent":
                extra = f"  {result.get('deviation_events', '?')} deviant events"
            elif verdict == "error":
                extra = f"  {result.get('error', '')}"
            lines.append(f"  {result['label']:<{width}}  "
                         f"{verdict:<8}{extra}")
        counts = self.counts
        lines.append(
            f"  -- {counts['masked']} masked, {counts['detected']} detected, "
            f"{counts['silent']} silent, {counts['error']} errors")
        return "\n".join(lines)


def _campaign_header(system_name: str, seed: int,
                     max_steps: int) -> dict[str, Any]:
    """The journal's first record: what run this log belongs to."""
    return {"type": "campaign", "system": system_name, "seed": seed,
            "max_steps": max_steps}


def run_campaign(system, faults: Sequence[FaultSpec],
                 environment: Environment | None = None, *,
                 engine=None, seed: int = 0, max_steps: int = 10_000,
                 journal_path: str | None = None, resume: bool = False,
                 limit: int | None = None,
                 stop_event=None) -> CampaignReport:
    """Fan a fault list across the batch engine and aggregate the verdicts.

    ``engine`` is a :class:`~repro.runtime.executor.ExecutionEngine` (a
    serial one is created when omitted).  The faults still to run are
    split into ``vecbatch`` chunks of ``ceil(pending / workers)`` faults,
    at most :data:`MAX_CHUNK_FAULTS`, so every worker gets work and each
    chunk computes its golden run once.  The engine's ``timeout`` and
    retry budget apply per chunk: a chunk that fails reports ``error``
    for each of its faults.  Verdicts do not depend on the chunking.

    ``journal_path`` attaches a write-ahead journal
    (:class:`~repro.runtime.durable.Journal`): a header record pins the
    run configuration, then every fault verdict is fsynced under its
    per-fault key the moment its chunk settles.  With ``resume=True``
    the journal is scanned first (torn tails are repaired, a
    configuration mismatch raises :class:`~repro.errors.PersistenceError`)
    and journaled faults are not re-dispatched: a killed campaign
    restarted with the same arguments produces the same final report as
    an uninterrupted one.

    ``limit`` caps how many *new* faults run in this call (the
    deterministic way to interrupt mid-campaign); ``stop_event`` requests
    a graceful stop between chunks.  The returned report has
    ``complete=False`` while results are missing.
    """
    from ..errors import PersistenceError
    from ..runtime.durable import Journal, read_journal
    from ..runtime.executor import ExecutionEngine
    from ..runtime.jobs import vecbatch_faults_job

    specs = resolve_seeds(list(faults), seed)

    def chunk_job(chunk: Sequence[FaultSpec]):
        return vecbatch_faults_job(system, chunk, environment,
                                   campaign_seed=seed, max_steps=max_steps)

    # validates every fault and yields its per-fault key, in order
    keys = [entry["key"] for entry in chunk_job(specs).params["entries"]]

    prior: dict[str, dict[str, Any]] = {}
    journal: Journal | None = None
    header = _campaign_header(system.name, seed, max_steps)
    if journal_path is not None:
        saw_header = False
        if resume:
            for record in read_journal(journal_path):
                if record.get("type") == "campaign":
                    saw_header = True
                    if record != header:
                        raise PersistenceError(
                            f"journal {journal_path} was written for a "
                            f"different campaign ({record.get('system')!r}, "
                            f"seed {record.get('seed')}, max_steps "
                            f"{record.get('max_steps')}); refusing to resume "
                            f"{system.name!r} with seed {seed} from it")
                elif (record.get("type") == "verdict"
                        and isinstance(record.get("entry"), dict)):
                    prior[record["key"]] = record["entry"]
        journal = Journal(journal_path, fresh=not resume)
        if not saw_header:
            journal.append(header)

    pending = [spec for spec, key in zip(specs, keys) if key not in prior]
    if limit is not None:
        pending = pending[:limit]
    workers = engine.workers if engine is not None else 0
    size = max(1, min(MAX_CHUNK_FAULTS,
                      math.ceil(len(pending) / max(workers, 1))))
    chunks = [chunk_job(pending[i:i + size])
              for i in range(0, len(pending), size)]
    fresh: dict[str, dict[str, Any]] = {}

    def settle(result) -> None:
        """Fold one finished chunk in and journal its verdicts at once."""
        if result.status == "interrupted":
            return  # not a verdict — the chunk simply never ran
        if result.ok:
            entries = result.payload["entries"]
        else:
            entries = [{"key": item["key"], "fault": item["fault"],
                        "label": item["label"], "verdict": "error",
                        "error": result.error}
                       for item in result.spec.params["entries"]]
        for entry in entries:
            fresh[entry["key"]] = entry
            if journal is not None:
                journal.append({"type": "verdict", "key": entry["key"],
                                "entry": entry})

    try:
        if chunks:
            if engine is None:
                with ExecutionEngine() as own:
                    own.run(chunks, on_result=settle, stop_event=stop_event)
            else:
                engine.run(chunks, on_result=settle, stop_event=stop_event)
    finally:
        if journal is not None:
            journal.close()

    results = []
    complete = True
    for key in keys:
        entry = prior.get(key) or fresh.get(key)
        if entry is None:
            complete = False
            continue
        results.append(entry)
    return CampaignReport(system=system.name, seed=seed,
                          max_steps=max_steps, results=results,
                          complete=complete)
