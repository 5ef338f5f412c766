"""Declarative job specifications and the deterministic job interpreter.

A :class:`JobSpec` is a JSON-serializable description of one expensive
operation: a *kind* (one of :data:`JOB_KINDS`), the canonical dict form
of the system under analysis (:func:`repro.io.json_io.system_to_dict`),
and a JSON-safe parameter dict.  Each spec has a **content-addressed
key**: the SHA-256 of the canonical JSON of ``(engine version, kind,
system, params)``.  Two specs with the same key denote the same
computation, which is what lets the on-disk cache
(:mod:`repro.runtime.cache`) skip re-execution and lets the engine prove
serial and parallel runs byte-identical.

:func:`execute_job` is the interpreter the worker processes run.  It is
deliberately a **pure function of the spec dict**: everything it needs
travels inside the spec (no ambient state), its ``payload`` result is
deterministic and JSON-safe, and any wall-clock observability
(:class:`~repro.semantics.profile.SimMetrics`) is returned *beside* the
payload so cached and fresh results stay byte-comparable.

A fault campaign is a handful of ``vecbatch`` jobs in ``faults`` mode
(:func:`vecbatch_faults_job`): each is a chunk of faults sharing one
golden run, from whose checkpoints each faulty run forks, and each of
its entries carries its own per-fault key, so reports and journals
address verdicts one fault at a time.

The extra ``probe`` kind is a fault-injection aid for tests and
benchmarks: it can succeed, fail, fail transiently, sleep past a
timeout, or kill its own worker process outright.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from ..errors import DefinitionError, ExecutionError

#: The workload kinds the engine understands.  ``probe`` is the
#: fault-injection aid; the other eight are the library's real workloads.
#: Fault campaigns run as ``vecbatch`` jobs in ``faults`` mode.
JOB_KINDS = ("simulate", "check", "reachability", "equiv", "synthesize",
             "lint", "vecbatch", "fuzz", "probe")

#: Bumped whenever the payload format of any kind changes, so stale
#: cache entries from an older engine can never be confused for current
#: results (the version participates in every job key).
ENGINE_VERSION = 1

JOB_FILE_FORMAT = 1


def canonical_json(obj: Any) -> str:
    """Canonical (sorted-key, compact, ASCII) JSON encoding.

    The byte-identity contract of the engine rests on this: equal
    payloads encode to equal bytes regardless of dict insertion order.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True)


def job_key(kind: str, system: Mapping[str, Any] | None,
            params: Mapping[str, Any]) -> str:
    """Content-addressed key of one job."""
    material = canonical_json({
        "engine": ENGINE_VERSION,
        "kind": kind,
        "system": system,
        "params": params,
    })
    return hashlib.sha256(material.encode("ascii")).hexdigest()


def _check_step_budget(value: Any, where: str) -> None:
    """A job's ``max_steps`` must be a positive integer (as ``--max-steps``)."""
    if (isinstance(value, bool) or not isinstance(value, int)
            or value <= 0):
        raise DefinitionError(
            f"{where} must be a positive step budget, got {value!r}")


def _job_environments(params: Mapping[str, Any]):
    """``(where, environment dict)`` for every environment in a job's
    params: ``environment``, each of ``environments`` and the
    synthesize objective's ``environment``."""
    if params.get("environment") is not None:
        yield "params.environment", params["environment"]
    environments = params.get("environments")
    if isinstance(environments, list):
        for position, environment in enumerate(environments):
            yield f"params.environments[{position}]", environment
    objective = params.get("objective")
    if isinstance(objective, dict) and objective.get("environment") is not None:
        yield "params.objective.environment", objective["environment"]


def _check_environment(data: Any, where: str) -> None:
    """An environment's sequences must hold integers or ``"UNDEF"`` (how
    :func:`_json_value` writes UNDEF) and its exhausted policy must be
    known, so a job cannot fail on its stimulus after it was accepted."""
    from ..semantics.environment import EXHAUSTED_POLICIES

    sequences = data.get("sequences") if isinstance(data, dict) else None
    if not isinstance(sequences, dict):
        raise DefinitionError(
            f"{where} must be an object with a 'sequences' object")
    policy = data.get("exhausted_policy", "raise")
    if policy not in EXHAUSTED_POLICIES:
        raise DefinitionError(
            f"{where}.exhausted_policy must be one of {EXHAUSTED_POLICIES}, "
            f"got {policy!r}")
    for vertex, values in sequences.items():
        if not isinstance(values, list):
            raise DefinitionError(
                f"{where}.sequences[{vertex!r}] must be a list, got "
                f"{type(values).__name__}")
        for position, value in enumerate(values):
            if not isinstance(value, int) and value != _UNDEF_JSON:
                raise DefinitionError(
                    f"{where}.sequences[{vertex!r}][{position}] must be an "
                    f"integer or {_UNDEF_JSON!r}, got {value!r}")


@dataclass(frozen=True, eq=True)
class JobSpec:
    """One unit of work for the batch engine (JSON-serializable).

    The key is computed once per spec and memoised, so a spec's
    ``system`` and ``params`` dicts must not be mutated after
    construction: build a new spec instead.
    """

    kind: str
    system: dict[str, Any] | None = None
    params: dict[str, Any] = field(default_factory=dict)
    label: str = ""

    def __post_init__(self) -> None:
        if self.kind not in JOB_KINDS:
            raise DefinitionError(
                f"unknown job kind {self.kind!r}; choose one of {JOB_KINDS}")
        try:
            canonical_json(self.params)
        except (TypeError, ValueError) as error:
            raise DefinitionError(
                f"job params are not JSON-serializable: {error}") from None
        if "max_steps" in self.params:
            _check_step_budget(self.params["max_steps"], "params.max_steps")
        objective = self.params.get("objective")
        if isinstance(objective, dict) and "max_steps" in objective:
            _check_step_budget(objective["max_steps"],
                               "params.objective.max_steps")
        for where, environment in _job_environments(self.params):
            _check_environment(environment, where)

    @functools.cached_property
    def key(self) -> str:
        """Content-addressed identity of this job."""
        return job_key(self.kind, self.system, self.params)

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "system": self.system,
                "params": self.params, "label": self.label}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "JobSpec":
        return cls(kind=data["kind"], system=data.get("system"),
                   params=dict(data.get("params", {})),
                   label=data.get("label", ""))


# ---------------------------------------------------------------------------
# serialisation helpers shared by the constructors and the interpreter
# ---------------------------------------------------------------------------
def _environment_to_dict(environment) -> dict[str, Any] | None:
    if environment is None:
        return None
    return {
        "sequences": {vertex: [_json_value(v) for v in values]
                      for vertex, values in sorted(environment.sequences.items())},
        "exhausted_policy": environment.exhausted_policy,
    }


def _environment_from_dict(data: Mapping[str, Any] | None):
    from ..semantics.environment import Environment
    from ..semantics.values import UNDEF

    if data is None:
        return Environment()
    return Environment(
        {vertex: [UNDEF if v == _UNDEF_JSON else v for v in values]
         for vertex, values in data["sequences"].items()},
        exhausted_policy=data.get("exhausted_policy", "raise"))


def _objective_to_dict(objective) -> dict[str, Any]:
    return {
        "w_time": objective.w_time,
        "w_area": objective.w_area,
        "limits": dict(objective.limits) if objective.limits else None,
        "environment": _environment_to_dict(objective.environment),
        "max_steps": objective.max_steps,
    }


def _objective_from_dict(data: Mapping[str, Any]):
    from ..synthesis.optimize import Objective

    environment = data.get("environment")
    return Objective(
        w_time=data.get("w_time", 1.0),
        w_area=data.get("w_area", 1.0),
        limits=data.get("limits"),
        environment=_environment_from_dict(environment)
        if environment is not None else None,
        max_steps=data.get("max_steps", 20_000),
    )


#: How :func:`_json_value` writes UNDEF (``str(UNDEF)``).
_UNDEF_JSON = "UNDEF"


def _json_value(value) -> int | str:
    """JSON-safe encoding of a simulation value (UNDEF becomes a string)."""
    return value if isinstance(value, int) else str(value)


def _system_dict(system) -> dict[str, Any]:
    from ..io.json_io import system_to_dict

    return system_to_dict(system)


# ---------------------------------------------------------------------------
# spec constructors — the public way to build jobs from model objects
# ---------------------------------------------------------------------------
def simulate_job(system, environment=None, *, max_steps: int = 10_000,
                 strict: bool = True, on_limit: str = "raise",
                 label: str = "") -> JobSpec:
    """Simulate ``system`` against ``environment`` and record the trace."""
    return JobSpec("simulate", _system_dict(system), {
        "environment": _environment_to_dict(environment),
        "max_steps": max_steps,
        # the interpreter has one evaluator; the field stays so every
        # simulate job keeps the content-addressed key (and cache entry)
        # it had when the spec chose between two
        "fast": True,
        "strict": strict,
        "on_limit": on_limit,
    }, label=label)


def check_job(system, *, label: str = "") -> JobSpec:
    """Run the Definition 3.2 properly-designed verification."""
    return JobSpec("check", _system_dict(system), {}, label=label)


def lint_job(system, *, rules: Sequence[str] | None = None,
             fail_on: str = "error", label: str = "") -> JobSpec:
    """Run the structural lint rules (no reachability enumeration)."""
    from ..analysis.lint import get_rule
    from ..diagnostics import severity_rank

    if fail_on not in ("never", "none"):
        try:
            severity_rank(fail_on)
        except ValueError as exc:
            raise DefinitionError(str(exc)) from None
    if rules is not None:
        rules = [get_rule(rule_id).id for rule_id in rules]
    return JobSpec("lint", _system_dict(system), {
        "rules": list(rules) if rules is not None else None,
        "fail_on": fail_on,
    }, label=label)


def reachability_job(system, *, max_markings: int = 100_000,
                     token_bound: int = 8, label: str = "") -> JobSpec:
    """Explore the control net's reachable marking graph."""
    return JobSpec("reachability", _system_dict(system), {
        "max_markings": max_markings,
        "token_bound": token_bound,
    }, label=label)


def equiv_job(system, other, environment=None, *,
              max_steps: int = 10_000, backend: str = "symbolic",
              label: str = "") -> JobSpec:
    """Bounded semantic-equivalence check of two systems (Def. 4.1).

    The payload carries the distinguishing firing sequences on an
    inequivalence verdict, and ``backend`` picks the engine
    (``"symbolic"`` — the static/vectorised path — by default,
    ``"explicit"`` as the differential oracle).  The backend participates in the job key:
    verdicts from different engines are cached independently so the
    differential tests can compare them.
    """
    if backend not in ("explicit", "symbolic"):
        raise DefinitionError(
            f"unknown equivalence backend {backend!r}: "
            "expected 'explicit' or 'symbolic'")
    return JobSpec("equiv", _system_dict(system), {
        "other": _system_dict(other),
        "environment": _environment_to_dict(environment),
        "max_steps": max_steps,
        "backend": backend,
    }, label=label)


def synthesize_job(system, objective=None, *, algorithm: str = "greedy",
                   seed: int | None = None, max_moves: int = 64,
                   verify: bool = True, label: str = "") -> JobSpec:
    """Run one optimizer start (greedy / random / random+greedy / portfolio)."""
    from ..synthesis.optimize import Objective

    if algorithm not in ("greedy", "random", "random+greedy", "portfolio"):
        raise DefinitionError(f"unknown synthesis algorithm {algorithm!r}")
    return JobSpec("synthesize", _system_dict(system), {
        "objective": _objective_to_dict(objective if objective is not None
                                        else Objective()),
        "algorithm": algorithm,
        "seed": seed,
        "max_moves": max_moves,
        "verify": verify,
    }, label=label)


def vecbatch_simulate_job(system, environments, *,
                          max_steps: int = 10_000, strict: bool = True,
                          on_limit: str = "raise",
                          label: str = "") -> JobSpec:
    """Simulate one system against many environments in a single job.

    The worker compiles the system once
    (:func:`repro.semantics.vector.compile_system`) and advances all
    lanes together; the payload carries one per-lane record whose shape
    matches the ``simulate`` kind's payload exactly, so downstream
    consumers can treat a vecbatch as a batch of simulate results.
    """
    return JobSpec("vecbatch", _system_dict(system), {
        "mode": "simulate",
        "environments": [_environment_to_dict(env) for env in environments],
        "max_steps": max_steps,
        "strict": strict,
        "on_limit": on_limit,
    }, label=label or f"vecbatch of {len(environments)} runs")


def vecbatch_faults_job(system, faults, environment=None, *,
                        campaign_seed: int = 0, max_steps: int = 10_000,
                        label: str = "") -> JobSpec:
    """A chunk of fault experiments sharing one golden run.

    This is how :func:`repro.faults.campaign.run_campaign` runs every
    fault.  Each entry's payload equals
    :func:`repro.faults.campaign.run_single_fault` for its fault, plus
    the fault's per-fault ``key``.
    """
    sysdict = _system_dict(system)
    envdict = _environment_to_dict(environment)
    entries = []
    for fault in faults:
        fault.validate(system)
        entries.append({
            "fault": fault.to_dict(),
            # A fault's identity in campaign reports, journals and caches;
            # it is the key the retired one-job-per-fault kind "faults"
            # gave the same experiment, so it must not change: older
            # journals resume on it.
            "key": job_key("faults", sysdict, {
                "fault": fault.to_dict(),
                "environment": envdict,
                "max_steps": max_steps,
                "campaign_seed": campaign_seed,
            }),
            "label": fault.describe(),
        })
    return JobSpec("vecbatch", sysdict, {
        "mode": "faults",
        "entries": entries,
        "environment": envdict,
        "max_steps": max_steps,
        "campaign_seed": campaign_seed,
    }, label=label or f"vecbatch of {len(entries)} faults")


def fuzz_job(*, seed: int = 0, cases: int = 200, offset: int = 0,
             min_places: int = 4, max_places: int = 24,
             mutation_rate: float = 0.25, quirk_rate: float = 0.06,
             oracles: Sequence[str] | None = None, shrink: bool = True,
             max_steps: int = 256, max_markings: int = 4096,
             analysis_place_limit: int = 40, label: str = "") -> JobSpec:
    """One shard of a differential fuzz campaign (``system`` is None).

    The payload is the deterministic part of the
    :class:`~repro.fuzz.campaign.FuzzReport` — a pure function of the
    parameters, so identical shards dedupe fleet-wide through the
    content-addressed cache.  ``offset`` shards a campaign: the job
    fuzzes case indices ``[offset, offset + cases)`` of campaign
    ``seed``, and the per-case seeds match what a single local run would
    use at the same indices.  There is deliberately no time budget: a
    wall-clock cutoff would make the payload depend on the machine.
    """
    from ..fuzz.campaign import FuzzConfig
    from ..fuzz.oracles import ORACLES

    config = FuzzConfig(
        seed=seed, cases=cases, offset=offset, min_places=min_places,
        max_places=max_places, mutation_rate=mutation_rate,
        quirk_rate=quirk_rate,
        oracles=tuple(oracles) if oracles is not None else ORACLES,
        shrink=shrink, max_steps=max_steps, max_markings=max_markings,
        analysis_place_limit=analysis_place_limit)
    for oracle in config.oracles:
        if oracle not in ORACLES:
            raise DefinitionError(
                f"unknown oracle {oracle!r}; choose from {ORACLES}")
    if cases < 0:
        raise DefinitionError("cases must be >= 0")
    return JobSpec("fuzz", None, config.to_params(),
                   label=label or f"fuzz[{seed}] cases "
                                  f"{offset}..{offset + cases}")


def probe_job(action: str, *, seconds: float = 0.0, marker: str = "",
              failures: int = 0, payload: Any = None,
              label: str = "") -> JobSpec:
    """Fault-injection job: ``ok``/``pid``/``fail``/``flaky``/``sleep``/``crash``.

    ``flaky`` fails its first ``failures`` attempts (counted through the
    ``marker`` file, so the count survives worker crashes and process
    boundaries) and then succeeds — the deterministic way to exercise the
    engine's retry path.  ``crash`` SIGKILLs its own worker process.
    """
    if action not in ("ok", "pid", "fail", "flaky", "sleep", "crash"):
        raise DefinitionError(f"unknown probe action {action!r}")
    return JobSpec("probe", None, {
        "action": action,
        "seconds": seconds,
        "marker": marker,
        "failures": failures,
        "payload": payload,
    }, label=label)


# ---------------------------------------------------------------------------
# the interpreter — runs inside worker processes
# ---------------------------------------------------------------------------
def execute_job(spec: Mapping[str, Any]) -> dict[str, Any]:
    """Execute one job spec dict; return ``{"payload", "sim_metrics"}``.

    ``payload`` is deterministic and JSON-safe (the part that is cached
    and compared byte-for-byte); ``sim_metrics`` carries wall-clock
    observability and is never part of the content-addressed result.
    Raises on failure — the engine's worker wrapper converts exceptions
    into retryable error records.
    """
    kind = spec["kind"]
    params = spec.get("params", {})
    if kind == "probe":
        return {"payload": _run_probe(params), "sim_metrics": None}
    if kind == "fuzz":
        return _run_fuzz(params)

    from ..io.json_io import system_from_dict

    system = system_from_dict(spec["system"])
    if kind == "simulate":
        return _run_simulate(system, params)
    if kind == "check":
        return _run_check(system)
    if kind == "lint":
        return _run_lint(system, params)
    if kind == "reachability":
        return _run_reachability(system, params)
    if kind == "equiv":
        return _run_equiv(system, params)
    if kind == "synthesize":
        return _run_synthesize(system, params)
    if kind == "vecbatch":
        return _run_vecbatch(system, params)
    raise DefinitionError(f"unknown job kind {kind!r}")


def _outcome_payload(outcome, pads) -> dict[str, Any]:
    """The JSON-safe summary of one run's
    :class:`~repro.semantics.trace.Outcome` (shared by simulate and
    vecbatch); ``pads`` is the system's
    :class:`~repro.designs.base.OutputPads`."""
    events = outcome.events
    return {
        "step_count": outcome.step_count,
        "firings": outcome.firings,
        "terminated": outcome.status == "terminated",
        "deadlocked": outcome.status == "deadlocked",
        "num_conflicts": outcome.num_conflicts,
        "events": [[arc, index, _json_value(value), state]
                   for _end, _start, arc, index, value, state in events],
        "outputs": {pad: [_json_value(v) for v in values]
                    for pad, values in sorted(pads.group(events).items())},
    }


def _trace_payload(system, trace) -> dict[str, Any]:
    """The JSON-safe summary of one trace."""
    from ..designs.base import OutputPads

    return _outcome_payload(trace.outcome(), OutputPads(system))


def _run_simulate(system, params) -> dict[str, Any]:
    from ..semantics.simulator import simulate

    trace = simulate(
        system,
        _environment_from_dict(params.get("environment")),
        max_steps=params.get("max_steps", 10_000),
        strict=params.get("strict", True),
        on_limit=params.get("on_limit", "raise"),
    )
    payload = _trace_payload(system, trace)
    metrics = trace.metrics.as_dict() if trace.metrics is not None else None
    return {"payload": payload, "sim_metrics": metrics}


def _run_check(system) -> dict[str, Any]:
    from ..core.properly_designed import check_properly_designed

    report = check_properly_designed(system)
    return {"payload": {
        "ok": report.ok,
        "checks": [{"rule": c.rule, "ok": c.ok, "details": list(c.details)}
                   for c in report.checks],
    }, "sim_metrics": None}


def _run_lint(system, params) -> dict[str, Any]:
    from ..analysis.lint import run_lint

    fail_on = params.get("fail_on", "error")
    report = run_lint(system, rules=params.get("rules"))
    return {"payload": {
        "ok": report.ok(fail_on),
        "fail_on": fail_on,
        "counts": report.counts,
        "diagnostics": [d.as_dict() for d in report.diagnostics],
    }, "sim_metrics": None}


def _run_reachability(system, params) -> dict[str, Any]:
    from ..petri.reachability import explore

    graph = explore(system.net,
                    max_markings=params.get("max_markings", 100_000),
                    token_bound=params.get("token_bound", 8))
    return {"payload": {
        "num_markings": graph.num_markings,
        "num_edges": len(graph.edges),
        "complete": graph.complete,
        "bounded_by": graph.bounded_by,
        "is_safe": graph.is_safe,
        "num_deadlocks": len(graph.deadlocks),
        "num_terminals": len(graph.terminals),
    }, "sim_metrics": None}


def _run_equiv(system, params) -> dict[str, Any]:
    from ..core.equivalence import semantically_equivalent
    from ..io.json_io import system_from_dict

    other = system_from_dict(params["other"])
    verdict = semantically_equivalent(
        system, other,
        _environment_from_dict(params.get("environment")),
        max_steps=params.get("max_steps", 10_000),
        backend=params.get("backend", "symbolic"),
    )
    return {"payload": {
        "equivalent": verdict.equivalent,
        "relation": verdict.relation,
        "reason": verdict.reason,
        "witness": verdict.witness,
        "backend": verdict.backend,
    }, "sim_metrics": None}


def _run_synthesize(system, params) -> dict[str, Any]:
    from ..io.json_io import system_to_dict
    from ..synthesis.optimize import (
        optimize,
        optimize_portfolio,
        optimize_random,
    )

    objective = _objective_from_dict(params.get("objective", {}))
    algorithm = params.get("algorithm", "greedy")
    seed = params.get("seed")
    max_moves = params.get("max_moves", 64)
    verify = params.get("verify", True)
    if algorithm == "greedy":
        result = optimize(system, objective, max_moves=max_moves,
                          verify=verify)
    elif algorithm == "random":
        result = optimize_random(system, objective, max_moves=max_moves,
                                 seed=seed or 0, verify=verify)
    elif algorithm == "random+greedy":
        walk = optimize_random(system, objective, max_moves=max_moves,
                               seed=seed or 0, verify=verify)
        result = optimize(walk.system, objective, max_moves=max_moves,
                          verify=verify)
        result.moves = walk.moves + result.moves
        result.initial_objective = walk.initial_objective
    else:  # portfolio — always serial inside a worker (no nested engines)
        result = optimize_portfolio(system, objective, max_moves=max_moves,
                                    verify=verify)
    return {"payload": {
        "algorithm": algorithm,
        "seed": seed,
        "initial_objective": result.initial_objective,
        "final_objective": result.final_objective,
        "moves": [{"kind": m.kind, "description": m.description,
                   "before": m.objective_before, "after": m.objective_after}
                  for m in result.moves],
        "system": system_to_dict(result.system),
    }, "sim_metrics": None}


def _run_vecbatch(system, params) -> dict[str, Any]:
    mode = params.get("mode", "simulate")
    if mode == "simulate":
        return _run_vecbatch_simulate(system, params)
    if mode == "faults":
        return _run_vecbatch_faults(system, params)
    raise DefinitionError(
        f"unknown vecbatch mode {mode!r}; choose 'simulate' or 'faults'")


def _run_vecbatch_simulate(system, params) -> dict[str, Any]:
    from ..designs.base import OutputPads
    from ..semantics.vector import Lane, VectorSimulator

    lanes = [Lane(_environment_from_dict(env))
             for env in params.get("environments", [])]
    sim = VectorSimulator(system, strict=params.get("strict", True))
    result = sim.run(lanes, max_steps=params.get("max_steps", 10_000),
                     on_limit=params.get("on_limit", "raise"))
    # outcomes, not traces: the numpy engine builds them straight from
    # its columns without expanding a latch record
    pads = OutputPads(system)
    return {"payload": {
        "lanes": [_outcome_payload(result.outcome(i), pads)
                  for i in range(len(lanes))],
    }, "sim_metrics": None}


def _run_vecbatch_faults(system, params) -> dict[str, Any]:
    from ..faults.campaign import golden_run, run_single_fault
    from ..faults.spec import FaultSpec

    environment = _environment_from_dict(params.get("environment"))
    max_steps = params.get("max_steps", 10_000)
    campaign_seed = params.get("campaign_seed", 0)
    entries = params.get("entries", [])
    faults = [FaultSpec.from_dict(entry["fault"]) for entry in entries]
    # One golden run shared by the whole chunk, checkpointed at every
    # fault's window boundaries: each faulty run forks at its window's
    # start and stops once it rejoins the golden run (see
    # run_single_fault).
    golden = golden_run(system, faults, environment, max_steps=max_steps,
                        campaign_seed=campaign_seed)
    payloads = []
    for entry, fault in zip(entries, faults):
        payload = run_single_fault(
            system, fault, environment, max_steps=max_steps,
            campaign_seed=campaign_seed, _golden=golden)
        payloads.append(dict(payload, key=entry["key"]))
    return {"payload": {"entries": payloads}, "sim_metrics": None}


def _run_fuzz(params) -> dict[str, Any]:
    from ..fuzz.campaign import FuzzConfig, run_fuzz

    report = run_fuzz(FuzzConfig.from_params(dict(params)))
    return {"payload": report.payload(), "sim_metrics": report.metrics()}


def _run_probe(params) -> dict[str, Any]:
    action = params.get("action", "ok")
    if action == "ok":
        return {"echo": params.get("payload")}
    if action == "pid":
        return {"pid": os.getpid()}
    if action == "fail":
        raise ExecutionError("injected probe failure")
    if action == "flaky":
        marker = params["marker"]
        with open(marker, "a", encoding="ascii") as handle:
            handle.write("x")
        attempts = os.path.getsize(marker)
        if attempts <= params.get("failures", 0):
            raise ExecutionError(f"injected transient failure #{attempts}")
        return {"echo": params.get("payload"), "attempts": attempts}
    if action == "sleep":
        import time

        time.sleep(params.get("seconds", 0.0))
        return {"slept": params.get("seconds", 0.0)}
    if action == "crash":
        import signal

        os.kill(os.getpid(), signal.SIGKILL)
        raise ExecutionError("unreachable")  # pragma: no cover
    raise DefinitionError(f"unknown probe action {action!r}")


# ---------------------------------------------------------------------------
# job files — the on-disk batch format (`repro batch <jobfile>`)
# ---------------------------------------------------------------------------
def write_job_file(path: str, jobs: Sequence[JobSpec]) -> None:
    """Write a batch of job specs as one JSON document."""
    document = {"format": JOB_FILE_FORMAT,
                "jobs": [job.to_dict() for job in jobs]}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


_JOB_ENTRY_KEYS = {"kind", "system", "params", "label"}


def load_job_file(path: str) -> list[JobSpec]:
    """Read a batch of job specs written by :func:`write_job_file`.

    Malformed JSON raises :class:`~repro.errors.ParseError`; a document
    with the wrong shape (missing ``jobs``, non-object entries, unknown
    entry keys, missing ``kind``) or an invalid spec (an unknown kind, a
    ``max_steps`` that is not a positive integer) raises
    :class:`~repro.errors.DefinitionError` naming the offending entry.
    """
    from ..errors import ParseError

    with open(path, "r", encoding="utf-8") as handle:
        try:
            document = json.load(handle)
        except json.JSONDecodeError as error:
            raise ParseError(
                f"job file {path!r} is not valid JSON: {error}") from None
    if isinstance(document, list):  # bare list of specs is accepted too
        entries = document
    elif isinstance(document, dict):
        if document.get("format") != JOB_FILE_FORMAT:
            raise DefinitionError(
                f"unsupported job file format {document.get('format')!r}")
        entries = document.get("jobs")
        if not isinstance(entries, list):
            raise DefinitionError(
                "job file: 'jobs' must be a list of job specs, got "
                f"{type(entries).__name__}")
    else:
        raise DefinitionError(
            "job file: expected an object with a 'jobs' list or a bare "
            f"list of specs, got {type(document).__name__}")
    specs = []
    for position, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise DefinitionError(
                f"job file: jobs[{position}] must be an object, got "
                f"{type(entry).__name__}")
        unknown = sorted(set(entry) - _JOB_ENTRY_KEYS)
        if unknown:
            raise DefinitionError(
                f"job file: jobs[{position}] has unknown key(s) "
                f"{', '.join(map(repr, unknown))}; expected only "
                f"{', '.join(map(repr, sorted(_JOB_ENTRY_KEYS)))}")
        if "kind" not in entry:
            raise DefinitionError(
                f"job file: jobs[{position}] is missing required key "
                "'kind'")
        params = entry.get("params", {})
        if not isinstance(params, dict):
            raise DefinitionError(
                f"job file: jobs[{position}].params must be an object, "
                f"got {type(params).__name__}")
        try:
            specs.append(JobSpec.from_dict(entry))
        except DefinitionError as error:
            raise DefinitionError(
                f"job file: jobs[{position}]: {error}") from None
    return specs
