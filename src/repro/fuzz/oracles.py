"""Differential oracles: three independent ways to catch a lying engine.

Each oracle runs one :class:`~repro.fuzz.generate.FuzzCase` through two
or more implementations that must agree, and reports any disagreement as
a :class:`Divergence`:

``trace``
    interpreter vs vector backend (scalar and numpy engines, single
    lane and ``capture_errors`` batches): traces must be observationally
    equal
    (:func:`~repro.semantics.profile.traces_equivalent`) or fail with
    the same structured error class/kind.
``analysis``
    explicit vs symbolic ``is_safe`` / ``reachable_markings`` verdicts,
    plus self-equivalence under both equivalence backends.
``monitor``
    static Definition 3.2 verdicts (``check_properly_designed`` + lint)
    vs the runtime monitor stack: a runtime RT001–RT004 finding on a
    system the static side called proper is a bug in one of the two.

Known, *documented* asymmetries are classified as explained (not
divergences): the numpy engine's 64-bit storage limit raises a
structured :class:`~repro.errors.ExecutionError` on values the
big-integer interpreter computes exactly (see ``semantics/vector.py``).

Divergences carry a stable ``fingerprint`` — the hash of the (oracle,
kind, detail key) triple — used for triage bucketing and as the shrink
predicate: a reduced case still reproduces iff it still produces a
divergence with the same fingerprint.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import cache
from typing import Any, Callable

from ..errors import ReproError, RuntimeFaultError
from .generate import FuzzCase

#: Oracle names accepted by :func:`run_oracles`.
ORACLES = ("trace", "analysis", "monitor")

#: Message marker of the numpy engine's documented 64-bit storage limit.
_NUMPY_RANGE_MARKER = "64-bit range"

#: Runtime monitor family -> static rules that must have flagged it.
_RUNTIME_TO_STATIC = {
    "RT001": {"PD002"},
    "RT002": {"PD001", "DP004"},
    "RT003": {"PD003"},
    "RT004": {"PD004"},
}


@dataclass
class Divergence:
    """One observed disagreement between implementations."""

    oracle: str
    kind: str
    detail: str
    detail_key: str
    seed: int
    shape: str
    mutation: str | None
    system: dict[str, Any]
    environment: dict[str, Any] | None
    params: dict[str, Any] = field(default_factory=dict)

    @property
    def fingerprint(self) -> str:
        material = json.dumps(
            {"oracle": self.oracle, "kind": self.kind,
             "detail_key": self.detail_key},
            sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(material.encode("ascii")).hexdigest()[:16]

    def as_dict(self) -> dict[str, Any]:
        return {
            "fingerprint": self.fingerprint,
            "oracle": self.oracle,
            "kind": self.kind,
            "detail": self.detail,
            "detail_key": self.detail_key,
            "seed": self.seed,
            "shape": self.shape,
            "mutation": self.mutation,
            "system": self.system,
            "environment": self.environment,
            "params": self.params,
        }


@dataclass
class OracleReport:
    """Everything the oracles observed about one case."""

    divergences: list[Divergence] = field(default_factory=list)
    explained: list[str] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)


def _env_dict(environment) -> dict[str, Any] | None:
    from ..runtime.jobs import _environment_to_dict

    return _environment_to_dict(environment)


def _case_provenance(case: FuzzCase) -> dict[str, Any]:
    from ..io.json_io import system_to_dict

    return {
        "seed": case.seed,
        "shape": case.shape,
        "mutation": case.mutation,
        "system": system_to_dict(case.system),
        "environment": _env_dict(case.environment),
    }


def _divergence(case: FuzzCase, oracle: str, kind: str, detail: str,
                detail_key: str, **params: Any) -> Divergence:
    prov = _case_provenance(case)
    return Divergence(oracle=oracle, kind=kind, detail=detail,
                      detail_key=detail_key, seed=prov["seed"],
                      shape=prov["shape"], mutation=prov["mutation"],
                      system=prov["system"],
                      environment=prov["environment"], params=params)


# ---------------------------------------------------------------------------
# trace oracle
# ---------------------------------------------------------------------------
def _outcome(run: Callable[[], Any]):
    """("ok", trace) or ("error", class name, fault kind, message)."""
    try:
        return ("ok", run())
    except ReproError as error:
        kind = error.kind if isinstance(error, RuntimeFaultError) else ""
        return ("error", type(error).__name__, kind, str(error))


def _outcome_key(outcome) -> str:
    if outcome[0] == "ok":
        trace = outcome[1]
        return (f"ok steps={trace.step_count} term={trace.terminated} "
                f"dead={trace.deadlocked} conflicts={len(trace.conflicts)}")
    return f"error {outcome[1]}({outcome[2]})"


def _outcomes_match(reference, other) -> bool:
    from ..semantics.profile import traces_equivalent

    if reference[0] != other[0]:
        return False
    if reference[0] == "ok":
        return traces_equivalent(reference[1], other[1])
    return reference[1] == other[1] and reference[2] == other[2]


def _is_numpy_range_limit(outcome) -> bool:
    return (outcome[0] == "error" and outcome[1] == "ExecutionError"
            and _NUMPY_RANGE_MARKER in outcome[3])


def trace_oracle(case: FuzzCase, *, max_steps: int = 256) -> OracleReport:
    """Interpreter vs vector backend (scalar + numpy).

    The four vector runs share one :class:`CompiledSystem`: its plans and
    effects are pure functions of the marking, so sharing them changes no
    trace, and the reference stays the independent interpreter.  The
    compile happens inside each check's outcome scope, so a compile error
    is reported by every check exactly as a per-check compile would be.
    """
    from ..semantics.simulator import simulate
    from ..semantics.vector import Lane, VectorSimulator, compile_system

    report = OracleReport()
    system, env, strict = case.system, case.environment, case.strict
    # built on first use, inside that check's outcome scope; a compile
    # that raises is not cached, so each later check raises it afresh
    compiled = cache(lambda: compile_system(system))

    def interp():
        return simulate(system, env.fork(), strict=strict,
                        max_steps=max_steps, on_limit="return")

    def vector(mode: str):
        sim = VectorSimulator(compiled(), strict=strict, mode=mode)
        result = sim.run([Lane(env.fork())], max_steps=max_steps,
                         on_limit="return")
        return result.trace(0)

    def vector_captured(mode: str):
        """Per-lane outcomes of a 3-lane capture_errors batch.

        ``capture_errors=True`` promises that a failing lane is recorded
        — never raised — and that siblings are unaffected, so every lane
        of an identical triple must reproduce the reference outcome.
        """
        sim = VectorSimulator(compiled(), strict=strict, mode=mode)
        result = sim.run([Lane(env.fork()) for _ in range(3)],
                         max_steps=max_steps, on_limit="return",
                         capture_errors=True)
        outcomes = []
        for i in range(3):
            error = result.error(i)
            if error is None:
                outcomes.append(("ok", result.trace(i)))
            else:
                fault = (error.kind
                         if isinstance(error, RuntimeFaultError) else "")
                outcomes.append(("error", type(error).__name__, fault,
                                 str(error)))
        return outcomes

    reference = _outcome(interp)
    checks = (
        ("vector_scalar_mismatch", lambda: vector("scalar")),
        ("vector_numpy_mismatch", lambda: vector("numpy")),
    )
    for kind, run in checks:
        other = _outcome(run)
        if _outcomes_match(reference, other):
            continue
        if kind == "vector_numpy_mismatch" and _is_numpy_range_limit(other):
            report.explained.append("numpy_range_limit")
            continue
        detail_key = f"{_outcome_key(reference)} vs {_outcome_key(other)}"
        report.divergences.append(_divergence(
            case, "trace", kind,
            f"interpreter: {_outcome_key(reference)}; "
            f"candidate: {_outcome_key(other)}",
            detail_key, strict=strict, max_steps=max_steps))

    for kind, mode in (("capture_scalar_mismatch", "scalar"),
                       ("capture_numpy_mismatch", "numpy")):
        try:
            lane_outcomes = vector_captured(mode)
        except ReproError as error:
            report.divergences.append(_divergence(
                case, "trace", kind,
                f"capture_errors leaked {type(error).__name__}: {error}",
                f"capture leak {type(error).__name__}",
                strict=strict, max_steps=max_steps))
            continue
        for lane, other in enumerate(lane_outcomes):
            if _outcomes_match(reference, other):
                continue
            if mode == "numpy" and _is_numpy_range_limit(other):
                report.explained.append("numpy_range_limit")
                continue
            detail_key = (f"lane {_outcome_key(reference)} vs "
                          f"{_outcome_key(other)}")
            report.divergences.append(_divergence(
                case, "trace", kind,
                f"capture lane {lane}: interpreter "
                f"{_outcome_key(reference)}; captured "
                f"{_outcome_key(other)}",
                detail_key, strict=strict, max_steps=max_steps))
            break
    return report


# ---------------------------------------------------------------------------
# analysis oracle
# ---------------------------------------------------------------------------
def _analysis_outcome(run: Callable[[], Any]):
    try:
        return ("ok", run())
    except ReproError as error:
        return ("error", type(error).__name__)


def _marking_set(markings) -> frozenset:
    return frozenset(frozenset(m.items()) for m in markings)


def analysis_oracle(case: FuzzCase, *, max_markings: int = 4096,
                    max_steps: int = 256) -> OracleReport:
    """Explicit vs symbolic safety/reachability/equivalence verdicts."""
    import warnings

    from ..core.equivalence import semantically_equivalent
    from ..petri.reachability import explore, is_safe, reachable_markings

    report = OracleReport()
    net = case.system.net
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        graph = explore(net, max_markings=max_markings)
    if graph.truncated:
        report.skipped.append("analysis_budget")
        return report

    pairs = (
        ("safety_verdict",
         lambda: is_safe(net, max_markings=max_markings, backend="explicit"),
         lambda: is_safe(net, max_markings=max_markings,
                         backend="symbolic"),
         lambda value: value),
        ("marking_set",
         lambda: reachable_markings(net, max_markings=max_markings,
                                    backend="explicit"),
         lambda: reachable_markings(net, max_markings=max_markings,
                                    backend="symbolic"),
         _marking_set),
    )
    for kind, explicit, symbolic, canon in pairs:
        a = _analysis_outcome(explicit)
        b = _analysis_outcome(symbolic)
        if a[0] == "ok" and b[0] == "ok":
            ca, cb = canon(a[1]), canon(b[1])
            if ca == cb:
                continue
            detail = f"explicit={ca!r} symbolic={cb!r}"
            if kind == "marking_set":
                detail = (f"explicit reaches {len(ca)} markings, "
                          f"symbolic reaches {len(cb)}; "
                          f"symmetric difference {len(ca ^ cb)}")
            detail_key = kind
        elif a[0] == b[0]:  # both errored with the same class: agreement
            if a[1] == b[1]:
                continue
            detail = f"explicit raised {a[1]}, symbolic raised {b[1]}"
            detail_key = f"{a[1]} vs {b[1]}"
        else:
            detail = f"explicit {a}, symbolic {b}"
            detail_key = f"{a[0]}:{a[1] if a[0] == 'error' else 'ok'} vs " \
                         f"{b[0]}:{b[1] if b[0] == 'error' else 'ok'}"
        report.divergences.append(_divergence(
            case, "analysis", kind, detail, detail_key,
            max_markings=max_markings))

    # self-equivalence must hold under both backends (proper cases only:
    # the bounded explicit check simulates, which improper nets may abort)
    if case.mutation is None and case.shape == "block":
        for backend in ("explicit", "symbolic"):
            verdict = _analysis_outcome(lambda: semantically_equivalent(
                case.system, case.system.copy(), case.environment.fork(),
                max_steps=max_steps, backend=backend))
            if verdict[0] == "ok" and verdict[1].equivalent:
                continue
            detail = (f"{backend} self-equivalence failed: "
                      + (verdict[1].reason if verdict[0] == "ok"
                         else f"raised {verdict[1]}"))
            report.divergences.append(_divergence(
                case, "analysis", "self_equivalence", detail,
                f"self_equivalence:{backend}", backend=backend))
    return report


# ---------------------------------------------------------------------------
# monitor oracle
# ---------------------------------------------------------------------------
def _static_rules(system) -> tuple[bool, frozenset[str]]:
    """(fully proper?, set of flagged rule ids from check + lint)."""
    from ..analysis.lint import run_lint
    from ..core.properly_designed import check_properly_designed

    flagged: set[str] = set()
    check = check_properly_designed(system)
    for result in check.checks:
        if not result.ok:
            flagged.add("PD00" + result.rule.split(":", 1)[0])
    lint = run_lint(system)
    for diagnostic in lint.diagnostics:
        if diagnostic.severity == "error":
            flagged.add(diagnostic.rule)
    return check.ok and lint.ok("error"), frozenset(flagged)


def _runtime_families(case: FuzzCase, max_steps: int) -> frozenset[str]:
    """RT001–RT004 families observed by the runtime monitor stack."""
    from ..faults.monitors import (
        DriveConflictMonitor,
        GuardConflictMonitor,
        SafetyMonitor,
        _TraceConflictMonitor,
        finding_from_error,
    )
    from ..semantics.policies import MaximalStepPolicy
    from ..semantics.simulator import Simulator

    monitors = [SafetyMonitor(), DriveConflictMonitor(),
                GuardConflictMonitor()]
    simulator = Simulator(case.system, case.environment.fork(),
                          MaximalStepPolicy(), strict=False, hooks=monitors)
    findings = []
    trace = None
    try:
        trace = simulator.run(max_steps=max_steps, on_limit="return")
    except ReproError as error:
        findings.append(finding_from_error(error, case.system.name))
    if trace is not None:
        for monitor in monitors:
            if isinstance(monitor, _TraceConflictMonitor):
                monitor.scan(None, trace)
    for monitor in monitors:
        findings.extend(monitor.findings)
    return frozenset(f.diagnostic.rule for f in findings
                     if f.diagnostic.rule in _RUNTIME_TO_STATIC)


def monitor_oracle(case: FuzzCase, *, max_steps: int = 256) -> OracleReport:
    """Lint/check verdicts vs the runtime Definition 3.2 monitors."""
    report = OracleReport()
    if case.shape != "block":
        report.skipped.append("monitor_shape")
        return report
    proper, static = _static_rules(case.system)
    runtime = _runtime_families(case, max_steps)

    for family in sorted(runtime):
        if not (_RUNTIME_TO_STATIC[family] & static):
            report.divergences.append(_divergence(
                case, "monitor", "runtime_only_fault",
                f"runtime monitors flagged {family} but the static "
                f"analyses passed (flagged: {sorted(static) or 'nothing'})",
                f"runtime_only:{family}"))
    if case.mutation is None and not proper:
        report.divergences.append(_divergence(
            case, "monitor", "generator_improper",
            "a proper-by-construction case failed static analysis: "
            f"{sorted(static)}",
            f"generator_improper:{','.join(sorted(static))}"))
    return report


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------
def run_oracles(case: FuzzCase, *, oracles=ORACLES, max_steps: int = 256,
                analysis_place_limit: int = 40,
                max_markings: int = 4096) -> OracleReport:
    """Run the selected oracles over one case; merge their reports."""
    merged = OracleReport()
    for name in oracles:
        if name not in ORACLES:
            raise ValueError(f"unknown oracle {name!r}; "
                             f"choose from {ORACLES}")
        if name == "trace":
            part = trace_oracle(case, max_steps=max_steps)
        elif name == "analysis":
            if len(case.system.net.places) > analysis_place_limit:
                merged.skipped.append("analysis_size")
                continue
            part = analysis_oracle(case, max_markings=max_markings,
                                   max_steps=max_steps)
        else:
            if len(case.system.net.places) > analysis_place_limit:
                merged.skipped.append("monitor_size")
                continue
            part = monitor_oracle(case, max_steps=max_steps)
        merged.divergences.extend(part.divergences)
        merged.explained.extend(part.explained)
        merged.skipped.extend(part.skipped)
    return merged
