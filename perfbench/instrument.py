"""Spans and counters wrapped around ``repro``'s layers from outside.

The program has no span substrate yet, so the benchmark patches each
layer's callables at run time.  Each patch sits at the name its caller
looks up: the defining module's attribute, plus every other loaded
``repro`` module that imported the same object by name (for example
``repro.semantics.simulator.fire_step``).  Methods are patched on the
class that defines them.

There are two kinds of target:

* *count probes* run in the traced run and in the one counting pass
  the untraced run makes after its timed passes, never while the
  untraced run is timed.  They sit on coarse calls (one per
  exploration, plan compile, lane trace or simulation run), never on a
  per-step call, and only add to exact work counters;
* *span targets* are installed only in the traced run.  Each call
  records a span with its parent's id, and the recorder keeps per-name
  totals of calls, inclusive time and self time (the span's duration
  minus the time its child spans cover).

Spans are kept in memory and written out as Chrome Trace Event JSON.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable


class Recorder:
    """Span stack, per-name totals and exact work counters."""

    def __init__(self) -> None:
        self.spans_on = False
        self.keep_events = False
        self.counts: dict[str, int] = {}
        # name -> [calls, inclusive seconds, self seconds]
        self.totals: dict[str, list] = {}
        self.events: list[tuple[int, int, str, float, float]] = []
        self._stack: list[list] = []   # [id, name, start, child seconds]
        self._next_id = 1
        self.origin = perf_counter()

    def add(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def take_counts(self) -> dict[str, int]:
        counts, self.counts = self.counts, {}
        return counts

    def open(self, name: str) -> None:
        if self.spans_on:
            self._stack.append([self._next_id, name, perf_counter(), 0.0])
            self._next_id += 1

    def close(self) -> None:
        if not self.spans_on:
            return
        end = perf_counter()
        span_id, name, start, child = self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        total = self.totals.get(name)
        if total is None:
            total = self.totals[name] = [0, 0.0, 0.0]
        total[0] += 1
        total[1] += duration
        total[2] += duration - child
        if self.keep_events:
            self.events.append((span_id, parent[0] if parent else 0, name,
                                start, duration))

    def reset_spans(self) -> None:
        self.totals = {}
        self.events = []

    def write_chrome_trace(self, path: str) -> None:
        """Write the kept spans as Chrome Trace Event JSON (``ph: X``)."""
        events = [{
            "name": name, "cat": name.split(".", 1)[0], "ph": "X",
            "ts": round((start - self.origin) * 1e6, 3),
            "dur": round(duration * 1e6, 3), "pid": os.getpid(), "tid": 1,
            "args": {"id": span_id, "parent": parent},
        } for span_id, parent, name, start, duration in self.events]
        with open(path, "w", encoding="ascii") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"},
                      handle)


# ---------------------------------------------------------------------------
# observers: turn a call's arguments and result into exact counts
# ---------------------------------------------------------------------------
def _seen_simulation(rec: Recorder, args, result) -> None:
    if args[0].backend == "interpreter":
        rec.add("sim.runs")
        rec.add("sim.steps", result.step_count)
        rec.add("sim.firings", result.num_firings)


def _seen_lane_trace(rec: Recorder, args, result) -> None:
    batch, index = args[0], args[1]
    seen = batch.__dict__.setdefault("_perfbench_seen", set())
    if index not in seen:
        seen.add(index)
        rec.add("vector.lanes")
        rec.add("vector.lane_steps", result.step_count)


def _seen_plan(rec: Recorder, args, result) -> None:
    rec.add("vector.plans")


def _seen_compile(rec: Recorder, args, result) -> None:
    rec.add("vector.systems")


def _seen_explore(rec: Recorder, args, result) -> None:
    rec.add("reach.explorations")
    rec.add("reach.markings", result.num_markings)
    rec.add("reach.truncated", int(result.truncated))


def _seen_frontier(rec: Recorder, args, result) -> None:
    rec.add("symbolic.explorations")
    rec.add("symbolic.markings", result.num_markings)
    rec.add("symbolic.truncated", int(result.truncated))


def _seen_prefix(rec: Recorder, args, result) -> None:
    rec.add("symbolic.explorations")
    rec.add("symbolic.prefix_events", result.num_events)
    rec.add("symbolic.truncated", int(not result.complete))


def _seen_get(rec: Recorder, args, result) -> None:
    rec.add("cache.gets")
    rec.add("cache.hits", int(result is not None))


def _seen_batch(rec: Recorder, args, result) -> None:
    rec.add("jobs.submitted", len(args[1]))


def _seen_execute(rec: Recorder, args, result) -> None:
    from repro.runtime.jobs import canonical_json

    rec.add("jobs.executed")
    rec.add("jobs.payload_bytes", len(canonical_json(result["payload"])))


def _seen_sharing(rec: Recorder, args, result) -> None:
    rec.add("sharing.merges", len(result[1].merges))


def _seen_oracles(rec: Recorder, args, result) -> None:
    rec.add("fuzz.divergences", len(result.divergences))


# ---------------------------------------------------------------------------
# the target table
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Target:
    """One patched callable: ``module`` + dotted ``attr``."""

    module: str
    attr: str
    span: str
    observe: Callable[[Recorder, tuple, Any], None] | None = None
    counts: bool = False   # install in the counting pass too (a count probe)


def _policy_targets() -> list[Target]:
    return [Target("repro.semantics.policies", f"{cls}.choose",
                   "policy.choose")
            for cls in ("MaximalStepPolicy", "SequentialPolicy",
                        "SeededMaximalPolicy", "RandomPolicy",
                        "ScriptedPolicy", "FixedOrderPolicy")]


TARGETS: tuple[Target, ...] = (
    Target("repro.semantics.simulator", "Simulator.run", "simulator.run",
           _seen_simulation, counts=True),
    *_policy_targets(),
    Target("repro.petri.execution", "fire_step", "petri.fire_step"),
    Target("repro.semantics.vector", "CompiledSystem.__init__",
           "vector.compile", _seen_compile, counts=True),
    # plan compilation is private but it is the per-marking compile the
    # plan counter must see; ``plan_for`` also serves cache hits
    Target("repro.semantics.vector", "CompiledSystem._compile_plan",
           "vector.plan_compile", _seen_plan, counts=True),
    Target("repro.semantics.vector", "VectorSimulator.run", "vector.advance"),
    Target("repro.semantics.vector", "BatchResult.trace", "vector.extract",
           _seen_lane_trace, counts=True),
    Target("repro.semantics.vector", "BatchResult.error", "vector.extract"),
    Target("repro.semantics.event_structure", "event_structure_from_trace",
           "events.structure"),
    Target("repro.io.json_io", "system_from_dict", "json_io.load"),
    Target("repro.runtime.jobs", "job_key", "jobs.key"),
    Target("repro.runtime.jobs", "execute_job", "jobs.execute",
           _seen_execute),
    Target("repro.runtime.cache", "ResultCache.get", "cache.get", _seen_get),
    Target("repro.runtime.cache", "ResultCache.put", "cache.put"),
    Target("repro.runtime.executor", "ExecutionEngine.run", "executor.run",
           _seen_batch),
    Target("repro.faults.campaign", "run_single_fault",
           "faults.single_fault"),
    Target("repro.petri.reachability", "explore", "reach.explore",
           _seen_explore, counts=True),
    Target("repro.petri.reachability", "coexistent_place_pairs",
           "reach.coexistence"),
    Target("repro.analysis.symbolic", "frontier_explore", "symbolic.frontier",
           _seen_frontier, counts=True),
    Target("repro.analysis.symbolic", "complete_prefix", "symbolic.prefix",
           _seen_prefix, counts=True),
    Target("repro.core.equivalence", "semantically_equivalent",
           "equivalence.check"),
    Target("repro.core.properly_designed", "check_properly_designed",
           "properness.check"),
    Target("repro.analysis.lint", "run_lint", "lint.run"),
    Target("repro.transform.register_sharing", "share_registers",
           "sharing.share", _seen_sharing),
    Target("repro.fuzz.generate", "generate_case", "fuzz.generate"),
    Target("repro.fuzz.oracles", "trace_oracle", "fuzz.trace_oracle"),
    Target("repro.fuzz.oracles", "analysis_oracle", "fuzz.analysis_oracle"),
    Target("repro.fuzz.oracles", "monitor_oracle", "fuzz.monitor_oracle"),
    Target("repro.fuzz.oracles", "run_oracles", "fuzz.run_oracles",
           _seen_oracles),
    Target("repro.designs.base", "Design.build", "designs.build"),
)


def _make_wrapper(func: Callable, target: Target, rec: Recorder,
                  spans: bool) -> Callable:
    observe = target.observe
    name = target.span
    if not spans:
        @functools.wraps(func)
        def counted(*args, **kwargs):
            result = func(*args, **kwargs)
            observe(rec, args, result)
            return result
        return counted

    if target.attr == "Simulator.run":
        # the vector backend's dispatch through Simulator.run is its own
        # thin layer; keep it out of the interpreter's self time
        @functools.wraps(func)
        def simulate(sim, *args, **kwargs):
            rec.open(name if sim.backend == "interpreter"
                     else "simulator.vector_dispatch")
            try:
                result = func(sim, *args, **kwargs)
            finally:
                rec.close()
            _probe(rec, observe, (sim,), result)
            return result
        return simulate

    @functools.wraps(func)
    def spanned(*args, **kwargs):
        rec.open(name)
        try:
            result = func(*args, **kwargs)
        finally:
            rec.close()
        if observe is not None:
            _probe(rec, observe, args, result)
        return result
    return spanned


def _probe(rec: Recorder, observe, args, result) -> None:
    """Run an observer in its own span, so its cost (a payload encode, a
    stat) is charged to the benchmark and not to the calling layer."""
    rec.open("perfbench.probe")
    try:
        observe(rec, args, result)
    finally:
        rec.close()


def _is_caller(module_name: str) -> bool:
    """Modules whose by-name imports are rebound: the program's and the
    benchmark's own workload code."""
    return module_name.startswith("repro") or module_name == "workloads"


class Patches:
    """Install wrappers for a set of targets; restore them exactly."""

    def __init__(self, rec: Recorder) -> None:
        self.rec = rec
        self._undo: list[tuple[Any, str, Any]] = []
        # id(wrapper) -> (wrapper, original); the wrapper is held so its
        # id cannot be reused while the table lives
        self._originals: dict[int, tuple[Any, Any]] = {}

    def install(self, *, spans: bool) -> None:
        """Counts-only probes, or (``spans``) every target with spans."""
        for target in TARGETS:
            if spans or target.counts:
                self._install_one(target, spans)

    def _install_one(self, target: Target, spans: bool) -> None:
        module = importlib.import_module(target.module)
        owner_path, _, attr = target.attr.rpartition(".")
        owner = getattr(module, owner_path) if owner_path else module
        original = owner.__dict__[attr]
        wrapper = _make_wrapper(original, target, self.rec, spans)
        self._originals[id(wrapper)] = (wrapper, original)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)
        if owner_path:
            return
        # rebind every by-name import of the function in other modules
        for name, other in list(sys.modules.items()):
            if not _is_caller(name) or other is module:
                continue
            for key, value in list(vars(other).items()):
                if value is original:
                    self._undo.append((other, key, original))
                    setattr(other, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        # modules first imported while patched bound the wrapper by name
        for name, module in list(sys.modules.items()):
            if not _is_caller(name):
                continue
            for key, value in list(vars(module).items()):
                entry = self._originals.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, key, entry[1])
        self._originals.clear()
