"""Every per-layer metric of the traced run, in one table.

Span figures are *per pass* of the workload's item list (each pass is
the same work), so runs that fit a different number of passes compare.
Conventions: ``*_s`` is seconds per pass; ``*_ms`` is mean milliseconds
per call of that layer; a count is per pass.  Where a layer has both a
time and a count, the time is self time: the span's duration minus the
time its child spans cover.  A layer the workload never calls reads 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

Totals = dict[str, list]   # span name -> [calls, inclusive s, self s]
Counts = dict[str, float]

_NONE = (0, 0.0, 0.0)
#: Benchmark-owned spans: the measured region around items or passes.
#: Their self time is the remainder that no layer claims.
ROOTS = ("item", "pass")


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


@dataclass
class Run:
    """What the traced run measured, as the derivations read it."""

    totals: Totals        # span totals per pass
    counts: Counts        # exact work counts per pass
    setup: Totals         # span totals of the whole set-up
    plain_tp: float       # throughput_per_s of the untraced half
    traced_tp: float      # throughput_per_s of the traced half

    def calls(self, name: str) -> float:
        return self.totals.get(name, _NONE)[0]

    def self_s(self, name: str) -> float:
        return self.totals.get(name, _NONE)[2]

    def mean_ms(self, name: str) -> float:
        return 1e3 * _ratio(self.self_s(name), self.calls(name))

    def count(self, name: str) -> float:
        return self.counts.get(name, 0)

    def unattributed(self) -> tuple[float, float]:
        """(seconds per pass no layer span covers, share of measured time)."""
        remainder = sum(self.self_s(name) for name in ROOTS)
        measured = sum(self.totals.get(name, _NONE)[1] for name in ROOTS)
        return remainder, _ratio(remainder, measured)


#: (metric, unit, derivation).  The layer order follows the package
#: layout, bottom up; the benchmark's own figures come last.
METRICS: tuple[tuple[str, str, Callable[[Run], float]], ...] = (
    ("simulator.self_s", "s", lambda r: r.self_s("simulator.run")),
    ("simulator.us_per_step", "us",
     lambda r: 1e6 * _ratio(r.self_s("simulator.run"), r.count("sim.steps"))),
    ("simulator.steps", "count", lambda r: r.count("sim.steps")),
    ("petri.token_game_s", "s",
     lambda r: r.self_s("policy.choose") + r.self_s("petri.fire_step")),
    ("vector.compile_ms", "ms",
     lambda r: 1e3 * _ratio(r.self_s("vector.compile")
                            + r.self_s("vector.plan_compile"),
                            r.calls("vector.compile"))),
    ("vector.plan_compiles", "count", lambda r: r.count("vector.plans")),
    ("vector.advance_s", "s", lambda r: r.self_s("vector.advance")),
    ("vector.extract_s", "s", lambda r: r.self_s("vector.extract")),
    ("vector.lane_steps_per_s", "1/s",
     lambda r: _ratio(r.count("vector.lane_steps"),
                      r.self_s("vector.advance"))),
    ("events.structure_ms", "ms", lambda r: r.mean_ms("events.structure")),
    ("json_io.load_ms", "ms", lambda r: r.mean_ms("json_io.load")),
    ("json_io.loads", "count", lambda r: r.calls("json_io.load")),
    ("jobs.key_ms", "ms", lambda r: r.mean_ms("jobs.key")),
    ("jobs.key_calls_per_job", "ratio",
     lambda r: _ratio(r.calls("jobs.key"), r.count("jobs.submitted"))),
    ("jobs.execute_self_ms", "ms", lambda r: r.mean_ms("jobs.execute")),
    ("jobs.payload_kb", "kB",
     lambda r: _ratio(r.count("jobs.payload_bytes"),
                      1e3 * r.count("jobs.executed"))),
    ("cache.get_ms", "ms", lambda r: r.mean_ms("cache.get")),
    ("cache.put_ms", "ms", lambda r: r.mean_ms("cache.put")),
    ("cache.gets", "count", lambda r: r.count("cache.gets")),
    ("cache.hit_ratio", "ratio",
     lambda r: _ratio(r.count("cache.hits"), r.count("cache.gets"))),
    # read from the cache directory after each cold pass
    ("cache.bytes_written", "B", lambda r: r.count("out.cache_bytes")),
    ("executor.self_ms_per_job", "ms",
     lambda r: 1e3 * _ratio(r.self_s("executor.run"),
                            r.count("jobs.submitted"))),
    ("faults.single_fault_ms", "ms",
     lambda r: r.mean_ms("faults.single_fault")),
    ("reach.explore_s", "s", lambda r: r.self_s("reach.explore")),
    ("reach.explorations", "count", lambda r: r.count("reach.explorations")),
    ("reach.markings", "count", lambda r: r.count("reach.markings")),
    ("reach.truncated", "count", lambda r: r.count("reach.truncated")),
    ("symbolic.frontier_s", "s", lambda r: r.self_s("symbolic.frontier")),
    ("symbolic.markings", "count", lambda r: r.count("symbolic.markings")),
    ("symbolic.prefix_s", "s", lambda r: r.self_s("symbolic.prefix")),
    ("symbolic.prefix_events", "count",
     lambda r: r.count("symbolic.prefix_events")),
    ("symbolic.explorations", "count",
     lambda r: r.count("symbolic.explorations")),
    ("symbolic.truncated", "count", lambda r: r.count("symbolic.truncated")),
    ("properness.self_ms", "ms", lambda r: r.mean_ms("properness.check")),
    ("lint.run_ms", "ms", lambda r: r.mean_ms("lint.run")),
    ("sharing.share_ms", "ms", lambda r: r.mean_ms("sharing.share")),
    ("sharing.merges", "count", lambda r: r.count("sharing.merges")),
    ("fuzz.generate_ms", "ms", lambda r: r.mean_ms("fuzz.generate")),
    ("fuzz.trace_oracle_ms", "ms", lambda r: r.mean_ms("fuzz.trace_oracle")),
    ("fuzz.analysis_oracle_ms", "ms",
     lambda r: r.mean_ms("fuzz.analysis_oracle")),
    ("fuzz.monitor_oracle_ms", "ms",
     lambda r: r.mean_ms("fuzz.monitor_oracle")),
    ("fuzz.divergences", "count", lambda r: r.count("fuzz.divergences")),
    # design build happens in set-up only: mean ms per build there
    ("designs.build_ms", "ms",
     lambda r: 1e3 * _ratio(r.setup.get("designs.build", _NONE)[1],
                            r.setup.get("designs.build", _NONE)[0])),
    ("trace.overhead_pct", "%",
     lambda r: 100 * (1 - _ratio(r.traced_tp, r.plain_tp))),
    ("trace.unattributed_s", "s", lambda r: r.unattributed()[0]),
    ("trace.unattributed_pct", "%", lambda r: 100 * r.unattributed()[1]),
    ("trace.probe_s", "s", lambda r: r.self_s("perfbench.probe")),
)


def per_pass(totals: Totals, passes: int) -> Totals:
    return {name: [calls / passes, incl / passes, own / passes]
            for name, (calls, incl, own) in totals.items()}


def layer_metrics(run: Run) -> dict[str, tuple]:
    """``{metric: (value, unit)}`` for every per-layer metric."""
    return {name: (float(derive(run)), unit) for name, unit, derive in METRICS}
