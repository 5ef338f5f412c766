"""Fleet metrics aggregation."""

import json
from pathlib import Path

from repro.runtime import (
    ExecutionEngine,
    FleetMetrics,
    aggregate_sim_metrics,
    probe_job,
    simulate_job,
)
from repro.semantics.profile import SimMetrics

FIXTURES = Path(__file__).resolve().parent / "fixtures"


class TestAggregateSimMetrics:
    def test_counters_sum(self):
        a = SimMetrics(steps=3, firings=5, port_evaluations=10)
        b = SimMetrics(steps=4, firings=6, port_evaluations=1)
        total = aggregate_sim_metrics([a, b])
        assert total.steps == 7
        assert total.firings == 11
        assert total.port_evaluations == 11

    def test_peak_is_max_not_sum(self):
        total = aggregate_sim_metrics([SimMetrics(peak_marked_places=3),
                                       SimMetrics(peak_marked_places=7),
                                       SimMetrics(peak_marked_places=2)])
        assert total.peak_marked_places == 7

    def test_parent_format_records_still_load(self):
        # records written before the interpreter had one evaluator carry
        # fast_path, pass counters and cache maps: those keys are ignored
        records = json.loads(
            (FIXTURES / "parent-sim-metrics.json").read_text())
        assert {"fast_path", "cache_hits", "incremental_passes"} <= set(
            records[0])
        restored = SimMetrics.from_dict(records[0])
        assert restored.steps == records[0]["steps"]
        assert restored.port_evaluations == records[0]["port_evaluations"]
        assert "fast_path" not in restored.as_dict()
        total = aggregate_sim_metrics([*records, SimMetrics(steps=1)])
        assert total.steps == sum(r["steps"] for r in records) + 1
        assert total.firings == sum(r["firings"] for r in records)
        assert total.peak_marked_places == max(
            r["peak_marked_places"] for r in records)

    def test_accepts_dict_records(self):
        total = aggregate_sim_metrics([SimMetrics(steps=1).as_dict(),
                                       SimMetrics(steps=2)])
        assert total.steps == 3

    def test_empty_iterable(self):
        assert aggregate_sim_metrics([]).steps == 0


class TestFleetMetrics:
    def test_batch_aggregation(self, zoo):
        design, system = zoo["gcd"]
        batch = ExecutionEngine(retries=0, backoff=0).run(
            [simulate_job(system, design.environment()),
             probe_job("ok"),
             probe_job("fail")])
        metrics = batch.metrics
        assert metrics.jobs == 3
        assert metrics.succeeded == 2
        assert metrics.failed == 1
        assert metrics.cached == 0
        assert metrics.dispatched == 3
        assert metrics.sim.steps > 0  # simulate job's SimMetrics folded in

    def test_retry_counting(self, tmp_path):
        marker = tmp_path / "flaky"
        batch = ExecutionEngine(retries=3, backoff=0).run(
            [probe_job("flaky", marker=str(marker), failures=2)])
        assert batch.metrics.dispatched == 3
        assert batch.metrics.retries == 2

    def test_rates(self):
        metrics = FleetMetrics()
        assert metrics.cache_hit_rate == 0.0  # no division by zero
        assert metrics.jobs_per_second == 0.0
        metrics.jobs, metrics.cached = 4, 1
        metrics.wall_seconds = 2.0
        assert metrics.cache_hit_rate == 0.25
        assert metrics.jobs_per_second == 2.0

    def test_as_dict_round_trips_through_json(self, zoo):
        design, system = zoo["gcd"]
        batch = ExecutionEngine().run(
            [simulate_job(system, design.environment())])
        blob = json.loads(batch.metrics.to_json())
        assert blob["jobs"] == 1
        assert blob["sim"]["steps"] == batch.metrics.sim.steps

    def test_summary_mentions_mode(self):
        serial = FleetMetrics(workers=0)
        fleet = FleetMetrics(workers=4)
        degraded = FleetMetrics(workers=4, degraded_to_serial=True)
        assert "serial" in serial.summary()
        assert "4 worker(s)" in fleet.summary()
        assert "degraded" in degraded.summary()
