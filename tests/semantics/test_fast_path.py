"""The compiled fast path is a drop-in for the reference interpreter.

The interpreter (``Simulator(backend="interpreter")``) is the one
hook-capable Definition 3.1 evaluator: every step recomputes every COM
port from the sequential state over a plan memoised per open-arc set.
The fast path is the compiled vector backend (``backend="vector"``).
These tests pin the contract between the two — byte-identical traces on
every curated design under both deterministic firing policies — plus
the interpreter's metrics, its memo tables and the profile module.
"""

import json

import pytest

from repro.designs import all_designs
from repro.petri import maximal_step
from repro.semantics import (
    Environment,
    MaximalStepPolicy,
    SequentialPolicy,
    SimMetrics,
    Simulator,
    profile_simulation,
    traces_equivalent,
)
from repro.synthesis import compile_source

DESIGNS = {design.name: design for design in all_designs()}


def _run(design, *, backend, policy_cls=MaximalStepPolicy,
         max_steps=500_000):
    system = design.build()
    return Simulator(system, design.environment(), policy_cls(),
                     backend=backend).run(max_steps=max_steps)


@pytest.mark.parametrize("name", sorted(DESIGNS))
def test_fast_path_trace_identical_on_zoo(name):
    design = DESIGNS[name]
    reference = _run(design, backend="interpreter")
    fast = _run(design, backend="vector")
    # field-by-field: the compiled path must be observationally invisible
    assert fast.events == reference.events
    assert fast.steps == reference.steps
    assert fast.latches == reference.latches
    assert fast.conflicts == reference.conflicts
    assert fast.final_marking == reference.final_marking
    assert fast.final_state == reference.final_state
    assert fast.terminated == reference.terminated
    assert fast.deadlocked == reference.deadlocked
    assert fast.step_count == reference.step_count
    assert traces_equivalent(reference, fast)
    # dataclass equality agrees (metrics are excluded from comparison)
    assert fast == reference


@pytest.mark.parametrize("name", sorted(DESIGNS))
def test_fast_path_identical_under_sequential_policy(name):
    design = DESIGNS[name]
    reference = _run(design, backend="interpreter",
                     policy_cls=SequentialPolicy, max_steps=2_000_000)
    fast = _run(design, backend="vector", policy_cls=SequentialPolicy,
                max_steps=2_000_000)
    assert traces_equivalent(reference, fast)


def test_metrics_attached_and_consistent():
    design = DESIGNS["counter"]
    system = design.build()
    trace = _run(design, backend="interpreter")
    metrics = trace.metrics
    assert metrics is not None
    assert metrics.steps == trace.step_count
    assert metrics.firings == trace.num_firings
    assert metrics.peak_marked_places >= 1
    assert metrics.wall_seconds > 0
    # one full pass per step: every COM output port, every step
    com_ports = sum(len(vertex.out_ports)
                    for vertex in system.datapath.combinational_vertices())
    assert metrics.port_evaluations == metrics.steps * com_ports


def test_loop_heavy_run_hits_caches():
    system = compile_source("""
        design bigcount { input l; output o; var n = 0, limit;
          limit = read(l);
          while (n < limit) { write(o, n); n = n + 1; }
        }""")
    sim = Simulator(system, Environment.of(l=[50]))
    trace = sim.run(max_steps=100_000)
    # a loop revisits a handful of control states: one open-arc set and
    # one plan per distinct marked-place set, however many steps run
    assert trace.step_count > 100
    assert 0 < len(sim._plans) <= len(sim._arcs_cache) < 10


def test_profile_simulation_and_json_round_trip():
    design = DESIGNS["traffic"]
    trace = profile_simulation(design.build(), design.environment(),
                               max_steps=500_000)
    metrics = trace.metrics
    assert metrics is not None
    payload = json.loads(metrics.to_json())
    assert payload["steps"] == metrics.steps
    restored = SimMetrics.from_dict(payload)
    assert restored == metrics
    assert restored.steps_per_second == pytest.approx(
        metrics.steps_per_second)
    assert "port evaluations" in metrics.summary()


def test_policy_falls_back_on_foreign_net():
    """A policy that served one system answers for any other net."""
    gcd = DESIGNS["gcd"]
    counter = DESIGNS["counter"].build()
    policy = MaximalStepPolicy()
    Simulator(gcd.build(), gcd.environment(), policy).run()
    marking = counter.net.initial_marking()
    assert (policy.choose(counter.net, marking, lambda t: True)
            == maximal_step(counter.net, marking))
