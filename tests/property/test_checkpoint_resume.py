"""Zoo-wide property: checkpoint resume is byte-identical.

For every design in the zoo: run uninterrupted; then run again, stop
partway, and continue from the in-memory checkpoint in a *fresh*
simulator (new Simulator, new environment).  The prefix plus the
continuation must reproduce the uninterrupted run exactly — events,
latches, step count, termination flags — including under a seeded
(RNG-backed) firing policy, whose stream position travels inside the
checkpoint.
"""

from __future__ import annotations

import pytest

from repro.designs import all_designs
from repro.semantics import SeededMaximalPolicy
from repro.semantics.simulator import Simulator

MAX_STEPS = 400

_DESIGNS = [design.name for design in all_designs()]


def _signature(trace):
    """Everything observable about a trace, for byte-identity checks."""
    return {
        "events": [(event.end, str(event)) for event in trace.events],
        "latches": [(latch.step, str(latch)) for latch in trace.latches],
        "steps": trace.step_count,
        "terminated": trace.terminated,
        "deadlocked": trace.deadlocked,
    }


def _simulator(zoo, name, seed):
    design, _system = zoo[name]
    system = design.build()
    kwargs = {}
    if seed is not None:
        kwargs["policy"] = SeededMaximalPolicy(seed)
    return Simulator(system, design.environment(), **kwargs)


@pytest.mark.parametrize("seed", [None, 7], ids=["maximal", "seeded"])
@pytest.mark.parametrize("name", _DESIGNS)
def test_resume_matches_uninterrupted(zoo, name, seed):
    golden = _simulator(zoo, name, seed)
    full = golden.run(max_steps=MAX_STEPS, on_limit="return")

    cut = max(1, full.step_count // 2)
    first = _simulator(zoo, name, seed)
    prefix = first.run(max_steps=cut, on_limit="return")
    checkpoint = first.checkpoint()
    assert checkpoint.step == prefix.step_count

    second = _simulator(zoo, name, seed)
    tail = second.run(max_steps=MAX_STEPS, on_limit="return",
                      from_checkpoint=checkpoint)

    combined = {
        "events": ([(e.end, str(e)) for e in prefix.events]
                   + [(e.end, str(e)) for e in tail.events]),
        "latches": ([(l.step, str(l)) for l in prefix.latches]
                    + [(l.step, str(l)) for l in tail.latches]),
        "steps": tail.step_count,
        "terminated": tail.terminated,
        "deadlocked": tail.deadlocked,
    }
    assert combined == _signature(full)


@pytest.mark.parametrize("name", _DESIGNS)
def test_seeded_rng_state_travels_in_checkpoint(zoo, name):
    golden = _simulator(zoo, name, seed=3)
    golden.run(max_steps=MAX_STEPS, on_limit="return")

    sim = _simulator(zoo, name, seed=3)
    sim.run(max_steps=5, on_limit="return")
    checkpoint = sim.checkpoint()
    assert checkpoint.rng_state == sim.policy._rng.getstate()

    # a differently seeded policy resumes on the checkpoint's stream
    # position, not its own seed
    other = _simulator(zoo, name, seed=99)
    other.run(max_steps=MAX_STEPS, on_limit="return",
              from_checkpoint=checkpoint)
    assert other.policy._rng.getstate() == golden.policy._rng.getstate()
