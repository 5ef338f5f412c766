"""Pinned trace records of every engine, byte for byte.

Each case runs one design under one engine and firing policy and
reduces the trace to a short SHA-256 digest of the ``repr`` of its
events, latches, fired steps and conflicts, in that order.  The
digests were generated from the frozen-dataclass record types; the
named-tuple records and the scalar engine's one-frame step loop must
reproduce them unchanged (same fields, same order, same values, same
``repr``).

Cases: every zoo design on the interpreter under the maximal,
sequential and seeded policies, on the vector backend's scalar and
numpy engines under the same three policies, and non-strict generated
cases whose traces carry drive and choice conflicts (and UNDEF
values) on all three engines.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.designs import get_design
from repro.fuzz.generate import GeneratorConfig, generate_case
from repro.semantics import (MaximalStepPolicy, SeededMaximalPolicy,
                             SequentialPolicy, Simulator)
from repro.semantics.vector import Lane, VectorSimulator

ZOO = ("counter", "diffeq", "ewf", "fir4", "fir8", "gcd", "isqrt",
       "parsum", "shiftmul", "sort4", "traffic")
POLICIES = {
    "maximal": MaximalStepPolicy,
    "sequential": SequentialPolicy,
    "seeded": lambda: SeededMaximalPolicy(7),
}
ENGINES = ("interpreter", "scalar", "numpy")
#: generated with mutation_rate=1.0: a shared_drive and a guard_drop case
FUZZ_SEEDS = (116, 145)


def _digest(trace) -> str:
    text = "\n".join(repr(part) for part in (
        trace.events, trace.latches, trace.steps, trace.conflicts))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _run(system, environment, policy, engine: str, strict: bool = True):
    if engine == "interpreter":
        return Simulator(system, environment, policy, strict).run(
            max_steps=5_000, on_limit="return")
    result = VectorSimulator(system, strict=strict, mode=engine).run(
        [Lane(environment, policy)], max_steps=5_000, on_limit="return")
    return result.trace(0)


def _zoo_digest(name: str, engine: str, policy: str) -> str:
    design = get_design(name)
    return _digest(_run(design.build(), design.environment(),
                        POLICIES[policy](), engine))


def _fuzz_digest(seed: int, engine: str) -> str:
    case = generate_case(seed, GeneratorConfig(mutation_rate=1.0))
    assert not case.strict
    trace = _run(case.system, case.environment.fork(), MaximalStepPolicy(),
                 engine, strict=False)
    assert trace.conflicts
    return _digest(trace)


ZOO_PINS = {
    ('counter', 'interpreter', 'maximal'): '21e72b77a525c0e4',
    ('counter', 'interpreter', 'seeded'): '21e72b77a525c0e4',
    ('counter', 'interpreter', 'sequential'): '21e72b77a525c0e4',
    ('counter', 'scalar', 'maximal'): '21e72b77a525c0e4',
    ('counter', 'scalar', 'seeded'): '21e72b77a525c0e4',
    ('counter', 'scalar', 'sequential'): '21e72b77a525c0e4',
    ('counter', 'numpy', 'maximal'): '21e72b77a525c0e4',
    ('counter', 'numpy', 'seeded'): '21e72b77a525c0e4',
    ('counter', 'numpy', 'sequential'): '21e72b77a525c0e4',
    ('diffeq', 'interpreter', 'maximal'): '2d15a4e6fe77ff21',
    ('diffeq', 'interpreter', 'seeded'): '2d15a4e6fe77ff21',
    ('diffeq', 'interpreter', 'sequential'): '2d15a4e6fe77ff21',
    ('diffeq', 'scalar', 'maximal'): '2d15a4e6fe77ff21',
    ('diffeq', 'scalar', 'seeded'): '2d15a4e6fe77ff21',
    ('diffeq', 'scalar', 'sequential'): '2d15a4e6fe77ff21',
    ('diffeq', 'numpy', 'maximal'): '2d15a4e6fe77ff21',
    ('diffeq', 'numpy', 'seeded'): '2d15a4e6fe77ff21',
    ('diffeq', 'numpy', 'sequential'): '2d15a4e6fe77ff21',
    ('ewf', 'interpreter', 'maximal'): 'af4b13838ac43850',
    ('ewf', 'interpreter', 'seeded'): 'af4b13838ac43850',
    ('ewf', 'interpreter', 'sequential'): 'af4b13838ac43850',
    ('ewf', 'scalar', 'maximal'): 'af4b13838ac43850',
    ('ewf', 'scalar', 'seeded'): 'af4b13838ac43850',
    ('ewf', 'scalar', 'sequential'): 'af4b13838ac43850',
    ('ewf', 'numpy', 'maximal'): 'af4b13838ac43850',
    ('ewf', 'numpy', 'seeded'): 'af4b13838ac43850',
    ('ewf', 'numpy', 'sequential'): 'af4b13838ac43850',
    ('fir4', 'interpreter', 'maximal'): '60937898ed73739d',
    ('fir4', 'interpreter', 'seeded'): '60937898ed73739d',
    ('fir4', 'interpreter', 'sequential'): '60937898ed73739d',
    ('fir4', 'scalar', 'maximal'): '60937898ed73739d',
    ('fir4', 'scalar', 'seeded'): '60937898ed73739d',
    ('fir4', 'scalar', 'sequential'): '60937898ed73739d',
    ('fir4', 'numpy', 'maximal'): '60937898ed73739d',
    ('fir4', 'numpy', 'seeded'): '60937898ed73739d',
    ('fir4', 'numpy', 'sequential'): '60937898ed73739d',
    ('fir8', 'interpreter', 'maximal'): '07f98b9f489dcc55',
    ('fir8', 'interpreter', 'seeded'): '07f98b9f489dcc55',
    ('fir8', 'interpreter', 'sequential'): '07f98b9f489dcc55',
    ('fir8', 'scalar', 'maximal'): '07f98b9f489dcc55',
    ('fir8', 'scalar', 'seeded'): '07f98b9f489dcc55',
    ('fir8', 'scalar', 'sequential'): '07f98b9f489dcc55',
    ('fir8', 'numpy', 'maximal'): '07f98b9f489dcc55',
    ('fir8', 'numpy', 'seeded'): '07f98b9f489dcc55',
    ('fir8', 'numpy', 'sequential'): '07f98b9f489dcc55',
    ('gcd', 'interpreter', 'maximal'): 'cc2233a28c164b3a',
    ('gcd', 'interpreter', 'seeded'): 'cc2233a28c164b3a',
    ('gcd', 'interpreter', 'sequential'): 'cc2233a28c164b3a',
    ('gcd', 'scalar', 'maximal'): 'cc2233a28c164b3a',
    ('gcd', 'scalar', 'seeded'): 'cc2233a28c164b3a',
    ('gcd', 'scalar', 'sequential'): 'cc2233a28c164b3a',
    ('gcd', 'numpy', 'maximal'): 'cc2233a28c164b3a',
    ('gcd', 'numpy', 'seeded'): 'cc2233a28c164b3a',
    ('gcd', 'numpy', 'sequential'): 'cc2233a28c164b3a',
    ('isqrt', 'interpreter', 'maximal'): 'd19badda0f3f5fb9',
    ('isqrt', 'interpreter', 'seeded'): 'd19badda0f3f5fb9',
    ('isqrt', 'interpreter', 'sequential'): 'd19badda0f3f5fb9',
    ('isqrt', 'scalar', 'maximal'): 'd19badda0f3f5fb9',
    ('isqrt', 'scalar', 'seeded'): 'd19badda0f3f5fb9',
    ('isqrt', 'scalar', 'sequential'): 'd19badda0f3f5fb9',
    ('isqrt', 'numpy', 'maximal'): 'd19badda0f3f5fb9',
    ('isqrt', 'numpy', 'seeded'): 'd19badda0f3f5fb9',
    ('isqrt', 'numpy', 'sequential'): 'd19badda0f3f5fb9',
    ('parsum', 'interpreter', 'maximal'): '6629aed61f28d98b',
    ('parsum', 'interpreter', 'seeded'): '6629aed61f28d98b',
    ('parsum', 'interpreter', 'sequential'): 'e34d24c531162575',
    ('parsum', 'scalar', 'maximal'): '6629aed61f28d98b',
    ('parsum', 'scalar', 'seeded'): '6629aed61f28d98b',
    ('parsum', 'scalar', 'sequential'): 'e34d24c531162575',
    ('parsum', 'numpy', 'maximal'): '6629aed61f28d98b',
    ('parsum', 'numpy', 'seeded'): '6629aed61f28d98b',
    ('parsum', 'numpy', 'sequential'): 'e34d24c531162575',
    ('shiftmul', 'interpreter', 'maximal'): '33293a37004687e7',
    ('shiftmul', 'interpreter', 'seeded'): '33293a37004687e7',
    ('shiftmul', 'interpreter', 'sequential'): '33293a37004687e7',
    ('shiftmul', 'scalar', 'maximal'): '33293a37004687e7',
    ('shiftmul', 'scalar', 'seeded'): '33293a37004687e7',
    ('shiftmul', 'scalar', 'sequential'): '33293a37004687e7',
    ('shiftmul', 'numpy', 'maximal'): '33293a37004687e7',
    ('shiftmul', 'numpy', 'seeded'): '33293a37004687e7',
    ('shiftmul', 'numpy', 'sequential'): '33293a37004687e7',
    ('sort4', 'interpreter', 'maximal'): 'ca1341c50c6cba7e',
    ('sort4', 'interpreter', 'seeded'): 'ca1341c50c6cba7e',
    ('sort4', 'interpreter', 'sequential'): 'ca1341c50c6cba7e',
    ('sort4', 'scalar', 'maximal'): 'ca1341c50c6cba7e',
    ('sort4', 'scalar', 'seeded'): 'ca1341c50c6cba7e',
    ('sort4', 'scalar', 'sequential'): 'ca1341c50c6cba7e',
    ('sort4', 'numpy', 'maximal'): 'ca1341c50c6cba7e',
    ('sort4', 'numpy', 'seeded'): 'ca1341c50c6cba7e',
    ('sort4', 'numpy', 'sequential'): 'ca1341c50c6cba7e',
    ('traffic', 'interpreter', 'maximal'): 'a98cd68a56ce4fbc',
    ('traffic', 'interpreter', 'seeded'): 'a98cd68a56ce4fbc',
    ('traffic', 'interpreter', 'sequential'): '45d43dab5b7d017f',
    ('traffic', 'scalar', 'maximal'): 'a98cd68a56ce4fbc',
    ('traffic', 'scalar', 'seeded'): 'a98cd68a56ce4fbc',
    ('traffic', 'scalar', 'sequential'): '45d43dab5b7d017f',
    ('traffic', 'numpy', 'maximal'): 'a98cd68a56ce4fbc',
    ('traffic', 'numpy', 'seeded'): 'a98cd68a56ce4fbc',
    ('traffic', 'numpy', 'sequential'): '45d43dab5b7d017f',
}

FUZZ_PINS = {
    (116, 'interpreter'): '34da11c42cce5aa0',
    (116, 'scalar'): '34da11c42cce5aa0',
    (116, 'numpy'): '34da11c42cce5aa0',
    (145, 'interpreter'): 'e3e7da537bd91e92',
    (145, 'scalar'): 'e3e7da537bd91e92',
    (145, 'numpy'): 'e3e7da537bd91e92',
}


@pytest.mark.parametrize("name", ZOO)
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_zoo_trace_digest(name, engine, policy):
    assert _zoo_digest(name, engine, policy) == ZOO_PINS[name, engine, policy]


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
@pytest.mark.parametrize("engine", ENGINES)
def test_conflicted_fuzz_trace_digest(seed, engine):
    assert _fuzz_digest(seed, engine) == FUZZ_PINS[seed, engine]
