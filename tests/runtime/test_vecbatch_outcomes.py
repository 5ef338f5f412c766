"""Vecbatch simulate payloads come from outcomes, not traces.

The numpy engine (batches of 8 lanes or more) builds each lane's
:class:`~repro.semantics.Outcome` straight from its chunk buffers.  The
payload that path makes must equal, byte for byte, three others:

* the payload formatted from the same batch's full traces;
* the scalar engine's payload;
* the per-lane classic ``simulate`` job's payload.
"""

import copy
import warnings

import pytest

from repro.designs import ZOO, get_design
from repro.designs.base import OutputPads
from repro.errors import ReproError
from repro.fuzz import GeneratorConfig, generate_case
from repro.runtime import (
    ExecutionEngine,
    canonical_json,
    execute_job,
    simulate_job,
    vecbatch_simulate_job,
)
from repro.runtime.jobs import _outcome_payload, _trace_payload
from repro.semantics import Environment
from repro.semantics.vector import Lane, VectorSimulator
from repro.synthesis import compile_source

from tests.util import independent_pair_system

warnings.filterwarnings("ignore", message=".*truncated exploration.*")


def _run(system, envs, mode, *, max_steps, strict, on_limit):
    return VectorSimulator(system, strict=strict, mode=mode).run(
        [Lane(copy.deepcopy(env)) for env in envs], max_steps=max_steps,
        on_limit=on_limit)


def _assert_payloads_agree(system, envs, *, max_steps=10_000, strict=True,
                           on_limit="raise"):
    """Check the four payloads agree; return the vecbatch job's lanes."""
    assert len(envs) >= 8  # the numpy engine's batch size
    spec = vecbatch_simulate_job(system, envs, max_steps=max_steps,
                                 strict=strict, on_limit=on_limit)
    lanes = execute_job(spec.to_dict())["payload"]["lanes"]
    options = dict(max_steps=max_steps, strict=strict, on_limit=on_limit)
    batch = _run(system, envs, "numpy", **options)
    traced = [_trace_payload(system, batch.trace(i))
              for i in range(len(envs))]
    pads = OutputPads(system)
    scalar_batch = _run(system, envs, "scalar", **options)
    scalar = [_outcome_payload(scalar_batch.outcome(i), pads)
              for i in range(len(envs))]
    classic = [execute_job(simulate_job(system, env, **options).to_dict())
               ["payload"] for env in envs]
    want = canonical_json(lanes)
    assert canonical_json(traced) == want
    assert canonical_json(scalar) == want
    assert canonical_json(classic) == want
    return lanes


#: zoo design -> lane k's input overrides (every run terminates)
_VARIED = {
    "gcd": lambda k: {"a_in": [6 + 7 * k], "b_in": [4 + 3 * (k % 5)]},
    "diffeq": lambda k: {"a_in": [2 + k % 5], "dx_in": [1 + k % 2]},
    "fir4": lambda k: {"x_in": [k, 2 - k, 3 * k, 4]},
    "fir8": lambda k: {"x_in": [(k * j) % 9 - 4 for j in range(8)]},
    "ewf": lambda k: {"x_in": [k % 6] + [(3 * k + j) % 7 - 2
                                         for j in range(k % 6)]},
    "traffic": lambda k: {"cycles_in": [k % 7]},
    "parsum": lambda k: {"x_in": [k, -k, 2 * k, 5]},
    "counter": lambda k: {"limit_in": [k % 9]},
    "isqrt": lambda k: {"n_in": [k * k + k % 5]},
    "sort4": lambda k: {"x_in": [k % 5, 7 - k % 3, k, 2]},
    "shiftmul": lambda k: {"a_in": [k], "b_in": [(5 * k) % 16]},
}

#: two pads each fed by two arcs in the same step (non-strict: two drive
#: conflicts in one step), so the payload's (end, start, arc, index) tie
#: order decides each pad's value order
TWO_ARCS_ONE_PAD = """
design twoarc { input i; output o, p; var a, b, u, n = 0;
  a = read(i);
  while (n < a) {
    b = a + n;
    par { { write(o, n); } { write(o, b); } { write(p, u); }
          { write(p, n); } }
    n = n + 1;
  }
  write(o, a);
}"""


class TestZoo:
    def test_varied_inputs_cover_the_zoo(self):
        assert sorted(_VARIED) == sorted(ZOO)

    @pytest.mark.parametrize("position,name", enumerate(sorted(ZOO)))
    def test_payloads_agree(self, position, name):
        design = get_design(name)
        lanes = 8 + 5 * position if position < len(ZOO) - 1 else 64
        envs = [design.environment(_VARIED[name](k)) for k in range(lanes)]
        payload = _assert_payloads_agree(design.build(), envs)
        assert all(lane["terminated"] for lane in payload)
        assert [lane["outputs"] for lane in payload] == [
            design.expected(_VARIED[name](k)) for k in range(lanes)]


def _generated_cases(count):
    config = GeneratorConfig(mutation_rate=0.3)
    seed = 0
    found = 0
    while found < count:
        case = generate_case(seed, config)
        seed += 1
        envs = [Environment(
            {pad: [v + k for v in values]
             for pad, values in case.environment.sequences.items()},
            exhausted_policy=case.environment.exhausted_policy)
            for k in range(8)]
        try:
            # only cases every lane of which runs without an error on
            # both engines (the numpy one refuses values beyond 64 bits)
            for mode in ("scalar", "numpy"):
                _run(case.system, envs, mode, max_steps=64, strict=False,
                     on_limit="return")
        except ReproError:
            continue
        found += 1
        yield case.system, envs


class TestGeneratedCases:
    def test_thirty_seeds_non_strict(self):
        conflicts = 0
        for system, envs in _generated_cases(30):
            lanes = _assert_payloads_agree(system, envs, max_steps=64,
                                           strict=False, on_limit="return")
            conflicts += sum(lane["num_conflicts"] for lane in lanes)
        assert conflicts > 0


class TestEdgeCases:
    def test_partial_lanes(self):
        design = get_design("traffic")
        envs = [design.environment({"cycles_in": [n]}) for n in range(1, 11)]
        lanes = _assert_payloads_agree(design.build(), envs, max_steps=20,
                                       on_limit="return")
        statuses = {(lane["terminated"], lane["deadlocked"])
                    for lane in lanes}
        assert statuses == {(True, False), (False, False)}

    def test_undefined_output_events(self):
        # the adder's right input is left undriven while it drives the
        # pad, so every output event carries UNDEF
        system = independent_pair_system()
        system.set_control("s_out", ["a_ra", "a_y"])
        envs = [Environment({"x": [k]}) for k in range(8)]
        lanes = _assert_payloads_agree(system, envs)
        assert all(lane["outputs"]["y"] == [lane["events"][-1][2]]
                   and isinstance(lane["outputs"]["y"][0], str)
                   for lane in lanes)

    def test_two_arcs_feeding_one_pad(self):
        system = compile_source(TWO_ARCS_ONE_PAD)
        assert sorted(OutputPads(system).by_arc.values()) == [
            "o", "o", "o", "p", "p"]
        envs = [Environment({"i": [k % 5]}) for k in range(12)]
        lanes = _assert_payloads_agree(system, envs, strict=False)
        for k, lane in enumerate(lanes):
            n = k % 5
            assert lane["outputs"] == {
                "o": [v for i in range(n) for v in (i, n + i)] + [n],
                "p": [v for i in range(n) for v in (0, i)]}
            assert lane["num_conflicts"] == 2 * n

    def test_strict_lane_failure_gives_the_same_error(self):
        system = compile_source(TWO_ARCS_ONE_PAD)
        envs = [Environment({"i": [k % 5]}) for k in range(12)]
        engine = ExecutionEngine(retries=0)
        batch = engine.run([vecbatch_simulate_job(system, envs),
                            simulate_job(system, envs[1])])
        vec, classic = batch.results
        assert not vec.ok and not classic.ok
        assert vec.error == classic.error
        assert "driven by" in vec.error
        # captured per lane: outcome() raises what trace() raises
        result = VectorSimulator(system, mode="numpy").run(
            [Lane(copy.deepcopy(env)) for env in envs],
            capture_errors=True)
        for i in range(len(envs)):
            error = result.error(i)
            if error is None:
                assert result.outcome(i) == result.trace(i).outcome()
                continue
            with pytest.raises(type(error)) as by_outcome:
                result.outcome(i)
            with pytest.raises(type(error)) as by_trace:
                result.trace(i)
            assert str(by_outcome.value) == str(by_trace.value)
        assert result.error(0) is None and result.error(1) is not None
