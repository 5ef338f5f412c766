"""Behavioural verification: engine choice per policy and the inputs a
verdict needs."""

import pytest

from repro.semantics.policies import RandomPolicy
from repro.transform.verify import behaviourally_equivalent


class TestEngineChoice:
    def test_symbolic_falls_back_to_interpreter_for_random_policy(self, zoo):
        # the vector engine does not emulate RandomPolicy: the symbolic
        # backend must run it on the interpreter, as explicit does
        design, gcd = zoo["gcd"]
        reports = [behaviourally_equivalent(
            gcd, gcd, [design.environment()],
            policies=[RandomPolicy(seed) for seed in (1, 2)],
            backend=backend) for backend in ("explicit", "symbolic")]
        assert [(r.equivalent, r.policies_checked, r.backend)
                for r in reports] == [(True, 2, "explicit"),
                                      (True, 2, "symbolic")]


class TestVacuousVerdicts:
    def test_no_environment_rejected(self, zoo):
        _d1, gcd = zoo["gcd"]
        _d2, counter = zoo["counter"]
        with pytest.raises(ValueError, match="environment"):
            behaviourally_equivalent(gcd, counter, [])

    def test_empty_policy_battery_rejected(self, zoo):
        design, gcd = zoo["gcd"]
        _d2, counter = zoo["counter"]
        for backend in ("explicit", "symbolic"):
            with pytest.raises(ValueError, match="policy"):
                behaviourally_equivalent(gcd, counter,
                                         [design.environment()],
                                         policies=[], backend=backend)
