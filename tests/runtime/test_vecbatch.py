"""The ``vecbatch`` job kind: batched simulation/fault jobs.

The contract: a vecbatch is a *batch of classic jobs*.  Its simulate
payload carries one per-lane record shaped exactly like the
``simulate`` kind's payload; its faults payload carries one entry per
fault equal to :func:`repro.faults.run_single_fault`, each stamped with
the fault's per-fault key — so campaign reports and journals address
verdicts one fault at a time, however the faults were chunked.
"""

import pytest

from repro.designs import get_design
from repro.errors import DefinitionError
from repro.faults import FaultSpec, run_single_fault
from repro.runtime import (
    execute_job,
    simulate_job,
    vecbatch_faults_job,
    vecbatch_simulate_job,
)


def _design(name):
    design = get_design(name)
    return design, design.build()


class TestSimulateMode:
    def test_lanes_match_classic_simulate_jobs(self):
        design, system = _design("counter")
        envs = [design.environment({"limit_in": [n]}) for n in (3, 5, 9)]
        batch = vecbatch_simulate_job(system, envs, max_steps=200)
        assert batch.kind == "vecbatch"
        lanes = execute_job(batch.to_dict())["payload"]["lanes"]
        assert len(lanes) == 3
        for lane, env in zip(lanes, envs):
            classic = execute_job(
                simulate_job(system, env, max_steps=200).to_dict())
            assert lane == classic["payload"]

    def test_key_depends_on_environments(self):
        design, system = _design("counter")
        a = vecbatch_simulate_job(
            system, [design.environment({"limit_in": [3]})])
        b = vecbatch_simulate_job(
            system, [design.environment({"limit_in": [4]})])
        again = vecbatch_simulate_job(
            system, [design.environment({"limit_in": [3]})])
        assert a.key == again.key
        assert a.key != b.key

    def test_empty_batch(self):
        _design_, system = _design("counter")
        out = execute_job(vecbatch_simulate_job(system, []).to_dict())
        assert out["payload"] == {"lanes": []}

    def test_unknown_mode_rejected(self):
        _design_, system = _design("counter")
        spec = vecbatch_simulate_job(system, []).to_dict()
        spec["params"]["mode"] = "sweep"
        with pytest.raises(DefinitionError, match="unknown vecbatch mode"):
            execute_job(spec)


class TestFaultsMode:
    FAULTS = [
        FaultSpec("guard_invert", "t_exit6", start=0),
        FaultSpec("stuck_at", "ne0.o", value=1, start=1, end=3),
        FaultSpec("token_loss", "s3_while", start=0),
    ]

    #: The keys the retired one-job-per-fault kind gave ``FAULTS`` with
    #: campaign seed 3; older journals resume on them.
    KEYS = [
        "2bcf4aee54dcbb9cc7363b76984611ff283ab497715f9be43cbc93e6072455b3",
        "fcee0dc299094340916b8c6c8b494409842b93eb86e2d07000c45aa2cf2dba01",
        "fd61a4519b123818737ec765b0307e3b1e6ad2d4e1b10f3b7a0162ecf50d9a6f",
    ]

    def test_entries_match_classic_fault_jobs(self):
        design, system = _design("gcd")
        env = design.environment()
        batch = vecbatch_faults_job(system, self.FAULTS, env,
                                    campaign_seed=3)
        entries = execute_job(batch.to_dict())["payload"]["entries"]
        assert [entry["key"] for entry in entries] == self.KEYS
        for entry, fault, key in zip(entries, self.FAULTS, self.KEYS):
            direct = run_single_fault(system, fault, env, campaign_seed=3)
            assert entry == dict(direct, key=key)

    def test_golden_handoff_does_not_change_payload(self):
        """_golden is pure memoization: same payload with or without."""
        design, system = _design("gcd")
        env = design.environment()
        direct = run_single_fault(system, self.FAULTS[0], env,
                                  campaign_seed=3)
        batch = vecbatch_faults_job(system, self.FAULTS[:1], env,
                                    campaign_seed=3)
        entry = execute_job(batch.to_dict())["payload"]["entries"][0]
        assert {k: v for k, v in entry.items() if k != "key"} == direct

    def test_invalid_fault_rejected_at_submission(self):
        design, system = _design("gcd")
        with pytest.raises(Exception):
            vecbatch_faults_job(
                system, [FaultSpec("token_loss", "no_such_place")],
                design.environment())

    def test_label_defaults_to_size(self):
        design, system = _design("gcd")
        job = vecbatch_faults_job(system, self.FAULTS,
                                  design.environment())
        assert "3 faults" in job.label
