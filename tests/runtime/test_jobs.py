"""Job specs: content-addressed keys, serialisation, the interpreter."""

import hashlib
import json

import pytest

from repro.errors import DefinitionError
from repro.runtime import (
    JobSpec,
    canonical_json,
    check_job,
    equiv_job,
    execute_job,
    fuzz_job,
    lint_job,
    load_job_file,
    probe_job,
    reachability_job,
    simulate_job,
    synthesize_job,
    vecbatch_faults_job,
    vecbatch_simulate_job,
    write_job_file,
)
from repro.runtime.jobs import (_environment_from_dict, _environment_to_dict,
                                _trace_payload)
from repro.semantics import Environment, simulate
from repro.semantics.values import UNDEF
from repro.synthesis.optimize import Objective


class TestKeys:
    def test_key_is_deterministic(self, zoo):
        design, system = zoo["gcd"]
        a = simulate_job(system, design.environment())
        b = simulate_job(design.build(), design.environment())
        assert a.key == b.key

    def test_key_changes_with_params(self, zoo):
        design, system = zoo["gcd"]
        a = simulate_job(system, design.environment(), max_steps=100)
        b = simulate_job(system, design.environment(), max_steps=200)
        assert a.key != b.key

    def test_key_changes_with_system(self, zoo):
        _, gcd = zoo["gcd"]
        _, counter = zoo["counter"]
        assert check_job(gcd).key != check_job(counter).key

    def test_key_changes_with_kind(self, zoo):
        _, system = zoo["gcd"]
        assert check_job(system).key != reachability_job(system).key

    def test_label_does_not_affect_key(self, zoo):
        _, system = zoo["gcd"]
        assert check_job(system, label="a").key == \
            check_job(system, label="b").key

    def test_canonical_json_is_order_insensitive(self):
        assert canonical_json({"b": 1, "a": [2, 3]}) == \
            canonical_json({"a": [2, 3], "b": 1})

    def test_simulate_key_is_pinned(self, zoo):
        # the spec still carries "fast": true, so simulate jobs keep the
        # keys (and cache entries) they had when it chose an evaluator
        design, system = zoo["gcd"]
        spec = simulate_job(system, design.environment())
        assert spec.params["fast"] is True
        assert spec.key == ("33b1c6ecb033621ab36e4f6b3c887edab1957f8090185"
                            "fef574e0b50b8b63b7f")

    def test_fast_false_job_runs_unchanged(self, zoo):
        # a job file written with "fast": false still runs, and its
        # payload is the same bytes as the default spec's
        design, system = zoo["gcd"]
        spec = simulate_job(system, design.environment())
        old = JobSpec("simulate", spec.system, {**spec.params, "fast": False})
        payload = canonical_json(execute_job(old.to_dict())["payload"])
        assert payload == canonical_json(
            execute_job(spec.to_dict())["payload"])
        assert hashlib.sha256(payload.encode()).hexdigest() == (
            "99681f0d7c73a30559623e0212459a7a5585a11b1adba7ea76e62f979b0aeb7f")


class TestSpecs:
    def test_round_trip_preserves_key(self, zoo):
        design, system = zoo["diffeq"]
        spec = simulate_job(system, design.environment(), label="x")
        clone = JobSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone == spec
        assert clone.key == spec.key

    def test_unknown_kind_rejected(self):
        with pytest.raises(DefinitionError):
            JobSpec("mystery")

    def test_non_json_params_rejected(self):
        with pytest.raises(DefinitionError):
            JobSpec("probe", params={"bad": object()})

    def test_unknown_probe_action_rejected(self):
        with pytest.raises(DefinitionError):
            probe_job("explode")

    def test_unknown_algorithm_rejected(self, zoo):
        _, system = zoo["gcd"]
        with pytest.raises(DefinitionError):
            synthesize_job(system, algorithm="anneal")


def _budget_specs(zoo, max_steps):
    """One simulate, vecbatch and synthesize spec, each with ``max_steps``
    overwritten (as a hand-edited job file would have it)."""
    design, system = zoo["gcd"]
    env = design.environment()
    sim = simulate_job(system, env).to_dict()
    sim["params"]["max_steps"] = max_steps
    vec = vecbatch_simulate_job(system, [env]).to_dict()
    vec["params"]["max_steps"] = max_steps
    syn = synthesize_job(system).to_dict()
    syn["params"]["objective"]["max_steps"] = max_steps
    return {"simulate": sim, "vecbatch": vec, "synthesize": syn}


class TestStepBudgets:
    @pytest.mark.parametrize("kind", ["simulate", "vecbatch", "synthesize"])
    @pytest.mark.parametrize("budget", [0, -1, "x", 2.5, True])
    def test_bad_budget_rejected_at_construction(self, zoo, kind, budget):
        entry = _budget_specs(zoo, budget)[kind]
        where = ("params.objective.max_steps" if kind == "synthesize"
                 else "params.max_steps")
        with pytest.raises(DefinitionError) as info:
            JobSpec.from_dict(entry)
        assert str(info.value) == (
            f"{where} must be a positive step budget, got {budget!r}")

    @pytest.mark.parametrize("kind", ["simulate", "vecbatch", "synthesize"])
    @pytest.mark.parametrize("budget", [0, -1, "x"])
    def test_job_file_names_the_entry(self, tmp_path, zoo, kind, budget):
        _design, system = zoo["gcd"]
        path = tmp_path / "jobs.json"
        path.write_text(json.dumps([check_job(system).to_dict(),
                                    _budget_specs(zoo, budget)[kind]]))
        with pytest.raises(DefinitionError,
                           match=r"^job file: jobs\[1\]: .*must be a "
                                 r"positive step budget"):
            load_job_file(str(path))

    def test_positive_budget_accepted(self, zoo):
        for entry in _budget_specs(zoo, 1).values():
            assert JobSpec.from_dict(entry).key


class TestEnvironmentValues:
    def test_undef_round_trips(self):
        environment = Environment({"x": [1, UNDEF]}, exhausted_policy="hold")
        data = _environment_to_dict(environment)
        assert data["sequences"] == {"x": [1, "UNDEF"]}
        back = _environment_from_dict(data)
        assert back.sequences == {"x": [1, UNDEF]}
        assert back.sequences["x"][1] is UNDEF
        assert back.exhausted_policy == "hold"

    def test_simulate_job_with_an_undef_input_matches_direct_run(self, zoo):
        design, system = zoo["fir4"]
        streams = {k: list(v) for k, v in design.default_inputs.items()}
        first = sorted(streams)[0]
        streams[first][0] = UNDEF
        job = simulate_job(system, Environment(streams))
        out = execute_job(JobSpec.from_dict(
            json.loads(json.dumps(job.to_dict()))).to_dict())
        trace = simulate(system, Environment(streams))
        assert out["payload"] == _trace_payload(system, trace)
        assert ["a0", 0, "UNDEF"] == out["payload"]["events"][0][:3]

    @pytest.mark.parametrize("value", ["oops", 2.5, None, [1]])
    def test_non_integer_value_rejected(self, zoo, value):
        design, system = zoo["gcd"]
        entry = simulate_job(system, design.environment()).to_dict()
        entry["params"]["environment"]["sequences"]["a_in"][0] = value
        with pytest.raises(DefinitionError) as info:
            JobSpec.from_dict(entry)
        assert str(info.value) == (
            "params.environment.sequences['a_in'][0] must be an integer or "
            f"'UNDEF', got {value!r}")

    def test_every_environment_of_a_job_is_checked(self, zoo):
        design, system = zoo["gcd"]
        vec = vecbatch_simulate_job(
            system, [design.environment(), design.environment()]).to_dict()
        vec["params"]["environments"][1]["sequences"]["b_in"] = ["oops"]
        with pytest.raises(DefinitionError,
                           match=r"^params\.environments\[1\]\.sequences"):
            JobSpec.from_dict(vec)
        syn = synthesize_job(system, Objective(
            environment=design.environment())).to_dict()
        syn["params"]["objective"]["environment"]["sequences"]["a_in"] = 3
        with pytest.raises(DefinitionError,
                           match=r"^params\.objective\.environment\."
                                 r"sequences\['a_in'\] must be a list"):
            JobSpec.from_dict(syn)

    def test_unknown_exhausted_policy_rejected(self, zoo):
        design, system = zoo["gcd"]
        entry = simulate_job(system, design.environment()).to_dict()
        entry["params"]["environment"]["exhausted_policy"] = "bogus"
        with pytest.raises(DefinitionError,
                           match=r"^params\.environment\.exhausted_policy "
                                 r"must be one of .*, got 'bogus'$"):
            JobSpec.from_dict(entry)

    def test_job_file_names_the_entry(self, tmp_path, zoo):
        design, system = zoo["gcd"]
        entry = simulate_job(system, design.environment()).to_dict()
        entry["params"]["environment"]["sequences"]["a_in"] = ["oops"]
        path = tmp_path / "jobs.json"
        path.write_text(json.dumps([check_job(system).to_dict(), entry]))
        with pytest.raises(DefinitionError,
                           match=r"^job file: jobs\[1\]: params\.environment"):
            load_job_file(str(path))


class TestInterpreter:
    def test_simulate_payload_matches_direct_run(self, zoo):
        design, system = zoo["gcd"]
        out = execute_job(simulate_job(system, design.environment()).to_dict())
        trace = simulate(system, design.environment())
        payload = out["payload"]
        assert payload["step_count"] == trace.step_count
        assert payload["terminated"] == trace.terminated
        assert payload["outputs"] == design.expected()
        assert out["sim_metrics"]["steps"] == trace.step_count

    def test_check_payload(self, zoo):
        _, system = zoo["counter"]
        payload = execute_job(check_job(system).to_dict())["payload"]
        assert payload["ok"] is True
        assert len(payload["checks"]) >= 5

    def test_reachability_payload(self, zoo):
        _, system = zoo["counter"]
        payload = execute_job(reachability_job(system).to_dict())["payload"]
        assert payload["complete"] is True
        assert payload["is_safe"] is True
        assert payload["num_markings"] > 0

    def test_equivalence_payload(self, zoo):
        design, system = zoo["gcd"]
        spec = equiv_job(system, design.build(), design.environment(),
                         backend="explicit")
        payload = execute_job(spec.to_dict())["payload"]
        assert payload["equivalent"] is True
        assert payload["backend"] == "explicit"

    def test_synthesize_payload_round_trips_system(self, zoo):
        from repro.io import system_from_dict
        from repro.core import semantically_equivalent

        design, system = zoo["fir4"]
        payload = execute_job(synthesize_job(system).to_dict())["payload"]
        assert payload["final_objective"] <= payload["initial_objective"]
        optimized = system_from_dict(payload["system"])
        assert semantically_equivalent(system, optimized,
                                       design.environment())

    @pytest.mark.parametrize("name,digest", [
        ("gcd",
         "fdc2c816debab36553999136376b4013373d1cdb1c7f43c3d7bd68a78b09edb8"),
        ("fir8",
         "e30a9d1207f4a250992c839c48432fd24ffae34f0c3531a8eae2b8885c5bab4d"),
    ])
    def test_synthesize_payload_is_pinned(self, zoo, name, digest):
        # greedy descent accepts register-sharing moves on both designs,
        # so the candidate pairs and their order are in these bytes
        _design, system = zoo[name]
        out = execute_job(synthesize_job(system).to_dict())
        kinds = {move["kind"] for move in out["payload"]["moves"]}
        assert "register-sharing" in kinds
        payload = canonical_json(out["payload"])
        assert hashlib.sha256(payload.encode()).hexdigest() == digest

    def test_interpreter_is_deterministic(self, zoo):
        design, system = zoo["diffeq"]
        spec = synthesize_job(system, algorithm="random+greedy", seed=7)
        first = canonical_json(execute_job(spec.to_dict())["payload"])
        second = canonical_json(execute_job(spec.to_dict())["payload"])
        assert first == second


class TestJobFiles:
    def test_write_and_load(self, tmp_path, zoo):
        design, system = zoo["gcd"]
        jobs = [simulate_job(system, design.environment(), label="sim"),
                check_job(system, label="chk")]
        path = tmp_path / "jobs.json"
        write_job_file(str(path), jobs)
        loaded = load_job_file(str(path))
        assert [job.key for job in loaded] == [job.key for job in jobs]
        assert [job.label for job in loaded] == ["sim", "chk"]

    def test_bare_list_accepted(self, tmp_path, zoo):
        _, system = zoo["gcd"]
        path = tmp_path / "jobs.json"
        path.write_text(json.dumps([check_job(system).to_dict()]))
        assert len(load_job_file(str(path))) == 1

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "jobs.json"
        path.write_text(json.dumps({"format": 99, "jobs": []}))
        with pytest.raises(DefinitionError):
            load_job_file(str(path))


class TestLintJobs:
    def test_key_is_deterministic(self, zoo):
        design, system = zoo["gcd"]
        from repro.runtime import lint_job
        assert lint_job(system).key == lint_job(design.build()).key

    def test_key_changes_with_params(self, zoo):
        from repro.runtime import lint_job
        _, system = zoo["gcd"]
        assert lint_job(system).key != \
            lint_job(system, fail_on="warning").key
        assert lint_job(system).key != \
            lint_job(system, rules=["CN001"]).key

    def test_unknown_rule_rejected(self, zoo):
        from repro.runtime import lint_job
        _, system = zoo["gcd"]
        with pytest.raises(DefinitionError, match="unknown lint rule"):
            lint_job(system, rules=["XX999"])

    def test_bad_fail_on_rejected(self, zoo):
        from repro.runtime import lint_job
        _, system = zoo["gcd"]
        with pytest.raises(DefinitionError):
            lint_job(system, fail_on="fatal")

    def test_execute_clean_design(self, zoo):
        from repro.runtime import lint_job
        _, system = zoo["gcd"]
        result = execute_job(lint_job(system).to_dict())
        payload = result["payload"]
        assert payload["ok"] is True
        assert payload["fail_on"] == "error"
        assert payload["counts"]["error"] == 0
        assert result["sim_metrics"] is None

    def test_execute_reports_diagnostics(self, zoo):
        from repro.runtime import lint_job
        design, _ = zoo["gcd"]
        system = design.build()  # fresh copy: the fixture system is shared
        system.net.set_initial(sorted(system.net.initial)[0], 2)
        payload = execute_job(lint_job(system).to_dict())["payload"]
        assert payload["ok"] is False
        assert any(d["rule"] == "PD002" and d["severity"] == "error"
                   for d in payload["diagnostics"])


class TestEquivJobs:
    """The scalable `equiv` kind: backend-keyed, witness-carrying."""

    def test_key_includes_backend(self, zoo):
        design, system = zoo["gcd"]
        from repro.runtime import equiv_job
        symbolic = equiv_job(system, design.build(), design.environment())
        explicit = equiv_job(system, design.build(), design.environment(),
                             backend="explicit")
        assert symbolic.key != explicit.key
        assert symbolic.kind == "equiv"

    def test_unknown_backend_rejected(self, zoo):
        design, system = zoo["gcd"]
        from repro.runtime import equiv_job
        with pytest.raises(DefinitionError, match="backend"):
            equiv_job(system, design.build(), backend="bdd")

    def test_payload_shape_equivalent(self, zoo):
        design, system = zoo["gcd"]
        from repro.runtime import equiv_job
        spec = equiv_job(system, design.build(), design.environment())
        payload = execute_job(spec.to_dict())["payload"]
        assert payload["equivalent"] is True
        assert payload["backend"] == "symbolic"
        assert payload["witness"] is None

    def test_backends_agree_and_differential(self, zoo):
        design, system = zoo["fir4"]
        from repro.runtime import equiv_job
        verdicts = {}
        for backend in ("explicit", "symbolic"):
            spec = equiv_job(system, design.build(), design.environment(),
                             backend=backend)
            verdicts[backend] = execute_job(spec.to_dict())["payload"]
        assert verdicts["explicit"]["equivalent"] == \
            verdicts["symbolic"]["equivalent"] is True

    def test_inequivalent_payload_carries_reason(self, zoo):
        _d1, gcd = zoo["gcd"]
        _d2, counter = zoo["counter"]
        from repro.runtime import equiv_job
        payload = execute_job(
            equiv_job(gcd, counter).to_dict())["payload"]
        assert payload["equivalent"] is False
        assert payload["reason"]

    def test_round_trips_through_job_file(self, tmp_path, zoo):
        design, system = zoo["gcd"]
        from repro.runtime import equiv_job
        spec = equiv_job(system, design.build(), design.environment(),
                         label="eq")
        path = tmp_path / "jobs.json"
        write_job_file(str(path), [spec])
        loaded = load_job_file(str(path))
        assert loaded[0].key == spec.key
        assert loaded[0].kind == "equiv"


def _fault(text):
    from repro.faults import FaultSpec

    return FaultSpec.parse(text)


#: kind label -> builder of one spec from the zoo fixture.  The literal
#: keys and payload digests below pin every job kind the engine runs:
#: a change to a spec's params, its canonical system or its payload
#: bytes breaks them.
_PINNED_SPECS = {
    "check": lambda zoo: check_job(zoo["gcd"][1]),
    "lint": lambda zoo: lint_job(zoo["gcd"][1]),
    "reachability": lambda zoo: reachability_job(zoo["gcd"][1]),
    "equiv": lambda zoo: equiv_job(zoo["gcd"][1], zoo["gcd"][0].build(),
                                   zoo["gcd"][0].environment()),
    "vecbatch-simulate": lambda zoo: vecbatch_simulate_job(
        zoo["counter"][1], [zoo["counter"][0].environment()] * 3,
        max_steps=500),
    # >= 8 lanes: the numpy engine, whose payloads come from its columns
    "vecbatch-numpy-counter": lambda zoo: vecbatch_simulate_job(
        zoo["counter"][1],
        [zoo["counter"][0].environment({"limit_in": [n]})
         for n in (0, 1, 2, 3, 5, 8, 13, 21)],
        max_steps=500),
    "vecbatch-numpy-ewf": lambda zoo: vecbatch_simulate_job(
        zoo["ewf"][1],
        [zoo["ewf"][0].environment(
            {"x_in": [i % 6] + [(3 * i + k) % 7 - 2 for k in range(i % 6)]})
         for i in range(16)],
        max_steps=2000),
    "vecbatch-numpy-partial": lambda zoo: vecbatch_simulate_job(
        zoo["traffic"][1],
        [zoo["traffic"][0].environment({"cycles_in": [n]})
         for n in range(1, 11)],
        max_steps=20, on_limit="return"),
    "vecbatch-faults": lambda zoo: vecbatch_faults_job(
        zoo["gcd"][1], [_fault("guard_invert:t_exit6:start=0"),
                        _fault("arc_close:a2:start=0")],
        zoo["gcd"][0].environment()),
    "fuzz": lambda zoo: fuzz_job(seed=0, cases=4),
}


def _first_fault_entry(zoo):
    """The first entry of the ``vecbatch-faults`` spec, split into the
    fault's own key and its payload: the same key and bytes the retired
    one-job-per-fault kind gave this fault."""
    spec = _PINNED_SPECS["vecbatch-faults"](zoo)
    entry = dict(execute_job(spec.to_dict())["payload"]["entries"][0])
    return entry.pop("key"), entry


class TestKindPins:
    @pytest.mark.parametrize("kind,key,digest", [
        ("check",
         "dc0044a5088b94ebd5fee5b01ca14b79dd57ce40"
         "ab0b82dbb8a642d76e375848",
         "1e6b1bc3f8d85a935144c8fc55f007358fbffdb6"
         "a09b27a282531803a78d0864"),
        ("lint",
         "7c3f31326f34c22d42ee0b0ac92acb89d0677de7"
         "f208eab0ef88e3064615a118",
         "5b736a9f4878ae4e6b9a9c88cd81692181aff81a"
         "3a511117a1bd6f7f2aea0953"),
        ("reachability",
         "24ec8a20a67ed41e9e36cae239f93d40a6f549ec"
         "bb101b37a1396f05412773cc",
         "94f5a67ed7f6363b05dcc8eb17cc41e2feb1b0d1"
         "f99e48e820986f364a411ae5"),
        ("equiv",
         "8f2bc61ff80090fd9282d38b39c90b4d487140d8"
         "9604d8be8e74afef5c6a39a7",
         "6e701820437690fd5d82674846b0568e574eb053"
         "1f184d66444279702afa9a30"),
        ("faults",
         "31897b55f8bb40de681bece77f0e2e6fe26d3ce7"
         "8605e8c0809743156397839a",
         "68a2a10c805bb1575d4e3414f6c38050bed5f3e4"
         "71398caf9d9a54a3aa9cd582"),
        ("vecbatch-simulate",
         "e161a8d0867e14b3eed23eeb213014c53e2131d3"
         "f0389c9011b7d9f8926caeba",
         "b173202f1c7af3c0edc5e782e3316240077c03dc"
         "cd113cf187da0d0dea57a54a"),
        ("vecbatch-numpy-counter",
         "ca07b138da2bf7d27d5cdc0395223ac3ae4cf2ad"
         "ded3de94db886f7e6b542783",
         "518e2c7f84b53c127c4a37bdb5cf6062b865be4b"
         "15729c2d51ec613a51e2c679"),
        ("vecbatch-numpy-ewf",
         "f877a0976941b5fa79ddef8a4f87720079934e7e"
         "1df3faf6834c77428fffdf47",
         "69f57fa8914f9e16288e94bb221ec06322011d37"
         "4a365a03b13493db358c79a0"),
        ("vecbatch-numpy-partial",
         "aed98ad520b8d8aa1c513a3ff92b529a9f485bd8"
         "f08c0d1ba94168d88be00e27",
         "aee4ea3824eefd20c677c2b1c6887c584268ef18"
         "5729807acf7992a603dab1a6"),
        ("vecbatch-faults",
         "8cc9163729f53a265a6e8799ca157402dcc56767"
         "e7b7d6641ff619dc5718d25f",
         "3771811fac440e4f876f984d6551448781672b32"
         "9bca10a1c16c8daee65b86ef"),
        ("fuzz",
         "8356a3562ccf0a861efa57ccdc252e905cfa248c"
         "c3a1d36df33a6e85a29866bd",
         "60d12f3d19d935651c7a7e8e6f8f9c01c3a8aee3"
         "6ab0dc0c43ab951b0c29d5a2"),
    ])
    def test_key_and_payload_are_pinned(self, zoo, kind, key, digest):
        if kind == "faults":
            got_key, payload = _first_fault_entry(zoo)
        else:
            spec = _PINNED_SPECS[kind](zoo)
            got_key = spec.key
            payload = execute_job(spec.to_dict())["payload"]
        assert got_key == key
        blob = canonical_json(payload)
        assert hashlib.sha256(blob.encode()).hexdigest() == digest

    @pytest.mark.parametrize("kind", ["faults", "equivalence"])
    def test_retired_kinds_fail_closed(self, kind):
        with pytest.raises(DefinitionError, match="unknown job kind"):
            JobSpec(kind)
