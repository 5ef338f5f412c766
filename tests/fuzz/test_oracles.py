"""The differential oracles: backends must agree, or say why not."""

import warnings

import pytest

from repro.errors import DefinitionError, ReproError
from repro.fuzz import (
    GeneratorConfig,
    generate_case,
    run_oracles,
)
from repro.fuzz.oracles import Divergence, trace_oracle
from repro.semantics import (
    Lane,
    VectorSimulator,
    compile_system,
    traces_equivalent,
)
from repro.semantics.vector import CompiledSystem

warnings.filterwarnings("ignore", message=".*truncated exploration.*")


def _sweep(seeds, config=None, oracles=None):
    reports = []
    for seed in seeds:
        case = generate_case(seed, config)
        kwargs = {"oracles": oracles} if oracles else {}
        reports.append((seed, run_oracles(case, **kwargs)))
    return reports


class TestAgreement:
    def test_proper_cases_have_no_divergences(self):
        config = GeneratorConfig(mutation_rate=0.0, quirk_rate=0.0)
        for seed, report in _sweep(range(30), config):
            assert not report.divergences, (seed, report.divergences)

    def test_mutated_cases_have_no_divergences(self):
        # broken designs must still *fail identically* everywhere
        config = GeneratorConfig(mutation_rate=1.0, quirk_rate=0.0)
        for seed, report in _sweep(range(30), config):
            assert not report.divergences, (seed, report.divergences)

    def test_quirk_cases_have_no_divergences(self):
        config = GeneratorConfig(mutation_rate=0.0, quirk_rate=1.0)
        for seed, report in _sweep(range(15), config):
            assert not report.divergences, (seed, report.divergences)


class TestOracleSelection:
    def test_single_oracle_subset_runs(self):
        case = generate_case(11)
        report = run_oracles(case, oracles=("trace",))
        assert not report.divergences

    def test_unknown_oracle_rejected(self):
        case = generate_case(11)
        with pytest.raises(ValueError):
            run_oracles(case, oracles=("nonsense",))


class TestDivergenceRecords:
    def test_fingerprint_is_stable_and_content_addressed(self):
        case = generate_case(5)
        base = {
            "oracle": "trace", "kind": "vector_numpy_mismatch",
            "detail": "something human readable",
            "detail_key": "k1", "seed": case.seed, "shape": case.shape,
            "mutation": case.mutation, "system": {}, "environment": None,
            "params": {},
        }
        a = Divergence(**base)
        b = Divergence(**dict(base, detail="different prose",
                              seed=999))
        c = Divergence(**dict(base, detail_key="k2"))
        assert a.fingerprint == b.fingerprint  # prose/seed don't matter
        assert a.fingerprint != c.fingerprint  # detail_key does
        assert len(a.fingerprint) == 16

    def test_as_dict_round_trip_fields(self):
        d = Divergence(
            oracle="analysis", kind="safety_verdict", detail="d",
            detail_key="k", seed=1, shape="block", mutation=None,
            system={"format": 1}, environment=None, params={})
        record = d.as_dict()
        for key in ("oracle", "kind", "detail", "detail_key", "seed",
                    "shape", "mutation", "system", "environment",
                    "params", "fingerprint"):
            assert key in record


def _engine_outcomes(system, case, mode):
    """Outcomes of a single-lane run and of a 3-lane ``capture_errors``
    batch, the two shapes the trace oracle runs per engine."""
    sim = VectorSimulator(system, strict=case.strict, mode=mode)
    try:
        single = ("ok", sim.run([Lane(case.environment.fork())],
                                max_steps=256, on_limit="return").trace(0))
    except ReproError as error:
        single = ("error", type(error).__name__, str(error))
    batch = sim.run([Lane(case.environment.fork()) for _ in range(3)],
                    max_steps=256, on_limit="return", capture_errors=True)
    lanes = []
    for i in range(3):
        error = batch.error(i)
        lanes.append(("ok", batch.trace(i)) if error is None
                     else ("error", type(error).__name__, str(error)))
    return [single, *lanes]


def _same_outcome(a, b):
    if a[0] == "ok" and b[0] == "ok":
        return traces_equivalent(a[1], b[1])
    return a == b


class TestSharedCompile:
    """The trace oracle compiles each case once and shares the result
    across its four vector runs."""

    CONFIG = GeneratorConfig(mutation_rate=0.5, quirk_rate=0.2)

    def test_shared_compile_matches_fresh_compiles(self):
        for seed in range(40):
            case = generate_case(seed, self.CONFIG)
            fresh = {mode: _engine_outcomes(case.system, case, mode)
                     for mode in ("scalar", "numpy")}
            for order in (("numpy", "scalar"), ("scalar", "numpy")):
                shared = compile_system(case.system)
                for mode in order:
                    got = _engine_outcomes(shared, case, mode)
                    assert all(map(_same_outcome, fresh[mode], got)), (
                        seed, order, mode)

    def test_trace_oracle_compiles_once_per_case(self, monkeypatch):
        builds = []
        original = CompiledSystem.__init__

        def spy(self, system):
            builds.append(system)
            original(self, system)

        monkeypatch.setattr(CompiledSystem, "__init__", spy)
        for seed in range(40):
            case = generate_case(seed, self.CONFIG)
            builds.clear()
            report = trace_oracle(case)
            assert not report.divergences, (seed, report.divergences)
            assert builds == [case.system], seed

    def test_compile_error_is_each_checks_outcome(self, monkeypatch):
        # a compile outside the checks' outcome scopes would leak this
        # exception out of trace_oracle instead of reporting it
        def refuse(self, system):
            raise DefinitionError("compile refused")

        monkeypatch.setattr(CompiledSystem, "__init__", refuse)
        report = trace_oracle(generate_case(11))
        ok = "ok steps=9 term=True dead=False conflicts=0"
        assert [(d.kind, d.detail_key) for d in report.divergences] == [
            ("vector_scalar_mismatch", f"{ok} vs error DefinitionError()"),
            ("vector_numpy_mismatch", f"{ok} vs error DefinitionError()"),
            ("capture_scalar_mismatch", "capture leak DefinitionError"),
            ("capture_numpy_mismatch", "capture leak DefinitionError"),
        ]
        assert report.explained == []
