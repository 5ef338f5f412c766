"""Unit tests for the command-line interface (in-process)."""

import json

import pytest

from repro.cli import main
from repro.designs import get_design


class TestList:
    def test_lists_zoo(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "gcd" in out and "diffeq" in out


class TestCheck:
    def test_clean_design(self, capsys):
        assert main(["check", "gcd"]) == 0
        assert "[ok]" in capsys.readouterr().out

    def test_source_file(self, tmp_path, capsys):
        path = tmp_path / "d.pdl"
        path.write_text("design d { output o; var x; x = 1; write(o, x); }")
        assert main(["check", str(path)]) == 0

    def test_broken_design_fails(self, tmp_path, capsys):
        from repro.io import save
        system = get_design("gcd").build()
        system.net.add_place("extra", marked=True)
        system.net.add_transition("t_extra")
        system.net.add_arc("extra", "t_extra")
        victim = sorted(system.control)[0]
        system.net.add_arc("t_extra", victim)
        path = tmp_path / "broken.json"
        save(system, str(path))
        assert main(["check", str(path)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["check", "/nonexistent.pdl"]) == 2
        assert "error" in capsys.readouterr().err


class TestSimulate:
    def test_zoo_design_with_default_env(self, capsys):
        assert main(["simulate", "gcd"]) == 0
        out = capsys.readouterr().out
        assert "result = [12]" in out

    def test_explicit_inputs(self, capsys):
        assert main(["simulate", "gcd",
                     "--input", "a_in=21", "--input", "b_in=14"]) == 0
        assert "result = [7]" in capsys.readouterr().out

    def test_malformed_input_rejected(self, capsys):
        assert main(["simulate", "gcd", "--input", "oops"]) == 2
        assert "malformed" in capsys.readouterr().err

    def test_profile_prints_metrics(self, capsys):
        assert main(["simulate", "counter", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "port evaluations" in out
        assert "combinational phase" in out
        assert "fast path" not in out and "naive" not in out

    def test_naive_profile(self, capsys):
        # the interpreter has one evaluator: --naive no longer exists, so
        # the old A/B command line is a usage error
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "counter", "--naive", "--profile"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --naive" in capsys.readouterr().err

    def test_profile_json_stdout(self, capsys):
        import json

        assert main(["simulate", "counter", "--profile-json", "-"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["steps"] > 0
        assert payload["port_evaluations"] > 0

    def test_profile_json_file(self, tmp_path, capsys):
        import json

        target = tmp_path / "metrics.json"
        assert main(["simulate", "counter",
                     "--profile-json", str(target)]) == 0
        assert f"profile written to {target}" in capsys.readouterr().out
        payload = json.loads(target.read_text())
        assert payload["firings"] > 0


class TestSynthesize:
    def test_optimizes_and_reports(self, capsys):
        assert main(["synthesize", "fir4"]) == 0
        out = capsys.readouterr().out
        assert "objective" in out
        assert "before" in out and "after" in out

    def test_writes_output_file(self, tmp_path, capsys):
        target = tmp_path / "out.json"
        assert main(["synthesize", "fir4", "--output", str(target)]) == 0
        data = json.loads(target.read_text())
        assert data["name"] == "fir4"

    def test_resource_limits(self, capsys):
        assert main(["synthesize", "fir8", "--limit", "mul=1"]) == 0


class TestDotAndExport:
    @pytest.mark.parametrize("view", ["datapath", "petri", "system"])
    def test_dot_views(self, view, capsys):
        assert main(["dot", "counter", "--view", view]) == 0
        assert capsys.readouterr().out.startswith("digraph")

    def test_export_round_trips(self, capsys, tmp_path):
        assert main(["export", "counter"]) == 0
        text = capsys.readouterr().out
        from repro.io import loads
        system = loads(text)
        assert system.name == "counter"

    def test_json_design_loadable(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        from repro.io import save
        save(get_design("counter").build(), str(path))
        assert main(["simulate", str(path),
                     "--input", "limit_in=3"]) == 0
        assert "count = [0, 1, 2]" in capsys.readouterr().out


class TestVersion:
    def test_version_flag(self, capsys):
        import repro

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {repro.__version__}"


class TestErrorLabels:
    def test_execution_error_is_labelled(self, capsys):
        # a_in alone starves b_in -> EnvironmentExhausted at simulation time
        assert main(["simulate", "gcd", "--input", "a_in=1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("execution error:")

    def test_parse_error_is_labelled(self, tmp_path, capsys):
        path = tmp_path / "bad.pdl"
        path.write_text("design broken {")
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err.startswith("parse error:")


class TestBatch:
    def test_batch_from_job_file(self, tmp_path, capsys):
        from repro.runtime import check_job, simulate_job, write_job_file

        design = get_design("gcd")
        system = design.build()
        jobfile = tmp_path / "jobs.json"
        write_job_file(str(jobfile), [
            simulate_job(system, design.environment(), label="sim"),
            check_job(system, label="chk"),
        ])
        assert main(["batch", str(jobfile)]) == 0
        out = capsys.readouterr().out
        assert "batch of 2 job(s)" in out
        assert "fleet (serial):" in out

    def test_batch_failure_sets_exit_code(self, tmp_path, capsys):
        from repro.runtime import probe_job, write_job_file

        jobfile = tmp_path / "jobs.json"
        write_job_file(str(jobfile), [probe_job("fail")])
        assert main(["batch", str(jobfile), "--retries", "0"]) == 1
        assert "failed" in capsys.readouterr().out

    def test_batch_parallel_with_cache(self, tmp_path, capsys):
        from repro.runtime import check_job, write_job_file

        jobfile = tmp_path / "jobs.json"
        write_job_file(str(jobfile), [
            check_job(get_design(name).build(), label=name)
            for name in ("gcd", "counter")])
        cache = tmp_path / "cache"
        assert main(["batch", str(jobfile), "--workers", "2",
                     "--cache", str(cache)]) == 0
        capsys.readouterr()
        assert main(["batch", str(jobfile), "--workers", "2",
                     "--cache", str(cache),
                     "--metrics-json", "-"]) == 0
        out = capsys.readouterr().out
        blob = json.loads(out[out.index("{"):])
        assert blob["cached"] == 2
        assert blob["dispatched"] == 0

    def test_batch_rejects_a_zero_step_budget(self, tmp_path, capsys):
        from repro.runtime import synthesize_job, write_job_file

        jobfile = tmp_path / "jobs.json"
        write_job_file(str(jobfile), [synthesize_job(
            get_design("gcd").build())])
        document = json.loads(jobfile.read_text())
        document["jobs"][0]["params"]["objective"]["max_steps"] = 0
        jobfile.write_text(json.dumps(document))
        assert main(["batch", str(jobfile)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip().splitlines() == [
            "definition error: job file: jobs[0]: params.objective.max_steps "
            "must be a positive step budget, got 0"]

    @pytest.mark.parametrize("value,status", [("oops", 2), ("UNDEF", 0)])
    def test_batch_environment_values(self, tmp_path, capsys, value, status):
        from repro.runtime import simulate_job, write_job_file

        design = get_design("gcd")
        jobfile = tmp_path / "jobs.json"
        write_job_file(str(jobfile), [simulate_job(
            design.build(), design.environment())])
        document = json.loads(jobfile.read_text())
        document["jobs"][0]["params"]["environment"]["sequences"] = {
            "a_in": [value], "b_in": [value]}
        jobfile.write_text(json.dumps(document))
        assert main(["batch", str(jobfile)]) == status
        captured = capsys.readouterr()
        if status == 2:
            assert captured.out == ""
            assert captured.err.strip().splitlines() == [
                "definition error: job file: jobs[0]: params.environment."
                "sequences['a_in'][0] must be an integer or 'UNDEF', got "
                "'oops'"]
        else:
            assert "batch of 1 job(s)" in captured.out

    def test_batch_results_json(self, tmp_path, capsys):
        from repro.runtime import probe_job, write_job_file

        jobfile = tmp_path / "jobs.json"
        write_job_file(str(jobfile), [probe_job("ok", payload=7)])
        target = tmp_path / "results.json"
        assert main(["batch", str(jobfile),
                     "--results-json", str(target)]) == 0
        records = json.loads(target.read_text())
        assert records[0]["status"] == "ok"
        assert records[0]["payload"] == {"echo": 7}


class TestSweep:
    def test_emit_jobs(self, tmp_path, capsys):
        from repro.runtime import load_job_file

        target = tmp_path / "jobs.json"
        assert main(["sweep", "fir4", "--w-time", "1,2", "--w-area", "0.5",
                     "--emit-jobs", str(target)]) == 0
        jobs = load_job_file(str(target))
        assert len(jobs) == 2
        assert all(job.kind == "synthesize" for job in jobs)
        assert "2 job(s) written" in capsys.readouterr().out

    def test_sweep_runs_serially(self, capsys):
        assert main(["sweep", "fir4", "--w-time", "1", "--w-area", "1"]) == 0
        out = capsys.readouterr().out
        assert "synthesis sweep over 1 point(s)" in out
        assert "final" in out

    def test_seeded_sweep(self, tmp_path, capsys):
        target = tmp_path / "jobs.json"
        assert main(["sweep", "fir4", "--seeds", "1,2",
                     "--emit-jobs", str(target)]) == 0
        assert "2 job(s) written" in capsys.readouterr().out


class TestPortfolio:
    def test_portfolio_matches_serial_synthesize(self, capsys):
        assert main(["synthesize", "fir4", "--portfolio"]) == 0
        out = capsys.readouterr().out
        assert "objective" in out


class TestNetlist:
    def test_netlist_emitted(self, capsys):
        from repro.cli import main
        assert main(["netlist", "gcd"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("module gcd")
        assert "endmodule" in out

    def test_cosim_reports_agreement(self, capsys):
        from repro.cli import main
        assert main(["cosim", "gcd"]) == 0
        out = capsys.readouterr().out
        assert "RTL == model" in out
        assert "result = [12]" in out


class TestLint:
    @staticmethod
    def _broken_design(tmp_path):
        from repro.io import save
        system = get_design("gcd").build()
        system.net.set_initial(sorted(system.net.initial)[0], 2)
        path = tmp_path / "unsafe.json"
        save(system, str(path))
        return str(path)

    def test_clean_design_text(self, capsys):
        assert main(["lint", "gcd"]) == 0
        out = capsys.readouterr().out
        assert "gcd:" in out

    def test_all_zoo_clean_at_error(self, capsys):
        assert main(["lint", "--all", "--fail-on", "error"]) == 0

    def test_no_designs_is_usage_error(self, capsys):
        assert main(["lint"]) == 2
        assert "no designs" in capsys.readouterr().err

    def test_broken_design_fails(self, tmp_path, capsys):
        path = self._broken_design(tmp_path)
        assert main(["lint", path]) == 1
        captured = capsys.readouterr()
        assert "PD002" in captured.out
        assert "lint failed" in captured.err

    def test_fail_on_never_passes_broken(self, tmp_path, capsys):
        path = self._broken_design(tmp_path)
        assert main(["lint", path, "--fail-on", "never"]) == 0

    def test_fail_on_info_fails_clean_design(self, capsys):
        # every terminating design carries the PD002 coverage info note
        assert main(["lint", "gcd", "--fail-on", "info"]) == 1

    def test_json_format(self, capsys):
        assert main(["lint", "gcd", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["format"] == 1
        assert data["reports"][0]["system"] == "gcd"

    def test_sarif_format_to_file(self, tmp_path, capsys):
        out_path = tmp_path / "lint.sarif"
        assert main(["lint", "gcd", "counter", "--format", "sarif",
                     "--output", str(out_path)]) == 0
        log = json.loads(out_path.read_text())
        assert log["version"] == "2.1.0"
        assert log["runs"][0]["properties"]["systems"] == ["gcd", "counter"]

    def test_rules_subset(self, capsys):
        assert main(["lint", "gcd", "--rules", "CN001,CN002"]) == 0

    def test_unknown_rule_rejected(self, capsys):
        assert main(["lint", "gcd", "--rules", "XX999"]) == 2
        assert "unknown lint rule" in capsys.readouterr().err

    def test_baseline_round_trip(self, tmp_path, capsys):
        path = self._broken_design(tmp_path)
        baseline = tmp_path / "baseline.json"
        assert main(["lint", path, "--write-baseline", str(baseline)]) == 0
        assert main(["lint", path, "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "baselined" in out


class TestSimulateSeed:
    def test_seeded_run_reproducible(self, capsys):
        assert main(["simulate", "gcd", "--seed", "5"]) == 0
        first = capsys.readouterr().out
        assert main(["simulate", "gcd", "--seed", "5"]) == 0
        assert capsys.readouterr().out == first
        assert "result = [12]" in first


class TestFaults:
    @pytest.mark.parametrize("design,seed,digest", [
        ("gcd", 1, "31d5922a0f94f58f3bbe3860e6d0d7c4"
                   "b6884f96f401117eb20a7d52031bd774"),
        ("gcd", 2, "b70906ef12fa0040b5502f69e7ea4e97"
                   "eb7e37189bb454f22b5a3dfb420996c5"),
        ("counter", 1, "599613e787d9e7390b47fe03763fe6af"
                       "d494a2e956d45dda722f31014393fa92"),
        ("counter", 2, "5a234ab74d84fc775c3c30fc504ff541"
                       "822dcd77c2d6b46b1afb51b68a922d4c"),
    ])
    def test_auto_campaign_report_bytes_pinned(self, capsys, design, seed,
                                               digest):
        """Report bytes measured when each fault ran as its own job."""
        import hashlib

        assert main(["faults", design, "--auto", "60", "--seed", str(seed),
                     "--format", "json"]) in (0, 1)
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_detected_and_masked_exit_zero(self, capsys):
        assert main(["faults", "gcd",
                     "--fault", "guard_invert:t_exit6:start=0",
                     "--fault", "stuck_at:ne0.o:value=1,start=1,end=3"]) == 0
        out = capsys.readouterr().out
        assert "detected" in out and "masked" in out
        assert "latency" in out

    def test_silent_corruption_exits_one(self, capsys):
        assert main(["faults", "gcd",
                     "--fault", "token_loss:s3_while:start=0"]) == 1
        assert "silent" in capsys.readouterr().out

    def test_no_faults_is_usage_error(self, capsys):
        assert main(["faults", "gcd"]) == 2
        assert "no faults" in capsys.readouterr().err

    def test_bad_target_is_definition_error(self, capsys):
        assert main(["faults", "gcd",
                     "--fault", "token_loss:nowhere"]) == 2
        assert "definition error" in capsys.readouterr().err

    def test_json_report(self, capsys):
        assert main(["faults", "gcd", "--auto", "4",
                     "--format", "json", "--max-steps", "500"]) in (0, 1)
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["format"] == 1
        assert len(payload["results"]) == 4

    def test_faults_file_and_output(self, tmp_path, capsys):
        from repro.faults import FaultSpec, save_faults
        faults_path = tmp_path / "faults.json"
        save_faults(str(faults_path),
                    [FaultSpec("guard_invert", "t_exit6", start=0)])
        report_path = tmp_path / "report.json"
        assert main(["faults", "gcd", "--faults-file", str(faults_path),
                     "--output", str(report_path)]) == 0
        payload = json.loads(report_path.read_text())
        assert payload["results"][0]["verdict"] == "detected"


class TestDurableCli:
    def test_batch_journal_resume_replays(self, tmp_path, capsys):
        from repro.runtime import probe_job, write_job_file

        jobfile = tmp_path / "jobs.json"
        write_job_file(str(jobfile), [probe_job("ok", payload=7, label="x")])
        journal = tmp_path / "wal.jsonl"
        assert main(["batch", str(jobfile), "--journal", str(journal)]) == 0
        capsys.readouterr()
        assert main(["batch", str(jobfile), "--journal", str(journal),
                     "--resume", "--metrics-json", "-"]) == 0
        out = capsys.readouterr().out
        blob = json.loads(out[out.index("{"):])
        assert blob["replayed"] == 1
        assert blob["dispatched"] == 0

    def test_batch_crash_job_exits_one(self, tmp_path):
        from repro.runtime import probe_job, write_job_file

        jobfile = tmp_path / "jobs.json"
        write_job_file(str(jobfile), [probe_job("crash", label="poison"),
                                      probe_job("ok", payload=1, label="a")])
        results_path = tmp_path / "results.json"
        assert main(["batch", str(jobfile), "--workers", "2",
                     "--retries", "1",
                     "--results-json", str(results_path)]) == 1
        results = json.loads(results_path.read_text(encoding="utf-8"))
        by_label = {r["label"]: r for r in results}
        assert by_label["poison"]["status"] == "failed"
        assert by_label["poison"]["attempts"] == 2
        assert by_label["a"]["status"] == "ok"

    @pytest.mark.parametrize("argv", [
        ["batch", "jobs.json", "--quarantine-after", "2"],
        ["batch", "jobs.json", "--hang-timeout", "1"],
        ["batch", "jobs.json", "--server", "x", "--tenant", "t"],
        ["batch", "jobs.json", "--server", "x", "--priority", "1"],
        ["sweep", "gcd", "--hang-timeout", "1"],
        ["faults", "gcd", "--quarantine-after", "2"],
        ["faults", "gcd", "--auto", "2", "--backend", "vector"],
        ["faults", "gcd", "--auto", "2", "--chunk-size", "4"],
        ["faults", "gcd", "--auto", "2", "--checkpoint", "r.json"],
        ["batch", "jobs.json", "--server", "http://127.0.0.1:1"],
        ["batch", "jobs.json", "--poll", "1"],
        ["batch", "jobs.json", "--max-wait", "1"],
        ["simulate", "gcd", "--checkpoint-dir", "d"],
        ["simulate", "gcd", "--checkpoint-every", "5"],
        ["simulate", "gcd", "--resume"],
    ])
    def test_removed_supervision_and_tenant_options_are_rejected(
            self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["serve", "--rate", "1"],
        ["serve", "--burst", "1"],
        ["serve", "--max-inflight", "1"],
        ["chaos", "http://127.0.0.1:9", "--fault", "explode"],
    ])
    def test_removed_verbs_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert f"invalid choice: '{argv[0]}'" in capsys.readouterr().err

    def test_faults_journal_resume_identical(self, tmp_path, capsys):
        journal = tmp_path / "campaign.jsonl"
        args = ["faults", "gcd",
                "--fault", "guard_invert:t_exit6:start=0",
                "--fault", "arc_close:a2:start=0",
                "--format", "json"]
        assert main(args + ["--journal", str(journal)]) == 0
        first = capsys.readouterr().out
        assert main(args + ["--journal", str(journal), "--resume"]) == 0
        second = capsys.readouterr().out
        assert json.loads(first[first.index("{"):]) == \
            json.loads(second[second.index("{"):])


class TestCacheCli:
    def _fill(self, tmp_path, n=3):
        from repro.runtime import ResultCache

        cache = ResultCache(tmp_path / "cache")
        for i in range(n):
            cache.put(f"{i:02x}" + "0" * 62, "probe", {"n": i})
        return tmp_path / "cache"

    def test_stats_reports_counts(self, tmp_path, capsys):
        root = self._fill(tmp_path)
        assert main(["cache", "stats", str(root)]) == 0
        out = capsys.readouterr().out
        assert "entries" in out and "3" in out

    def test_prune_to_max_entries(self, tmp_path, capsys):
        from repro.runtime import ResultCache

        root = self._fill(tmp_path)
        assert main(["cache", "prune", str(root),
                     "--max-entries", "1"]) == 0
        out = capsys.readouterr().out
        assert "pruned 2 entries" in out
        assert len(ResultCache(root)) == 1

    def test_prune_requires_a_bound(self, tmp_path, capsys):
        root = self._fill(tmp_path)
        assert main(["cache", "prune", str(root)]) == 2
        assert "--max-bytes" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--max-entries", "-1"),
                                             ("--max-bytes", "-5")])
    def test_prune_negative_bound_deletes_nothing(self, tmp_path, capsys,
                                                   flag, value):
        from repro.runtime import ResultCache

        root = self._fill(tmp_path)
        assert main(["cache", "prune", str(root), flag, value]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "must be >= 0" in err
        assert len(ResultCache(root)) == 3


class TestFaultsChunkSize:
    ARGS = ["faults", "gcd", "--fault", "guard_invert:t_exit6:start=0",
            "--fault", "arc_close:a2:start=0", "--format", "json"]

    def test_chunk_size_invariant_report(self, capsys):
        """One serial chunk of two, or one chunk per pool worker."""
        assert main(self.ARGS) == 0
        serial = capsys.readouterr().out
        assert main(self.ARGS + ["--workers", "2"]) == 0
        pooled = capsys.readouterr().out
        assert serial == pooled


class TestEquiv:
    def test_equivalent_pair_exits_zero(self, capsys):
        assert main(["equiv", "gcd", "gcd"]) == 0
        assert "EQUIVALENT" in capsys.readouterr().out

    def test_explicit_backend(self, capsys):
        assert main(["equiv", "gcd", "gcd", "--backend", "explicit"]) == 0
        assert "backend=explicit" in capsys.readouterr().out

    def test_inequivalent_pair_exits_one(self, capsys):
        assert main(["equiv", "gcd", "counter"]) == 1
        out = capsys.readouterr().out
        assert "NOT EQUIVALENT" in out
        assert "reason:" in out

    @pytest.mark.parametrize("backend", ["explicit", "symbolic"])
    def test_interface_prescreen_on_both_backends(self, backend, capsys):
        # gcd and counter read different inputs: the interface check
        # decides before any run, so no environment has to feed both
        assert main(["equiv", "gcd", "counter", "--backend", backend]) == 1
        out = capsys.readouterr().out
        assert "reason: external interfaces differ" in out
        assert f"backend={backend}" in out

    def test_witness_printed_for_behavioural_difference(self, tmp_path,
                                                        capsys):
        from repro.io import save
        from tests.util import independent_pair_system

        left = independent_pair_system()
        right = independent_pair_system()
        right.datapath.remove_arc("a_ra")
        right.datapath.connect("rb.q", "sum.l", name="a_ra")
        left_path, right_path = tmp_path / "l.json", tmp_path / "r.json"
        save(left, str(left_path))
        save(right, str(right_path))
        code = main(["equiv", str(left_path), str(right_path),
                     "--input", "x=1"])
        out = capsys.readouterr().out
        assert code == 1
        assert "distinguishing firing sequences" in out

    def test_missing_design_exits_two(self, capsys):
        assert main(["equiv", "gcd", "nosuch"]) == 2

    def test_json_format(self, capsys):
        assert main(["equiv", "gcd", "gcd", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["equivalent"] is True
        assert payload["backend"] == "symbolic"

    def test_sarif_output(self, tmp_path, capsys):
        target = tmp_path / "equiv.sarif"
        assert main(["equiv", "gcd", "counter", "--format", "sarif",
                     "--output", str(target)]) == 1
        log = json.loads(target.read_text())
        run = log["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-equiv"
        assert run["results"][0]["ruleId"] == "EQ001"



class TestStepBudget:
    """Every ``--max-steps`` rejects a non-positive budget as a usage
    error (exit 2, the flag named, no traceback) before any work."""

    VERBS = {
        "simulate": ["simulate", "counter"],
        "equiv": ["equiv", "counter", "counter"],
        "faults": ["faults", "gcd", "--auto", "2"],
        "synthesize": ["synthesize", "counter"],
        "cosim": ["cosim", "counter"],
        "sweep": ["sweep", "counter"],
        "fuzz": ["fuzz", "--cases", "1"],
    }

    def test_every_budget_flag_is_covered(self):
        import argparse

        from repro.cli import build_parser

        parser = build_parser()
        subparsers = next(action for action in parser._actions
                          if isinstance(action, argparse._SubParsersAction))
        with_budget = {
            verb for verb, sub in subparsers.choices.items()
            if any("--max-steps" in action.option_strings
                   for action in sub._actions)}
        assert with_budget == set(self.VERBS)

    @pytest.mark.parametrize("budget", ["0", "-1"])
    @pytest.mark.parametrize("verb", sorted(VERBS))
    def test_non_positive_budget_is_usage_error(self, capsys, verb, budget):
        with pytest.raises(SystemExit) as raised:
            main([*self.VERBS[verb], "--max-steps", budget])
        assert raised.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (f"argument --max-steps: must be a positive step budget, "
                f"got {budget!r}") in captured.err
        assert "Traceback" not in captured.err

    def test_non_integer_budget_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as raised:
            main(["simulate", "counter", "--max-steps", "many"])
        assert raised.value.code == 2
        assert ("argument --max-steps: must be a positive step budget, "
                "got 'many'" in capsys.readouterr().err)

    def test_positive_budget_still_runs(self, capsys):
        assert main(["simulate", "counter", "--max-steps", "500"]) == 0
