"""Tests of the benchmark itself.

Run from the repository root with ``python -m pytest perfbench -q``.
They start short benchmark processes, so they take about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import instrument  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.rstrip("\n").rpartition("\n")[2])


def _worker(workload: str, seed: int, tmp_path) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               PYTHONHASHSEED="0")
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "0", "--out",
         str(tmp_path)], cwd=ROOT, env=env, capture_output=True, text=True,
        check=True, timeout=170)
    return _last_json(done.stdout)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_work_counts_repeat_across_runs(workload, tmp_path):
    first = _worker(workload, 7, tmp_path)
    second = _worker(workload, 7, tmp_path)
    assert first["correct"] and second["correct"]
    assert first["failed"] == 0
    counts = first["result"]["work_counts"]
    assert counts and counts == second["result"]["work_counts"]


def test_result_line_names_every_declared_metric(tmp_path):
    for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             "fuzz", "--seed", "3", "--seconds", "0", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=400)
        reply = _last_json(done.stdout)
        assert set(reply) == {"correct", "attempted", "failed", "metrics"}
        assert reply["correct"] and reply["attempted"] >= 1
        assert set(reply["metrics"]) == {m["name"] for m in declared}
        for metric in declared:
            got = reply["metrics"][metric["name"]]
            assert got["unit"] == metric["unit"]
            assert isinstance(got["value"], float)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [*SPEC["command"], "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"], cwd=tmp_path,
        capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert done.stdout == ""


def test_patches_restore_every_binding():
    import repro.semantics.simulator as simulator
    from repro.petri import execution

    rec = instrument.Recorder()
    patches = instrument.Patches(rec)
    before_fire = simulator.fire_step
    before_run = simulator.Simulator.run
    patches.install(spans=True)
    assert simulator.fire_step is not before_fire
    assert execution.fire_step is simulator.fire_step
    patches.uninstall()
    assert simulator.fire_step is before_fire
    assert execution.fire_step is before_fire
    assert simulator.Simulator.run is before_run


def test_self_time_excludes_child_spans():
    rec = instrument.Recorder()
    rec.spans_on = True
    rec.open("outer")
    rec.open("inner")
    rec.close()
    rec.close()
    calls, inclusive, own = rec.totals["outer"]
    assert calls == 1
    assert own == pytest.approx(inclusive - rec.totals["inner"][1])


def test_declared_per_layer_metrics_match_the_derivations():
    derived = {(name, unit) for name, unit, _f in layers.METRICS}
    assert derived == {(m["name"], m["unit"]) for m in SPEC["per_layer"]}
