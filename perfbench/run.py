"""Benchmark entry point: one workload, one fresh measured process.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sim-long --seed 1 --seconds 20 --trace 0

Set-up time is sampled in ``SETUP_PROBES`` extra fresh processes that
stop once ready, plus the measured process itself; ``setup_s`` is their
median.  Every child runs with ``PYTHONHASHSEED`` pinned and the math
libraries held to one thread, so per-run work is identical.  The last
stdout line is the JSON result; a fingerprinted copy with the full
breakdown is written under ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from time import monotonic

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 170


def _child_env(root: str) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _spawn(root: str, argv: list[str]) -> tuple[float, dict, str]:
    """Run one worker; return (start time, its JSON line, its text)."""
    start = monotonic()
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *argv],
        cwd=root, env=_child_env(root), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"worker exited with code {done.returncode}")
    text, _, last = done.stdout.rstrip("\n").rpartition("\n")
    return start, json.loads(last), text


def main() -> int:
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        sys.stderr.write("error: run from a repository checkout: "
                         "src/repro is missing\n")
        return 2
    work = os.path.join(root, ".perfbench-out", f"work-{os.getpid()}")
    os.makedirs(work)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--out", work]
    setups = []
    try:
        # the traced run reports no set-up time, so it needs no probes
        for _ in range(0 if args.trace else SETUP_PROBES):
            start, reply, _text = _spawn(root, common + ["--setup-only"])
            setups.append(reply["ready"] - start)
        start, reply, text = _spawn(root, common + [
            "--seconds", str(args.seconds), "--trace", str(args.trace)])
        setups.append(reply["ready"] - start)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = reply["result"]
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        result["setup_samples_s"] = setups
        text += f"\n  setup_s = {metrics['setup_s']['value']:.6g} s " \
                f"(median of n={len(setups)} fresh processes)"
    path = os.path.join(root, ".perfbench-out",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="ascii") as handle:
        json.dump(dict(result, correct=reply["correct"],
                       attempted=reply["attempted"], failed=reply["failed"]),
                  handle, indent=1, sort_keys=True)
    print(text)
    print(f"result file: {os.path.relpath(path, root)}")
    print(json.dumps({"correct": reply["correct"],
                      "attempted": reply["attempted"],
                      "failed": reply["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
