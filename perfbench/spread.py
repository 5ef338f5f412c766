"""Run one workload over several seeds and report each metric's spread.

Usage (from the repository root)::

    python3 perfbench/spread.py --workload verify --seeds 1 2 3 4 5 --seconds 24

For every end-to-end metric it prints the median and the distance
between the first and third quartile (``statistics.quantiles(n=4)``) as
a share of the median, which is how a benchmark's steadiness is judged
against the bounds in ``BENCHMARK.json``.  Runs are made one after
another; the summary is also written to ``.perfbench-out/``.

Different seeds give different inputs, so their spread holds both the
host's noise and the differences in work between seeds.  Give one seed
several times (``--seeds 7 7 7 7 7``) to see the host's noise alone.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import monotonic

HERE = os.path.dirname(os.path.abspath(__file__))


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile distance as a share of the median)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as handle:
        bounds = {m["name"]: m["bound"] for m in
                  json.load(handle)["end_to_end"]}

    runs = []
    for seed in args.seeds:
        start = monotonic()
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=True)
        reply = json.loads(done.stdout.rstrip("\n").rpartition("\n")[2])
        reply["wall_s"] = monotonic() - start
        runs.append(reply)
        print(f"seed {seed}: {reply['wall_s']:.1f}s correct={reply['correct']} "
              f"attempted={reply['attempted']} failed={reply['failed']} "
              + " ".join(f"{k}={v['value']:.4g}"
                         for k, v in reply["metrics"].items()), flush=True)

    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median, share = spread(values) if len(values) > 1 else (values[0], 0)
        bound = bounds.get(name)
        summary[name] = {"median": median, "iqr_share": share,
                         "bound": bound, "values": values}
        verdict = "" if bound is None else (
            "ok" if share < bound / 3 else "WIDE" if share < bound
            else "OVER BOUND")
        print(f"{name:24s} median {median:12.5g}  iqr/median {share:7.3f}"
              f"  bound {bound}  {verdict}")
    out = os.path.join(os.getcwd(), ".perfbench-out",
                       f"spread-{args.workload}-trace{args.trace}.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w", encoding="ascii") as handle:
        json.dump({"seeds": args.seeds, "seconds": args.seconds,
                   "wall_s": [r["wall_s"] for r in runs],
                   "all_correct": all(r["correct"] for r in runs),
                   "metrics": summary}, handle, indent=1)
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
