"""One workload in one fresh process (started by ``run.py``).

Prints human-readable lines, then one JSON line for ``run.py``.  With
``--setup-only`` the process stops after set-up and reports only the
moment it became ready, which ``run.py`` turns into a set-up sample.

The untraced run times its passes with nothing patched: the program
runs as its users run it.  Its exact work counts come from the passes'
outputs and, for the counts only the library sees (markings, plans,
prefix events), from one more pass made after the timed ones with the
count probes installed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import sys
import warnings
from time import monotonic, perf_counter

from instrument import Patches, Recorder
import layers
import workloads


def _measure(workload, seconds: float, rec: Recorder | None = None,
             reserve: int = 0):
    """Complete passes while, at the mean pass time so far, one more
    plus ``reserve`` passes after them still end within ``seconds``; at
    least one.  With ``rec``, each pass also keeps the probe counts made
    during it."""
    passes = []
    start = perf_counter()
    while True:
        result = workload.run_pass()
        if rec is not None:
            result.counts.update(rec.take_counts())
        passes.append(result)
        done = len(passes)
        if (perf_counter() - start) * (done + 1 + reserve) / done > seconds:
            return passes


def _best(passes, phase: str) -> list[float]:
    """Each item's fastest repetition over the passes, in seconds.

    Every pass repeats the same items.  On a shared host, contention
    only ever adds time, in phases lasting seconds, so an item's fastest
    repetition is its cost with the least interference.
    """
    best: dict[int, float] = {}
    for p in passes:
        for item in p.items:
            if item.phase == phase:
                best[item.key] = min(item.latency_s,
                                     best.get(item.key, math.inf))
    return list(best.values())


def _percentile(values: list[float], pct: int) -> float:
    """The Harrell-Davis estimate of the ``pct``-th percentile.

    A weighted mean of all order statistics, with weights from the
    Beta((n+1)p, (n+1)(1-p)) distribution.  A single order statistic of
    some thirty items jumps whenever two items near its rank swap or one
    of them has a slow run; these weights spread over the few items
    around the rank, so the estimate moves smoothly.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    a, b = (n + 1) * pct / 100, (n + 1) * (1 - pct / 100)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 64                      # midpoint rule per order statistic
    total = weight_sum = 0.0
    for i, x in enumerate(xs):
        weight = 0.0
        for j in range(steps):
            t = (i + (j + 0.5) / steps) / n
            weight += math.exp(log_norm + (a - 1) * math.log(t)
                               + (b - 1) * math.log1p(-t))
        total += weight * x
        weight_sum += weight
    return total / weight_sum


def _end_to_end(passes) -> tuple[dict, dict]:
    main = _best(passes, "main")
    warm = _best(passes, "warm")
    throughput = len(main) / sum(main)
    repeats = len(passes)
    metrics = {
        "throughput_per_s": (throughput, "1/s"),
        "latency_ms_p50": (1e3 * _percentile(main, 50), "ms"),
        "latency_ms_p90": (1e3 * _percentile(main, 90), "ms"),
        # only sweep has a warm (all-hit cache) pass; the result line
        # must carry every declared metric, so elsewhere it repeats
        # throughput_per_s and the samples say so
        "warm_throughput_per_s": (len(warm) / sum(warm) if warm
                                  else throughput, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    samples = {name: {"items": len(main), "best_of": repeats}
               for name in ("throughput_per_s", "latency_ms_p50",
                            "latency_ms_p90")}
    samples["warm_throughput_per_s"] = (
        {"items": len(warm), "best_of": repeats * workloads.WARM_PASSES}
        if warm else {"absent": "no warm pass: repeats throughput_per_s"})
    return metrics, samples


def _fingerprint(root: str, workload, seed: int) -> dict:
    import numpy

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu or platform.processor(),
            "commit": _git_commit(root), "workload": workload.name,
            "seed": seed, "why": _why(root, workload.name)}


def _why(root: str, name: str) -> str:
    """The workload's one-line reason, as BENCHMARK.json records it."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        return next(w["why"] for w in json.load(f)["workloads"]
                    if w["name"] == name)


def _git_commit(root: str) -> str | None:
    """HEAD's commit read from ``.git`` files; None outside a clone."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="ascii") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _describe(name: str, value: float, unit: str, sample) -> str:
    line = f"  {name} = {value:.6g} {unit}"
    if sample is None:
        return line
    if "absent" in sample:
        return f"{line} ({sample['absent']})"
    return f"{line} (n={sample['items']}, best of {sample['best_of']})"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", required=True,
                        help="scratch directory for the run's files")
    args = parser.parse_args()
    warnings.simplefilter("ignore")
    root = os.getcwd()

    rec = Recorder()
    patches = Patches(rec)
    traced = bool(args.trace) and not args.setup_only
    if traced:
        rec.spans_on = True
        patches.install(spans=True)
    rec.open("setup")
    workload = workloads.make(args.workload, args.seed, rec, args.out,
                              args.setup_only)
    workload.warm_up()
    rec.close()
    # making the seeded inputs is the benchmark's work, not set-up
    ready = monotonic() - workload.inputs_s
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    setup_totals = rec.totals
    rec.take_counts()
    if traced:
        # untraced half first (nothing patched), then the traced half
        patches.uninstall()
        rec.spans_on = False
        plain = _measure(workload, args.seconds / 2)
        rec.reset_spans()
        rec.spans_on = rec.keep_events = True
        patches.install(spans=True)
        passes = _measure(workload, args.seconds / 2, rec)
        rec.spans_on = False
        patches.uninstall()
        probed = passes
    else:
        # the count-probe pass below belongs to the run's time too
        plain = passes = _measure(workload, args.seconds, reserve=1)
        patches.install(spans=False)
        probed = [workload.run_pass()]
        probed[0].counts.update(rec.take_counts())
        patches.uninstall()

    items = [i for p in (plain + passes if traced else passes + probed)
             for i in p.items]
    failed = [i for i in items if not i.ok]
    reference = probed[0].counts
    outputs = {k: v for k, v in reference.items() if k.startswith("out.")}
    repeat = (all(p.counts == outputs for p in plain)
              and all(p.counts == reference for p in probed))
    result = {"fingerprint": _fingerprint(root, workload, args.seed),
              "trace": args.trace, "passes": len(passes),
              "inputs_s": workload.inputs_s,
              "work_counts": reference, "counts_repeat": repeat}
    lines = [f"workload {workload.name} seed {args.seed}: "
             + result["fingerprint"]["why"],
             f"passes {len(passes)}, items {len(items)}, failed {len(failed)}",
             "work counts per pass " + json.dumps(reference, sort_keys=True),
             f"work counts repeat across passes: {repeat}"]
    lines += [f"failure: {i.error}" for i in failed[:5]]

    if traced:
        n = len(passes)
        counts = {key: sum(p.counts.get(key, 0) for p in passes) / n
                  for key in passes[0].counts}
        run = layers.Run(
            totals=layers.per_pass(rec.totals, n), counts=counts,
            setup=setup_totals,
            plain_tp=_end_to_end(plain)[0]["throughput_per_s"][0],
            traced_tp=_end_to_end(passes)[0]["throughput_per_s"][0])
        metrics = layers.layer_metrics(run)
        chrome = os.path.join(os.path.dirname(args.out),
                              f"{workload.name}-seed{args.seed}.trace.json")
        rec.write_chrome_trace(chrome)
        result["spans_per_pass"] = {k: {"calls": v[0], "total_s": v[1],
                                        "self_s": v[2]}
                                    for k, v in sorted(run.totals.items())}
        result["chrome_trace"] = os.path.relpath(chrome, root)
        lines.append(f"tracing overhead {metrics['trace.overhead_pct'][0]:.1f}%"
                     f" (untraced {run.plain_tp:.3f}/s, traced "
                     f"{run.traced_tp:.3f}/s); unattributed "
                     f"{metrics['trace.unattributed_pct'][0]:.1f}% of "
                     "measured time")
        if workload.name == "sweep":
            lines.append(
                "advance vs extract vs payload: vector.advance_s "
                f"{metrics['vector.advance_s'][0]:.4f} s, vector.extract_s "
                f"{metrics['vector.extract_s'][0]:.4f} s, "
                f"jobs.execute_self_ms {metrics['jobs.execute_self_ms'][0]:.3f}"
                f" ms x {counts.get('out.jobs', 0):.0f} jobs per pass")
        samples = {}
    else:
        metrics, samples = _end_to_end(passes)

    for name, (value, unit) in metrics.items():
        lines.append(_describe(name, value, unit, samples.get(name)))
    result["metrics"] = {k: {"value": v, "unit": u}
                         for k, (v, u) in metrics.items()}
    result["samples"] = samples
    result["failures"] = [i.error for i in failed]
    print("\n".join(lines))
    print(json.dumps({"correct": not failed and repeat,
                      "attempted": len(items), "failed": len(failed),
                      "ready": ready, "result": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
