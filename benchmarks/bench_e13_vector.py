"""E13 — the compiled vector backend vs the reference interpreter.

The vector backend (:mod:`repro.semantics.vector`) lowers a system to
flat numeric form once and then advances a whole batch of lanes per
step.  Its whole value rests on one claim: **the traces are
byte-identical to the interpreter's** — same events, same firings, same
latches, conflicts, final marking and state, per lane, on every zoo
design and under every supported firing policy.

This harness holds the compiled backend to the interpreter, the
reference Definition 3.1 evaluator:

* E13a checks the identity claim across the full zoo × policy matrix
  (both the scalar and the numpy engine);
* E13b races one compiled single-lane run against the interpreter
  (target: >= 10x);
* E13c races a 512-lane batch with heterogeneous inputs against the
  per-run interpreter cost (target: >= 100x on the advance loop), and
  honestly reports the inclusive number once per-lane ``Trace`` objects
  are materialised — extraction is plain-Python object construction
  that every backend pays.

Measured numbers land in ``BENCH_vector.json`` (the CI artifact).
"""

import json
import time

from repro.designs import all_designs, get_design
from repro.io import format_table
from repro.semantics import (
    Lane,
    MaximalStepPolicy,
    SeededMaximalPolicy,
    SequentialPolicy,
    Simulator,
    VectorSimulator,
    compile_system,
    traces_equivalent,
)

from conftest import emit

#: accumulated across the tests in file order; E13c writes the artifact
RESULTS: dict = {"experiment": "E13", "claims": {}}

POLICIES = [
    ("maximal", MaximalStepPolicy),
    ("sequential", SequentialPolicy),
    ("seeded", lambda: SeededMaximalPolicy(7)),
]


def _run(system, env, policy, **kwargs):
    """One guarded run: (trace | None, error message | None)."""
    sim = Simulator(system, env.fork(), policy, strict=False, **kwargs)
    try:
        return sim.run(max_steps=500, on_limit="return"), None
    except Exception as error:  # compared against the other backend's
        return None, f"{type(error).__name__}: {error}"


def test_e13a_byte_identity_on_zoo(zoo):
    """Every zoo design × policy × engine: identical trace (or error)."""
    rows = []
    for design in all_designs():
        _d, system = zoo[design.name]
        compiled = compile_system(system)
        for pname, mk in POLICIES:
            ref, ref_err = _run(system, design.environment(), mk())
            for mode in ("scalar", "numpy"):
                vsim = VectorSimulator(compiled, strict=False, mode=mode)
                try:
                    got = vsim.run([Lane(design.environment(), mk())],
                                   max_steps=500,
                                   on_limit="return").trace(0)
                    got_err = None
                except Exception as error:
                    got, got_err = None, f"{type(error).__name__}: {error}"
                assert got_err == ref_err, (
                    f"{design.name}/{pname}/{mode}: "
                    f"{got_err!r} != {ref_err!r}")
                if ref is not None:
                    assert traces_equivalent(got, ref), (
                        f"{design.name}/{pname}/{mode}: trace diverged")
            verdict = (f"error: {ref_err.split(':')[0]}"
                       if ref_err else f"{ref.step_count} steps")
            rows.append([design.name, pname, verdict])
    emit(format_table(
        ["design", "policy", "interpreter == vector (both engines)"],
        rows, title="E13a: byte-identity across the zoo"))
    RESULTS["claims"]["byte_identity"] = {
        "designs": len({r[0] for r in rows}),
        "policies": [p for p, _mk in POLICIES],
        "engines": ["scalar", "numpy"],
        "ok": True,
    }


def _best_of(repeats, fn):
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def test_e13b_single_run_speedup(zoo):
    """One compiled lane vs the interpreter on the counter loop."""
    design = get_design("counter")
    system = design.build()
    env = {"limit_in": [2000]}
    compiled = compile_system(system)
    vsim = VectorSimulator(compiled, mode="scalar")

    ref = Simulator(system, design.environment(env)).run(max_steps=20_000)
    got = vsim.run([Lane(design.environment(env))],
                   max_steps=20_000).trace(0)
    assert traces_equivalent(got, ref)

    t_interp = _best_of(3, lambda: Simulator(
        system, design.environment(env)).run(max_steps=20_000))
    t_vector = _best_of(3, lambda: vsim.run(
        [Lane(design.environment(env))], max_steps=20_000).trace(0))
    speedup = t_interp / t_vector
    emit(format_table(
        ["workload", "steps", "interpreter (s)", "vector (s)", "speedup"],
        [["counter limit=2000", ref.step_count,
          f"{t_interp:.3f}", f"{t_vector:.3f}", f"{speedup:.1f}x"]],
        title="E13b: single-run speedup (best of 3, trace included)"))
    RESULTS["claims"]["single_run"] = {
        "design": "counter", "limit": 2000, "steps": ref.step_count,
        "interpreter_s": round(t_interp, 4),
        "vector_s": round(t_vector, 4),
        "speedup": round(speedup, 1),
    }
    assert speedup >= 10.0, f"single-run speedup {speedup:.1f}x < 10x"


def test_e13c_batched_speedup(zoo):
    """512 heterogeneous lanes vs per-run interpreter cost."""
    design = get_design("counter")
    system = design.build()
    compiled = compile_system(system)
    batch = 512
    limits = [1900 + (i % 101) for i in range(batch)]
    sample = range(0, batch, batch // 8)

    # interpreter baseline: 8 sampled lanes, scaled to the full batch
    interp_traces = {}
    t_sample = 0.0
    for i in sample:
        env = design.environment({"limit_in": [limits[i]]})
        started = time.perf_counter()
        interp_traces[i] = Simulator(system, env).run(max_steps=20_000)
        t_sample += time.perf_counter() - started
    t_interp_est = t_sample * (batch / len(interp_traces))

    vsim = VectorSimulator(compiled, mode="numpy")
    lanes = [Lane(design.environment({"limit_in": [limits[i]]}))
             for i in range(batch)]
    started = time.perf_counter()
    result = vsim.run(lanes, max_steps=20_000)
    t_advance = time.perf_counter() - started
    started = time.perf_counter()
    traces = result.traces()  # materialise every per-lane Trace
    t_inclusive = t_advance + (time.perf_counter() - started)

    for i, ref in interp_traces.items():
        assert traces_equivalent(traces[i], ref), f"lane {i} diverged"

    adv_speedup = t_interp_est / t_advance
    incl_speedup = t_interp_est / t_inclusive
    emit(format_table(
        ["lanes", "interp est (s)", "advance (s)", "advance speedup",
         "incl. extraction (s)", "incl. speedup"],
        [[batch, f"{t_interp_est:.1f}", f"{t_advance:.2f}",
          f"{adv_speedup:.0f}x", f"{t_inclusive:.1f}",
          f"{incl_speedup:.1f}x"]],
        title="E13c: batched speedup, 512 heterogeneous counter lanes "
              "(interpreter cost extrapolated from 8 sampled lanes)"))
    RESULTS["claims"]["batched"] = {
        "design": "counter", "lanes": batch,
        "interpreter_estimate_s": round(t_interp_est, 2),
        "advance_s": round(t_advance, 3),
        "advance_speedup": round(adv_speedup, 1),
        "inclusive_s": round(t_inclusive, 2),
        "inclusive_speedup": round(incl_speedup, 1),
        "note": "inclusive = advance + per-lane Trace extraction "
                "(plain-Python object construction every backend pays)",
    }
    with open("BENCH_vector.json", "w", encoding="utf-8") as handle:
        json.dump(RESULTS, handle, indent=2, sort_keys=True)
        handle.write("\n")
    assert adv_speedup >= 100.0, (
        f"batched advance speedup {adv_speedup:.1f}x < 100x")
