"""E12 — fault injection: hook neutrality, monitor coverage, latency.

The fault subsystem claims its simulator hooks are free until used and
that the runtime Definition 3.2 monitors turn the static properness
proof into a live alarm system.  This experiment measures both.

* **E12a** — hook neutrality: for every zoo design, a run with an empty
  injector attached produces a trace equal to the plain simulator's.
  The benchmark row times the hooked run so regressions in hook
  dispatch cost show up as a slowdown.
* **E12b** — campaign coverage: an auto-generated fault set per design,
  fanned over the batch engine, reporting the masked/detected/silent
  split and the mean detection latency.  Every verdict must be one of
  the three — a fault that *errors* the harness is a harness bug.
* **E12c** — the single-fault kernel (golden run + faulty run + oracle)
  timed on gcd, the representative control-dominated design.
"""

from repro.designs import get_design
from repro.faults import (
    FaultInjector,
    FaultSpec,
    generate_faults,
    run_campaign,
    run_single_fault,
)
from repro.io import format_table
from repro.semantics import simulate

from conftest import emit

CAMPAIGN_DESIGNS = ("gcd", "counter", "traffic", "parsum", "isqrt")
FAULTS_PER_DESIGN = 8
SEED = 1


def test_e12a_hooks_are_free(zoo, benchmark):
    rows = []
    for name in sorted(zoo):
        design, system = zoo[name]
        plain = simulate(system, design.environment(), max_steps=300_000)
        hooked = simulate(system, design.environment(), max_steps=300_000,
                          hooks=[FaultInjector([])])
        identical = (hooked == plain and hooked.events == plain.events
                     and hooked.steps == plain.steps)
        rows.append([name, plain.step_count, identical])
        assert identical, name
    emit(format_table(
        ["design", "steps", "trace identical"],
        rows, title="E12a: empty injector vs plain simulator"))

    design, system = zoo["gcd"]
    benchmark(lambda: simulate(system, design.environment(),
                               hooks=[FaultInjector([])]))


def test_e12b_campaign_coverage(zoo):
    rows = []
    for name in CAMPAIGN_DESIGNS:
        design, system = zoo[name]
        faults = generate_faults(system, FAULTS_PER_DESIGN, seed=SEED)
        report = run_campaign(system, faults, design.environment(),
                              seed=SEED)
        counts = report.counts
        assert counts["error"] == 0, name
        latencies = [r["detection_latency"] for r in report.results
                     if r["verdict"] == "detected"
                     and r["detection_latency"] is not None]
        mean_latency = (round(sum(latencies) / len(latencies), 1)
                        if latencies else "-")
        rows.append([name, len(faults), counts["masked"],
                     counts["detected"], counts["silent"], mean_latency])
    emit(format_table(
        ["design", "faults", "masked", "detected", "silent",
         "mean latency"],
        rows, title="E12b: auto-generated fault campaigns across the zoo"))


def test_e12c_single_fault_kernel(benchmark):
    design = get_design("gcd")
    system, env = design.build(), design.environment()
    fault = FaultSpec("guard_invert", "t_exit6", start=0, seed=SEED)
    payload = benchmark(run_single_fault, system, fault, env)
    assert payload["verdict"] == "detected"
