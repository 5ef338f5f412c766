"""E8 — Definition 3.1 is an executable semantics.

Claim (implicit): the model "addresses issues of design directly" — its
behaviour definition is operational.  This benchmark measures the
simulator's throughput: control steps and external events per second on
the looping zoo designs, plus scaling over a widening parallel design.
The benchmarked kernel is a 200-iteration counter run.
"""

import time

from repro.io import format_table
from repro.semantics import Environment, simulate
from repro.synthesis import compile_source

from conftest import emit


def wide_par_source(width: int) -> str:
    lines = [f"design wide{width} {{", "  output o;"]
    names = [f"v{k}" for k in range(width)]
    lines.append("  var " + ", ".join(names) + ";")
    lines.append("  par {")
    for name in names:
        lines.append(f"    {{ {name} = {len(name)}; "
                     f"{name} = {name} * 3; }}")
    lines.append("  }")
    lines.append("  write(o, " + " + ".join(names) + ");")
    lines.append("}")
    return "\n".join(lines)


def test_e8_throughput_on_zoo(zoo, benchmark):
    rows = []
    for name in ("counter", "gcd", "diffeq", "ewf", "isqrt", "traffic"):
        design, system = zoo[name]
        env = design.environment()
        started = time.perf_counter()
        trace = simulate(system, env, max_steps=500_000)
        elapsed = time.perf_counter() - started
        rows.append([name, trace.step_count, trace.num_firings,
                     len(trace.events),
                     round(trace.step_count / max(elapsed, 1e-9))])
    emit(format_table(
        ["design", "steps", "firings", "events", "steps/s"],
        rows, title="E8: simulator throughput on the zoo"))

    big_counter = compile_source("""
        design bigcount { input l; output o; var n = 0, limit;
          limit = read(l);
          while (n < limit) { write(o, n); n = n + 1; }
        }""")

    def run():
        return simulate(big_counter, Environment.of(l=[200]),
                        max_steps=500_000)

    trace = benchmark(run)
    assert len(trace.events) == 201  # 200 writes + 1 read


def test_e8_scaling_with_parallel_width(benchmark):
    rows = []
    for width in (2, 4, 8, 16):
        system = compile_source(wide_par_source(width))
        started = time.perf_counter()
        trace = simulate(system, Environment(), max_steps=100_000)
        elapsed = (time.perf_counter() - started) * 1000.0
        rows.append([width, len(system.net.places), trace.step_count,
                     round(elapsed, 2)])
    emit(format_table(
        ["par width", "places", "steps", "time (ms)"],
        rows, title="E8b: maximal-step execution over widening fork/join"))

    system = compile_source(wide_par_source(8))
    trace = benchmark(simulate, system, Environment())
    assert trace.terminated

