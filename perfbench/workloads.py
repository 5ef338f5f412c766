"""The four benchmark workloads.

Each workload builds its item list from the seed during set-up and then
runs *passes* over that list: one caller, serially, a closed loop.  A
pass is identical work every time, so an item has the same ``key`` in
every pass and the exact work counts read from a pass's outputs must
repeat from pass to pass.  Every item's output is checked after its
timed region; an item whose check fails counts as failed.  Reference
outputs are computed lazily by the first check, so they are not part of
set-up.

Making the seeded inputs (drawing lane inputs and faults, choosing the
verify designs) is the benchmark's own work, not the program's start-up:
each workload adds its time to ``inputs_s``, which set-up time leaves out.

No wall-clock budget reaches the program: fuzz campaigns and
explorations run on count budgets only.
"""

from __future__ import annotations

import math
import os
import random
import shutil
from dataclasses import dataclass, field
from time import perf_counter

from repro.analysis.lint import run_lint
from repro.analysis.symbolic import frontier_explore
from repro.core.equivalence import semantically_equivalent
from repro.core.properly_designed import check_properly_designed
from repro.designs import ZOO, pad_outputs
from repro.faults.spec import generate_faults
from repro.fuzz.campaign import FuzzConfig, run_fuzz
from repro.fuzz.generate import GeneratorConfig, generate_case
from repro.io.json_io import system_from_dict, system_to_dict
from repro.petri.reachability import coexistent_place_pairs, is_safe
from repro.runtime.cache import ResultCache
from repro.runtime.executor import ExecutionEngine
from repro.runtime.jobs import (check_job, lint_job, load_job_file,
                                simulate_job, vecbatch_faults_job,
                                vecbatch_simulate_job, write_job_file)
from repro.semantics.profile import traces_equivalent
from repro.semantics.simulator import Simulator
from repro.transform.register_sharing import share_registers

from instrument import Recorder


@dataclass
class Item:
    """One timed unit of work and the verdict of its output check."""

    key: int                 # the same item has the same key in every pass
    latency_s: float
    ok: bool
    phase: str = "main"      # sweep: "main" is the cold pass, or "warm"
    error: str = ""


@dataclass
class Pass:
    items: list[Item] = field(default_factory=list)
    #: exact work counts read from the pass's outputs (``out.*``)
    counts: dict[str, int] = field(default_factory=dict)

    def add(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount


def _rng(workload: str, seed: int, *salt) -> random.Random:
    # str seeds hash through SHA-512: stable under any PYTHONHASHSEED
    return random.Random(":".join(map(str, (workload, seed) + salt)))


# ---------------------------------------------------------------------------
# sim-long
# ---------------------------------------------------------------------------
#: Interpreter runs take ``SIM_STEPS`` control steps (design by design,
#: round robin); vector runs take ``VECTOR_SCALE`` times as many, so both
#: backends' latencies share one range and no percentile falls into a
#: gap between two modes.
SIM_STEPS = (1000, 1400, 2000)
VECTOR_SCALE = 8


def _sim_inputs(design: str, steps: int, rng: random.Random
                ) -> dict[str, list[int]]:
    """Inputs making ``design`` run about ``steps`` control steps."""
    if design == "counter":                       # 3 steps per count
        return {"limit_in": [steps // 3]}
    if design == "traffic":                       # 6 steps per cycle
        return {"cycles_in": [steps // 6]}
    if design == "gcd":                           # 3 steps per subtraction
        b = rng.randint(3, 9)
        return {"a_in": [(steps // 3) * b + rng.randint(1, b - 1)],
                "b_in": [b]}
    if design == "isqrt":                         # 5 steps per bisection
        bits = steps // 5
        return {"n_in": [rng.getrandbits(bits) | (1 << (bits - 1))]}
    if design == "shiftmul":                      # 4 steps per bit of b
        bits = steps // 4
        return {"a_in": [rng.randint(1, 999)],
                "b_in": [rng.getrandbits(bits) | (1 << (bits - 1))]}
    if design == "ewf":                           # 12 steps per sample
        n = steps // 12
        return {"x_in": [n] + [rng.randint(-9, 9) for _ in range(n)]}
    raise KeyError(design)


class SimLong:
    """Long single simulations of loop-carrying zoo designs."""

    name = "sim-long"
    #: diffeq is left out: its values grow factorially, so runs thousands
    #: of steps long become bigint-arithmetic-bound.  parsum has no loop.
    DESIGNS = ("counter", "gcd", "isqrt", "shiftmul", "traffic", "ewf")

    def __init__(self, seed: int, rec: Recorder) -> None:
        self.rec = rec
        self.inputs_s = 0.0
        self.items: list[tuple[str, dict, dict, str]] = []
        self._expected: dict[int, dict] = {}
        for index, name in enumerate(self.DESIGNS):
            design = ZOO[name]
            data = system_to_dict(design.build())
            rng = _rng(self.name, seed, name)
            steps = SIM_STEPS[index % len(SIM_STEPS)] * rng.uniform(0.95, 1.05)
            for backend, scale in (("interpreter", 1), ("vector", VECTOR_SCALE)):
                inputs = _sim_inputs(name, int(steps * scale), rng)
                self.items.append((name, data, inputs, backend))

    def warm_up(self) -> None:
        for name, data, _inputs, backend in self.items[:2]:
            design = ZOO[name]
            Simulator(system_from_dict(data), design.environment(),
                      backend=backend).run()

    def _check(self, key: int, system, trace) -> str:
        name, _data, inputs, backend = self.items[key]
        design = ZOO[name]
        if key not in self._expected:
            self._expected[key] = design.expected(inputs)
        if pad_outputs(system, trace) != self._expected[key]:
            return "outputs differ from the reference model"
        if backend == "interpreter":
            other = Simulator(system, design.environment(inputs),
                              backend="vector").run(max_steps=1_000_000)
            if not traces_equivalent(trace, other):
                return "interpreter and vector traces differ"
        return ""

    def run_pass(self) -> Pass:
        out = Pass()
        rec = self.rec
        for key, (name, data, inputs, backend) in enumerate(self.items):
            design = ZOO[name]
            rec.open("item")
            start = perf_counter()
            system = system_from_dict(data)
            trace = Simulator(system, design.environment(inputs),
                              backend=backend).run(max_steps=1_000_000)
            latency = perf_counter() - start
            rec.close()
            out.add("out.runs", 1)
            out.add("out.steps", trace.step_count)
            out.add("out.firings", trace.num_firings)
            error = self._check(key, system, trace)
            out.items.append(Item(key, latency, not error, error=error))
        return out


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------
#: Lane counts (design by design, round robin) and faults per chunk are
#: sized so that no job takes much over 100 ms: a pass then takes about
#: two seconds and each job is timed some ten times a run.  Contention
#: from a shared host stretches long jobs more than short ones, since a
#: long job is less likely to fit inside a quiet spell.
LANES = (32, 64, 128, 256)
FAULTS_PER_CHUNK = 8
WARM_PASSES = 3


def _lane_inputs(design: str, rng: random.Random) -> dict[str, list[int]]:
    """Seeded lane inputs that keep every value inside 64 bits."""
    r = rng.randint
    if design == "gcd":
        return {"a_in": [r(1, 200)], "b_in": [r(1, 200)]}
    if design == "diffeq":
        return {"a_in": [r(1, 6)], "dx_in": [1], "x_in": [0],
                "y_in": [r(0, 5)], "u_in": [r(0, 5)]}
    if design in ("fir4", "fir8", "parsum", "sort4"):
        width = 8 if design == "fir8" else 4
        return {"x_in": [r(-999, 999) for _ in range(width)]}
    if design == "ewf":
        n = r(1, 24)
        return {"x_in": [n] + [r(-9, 9) for _ in range(n)]}
    if design == "traffic":
        return {"cycles_in": [r(1, 40)]}
    if design == "counter":
        return {"limit_in": [r(1, 60)]}
    if design == "isqrt":
        return {"n_in": [r(0, 10**9)]}
    if design == "shiftmul":
        return {"a_in": [r(0, 1000)], "b_in": [r(0, 10**5)]}
    raise KeyError(design)


def _tree_bytes(root: str) -> int:
    return sum(os.path.getsize(os.path.join(folder, name))
               for folder, _dirs, names in os.walk(root) for name in names)


class Sweep:
    """A zoo-wide job file through the serial engine: cold, then warm."""

    name = "sweep"
    SHORT = (("simulate", "gcd"), ("simulate", "traffic"),
             ("simulate", "ewf"), ("check", "diffeq"), ("check", "fir8"),
             ("check", "sort4"), ("lint", "counter"), ("lint", "isqrt"),
             ("lint", "shiftmul"))

    def __init__(self, seed: int, rec: Recorder, workdir: str) -> None:
        self.rec = rec
        self.workdir = workdir
        self.inputs_s = 0.0
        specs = []
        # per job: (design name, lane inputs or one input dict) where a
        # reference model applies, else None
        self.references: list[tuple[str, object] | None] = []
        self._expected: dict[int, object] = {}
        for index, (name, design) in enumerate(sorted(ZOO.items())):
            system = design.build()
            start = perf_counter()
            rng = _rng(self.name, seed, name)
            lanes = [_lane_inputs(name, rng)
                     for _ in range(LANES[index % len(LANES)])]
            specs.append(vecbatch_simulate_job(
                system, [design.environment(i) for i in lanes], label=name))
            self.references.append((name, lanes))
            faults = generate_faults(system, FAULTS_PER_CHUNK,
                                     seed=rng.randrange(1 << 30))
            specs.append(vecbatch_faults_job(system, faults,
                                             design.environment()))
            self.references.append(None)
            self.inputs_s += perf_counter() - start
        for kind, name in self.SHORT:
            design = ZOO[name]
            system = design.build()
            if kind == "simulate":
                inputs = _lane_inputs(name, _rng(self.name, seed, kind, name))
                specs.append(simulate_job(system, design.environment(inputs)))
                self.references.append((name, inputs))
            else:
                specs.append(check_job(system) if kind == "check"
                             else lint_job(system))
                self.references.append(None)
        path = os.path.join(workdir, "sweep-jobs.json")
        start = perf_counter()
        write_job_file(path, specs)
        self.inputs_s += perf_counter() - start
        self.specs = load_job_file(path)
        self._passes = 0

    def warm_up(self) -> None:
        cache_dir = os.path.join(self.workdir, "warm-up")
        engine = ExecutionEngine(workers=0, cache=ResultCache(cache_dir))
        for _ in range(2):
            engine.run(self.specs[-3:])
        shutil.rmtree(cache_dir)

    def _timed_batch(self, engine: ExecutionEngine):
        stamps: list[float] = []
        self.rec.open("pass")
        start = perf_counter()
        batch = engine.run(self.specs,
                           on_result=lambda _r: stamps.append(perf_counter()))
        self.rec.close()
        latencies = [b - a for a, b in zip([start] + stamps, stamps)]
        return batch, latencies

    def _expected_for(self, index: int):
        if index not in self._expected:
            name, inputs = self.references[index]
            design = ZOO[name]
            self._expected[index] = (
                [design.expected(i) for i in inputs]
                if isinstance(inputs, list) else design.expected(inputs))
        return self._expected[index]

    def _check(self, index: int, result) -> str:
        if not result.ok:
            return f"job failed: {result.error}"
        payload = result.payload
        if self.references[index] is not None:
            expected = self._expected_for(index)
            if result.spec.kind == "vecbatch":
                if [lane["outputs"] for lane in payload["lanes"]] != expected:
                    return "a lane's outputs differ from the reference model"
            elif payload["outputs"] != expected:
                return "outputs differ from the reference model"
        elif result.spec.kind == "vecbatch":
            if len(payload["entries"]) != FAULTS_PER_CHUNK:
                return "fault chunk lost entries"
        elif not payload["ok"]:
            return f"zoo design failed {result.spec.kind}"
        return ""

    def run_pass(self) -> Pass:
        out = Pass()
        self._passes += 1
        cache_dir = os.path.join(self.workdir, f"cache-{self._passes}")
        engine = ExecutionEngine(workers=0, cache=ResultCache(cache_dir))
        cold, latencies = self._timed_batch(engine)
        out.add("out.jobs", len(cold))
        out.add("out.cache_bytes", _tree_bytes(cache_dir))
        cold_bytes = [r.payload_bytes() if r.ok else b"" for r in cold]
        for index, (result, latency) in enumerate(zip(cold, latencies)):
            if result.ok and "lanes" in result.payload:
                out.add("out.lane_steps", sum(
                    lane["step_count"] for lane in result.payload["lanes"]))
            error = self._check(index, result)
            if not error and result.status != "ok":
                error = f"cold pass answered {result.status}"
            out.items.append(Item(index, latency, not error, "main", error))
        for _ in range(WARM_PASSES):
            warm, latencies = self._timed_batch(engine)
            out.add("out.warm_jobs", len(warm))
            for index, (result, latency, want) in enumerate(
                    zip(warm, latencies, cold_bytes)):
                error = ""
                if result.status != "cached":
                    error = f"warm pass answered {result.status}"
                elif result.payload_bytes() != want:
                    error = "warm payload bytes differ from the cold pass"
                out.items.append(Item(index, latency, not error, "warm",
                                      error))
        shutil.rmtree(cache_dir)
        return out


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------
#: Generated designs per pass: (target places, how many, candidates
#: drawn, target vertices or None, target reachable markings).  The
#: designs kept are the candidates nearest the targets, so every seed's
#: pass has the same shape of work (item cost follows vertices and
#: markings) and input making draws the same number of candidates.
#: With the 11 zoo designs the 39 items form clusters: 12 light items
#: (under ~20 ms), then ten 20-place designs plus three mid-size zoo
#: designs around the median, then six mid-weight items, then eight
#: 56-place designs holding the 90th percentile.  Each percentile thus
#: falls in the middle of a run of similar items, never on the step
#: between two clusters.  Targets stay far below the explicit
#: 100k-marking budget: one exhausted exploration costs ~10 s.
VERIFY_SLOTS = (
    (8, 3, 9, None, 10), (12, 3, 9, None, 20), (20, 10, 50, 46, 20),
    (32, 2, 8, None, 70), (40, 2, 8, None, 120), (56, 8, 48, 136, 100),
)


class Verify:
    """Properness, lint, sharing and two-method equivalence per design."""

    name = "verify"

    def __init__(self, seed: int, rec: Recorder, draw: bool = True) -> None:
        self.rec = rec
        self.inputs_s = 0.0
        self.items: list[tuple[str, dict, object, bool]] = []
        for name, design in sorted(ZOO.items()):
            self.items.append((name, system_to_dict(design.build()),
                               design.environment(), True))
        if draw:
            self._draw(seed)

    def _draw(self, seed: int) -> None:
        """Add the generated designs: the benchmark's input making."""
        start = perf_counter()
        rng = _rng(self.name, seed)
        for places, count, pool, vertices, markings in VERIFY_SLOTS:
            config = GeneratorConfig(min_places=places, max_places=places,
                                     mutation_rate=0.0, quirk_rate=0.0)
            candidates = []
            for _ in range(pool):
                case = generate_case(rng.randrange(1 << 31), config)
                graph = frontier_explore(case.system.net,
                                         max_markings=10 * markings)
                distance = abs(math.log(graph.num_markings / markings))
                if vertices is not None:
                    # at few markings the datapath's size sets the cost
                    distance += 3 * abs(math.log(
                        len(case.system.datapath.vertices) / vertices))
                candidates.append((distance, len(candidates), case))
            for _distance, _index, case in sorted(candidates)[:count]:
                self.items.append((f"gen{places}",
                                   system_to_dict(case.system),
                                   case.environment, False))
        self.inputs_s = perf_counter() - start

    def warm_up(self) -> None:
        self._bundle(*self.items[0][1:3])

    @staticmethod
    def _bundle(data: dict, environment):
        system = system_from_dict(data)
        proper = check_properly_designed(system)
        lint = run_lint(system)
        shared, report = share_registers(system)
        explicit = semantically_equivalent(system, shared, environment.fork(),
                                           backend="explicit")
        symbolic = semantically_equivalent(system, shared, environment.fork(),
                                           backend="symbolic")
        safe = is_safe(system.net, backend="symbolic")
        coexist = coexistent_place_pairs(system.net, backend="symbolic")
        return (system, proper, lint, report, explicit, symbolic, safe,
                coexist)

    def run_pass(self) -> Pass:
        out = Pass()
        for key, (_name, data, environment, zoo) in enumerate(self.items):
            self.rec.open("item")
            start = perf_counter()
            (system, proper, lint, report, explicit, symbolic, safe,
             coexist) = self._bundle(data, environment)
            latency = perf_counter() - start
            self.rec.close()
            pairs, complete = system.coexistence()
            out.add("out.truncations", (not complete) + (not coexist[1]))
            out.add("out.merges", len(report.merges))
            error = ""
            if not (explicit.equivalent and symbolic.equivalent):
                error = "register sharing changed the event structure"
            elif complete and coexist[1] and pairs != coexist[0]:
                error = "explicit and symbolic coexistence differ"
            elif complete and safe != proper.checks[1].ok:
                error = "explicit and symbolic safety verdicts differ"
            elif complete and not proper.ok:
                error = f"proper design judged improper: {proper.summary()}"
            elif zoo and not lint.ok():
                error = "zoo design fails lint"
            out.items.append(Item(key, latency, not error, error=error))
        return out


# ---------------------------------------------------------------------------
# fuzz
# ---------------------------------------------------------------------------
#: Cases per campaign.  Every case is generated at ``FUZZ_PLACES`` places:
#: with the generator's default 4-24 range, the mix of sizes a seed
#: happened to draw moved a campaign's total cost by 10% from seed to seed.
FUZZ_CASES = 80
FUZZ_PLACES = 12


class Fuzz:
    """One differential fuzz campaign per pass, all oracles, shrinking on."""

    name = "fuzz"

    def __init__(self, seed: int, rec: Recorder) -> None:
        self.rec = rec
        self.inputs_s = 0.0
        self.config = FuzzConfig(seed=_rng(self.name, seed).randrange(1 << 30),
                                 cases=FUZZ_CASES, min_places=FUZZ_PLACES,
                                 max_places=FUZZ_PLACES)

    def warm_up(self) -> None:
        run_fuzz(FuzzConfig(seed=self.config.seed + 1, cases=2))

    def run_pass(self) -> Pass:
        out = Pass()
        stamps: list[tuple[float, int]] = []

        def progress(_index, report) -> None:
            stamps.append((perf_counter(), sum(report.buckets.values())))

        self.rec.open("pass")
        start = perf_counter()
        report = run_fuzz(self.config, progress=progress)
        self.rec.close()
        previous = (start, 0)
        for key, stamp in enumerate(stamps):
            # a case that added to a divergence bucket failed its oracles
            ok = stamp[1] == previous[1]
            out.items.append(Item(key, stamp[0] - previous[0], ok,
                                  error="" if ok else "oracle divergence"))
            previous = stamp
        if report.cases_run != self.config.cases:
            out.items.append(Item(-1, 0.0, False, "campaign",
                                  "campaign stopped early"))
        out.add("out.cases", report.cases_run)
        out.add("out.divergences", len(report.divergences))
        out.add("out.skipped", sum(report.skipped.values()))
        return out


WORKLOADS = {cls.name: cls for cls in (SimLong, Sweep, Verify, Fuzz)}


def make(name: str, seed: int, rec: Recorder, workdir: str,
         setup_only: bool = False):
    """The named workload.  A set-up probe never runs a pass, so verify
    skips drawing its generated designs there; set-up time leaves that
    drawing out in any case."""
    cls = WORKLOADS[name]
    if cls is Sweep:
        return cls(seed, rec, workdir)
    if cls is Verify:
        return cls(seed, rec, draw=not setup_only)
    return cls(seed, rec)
