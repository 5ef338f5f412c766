"""The CAMAD-style optimization loop (Section 5).

"The synthesis algorithm starts with a preliminary design and transforms
it step by step towards an optimal one. … A critical path analysis
technique is used [to guide the transformation process]."

The optimizer is a greedy steepest-descent search over semantics-
preserving moves:

* **compaction** of a linear block (data-invariant restructure per the
  list schedule) — usually improves latency, never area;
* a **vertex merger** (control-invariant) — improves area, may lengthen
  the clock period through multiplexing;

scored by a weighted objective
``w_time · latency + w_area · area`` where latency is either the static
critical-path delay or, when a reference environment is supplied, the
measured execution time (steps × clock period) of a simulation run.
Every accepted move is a theorem-backed transformation, so the optimizer
explores only semantically equivalent designs — the central claim of the
paper's synthesis approach.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from ..core.system import DataControlSystem
from ..semantics.environment import Environment
from ..semantics.simulator import simulate
from ..transform.base import Transformation
from ..transform.control import RestructureBlock
from ..transform.datapath_tf import VertexMerger
from .allocate import merger_candidates
from .cost import system_cost
from .critical_path import clock_period, critical_path
from .schedule import linear_blocks, list_schedule


@dataclass
class Objective:
    """Weighted cost function over (latency, area)."""

    w_time: float = 1.0
    w_area: float = 1.0
    limits: Mapping[str, int] | None = None
    environment: Environment | None = None
    max_steps: int = 20_000

    def latency(self, system: DataControlSystem) -> float:
        if self.environment is not None:
            trace = simulate(system, self.environment.fork(),
                             max_steps=self.max_steps)
            return trace.step_count * max(clock_period(system), 1e-9)
        return critical_path(system).delay

    def area(self, system: DataControlSystem) -> float:
        return system_cost(system).total

    def evaluate(self, system: DataControlSystem) -> float:
        return self.w_time * self.latency(system) + self.w_area * self.area(system)


@dataclass
class Move:
    """One accepted optimization step."""

    description: str
    kind: str
    objective_before: float
    objective_after: float

    @property
    def gain(self) -> float:
        return self.objective_before - self.objective_after


@dataclass
class OptimizationResult:
    """Final design plus the audit trail of accepted moves."""

    system: DataControlSystem
    moves: list[Move] = field(default_factory=list)
    initial_objective: float = 0.0
    final_objective: float = 0.0

    @property
    def improvement(self) -> float:
        return self.initial_objective - self.final_objective

    def summary(self) -> str:
        lines = [
            f"objective {self.initial_objective:.2f} -> "
            f"{self.final_objective:.2f} in {len(self.moves)} move(s)"
        ]
        for move in self.moves:
            lines.append(f"  [{move.kind}] {move.description}: "
                         f"{move.objective_before:.2f} -> "
                         f"{move.objective_after:.2f}")
        return "\n".join(lines)


def _candidate_moves(system: DataControlSystem,
                     objective: Objective,
                     *, max_mergers: int = 12) -> list[tuple[str, Transformation]]:
    """Candidate transformations at the current design point."""
    from ..transform.register_sharing import (
        RegisterMerger,
        register_merge_candidates,
    )

    candidates: list[tuple[str, Transformation]] = []
    for block in linear_blocks(system):
        layers = list_schedule(system, block, objective.limits)
        if len(layers) < len(block):
            candidates.append(("compaction", RestructureBlock(block, layers)))
    for v_i, v_j in merger_candidates(system)[:max_mergers]:
        candidates.append(("sharing", VertexMerger(v_i, v_j)))
    for r_1, r_2 in register_merge_candidates(system, limit=max_mergers):
        candidates.append(("register-sharing", RegisterMerger(r_1, r_2)))
    return candidates


def optimize_portfolio(system: DataControlSystem,
                       objective: Objective | None = None, *,
                       max_moves: int = 64,
                       seeds: tuple[int, ...] = (1, 2, 3),
                       verify: bool = True,
                       engine=None,
                       workers: int | None = None) -> OptimizationResult:
    """Iterated greedy: descent from several starts; best result wins.

    Pure steepest descent has a measurable phase-order trap (the E6b
    benchmark exposes it): the large immediate gain of compacting first
    can foreclose the sharing that would have paid more overall, because
    operations scheduled into one layer may no longer share a unit — and
    the trap is not always escaped by a phase-pure restart either.  The
    portfolio therefore combines

    * greedy from the design as-is, from the maximally shared design, and
      from the maximally compacted design, and
    * greedy *polish* of seeded random walks (iterated greedy), which by
      construction does at least as well as each raw walk;

    keeping the best final objective.  Every path consists solely of
    verified transformations, so the winner is still provably equivalent
    to the input.

    The starts are independent, so they fan out through the batch engine
    when one is supplied: pass ``engine`` (an
    :class:`~repro.runtime.executor.ExecutionEngine`) to reuse a running
    fleet, or ``workers=N`` to spin a private one up for this call.
    Serial and fanned-out portfolios explore the identical start set and
    pick the winner by the same objective, so the result is the same
    design either way.
    """
    from .allocate import share_all
    from .schedule import compact

    objective = objective if objective is not None else Objective()
    if engine is None and workers:
        from ..runtime.executor import ExecutionEngine

        with ExecutionEngine(workers=workers) as private_engine:
            return optimize_portfolio(system, objective, max_moves=max_moves,
                                      seeds=seeds, verify=verify,
                                      engine=private_engine)

    starts: list[tuple[str, DataControlSystem]] = [("as-is", system)]
    shared, _ = share_all(system, verify=verify)
    starts.append(("share-first", shared))
    compacted, _ = compact(system, objective.limits, verify=verify)
    starts.append(("compact-first", compacted))

    initial = objective.evaluate(system)
    if engine is not None:
        return _portfolio_fanout(system, objective, starts, initial,
                                 max_moves=max_moves, seeds=seeds,
                                 verify=verify, engine=engine)

    for seed in seeds:
        walk = optimize_random(system, objective, max_moves=max_moves,
                               seed=seed, verify=verify)
        starts.append((f"random-walk[{seed}]", walk.system))

    best: OptimizationResult | None = None
    for label, start in starts:
        candidate = optimize(start, objective, max_moves=max_moves,
                             verify=verify)
        if best is None or candidate.final_objective < best.final_objective:
            best = candidate
            best.moves = [Move(f"start: {label}", "portfolio", initial,
                               objective.evaluate(start))] + best.moves
    assert best is not None
    best.initial_objective = initial
    return best


def _portfolio_fanout(system: DataControlSystem, objective: Objective,
                      starts: list[tuple[str, DataControlSystem]],
                      initial: float, *, max_moves: int,
                      seeds: tuple[int, ...], verify: bool,
                      engine) -> OptimizationResult:
    """Run the portfolio's independent starts as batch-engine jobs.

    Each deterministic start becomes one ``synthesize`` job (greedy
    descent), each seed one ``random+greedy`` job (walk plus polish —
    exactly what the serial portfolio computes), so the job set explores
    the same design space as the in-process loop.
    """
    from ..errors import ExecutionError
    from ..io.json_io import system_from_dict
    from ..runtime.jobs import synthesize_job

    jobs = [synthesize_job(start, objective, algorithm="greedy",
                           max_moves=max_moves, verify=verify,
                           label=f"portfolio:{label}")
            for label, start in starts]
    jobs.extend(synthesize_job(system, objective, algorithm="random+greedy",
                               seed=seed, max_moves=max_moves, verify=verify,
                               label=f"portfolio:random-walk[{seed}]")
                for seed in seeds)
    batch = engine.run(jobs)
    winners = [result for result in batch if result.ok]
    if not winners:
        first = batch.failures()[0]
        raise ExecutionError(
            f"every portfolio start failed; first error: {first.error}")
    best = min(winners, key=lambda r: r.payload["final_objective"])
    moves = [Move(f"start: {best.spec.label.removeprefix('portfolio:')}",
                  "portfolio", initial, best.payload["initial_objective"])]
    moves.extend(Move(m["description"], m["kind"], m["before"], m["after"])
                 for m in best.payload["moves"])
    return OptimizationResult(
        system_from_dict(best.payload["system"]),
        moves=moves,
        initial_objective=initial,
        final_objective=best.payload["final_objective"],
    )


def optimize_random(system: DataControlSystem,
                    objective: Objective | None = None, *,
                    max_moves: int = 64,
                    seed: int = 0,
                    verify: bool = True) -> OptimizationResult:
    """Unguided baseline: apply random legal moves, keep whatever results.

    The paper argues a guiding strategy (critical-path analysis) is
    necessary because "from each step there are usually several ways to
    go"; this walker is the strawman it argues against — it applies any
    legal transformation without consulting the objective, so it can walk
    into corners (e.g. a merger that blocks the compaction that would
    have paid more).  Used by the E6 benchmark as the comparison point;
    every move is still semantics-preserving, only the *selection* is
    blind.
    """
    import random

    objective = objective if objective is not None else Objective()
    rng = random.Random(seed)
    current = system
    initial = objective.evaluate(current)
    result = OptimizationResult(current, initial_objective=initial)
    for _ in range(max_moves):
        moves = [(kind, t) for kind, t in _candidate_moves(current, objective)
                 if t.is_legal(current)]
        if not moves:
            break
        kind, transform = rng.choice(moves)
        before = objective.evaluate(current)
        current = transform.apply(current, verify=verify)
        after = objective.evaluate(current)
        result.moves.append(Move(transform.describe(), kind, before, after))
    result.system = current
    result.final_objective = objective.evaluate(current)
    return result


def optimize(system: DataControlSystem,
             objective: Objective | None = None, *,
             max_moves: int = 64,
             verify: bool = True) -> OptimizationResult:
    """Greedy steepest-descent over compaction and sharing moves.

    Each round applies the candidate with the largest objective gain;
    rounds continue until no candidate improves the objective or the move
    budget is exhausted.  With ``verify=True`` (default) every applied
    move re-checks its equivalence relation — the optimizer cannot leave
    the equivalence class of the input design.
    """
    objective = objective if objective is not None else Objective()
    current = system
    score = objective.evaluate(current)
    result = OptimizationResult(current, initial_objective=score)

    for _ in range(max_moves):
        best: tuple[float, str, Transformation, DataControlSystem] | None = None
        for kind, transform in _candidate_moves(current, objective):
            if not transform.is_legal(current):
                continue
            candidate = transform.apply(current, verify=verify)
            candidate_score = objective.evaluate(candidate)
            if candidate_score < score - 1e-12:
                if best is None or candidate_score < best[0]:
                    best = (candidate_score, kind, transform, candidate)
        if best is None:
            break
        candidate_score, kind, transform, candidate = best
        result.moves.append(Move(transform.describe(), kind, score,
                                 candidate_score))
        current, score = candidate, candidate_score

    result.system = current
    result.final_objective = score
    return result
