"""Command-line interface: ``python -m repro <command> …``.

Commands
--------

``check DESIGN``
    Compile and run the Definition 3.2 properly-designed verification.
``lint DESIGN… [--all] [--format text|json|sarif] [--fail-on SEV]
[--rules ID,…] [--baseline FILE] [--write-baseline FILE]``
    Run the structural design-rule checker (:mod:`repro.analysis.lint`)
    — no reachability enumeration — and report diagnostics with stable
    rule ids; exits 1 when findings at/above ``--fail-on`` remain.
``simulate DESIGN [--input name=v1,v2,…]… [--max-steps N] [--profile]
[--profile-json PATH] [--seed N] [--checkpoint-dir DIR
--checkpoint-every N] [--resume] [--backend interpreter|vector]``
    Execute against an environment and print the external events;
    ``--profile`` adds step/evaluation/phase-time metrics
    (``--profile-json`` emits them machine-readable, ``--seed`` resolves
    firing choice through a seeded RNG).
    ``--checkpoint-every`` persists durable snapshots into
    ``--checkpoint-dir``; ``--resume`` continues from the newest intact
    one with a byte-identical trace.  ``--backend vector`` runs the
    compiled vector backend (:mod:`repro.semantics.vector`) instead of
    the interpreter — same trace, compiled execution.
``faults DESIGN [--fault SPEC]… [--faults-file PATH] [--auto N]
[--seed N] [--format text|json] [--output PATH] [--journal PATH]
[--resume]``
    Run a fault-injection campaign (:mod:`repro.faults`): each fault is
    injected into its own run with the runtime Definition 3.2 monitors
    attached, and the report classifies every fault as masked /
    detected / silent against the golden run's external event
    structure.  The faults run in ``vecbatch`` chunks that share one
    golden run each.  ``--journal`` fsyncs every verdict as its chunk
    settles; ``--resume`` restarts a killed campaign without re-running
    journaled faults.  Exits 0 when every fault was masked or detected,
    1 on a silent deviation, 2 on usage or infrastructure errors, 130
    when interrupted.
``synthesize DESIGN [--w-time F] [--w-area F] [--limit op=N]… ``
    Run the CAMAD-style optimizer and report the before/after metrics.
``dot DESIGN [--view datapath|petri|system]``
    Emit Graphviz DOT to stdout.
``export DESIGN``
    Emit the JSON serialisation to stdout.
``netlist DESIGN``
    Emit a structural RTL-flavoured netlist (one-hot FSM + datapath).
``cosim DESIGN [--input …]``
    Co-simulate the netlist interpretation against the model semantics.
``batch JOBFILE [--workers N] [--cache DIR] [--timeout S] [--retries N]
[--journal PATH] [--resume]``
    Run a job file (see :mod:`repro.runtime.jobs`) through the batch
    engine and report per-job outcomes plus fleet metrics.  A job that
    fails, times out or kills its worker is retried up to ``--retries``
    times and then reported ``failed``; the rest of the batch runs on.
    With a ``--journal`` the batch survives SIGKILL and ``--resume``
    replays settled jobs from the log.  Exits 0 when every job
    succeeded, 1 on failures, 130 when interrupted.
``cache stats DIR`` / ``cache prune DIR [--max-bytes N] [--max-entries N]``
    Inspect a content-addressed result cache, or atomically evict the
    oldest entries until it fits the given bounds.
``sweep DESIGN [--w-time F,F,…] [--w-area F,F,…] [--seeds N,N,…]``
    Fan a synthesis sweep over the objective-weight × seed grid through
    the batch engine (``--emit-jobs PATH`` writes the job file instead
    of running it).
``list``
    List the built-in design zoo.

``DESIGN`` is either a zoo name (``gcd``, ``diffeq``, …) or a path to a
behavioural source file (``.pdl``) / serialised system (``.json``).

``repro --version`` prints the package version.  Library errors exit
with status 2 and a one-line categorised message (``validation error:``,
``execution error:``, ``transform error:``, …) instead of a traceback.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from . import __version__
from .core import check_properly_designed
from .core.system import DataControlSystem
from .designs import ZOO, pad_outputs
from .errors import (
    DefinitionError,
    ExecutionError,
    ParseError,
    ReproError,
    RuntimeFaultError,
    TransformError,
    ValidationError,
)
from .fuzz.corpus import DEFAULT_CORPUS_DIR as _DEFAULT_CORPUS_DIR
from .io import dumps, format_table
from .io.dot import datapath_to_dot, petri_to_dot, system_to_dot
from .semantics import Environment, simulate
from .synthesis import (
    Objective,
    compile_source,
    critical_path,
    optimize,
    optimize_portfolio,
    system_cost,
)


def _load(spec: str) -> tuple[DataControlSystem, Environment]:
    """Resolve a design spec to (system, default environment)."""
    if spec in ZOO:
        design = ZOO[spec]
        return design.build(), design.environment()
    if spec.endswith(".json"):
        from .io import load

        return load(spec), Environment()
    with open(spec, "r", encoding="utf-8") as handle:
        return compile_source(handle.read()), Environment()


def _parse_inputs(pairs: Sequence[str]) -> Environment:
    streams: dict[str, list[int]] = {}
    for pair in pairs:
        name, _, values = pair.partition("=")
        if not values:
            raise ReproError(f"malformed --input {pair!r} "
                             "(expected name=v1,v2,…)")
        streams[name] = [int(v) for v in values.split(",") if v]
    return Environment(streams)


def _environment_for(args: argparse.Namespace,
                     default: Environment) -> Environment:
    """The run's environment: ``--input`` overrides, else the default.

    Shared by every command that accepts ``--input`` (simulate, cosim,
    synthesize, sweep) so the parsing and precedence live in one place.
    """
    return _parse_inputs(args.input) if args.input else default


def _parse_limits(pairs: Sequence[str]) -> dict[str, int]:
    limits: dict[str, int] = {}
    for pair in pairs:
        name, _, cap = pair.partition("=")
        if not cap:
            raise ReproError(f"malformed --limit {pair!r} (expected op=N)")
        limits[name] = int(cap)
    return limits


def cmd_list(_args: argparse.Namespace) -> int:
    rows = [[design.name, design.description] for design in ZOO.values()]
    print(format_table(["design", "description"], rows,
                       title="built-in design zoo"))
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    system, _env = _load(args.design)
    problems = system.validate()
    for problem in problems:
        print(f"warning: {problem}")
    report = check_properly_designed(system)
    print(report.summary())
    return 0 if report.ok else 1


def cmd_equiv(args: argparse.Namespace) -> int:
    from .analysis.sarif import sarif_diagnostics_log
    from .analysis.symbolic import EQUIV_RULES, equivalence_diagnostics
    from .core.equivalence import semantically_equivalent

    left, env_left = _load(args.design)
    right, env_right = _load(args.other)
    env = _parse_inputs(args.input) if args.input else env_left
    if not args.input and not env_left.sequences and env_right.sequences:
        # fall back to whichever side ships default inputs
        env = env_right
    verdict = semantically_equivalent(left, right, env,
                                      max_steps=args.max_steps,
                                      backend=args.backend)
    diagnostics = equivalence_diagnostics(verdict, left=args.design,
                                          right=args.other)
    if args.format == "sarif":
        import json as _json

        log = sarif_diagnostics_log(diagnostics, EQUIV_RULES,
                                    systems=[args.design, args.other])
        _write_json(args.output or "-", _json.dumps(log, indent=2),
                    "SARIF log")
    elif args.format == "json":
        import json as _json

        payload = _json.dumps({
            "format": 1,
            "left": args.design,
            "right": args.other,
            "equivalent": verdict.equivalent,
            "relation": verdict.relation,
            "backend": verdict.backend,
            "reason": verdict.reason,
            "witness": verdict.witness,
        }, indent=2)
        _write_json(args.output or "-", payload, "equivalence report")
    else:
        status = "EQUIVALENT" if verdict.equivalent else "NOT EQUIVALENT"
        print(f"{args.design} vs {args.other}: {status} "
              f"({verdict.relation}, backend={verdict.backend})")
        if verdict.reason:
            print(f"reason: {verdict.reason}")
        witness_text = verdict.witness_text()
        if witness_text:
            print("distinguishing firing sequences:")
            for line in witness_text.splitlines():
                print(f"  {line}")
    return 0 if verdict.equivalent else 1


def cmd_lint(args: argparse.Namespace) -> int:
    from .analysis.lint import (
        baseline_document,
        load_baseline,
        run_lint,
    )
    from .analysis.sarif import sarif_dumps

    designs = list(args.designs)
    if args.all:
        designs = list(ZOO)
    if not designs:
        raise ReproError("no designs given (name designs or pass --all)")
    rules = [r for spec in args.rules for r in spec.split(",") if r] or None
    known = load_baseline(args.baseline) if args.baseline else frozenset()
    reports = []
    for spec in designs:
        system, _env = _load(spec)
        reports.append(run_lint(system, rules=rules).with_baseline(known))
    if args.write_baseline:
        import json as _json

        _write_json(args.write_baseline,
                    _json.dumps(baseline_document(reports), indent=2),
                    "lint baseline")
        return 0
    if args.format == "sarif":
        _write_json(args.output or "-", sarif_dumps(reports).rstrip("\n"),
                    "SARIF log")
    elif args.format == "json":
        import json as _json

        payload = _json.dumps({"format": 1,
                               "reports": [r.as_dict() for r in reports]},
                              indent=2)
        _write_json(args.output or "-", payload, "lint report")
    else:
        for report in reports:
            print(report.to_text())
    failed = [r.system for r in reports if not r.ok(args.fail_on)]
    if failed:
        print(f"lint failed at --fail-on {args.fail_on}: "
              + ", ".join(failed), file=sys.stderr)
        return 1
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    system, env = _load(args.design)
    env = _environment_for(args, env)
    policy = None
    if args.seed is not None:
        from .semantics import SeededMaximalPolicy

        policy = SeededMaximalPolicy(args.seed)
    hooks = []
    checkpoint = None
    if args.resume and not args.checkpoint_dir:
        raise ReproError("--resume requires --checkpoint-dir")
    if args.checkpoint_every and not args.checkpoint_dir:
        raise ReproError("--checkpoint-every requires --checkpoint-dir")
    if args.checkpoint_dir:
        from .runtime.durable import CheckpointHook, CheckpointStore

        store = CheckpointStore(args.checkpoint_dir)
        if args.checkpoint_every:
            hooks.append(CheckpointHook(store, args.checkpoint_every))
        if args.resume:
            checkpoint = store.load_latest()
            if checkpoint is not None:
                print(f"resuming from checkpoint at step {checkpoint.step}")
            else:
                print("no usable checkpoint found; starting fresh")
    if args.backend == "vector":
        for flag, present in (("--profile", args.profile),
                              ("--profile-json", bool(args.profile_json)),
                              ("--checkpoint-dir",
                               bool(args.checkpoint_dir))):
            if present:
                raise ReproError(
                    f"{flag} is an interpreter-backend option; it cannot "
                    "be combined with --backend vector")
    if hooks or checkpoint is not None:
        from .semantics.simulator import Simulator

        kwargs = {"policy": policy} if policy is not None else {}
        sim = Simulator(system, env, hooks=hooks, **kwargs)
        trace = sim.run(max_steps=args.max_steps, from_checkpoint=checkpoint)
    else:
        trace = simulate(system, env, max_steps=args.max_steps,
                         policy=policy, backend=args.backend)
    print(trace.summary())
    for event in trace.events:
        print(f"  step {event.end:4d}  {event}")
    outputs = pad_outputs(system, trace)
    if outputs:
        print("outputs:")
        for pad, values in sorted(outputs.items()):
            print(f"  {pad} = {values}")
    if args.profile and trace.metrics is not None:
        print(trace.metrics.summary())
    if args.profile_json and trace.metrics is not None:
        payload = trace.metrics.to_json(indent=2)
        if args.profile_json == "-":
            print(payload)
        else:
            with open(args.profile_json, "w", encoding="utf-8") as handle:
                handle.write(payload + "\n")
            print(f"profile written to {args.profile_json}")
    return 0


def cmd_faults(args: argparse.Namespace) -> int:
    import json as _json

    from .faults import (
        FaultSpec,
        generate_faults,
        load_faults,
        run_campaign,
    )

    system, env = _load(args.design)
    env = _environment_for(args, env)
    faults = [FaultSpec.parse(spec) for spec in args.fault]
    if args.faults_file:
        faults.extend(load_faults(args.faults_file))
    if args.auto:
        faults.extend(generate_faults(system, args.auto, seed=args.seed))
    if not faults:
        raise ReproError(
            "no faults given (use --fault, --faults-file or --auto N)")
    from .runtime import GracefulShutdown

    with _make_engine(args) as engine, GracefulShutdown() as shutdown:
        report = run_campaign(
            system, faults, env, engine=engine, seed=args.seed,
            max_steps=args.max_steps, journal_path=args.journal,
            resume=args.resume, stop_event=shutdown.stop_event)
    interrupted = shutdown.stop_event.is_set()
    if args.format == "json":
        _write_json(args.output or "-",
                    _json.dumps(report.to_dict(), indent=2, sort_keys=True),
                    "campaign report")
    else:
        if args.output:
            _write_json(args.output,
                        _json.dumps(report.to_dict(), indent=2,
                                    sort_keys=True),
                        "campaign report")
        print(report.to_text())
    if interrupted:
        print("campaign interrupted; resume with --journal/--resume",
              file=sys.stderr)
        return 130
    return report.exit_code


def cmd_synthesize(args: argparse.Namespace) -> int:
    system, env = _load(args.design)
    env = _environment_for(args, env)
    objective = Objective(
        w_time=args.w_time, w_area=args.w_area,
        limits=_parse_limits(args.limit) or None,
        environment=env if env.sequences or not system.datapath.input_vertices()
        else None,
        max_steps=args.max_steps,
    )
    if args.portfolio:
        result = optimize_portfolio(system, objective,
                                    max_moves=args.max_moves,
                                    workers=args.workers)
    else:
        result = optimize(system, objective, max_moves=args.max_moves)
    print(result.summary())
    rows = [
        ["critical path (steps)", critical_path(system).steps,
         critical_path(result.system).steps],
        ["area", round(system_cost(system).total, 2),
         round(system_cost(result.system).total, 2)],
        ["functional units",
         sum(1 for v in system.datapath.vertices.values()
             if v.is_combinational),
         sum(1 for v in result.system.datapath.vertices.values()
             if v.is_combinational)],
    ]
    print(format_table(["metric", "before", "after"], rows))
    if args.output:
        from .io import save

        save(result.system, args.output)
        print(f"optimized system written to {args.output}")
    return 0


def cmd_dot(args: argparse.Namespace) -> int:
    system, _env = _load(args.design)
    renderers = {
        "datapath": lambda: datapath_to_dot(system.datapath),
        "petri": lambda: petri_to_dot(system.net),
        "system": lambda: system_to_dot(system),
    }
    print(renderers[args.view]())
    return 0


def cmd_netlist(args: argparse.Namespace) -> int:
    system, _env = _load(args.design)
    from .io import to_verilog

    print(to_verilog(system))
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    system, _env = _load(args.design)
    print(dumps(system))
    return 0


def cmd_cosim(args: argparse.Namespace) -> int:
    system, env = _load(args.design)
    env = _environment_for(args, env)
    from .io.rtl_sim import crosscheck

    try:
        trace = crosscheck(system, env, max_cycles=args.max_steps)
    except AssertionError as error:
        print(f"MISMATCH: {error}", file=sys.stderr)
        return 1
    print(f"RTL == model over {trace.cycles} cycle(s)")
    for pad, values in sorted(trace.outputs.items()):
        print(f"  {pad} = {values}")
    return 0


def _make_engine(args: argparse.Namespace, *, journal=None):
    """Build an ExecutionEngine (and optional cache) from CLI options."""
    from .runtime import ExecutionEngine, ResultCache

    cache = ResultCache(args.cache) if args.cache else None
    return ExecutionEngine(workers=args.workers, timeout=args.timeout,
                           retries=args.retries, cache=cache,
                           journal=journal)


def _engine_journal(args: argparse.Namespace):
    """Open the batch-level write-ahead journal and its resume map.

    Returns ``(journal, resume_from)`` — with ``--resume`` the existing
    journal is scanned first (torn tails repaired) and every settled key
    with a payload is replayed instead of re-executed.
    """
    if not getattr(args, "journal", None):
        return None, None
    from .runtime import Journal, iter_settled, read_journal

    resume_from = None
    if args.resume:
        resume_from = {
            key: record.get("payload")
            for key, record in iter_settled(read_journal(args.journal))
            if record.get("payload") is not None}
    return Journal(args.journal, fresh=not args.resume), resume_from


def _report_batch(batch, *, metrics_json: str | None = None,
                  results_json: str | None = None) -> int:
    """Print a per-job table plus fleet metrics; nonzero if any job failed."""
    rows = []
    for result in batch:
        rows.append([
            result.key[:10],
            result.spec.kind,
            result.spec.label or "-",
            result.status,
            result.attempts,
            f"{result.run_seconds * 1e3:.1f}",
            result.error or "-",
        ])
    print(format_table(
        ["key", "kind", "label", "status", "attempts", "run_ms", "error"],
        rows, title=f"batch of {len(batch)} job(s)"))
    print(batch.metrics.summary())
    if metrics_json:
        _write_json(metrics_json, batch.metrics.to_json(indent=2),
                    "fleet metrics")
    if results_json:
        import json as _json

        payload = _json.dumps([r.as_dict() for r in batch], indent=2,
                              sort_keys=True)
        _write_json(results_json, payload, "job results")
    if batch.metrics.interrupted:
        print("batch interrupted; resume with --journal/--resume",
              file=sys.stderr)
        return 130
    return 0 if batch.ok else 1


def _write_json(target: str, payload: str, what: str) -> None:
    if target == "-":
        print(payload)
        return
    with open(target, "w", encoding="utf-8") as handle:
        handle.write(payload + "\n")
    print(f"{what} written to {target}")


def cmd_batch(args: argparse.Namespace) -> int:
    from .runtime import GracefulShutdown, load_job_file

    jobs = load_job_file(args.jobfile)
    journal, resume_from = _engine_journal(args)
    try:
        with _make_engine(args, journal=journal) as engine, \
                GracefulShutdown() as shutdown:
            batch = engine.run(jobs, stop_event=shutdown.stop_event,
                               resume_from=resume_from)
    finally:
        if journal is not None:
            journal.close()
    return _report_batch(batch, metrics_json=args.metrics_json,
                         results_json=args.results_json)


def cmd_cache(args: argparse.Namespace) -> int:
    from .runtime import ResultCache

    cache = ResultCache(args.dir)
    stats = cache.stats()
    if args.cache_command == "stats":
        rows = [["entries", stats["entries"]],
                ["bytes", stats["bytes"]],
                ["directory", args.dir]]
        print(format_table(["stat", "value"], rows,
                           title="result cache"))
        return 0
    # prune
    if args.max_bytes is None and args.max_entries is None:
        raise ReproError(
            "cache prune needs a bound: --max-bytes and/or --max-entries")
    removed = cache.prune(max_bytes=args.max_bytes,
                          max_entries=args.max_entries)
    after = cache.stats()
    print(f"pruned {removed} entr{'y' if removed == 1 else 'ies'}: "
          f"{stats['entries']} -> {after['entries']} entries, "
          f"{stats['bytes']} -> {after['bytes']} bytes")
    return 0


def _parse_floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v]


def _parse_ints(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v]


def cmd_sweep(args: argparse.Namespace) -> int:
    from .runtime import synthesize_job, write_job_file

    system, env = _load(args.design)
    env = _environment_for(args, env)
    environment = (env if env.sequences
                   or not system.datapath.input_vertices() else None)
    w_times = _parse_floats(args.w_time)
    w_areas = _parse_floats(args.w_area)
    seeds = _parse_ints(args.seeds) if args.seeds else []
    jobs = []
    for w_time in w_times:
        for w_area in w_areas:
            objective = Objective(w_time=w_time, w_area=w_area,
                                  limits=_parse_limits(args.limit) or None,
                                  environment=environment,
                                  max_steps=args.max_steps)
            point = f"{args.design}:w_time={w_time:g},w_area={w_area:g}"
            if seeds:
                jobs.extend(
                    synthesize_job(system, objective,
                                   algorithm="random+greedy", seed=seed,
                                   max_moves=args.max_moves,
                                   label=f"{point},seed={seed}")
                    for seed in seeds)
            else:
                jobs.append(synthesize_job(system, objective,
                                           algorithm="greedy",
                                           max_moves=args.max_moves,
                                           label=point))
    if args.emit_jobs:
        write_job_file(args.emit_jobs, jobs)
        print(f"{len(jobs)} job(s) written to {args.emit_jobs}")
        return 0
    from .runtime import GracefulShutdown

    journal, resume_from = _engine_journal(args)
    try:
        with _make_engine(args, journal=journal) as engine, \
                GracefulShutdown() as shutdown:
            batch = engine.run(jobs, stop_event=shutdown.stop_event,
                               resume_from=resume_from)
    finally:
        if journal is not None:
            journal.close()
    rows = []
    for result in batch:
        payload = result.payload or {}
        rows.append([
            result.spec.label,
            result.status,
            f"{payload.get('initial_objective', float('nan')):.2f}"
            if payload else "-",
            f"{payload.get('final_objective', float('nan')):.2f}"
            if payload else "-",
            len(payload.get("moves", [])) if payload else "-",
        ])
    print(format_table(
        ["sweep point", "status", "initial", "final", "moves"],
        rows, title=f"synthesis sweep over {len(batch)} point(s)"))
    print(batch.metrics.summary())
    if args.metrics_json:
        _write_json(args.metrics_json, batch.metrics.to_json(indent=2),
                    "fleet metrics")
    if batch.metrics.interrupted:
        print("sweep interrupted; resume with --journal/--resume",
              file=sys.stderr)
        return 130
    return 0 if batch.ok else 1


def _add_engine_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workers", type=int, default=0,
                        help="process-pool size (0 = serial in-process)")
    parser.add_argument("--timeout", type=float, default=None,
                        help="per-job timeout in seconds (pool backend)")
    parser.add_argument("--retries", type=int, default=1,
                        help="extra attempts after a failed/crashed job")
    parser.add_argument("--cache", metavar="DIR",
                        help="content-addressed result cache directory")
    parser.add_argument("--metrics-json", metavar="PATH",
                        help="write fleet metrics as JSON ('-' for stdout)")
    parser.add_argument("--journal", metavar="PATH",
                        help="write-ahead journal (fsynced per record) "
                             "making the run resumable after a crash")
    parser.add_argument("--resume", action="store_true",
                        help="resume from the --journal instead of "
                             "starting fresh (settled jobs are not re-run)")


def _fuzz_report_text(report) -> list[str]:
    lines = [
        f"fuzz campaign: seed={report.config.seed} "
        f"cases={report.config.cases} "
        f"oracles={','.join(report.config.oracles)}",
        f"  cases run     {report.cases_run}"
        + (" (truncated by --time-budget)" if report.truncated else ""),
        f"  divergences   {sum(report.buckets.values())} "
        f"({len(report.buckets)} bucket(s))",
        f"  explained     "
        + (", ".join(f"{k}={v}"
                     for k, v in sorted(report.explained.items()))
           or "none"),
        f"  skipped       "
        + (", ".join(f"{k}={v}" for k, v in sorted(report.skipped.items()))
           or "none"),
        f"  shrink steps  {report.shrink_steps}",
        f"  elapsed       {report.elapsed_seconds:.1f}s "
        f"({report.cases_per_second:.0f} cases/s)",
    ]
    for record in report.divergences:
        lines.append(f"  [{record['fingerprint']}] {record['oracle']}/"
                     f"{record['kind']} seed={record['seed']} "
                     f"x{report.buckets[record['fingerprint']]}: "
                     f"{record['detail']}")
    return lines


def _cmd_fuzz_replay(args: argparse.Namespace) -> int:
    import json as _json

    from .fuzz import evaluate_replay, load_corpus, replay_entry

    directory = args.replay
    entries = load_corpus(directory)
    if not entries:
        print(f"no corpus entries under {directory!r}", file=sys.stderr)
        return 0
    results = []
    failed = 0
    for entry in entries:
        ok, detail = evaluate_replay(entry, replay_entry(
            entry, max_steps=args.max_steps))
        failed += 0 if ok else 1
        results.append({"id": entry.id, "expect": entry.expect,
                        "ok": ok, "detail": detail})
    if args.format == "json":
        payload = _json.dumps({"format": 1, "corpus": directory,
                               "entries": results,
                               "failed": failed}, indent=2)
        _write_json(args.output or "-", payload, "corpus replay report")
    else:
        for result in results:
            status = "ok" if result["ok"] else "FAIL"
            print(f"[{status}] {result['id']} ({result['expect']}): "
                  f"{result['detail']}")
        print(f"replayed {len(results)} corpus entries, {failed} failed")
    return 1 if failed else 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    import json as _json

    from .fuzz import FuzzConfig, entry_from_record, run_fuzz, save_entry
    from .fuzz.oracles import ORACLES

    if args.replay is not None:
        return _cmd_fuzz_replay(args)
    oracles = tuple(name.strip() for name in args.oracles.split(",")
                    if name.strip())
    for name in oracles:
        if name not in ORACLES:
            raise DefinitionError(f"unknown oracle {name!r}; choose from "
                                  f"{', '.join(ORACLES)}")
    if args.cases < 0:
        raise DefinitionError("--cases must be >= 0")
    if args.min_places < 1 or args.max_places < args.min_places:
        raise DefinitionError("--min-places/--max-places must satisfy "
                              "1 <= min <= max")
    config = FuzzConfig(
        seed=args.seed, cases=args.cases, offset=args.offset,
        min_places=args.min_places, max_places=args.max_places,
        mutation_rate=args.mutation_rate, quirk_rate=args.quirk_rate,
        oracles=oracles, shrink=not args.no_shrink,
        max_steps=args.max_steps, max_markings=args.max_markings,
        time_budget=args.time_budget)

    if args.emit_jobs:
        from .runtime import fuzz_job, write_job_file

        if args.shards < 1:
            raise DefinitionError("--shards must be >= 1")
        shard_size = -(-args.cases // args.shards)  # ceil division
        jobs = []
        for start in range(0, args.cases, shard_size):
            jobs.append(fuzz_job(
                seed=args.seed, cases=min(shard_size, args.cases - start),
                offset=args.offset + start, min_places=args.min_places,
                max_places=args.max_places,
                mutation_rate=args.mutation_rate,
                quirk_rate=args.quirk_rate, oracles=list(oracles),
                shrink=not args.no_shrink, max_steps=args.max_steps,
                max_markings=args.max_markings))
        write_job_file(args.emit_jobs, jobs)
        print(f"{len(jobs)} fuzz job(s) written to {args.emit_jobs} "
              f"(run with: repro batch {args.emit_jobs})")
        return 0

    report = run_fuzz(config)
    pinned = []
    if args.corpus_dir and report.divergences:
        for record in report.divergences:
            entry = entry_from_record(record, expect="xfail")
            pinned.append(save_entry(args.corpus_dir, entry))
    if args.format == "json":
        payload = _json.dumps(dict(report.to_dict(), pinned=pinned),
                              indent=2)
        _write_json(args.output or "-", payload, "fuzz report")
    else:
        for line in _fuzz_report_text(report):
            print(line)
        for path in pinned:
            print(f"  pinned repro: {path}")
        print("ok" if report.ok else "DIVERGED")
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Data/control flow hardware synthesis "
                    "(Peng, ICPP 1988 reproduction)",
    )
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the built-in design zoo") \
        .set_defaults(func=cmd_list)

    p_check = sub.add_parser("check",
                             help="verify Definition 3.2 (properly designed)")
    p_check.add_argument("design")
    p_check.set_defaults(func=cmd_check)

    p_equiv = sub.add_parser(
        "equiv",
        help="check two designs for semantic equivalence (Def. 4.1)",
        description="Exit 0 when equivalent, 1 when a distinguishing "
                    "behaviour was found (printed as a replayable firing "
                    "sequence), 2 on error.")
    p_equiv.add_argument("design", help="zoo name, .json, or source file")
    p_equiv.add_argument("other", help="the candidate equivalent design")
    p_equiv.add_argument("--backend", choices=("explicit", "symbolic"),
                         default="symbolic",
                         help="verification engine (default: symbolic)")
    p_equiv.add_argument("--input", action="append", default=[],
                         metavar="NAME=V1,V2,…",
                         help="input stream (repeatable); defaults to the "
                              "left design's built-in inputs")
    p_equiv.add_argument("--max-steps", type=int, default=10_000)
    p_equiv.add_argument("--format", choices=("text", "json", "sarif"),
                         default="text")
    p_equiv.add_argument("--output", metavar="FILE",
                         help="write json/sarif output here ('-' = stdout)")
    p_equiv.set_defaults(func=cmd_equiv)

    p_lint = sub.add_parser(
        "lint", help="run the structural design-rule checker")
    p_lint.add_argument("designs", nargs="*",
                        help="zoo names / .pdl / .json files")
    p_lint.add_argument("--all", action="store_true",
                        help="lint every design in the zoo")
    p_lint.add_argument("--format", choices=("text", "json", "sarif"),
                        default="text")
    p_lint.add_argument("--fail-on", default="error",
                        choices=("info", "warning", "error", "never"),
                        help="exit nonzero when a finding at/above this "
                             "severity remains (default: error)")
    p_lint.add_argument("--rules", action="append", default=[],
                        metavar="ID[,ID…]",
                        help="run only these rule ids (repeatable)")
    p_lint.add_argument("--baseline", metavar="PATH",
                        help="suppress findings whose fingerprints are "
                             "recorded in this baseline file")
    p_lint.add_argument("--write-baseline", metavar="PATH",
                        help="record current findings as the baseline "
                             "and exit 0")
    p_lint.add_argument("--output", metavar="PATH",
                        help="write json/sarif output here instead of "
                             "stdout")
    p_lint.set_defaults(func=cmd_lint)

    p_sim = sub.add_parser("simulate", help="execute against an environment")
    p_sim.add_argument("design")
    p_sim.add_argument("--input", action="append", default=[],
                       metavar="NAME=V1,V2,…",
                       help="input stream (repeatable)")
    p_sim.add_argument("--max-steps", type=int, default=100_000)
    p_sim.add_argument("--profile", action="store_true",
                       help="print step/evaluation/phase-time metrics")
    p_sim.add_argument("--profile-json", metavar="PATH",
                       help="write the metrics as JSON ('-' for stdout)")
    p_sim.add_argument("--seed", type=int, default=None,
                       help="resolve firing choice through a seeded RNG "
                            "(reproducible nondeterminism)")
    p_sim.add_argument("--checkpoint-dir", metavar="DIR",
                       help="rotating durable checkpoint store for this "
                            "run (see --checkpoint-every / --resume)")
    p_sim.add_argument("--checkpoint-every", type=int, default=0,
                       metavar="N",
                       help="persist a checkpoint every N steps into "
                            "--checkpoint-dir")
    p_sim.add_argument("--resume", action="store_true",
                       help="resume from the newest intact checkpoint in "
                            "--checkpoint-dir")
    p_sim.add_argument("--backend", choices=("interpreter", "vector"),
                       default="interpreter",
                       help="execution backend: the two-phase interpreter "
                            "or the compiled vector backend "
                            "(byte-identical traces)")
    p_sim.set_defaults(func=cmd_simulate)

    p_faults = sub.add_parser(
        "faults", help="run a fault-injection campaign with runtime "
                       "monitors and the deviation oracle")
    p_faults.add_argument("design")
    p_faults.add_argument("--fault", action="append", default=[],
                          metavar="KIND:TARGET[:OPTS]",
                          help="inject one fault, e.g. "
                               "stuck_at:alu.o:value=undef,start=3 "
                               "(repeatable)")
    p_faults.add_argument("--faults-file", metavar="PATH",
                          help="JSON fault list "
                               "(repro.faults.save_faults)")
    p_faults.add_argument("--auto", type=int, default=0, metavar="N",
                          help="generate N structurally valid faults "
                               "from the campaign seed")
    p_faults.add_argument("--seed", type=int, default=0,
                          help="campaign seed: derives per-fault RNGs "
                               "and the firing policy (default 0)")
    p_faults.add_argument("--input", action="append", default=[],
                          metavar="NAME=V1,V2,…",
                          help="input stream (repeatable)")
    p_faults.add_argument("--max-steps", type=int, default=10_000)
    p_faults.add_argument("--format", choices=("text", "json"),
                          default="text")
    p_faults.add_argument("--output", metavar="PATH",
                          help="write the JSON report here "
                               "('-' for stdout)")
    _add_engine_options(p_faults)
    p_faults.set_defaults(func=cmd_faults)

    p_syn = sub.add_parser("synthesize", help="run the optimizer")
    p_syn.add_argument("design")
    p_syn.add_argument("--w-time", type=float, default=1.0)
    p_syn.add_argument("--w-area", type=float, default=1.0)
    p_syn.add_argument("--limit", action="append", default=[],
                       metavar="OP=N", help="resource limit (repeatable)")
    p_syn.add_argument("--input", action="append", default=[],
                       metavar="NAME=V1,V2,…",
                       help="environment for measured latency")
    p_syn.add_argument("--max-moves", type=int, default=32)
    p_syn.add_argument("--max-steps", type=int, default=100_000)
    p_syn.add_argument("--output", help="write optimized system as JSON")
    p_syn.add_argument("--portfolio", action="store_true",
                       help="multi-start portfolio search instead of one "
                            "greedy descent")
    p_syn.add_argument("--workers", type=int, default=0,
                       help="fan portfolio starts over N worker processes")
    p_syn.set_defaults(func=cmd_synthesize)

    p_dot = sub.add_parser("dot", help="emit Graphviz DOT")
    p_dot.add_argument("design")
    p_dot.add_argument("--view", choices=("datapath", "petri", "system"),
                       default="system")
    p_dot.set_defaults(func=cmd_dot)

    p_exp = sub.add_parser("export", help="emit JSON serialisation")
    p_exp.add_argument("design")
    p_exp.set_defaults(func=cmd_export)

    p_net = sub.add_parser("netlist",
                           help="emit a structural RTL-flavoured netlist")
    p_net.add_argument("design")
    p_net.set_defaults(func=cmd_netlist)

    p_cosim = sub.add_parser(
        "cosim", help="co-simulate the netlist interpretation vs the model")
    p_cosim.add_argument("design")
    p_cosim.add_argument("--input", action="append", default=[],
                         metavar="NAME=V1,V2,…")
    p_cosim.add_argument("--max-steps", type=int, default=100_000)
    p_cosim.set_defaults(func=cmd_cosim)

    p_batch = sub.add_parser(
        "batch", help="run a job file through the batch engine")
    p_batch.add_argument("jobfile", help="JSON job file "
                                         "(repro.runtime.write_job_file)")
    _add_engine_options(p_batch)
    p_batch.add_argument("--results-json", metavar="PATH",
                         help="write per-job results as JSON "
                              "('-' for stdout)")
    p_batch.set_defaults(func=cmd_batch)

    p_cache = sub.add_parser(
        "cache", help="inspect or prune a content-addressed result cache")
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)
    p_cstats = cache_sub.add_parser("stats", help="entry/byte counts")
    p_cstats.add_argument("dir", help="cache directory")
    p_cstats.set_defaults(func=cmd_cache)
    p_cprune = cache_sub.add_parser(
        "prune", help="atomically evict the oldest entries "
                      "until under the given bounds")
    p_cprune.add_argument("dir", help="cache directory")
    p_cprune.add_argument("--max-bytes", type=int, default=None, metavar="N")
    p_cprune.add_argument("--max-entries", type=int, default=None,
                          metavar="N")
    p_cprune.set_defaults(func=cmd_cache)

    p_sweep = sub.add_parser(
        "sweep", help="fan a synthesis sweep through the batch engine")
    p_sweep.add_argument("design")
    p_sweep.add_argument("--w-time", default="1.0",
                         metavar="F[,F…]", help="objective time weights")
    p_sweep.add_argument("--w-area", default="1.0",
                         metavar="F[,F…]", help="objective area weights")
    p_sweep.add_argument("--seeds", default="",
                         metavar="N[,N…]",
                         help="random-walk seeds (empty = one greedy "
                              "descent per weight point)")
    p_sweep.add_argument("--limit", action="append", default=[],
                         metavar="OP=N", help="resource limit (repeatable)")
    p_sweep.add_argument("--input", action="append", default=[],
                         metavar="NAME=V1,V2,…",
                         help="environment for measured latency")
    p_sweep.add_argument("--max-moves", type=int, default=32)
    p_sweep.add_argument("--max-steps", type=int, default=100_000)
    p_sweep.add_argument("--emit-jobs", metavar="PATH",
                         help="write the job file instead of running it")
    _add_engine_options(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_fuzz = sub.add_parser(
        "fuzz",
        help="generative fuzzing with cross-backend differential oracles")
    p_fuzz.add_argument("--seed", type=int, default=0,
                        help="campaign seed (default 0)")
    p_fuzz.add_argument("--cases", type=int, default=200,
                        help="number of cases to generate (default 200)")
    p_fuzz.add_argument("--offset", type=int, default=0,
                        help="case index offset, for sharded campaigns")
    p_fuzz.add_argument("--min-places", type=int, default=4)
    p_fuzz.add_argument("--max-places", type=int, default=24,
                        help="net size range per case (default 4..24)")
    p_fuzz.add_argument("--mutation-rate", type=float, default=0.25,
                        help="fraction of cases that break a Def. 3.2 "
                             "clause (default 0.25)")
    p_fuzz.add_argument("--quirk-rate", type=float, default=0.06,
                        help="fraction of degenerate-shape cases "
                             "(default 0.06)")
    p_fuzz.add_argument("--oracles", default=",".join(
        ("trace", "analysis", "monitor")),
        help="comma-separated oracle subset (default all three)")
    p_fuzz.add_argument("--max-steps", type=int, default=256,
                        help="simulation step cap per case (default 256)")
    p_fuzz.add_argument("--max-markings", type=int, default=4096,
                        help="reachability budget per case (default 4096)")
    p_fuzz.add_argument("--no-shrink", action="store_true",
                        help="skip delta-debugging of divergences")
    p_fuzz.add_argument("--time-budget", type=float, default=None,
                        metavar="SECONDS",
                        help="stop early after this many seconds")
    p_fuzz.add_argument("--corpus-dir", metavar="DIR",
                        help="pin shrunk divergences as corpus files here")
    p_fuzz.add_argument("--replay", nargs="?", const=_DEFAULT_CORPUS_DIR,
                        metavar="DIR",
                        help="replay the pinned corpus instead of fuzzing "
                             f"(default dir: {_DEFAULT_CORPUS_DIR})")
    p_fuzz.add_argument("--emit-jobs", metavar="PATH",
                        help="write fuzz job specs instead of running")
    p_fuzz.add_argument("--shards", type=int, default=1,
                        help="split --emit-jobs into N sharded jobs")
    p_fuzz.add_argument("--format", choices=("text", "json"),
                        default="text")
    p_fuzz.add_argument("--output", metavar="PATH",
                        help="write the JSON report here instead of stdout")
    p_fuzz.set_defaults(func=cmd_fuzz)

    return parser


#: Most specific classes first — the first match labels the message.
_ERROR_LABELS: tuple[tuple[type, str], ...] = (
    (ValidationError, "validation error"),
    (RuntimeFaultError, "runtime fault"),
    (ExecutionError, "execution error"),
    (TransformError, "transform error"),
    (ParseError, "parse error"),
    (DefinitionError, "definition error"),
    (ReproError, "error"),
)


def _error_label(error: ReproError) -> str:
    for kind, label in _ERROR_LABELS:
        if isinstance(error, kind):
            return label
    return "error"  # pragma: no cover - table covers the hierarchy


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        print(f"{_error_label(error)}: {error}", file=sys.stderr)
        return 2
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # e.g. `repro list | head`
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0
    except KeyboardInterrupt:
        # journals/caches flush per record, so partial state is on disk
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
