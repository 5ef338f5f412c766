"""The execution engine — Definition 3.1 made operational.

One simulation **step** is a two-phase affair:

1. **Combinational phase.**  The marking determines the set of *open*
   arcs (``C(S)`` for every marked ``S``).  Values propagate from
   state-holding ports (registers, environment pads) through the open
   arcs and combinational vertices to a fixpoint.  Because properly
   designed systems have no combinational loop inside a control state
   (Definition 3.2(4)), the fixpoint is a single topological pass.

2. **Control phase.**  Guards are evaluated on the fixpoint
   (Definition 3.1(4), OR over multiple guard ports); the firing policy
   picks a conflict-free step of fireable transitions; the step fires
   (Definition 3.1(5)).  Every place losing its token *completes an
   activation*: the sequential vertices it drives **latch** the value
   present at their input port ("the last defined value of the
   expression", Definition 3.1(9)), and the external arcs it controls
   emit **external events** stamped with the activation interval
   (Definition 3.4: the event happens while the state holds its token).

Undefined values (Definition 3.1(10)) arise when an input port has no
active arc, or combinationally from an undefined input.  A register whose
input is undefined at latch time *keeps its previous value* — the "last
defined value" reading.

Execution terminates when no tokens remain (Definition 3.1(6)); a
quiescent marking with tokens remaining is reported as a deadlock.
Activations still open at quiescence are flushed so their events are
observed (a terminal output state's event must not be lost).

One evaluator
-------------

A COM vertex that no open arc targets reads UNDEF on every input
(Definition 3.1(10)); operations are pure, so it outputs the same
*undriven value* at every step — UNDEF for a strict operation, ``k``
for ``const[k]``.  The engine computes those values once, in
``__post_init__``
(:func:`~repro.datapath.validate.undriven_values`).  Everything else
about the combinational pass except the values — which COM vertices are
*live* (targets of an open arc, plus any whose undriven evaluation
raises), their topological order, which source drives each input port,
and the drive conflicts — is a pure function of the open-arc set.  The
engine therefore memoises a *plan* per open-arc set (and the open-arc
set per marked-place set).  Each step starts from the sequential state
and the undriven values and recomputes the live ports in the plan's
order, so a step costs the cone the open arcs drive, not the whole data
path.  The plan is keyed by the open-arc set the step actually uses,
after any arc glitch a hook injected, so perturbed steps stay exact.
Every trace carries a :class:`~repro.semantics.profile.SimMetrics`
record of what the run cost.

One activation table per control state
--------------------------------------

Which registers latch when a control state ``S`` loses its token
(Definition 3.1(9)), which external arcs then emit events (Definition
3.4) and which input pads are drawn when it gains one are fixed by
``C(S)``: both engines read them from one :class:`ActivationTable` per
state, built on its first activation, instead of walking the data path
on every token move.  Values, and which source drives a latch input,
stay per step.  Each guard is evaluated once per step.

Hooks
-----

Fault injectors and runtime monitors (:mod:`repro.faults`) attach to the
simulator through :class:`SimHook` — four optional methods called at
fixed points of the step loop (``pre_step``, ``post_evaluate``,
``resolve_value``, ``post_token_game``).  Hook dispatch is bound in
``__post_init__`` per *overridden* method, so a simulator constructed
without hooks pays one falsy check per call site and nothing else.  A
hook that rewrites combinational port values sets ``perturbs_values``;
only then does the pass call the port taps: the state and undriven
ports first, then each live port in evaluation order.

Checkpoints
-----------

:meth:`Simulator.checkpoint` captures the complete mutable run state —
``(step, marking, sequential state, open activations, event indices,
environment cursors)`` — and :meth:`Simulator.run` accepts
``from_checkpoint=`` to resume from such a snapshot: the continuation
trace extends the original run exactly (same events, same latches, same
final state) as if it had never been interrupted.  Snapshots also
capture a seeded firing policy's RNG stream position, so resumed
nondeterminism replays deterministically.  Checkpoints live in memory
and only on this interpreter: fault campaigns fork every faulty run from
a golden-run checkpoint (:mod:`repro.faults.campaign`).  On
``backend="vector"`` both calls raise
:class:`~repro.errors.DefinitionError`.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass, field
from time import perf_counter
from typing import Callable, Mapping, Sequence

from ..core.events import ExternalEvent
from ..core.system import DataControlSystem
from ..datapath.operations import OpKind, Operation
from ..datapath.ports import PortId
from ..datapath.validate import (com_order, com_vertices, drive_sources,
                                 live_com, undriven_values)
from ..errors import DefinitionError, ExecutionError, RuntimeFaultError, ValidationError
from ..petri.execution import fire_step
from ..petri.marking import Marking
from .environment import Environment
from .policies import FiringPolicy, MaximalStepPolicy
from .profile import SimMetrics
from .trace import ConflictRecord, LatchRecord, Trace
from .values import UNDEF, Value, truthy

_VECTOR_CHECKPOINT_ERROR = (
    "the vector backend does not support checkpoint/resume; use "
    "backend='interpreter' for checkpointed runs")


@dataclass(frozen=True)
class StepPerturbation:
    """What a ``pre_step`` hook asks the simulator to change this step.

    ``marking`` (when not None) replaces the current marking — token
    loss, duplication and misrouting faults are expressed this way; the
    simulator reconciles open activations afterwards (an activation
    whose token vanished is dropped, events unemitted — that *is* the
    fault's observable damage — and a place gaining a token out of thin
    air opens a fresh activation).  ``open_arcs`` / ``close_arcs`` are
    applied to the open-arc set *after* the marking determines it — arc
    glitches; the step's combinational plan is looked up for the
    resulting open-arc set.
    """

    marking: Marking | None = None
    open_arcs: frozenset = frozenset()
    close_arcs: frozenset = frozenset()


class SimHook:
    """Base class for simulator instrumentation (faults and monitors).

    Subclasses override any of the four methods; the simulator binds
    only overridden methods, so an unused method costs nothing.  Hooks
    run in the order given to the :class:`Simulator`; each ``pre_step``
    hook sees the marking as perturbed by the hooks before it.

    Set :attr:`perturbs_values` to True when ``resolve_value`` rewrites
    combinational **port** values (e.g. stuck-at faults): only then are
    the port taps called.  Guard-only rewrites (``kind == "guard"``) do
    not need it.
    """

    #: True when this hook rewrites combinational port values (the
    #: simulator then calls ``resolve_value`` with ``kind="port"``).
    perturbs_values: bool = False

    def pre_step(self, sim: "Simulator", step: int,
                 marking: Marking) -> StepPerturbation | None:
        """Called before each step's combinational phase (may perturb)."""
        return None

    def post_evaluate(self, sim: "Simulator", step: int,
                      active: frozenset, out_values: dict) -> None:
        """Called after the combinational fixpoint of each step."""

    def resolve_value(self, sim: "Simulator", step: int, kind: str,
                      target, value: Value) -> Value:
        """Value tap: ``kind`` is ``"port"`` (target: :class:`PortId`,
        needs :attr:`perturbs_values`) or ``"guard"`` (target: the
        transition name, value: the evaluated guard boolean).  A guard
        is tapped once per transition per step, when the step first
        reads it; the policy and the firing reuse the tapped value."""
        return value

    def post_token_game(self, sim: "Simulator", step: int, marking: Marking,
                        chosen: list) -> None:
        """Called after the policy chose the step to fire (before firing).

        An empty ``chosen`` with a non-empty marking is the deadlock
        about to be reported — the last call of the run."""


@dataclass(frozen=True)
class Checkpoint:
    """Complete mutable state of a simulation run at one step boundary.

    Captured by :meth:`Simulator.checkpoint`, consumed by
    :meth:`Simulator.run(from_checkpoint=...) <Simulator.run>`.  The
    snapshot is self-contained: sequential state, open activations (with
    their identities and start steps, so resumed events carry the same
    activation labels), per-arc event indices, the environment's
    consumption cursors, and — when the firing policy draws from a
    seeded RNG (:class:`~repro.semantics.policies.SeededMaximalPolicy`)
    — the RNG's exact stream position, so a resumed run makes the same
    conflict-resolution choices the uninterrupted run would have made.
    """

    step: int
    marking: Marking
    state: Mapping[PortId, Value]
    activations: tuple[tuple[str, int, int], ...]  # (place, ident, start)
    activation_counter: int
    event_index: Mapping[str, int]
    env_cursors: Mapping[str, int]
    rng_state: tuple | None = None  # policy RNG state (random.Random)


@dataclass
class _Activation:
    """A token-holding interval of one control state."""

    ident: int
    place: str
    start: int


@dataclass(frozen=True)
class _Plan:
    """What an open-arc set fixes about the combinational pass.

    ``live`` names the COM vertices the pass evaluates: the targets of
    an open arc plus the ones whose undriven evaluation raises
    (:func:`~repro.datapath.validate.live_com`).  Every other COM port
    holds its undriven value.  ``steps`` holds the live vertices in
    topological order, each as ``(sources, outputs)``: the one source
    port driving each input port (``None`` when the port is undriven or
    conflicted) and the ``(port, evaluate)`` pair of each output.
    ``source_of`` maps every input port an open arc targets to its
    source the same way; latches read through it.  ``conflicts`` are
    the drive-conflict entries, ``ports`` counts the output ports of
    ``steps``, and ``loop`` holds the error when the open arcs close a
    combinational loop.
    """

    live: frozenset[str]
    steps: tuple[tuple[tuple[PortId | None, ...],
                       tuple[tuple[PortId, Callable[..., Value]], ...]], ...]
    source_of: Mapping[PortId, PortId | None]
    conflicts: tuple[tuple[PortId, str], ...]
    ports: int
    loop: ValidationError | None


#: Latch modes of an activation table entry (Definition 3.1(9)).
LATCH_OUT = 0     # OUTPUT record: takes the incoming value, UNDEF included
LATCH_PLAIN = 1   # plain register: keeps its value when the input is UNDEF
LATCH_FUNC = 2    # stateful function (e.g. accumulator): op.evaluate(old, in)


@dataclass(frozen=True)
class ActivationTable:
    """What ``C(S)`` fixes about every activation of a control state.

    ``events``: ``(arc, source port)`` per external arc, sorted by arc.
    ``latches``: ``(input port, state port, LATCH_* mode, op)`` per
    latching port of an arc's sequential target, by arc then out-port.
    ``draws``: ``(input vertex, pad port)`` per pad an arc reads, sorted.
    """

    events: tuple[tuple[str, PortId], ...]
    latches: tuple[tuple[PortId, PortId, int, Operation], ...]
    draws: tuple[tuple[str, PortId], ...]


def activation_table(system: DataControlSystem, place: str) -> ActivationTable:
    """Lower one control state to its :class:`ActivationTable`."""
    dp = system.datapath
    events, latches, draws = [], [], set()
    for arc_name in sorted(system.control_arcs(place)):
        arc = dp.arc(arc_name)
        source = dp.vertex(arc.source.vertex)
        target = dp.vertex(arc.target.vertex)
        if source.is_external or target.is_external:  # A_e (Def. 3.3)
            events.append((arc_name, arc.source))
        if source.is_input_vertex:
            draws.add((source.name, PortId(source.name, source.out_ports[0])))
        for port_name in target.out_ports:
            op = target.operation(port_name)
            if op.kind in (OpKind.SEQ, OpKind.OUTPUT):
                mode = (LATCH_OUT if op.kind is OpKind.OUTPUT else
                        LATCH_PLAIN if op.func is None else LATCH_FUNC)
                latches.append((arc.target, PortId(target.name, port_name),
                                mode, op))
    return ActivationTable(tuple(events), tuple(latches),
                           tuple(sorted(draws)))


class ActivationTables(dict):
    """``place -> ActivationTable`` of one system, each table built on
    its first lookup (a run pays only for the states it activates)."""

    def __init__(self, system: DataControlSystem) -> None:
        super().__init__()
        self.system = system

    def __missing__(self, place: str) -> ActivationTable:
        table = self[place] = activation_table(self.system, place)
        return table


@dataclass
class Simulator:
    """Single-run executor for a :class:`DataControlSystem`.

    Parameters
    ----------
    system:
        The data/control flow system Γ.  Not mutated.
    environment:
        Value sequences for the input vertices; forked by the caller when
        the same environment is reused across runs.
    policy:
        The firing policy (default: maximal step — synchronous hardware).
    strict:
        When True (default), runtime faults — bus-drive conflicts and
        double latches — raise :class:`~repro.errors.ExecutionError`.
        When False they are recorded in the trace and the affected value
        becomes UNDEF, which lets the analysis tooling *observe* improper
        designs instead of dying on them.
    hooks:
        Instrumentation attached to this run (see :class:`SimHook`).
        Empty by default; with no hooks the step loop is unchanged.
        ``hooks`` and ``backend`` are keyword-only.
    backend:
        ``"interpreter"`` (default) runs the step loop here;
        ``"vector"`` compiles the system once and delegates to
        :class:`repro.semantics.vector.VectorSimulator` (single-lane
        batch, scalar engine) — byte-identical traces, a median 4.9x
        faster per run on E13b's counter loop (6,003 steps,
        ``benchmarks/bench_e13_vector.py``, 2-vCPU host).  The vector
        backend supports no hooks, no checkpoints, and only the
        maximal-step, sequential, and seeded-maximal policies.
    """

    system: DataControlSystem
    environment: Environment = field(default_factory=Environment)
    policy: FiringPolicy = field(default_factory=MaximalStepPolicy)
    strict: bool = True
    _: KW_ONLY
    hooks: Sequence[SimHook] = ()
    backend: str = "interpreter"

    #: Soft bound on each memo table (markings are typically few; this
    #: only guards against pathological unbounded-marking nets).
    _CACHE_LIMIT = 1 << 16

    def __post_init__(self) -> None:
        if self.backend not in ("interpreter", "vector"):
            raise ValueError(
                f"unknown backend {self.backend!r}; choose 'interpreter' "
                "or 'vector'")
        self._vector_sim = None  # lazy per-Simulator compiled backend
        self._dp = self.system.datapath
        self._net = self.system.net
        self._com = com_vertices(self._dp)
        # what each COM port outputs while no open arc drives its vertex
        self._undriven, self._always = undriven_values(self._dp, self._com)
        # initial sequential state: SEQ ports from vertex init; INPUT 'out'
        # ports and OUTPUT 'snk' record ports start undefined
        self._state: dict[PortId, Value] = {}
        for vertex in self._dp.vertices.values():
            for port in vertex.out_ports:
                op = vertex.operation(port)
                if op.kind in (OpKind.SEQ, OpKind.INPUT, OpKind.OUTPUT):
                    self._state[PortId(vertex.name, port)] = vertex.initial_value(port)
        self._event_index: dict[str, int] = {}
        self._activation_counter = 0
        # guard-port dependencies are marking-independent: freeze them once
        self._guard_ports = {t: self.system.guard_ports(t)
                             for t in self._net.transitions}
        # memo tables: activation table per control state; open arcs and
        # contested places per marked-place set; plan per open-arc set
        self._tables = ActivationTables(self.system)
        self._arcs_cache: dict[frozenset[str],
                               tuple[frozenset[str], tuple[str, ...]]] = {}
        self._plans: dict[frozenset[str], _Plan] = {}
        # hook dispatch: bind only *overridden* methods so an absent hook
        # costs one falsy check per call site and nothing else
        self._pre_hooks = []
        self._eval_hooks = []
        self._value_hooks = []
        self._game_hooks = []
        perturbs_values = False
        for hook in self.hooks:
            if not isinstance(hook, SimHook):
                raise DefinitionError(
                    f"hook {hook!r} does not subclass SimHook")
            cls = type(hook)
            if cls.pre_step is not SimHook.pre_step:
                self._pre_hooks.append(hook.pre_step)
            if cls.post_evaluate is not SimHook.post_evaluate:
                self._eval_hooks.append(hook.post_evaluate)
            if cls.resolve_value is not SimHook.resolve_value:
                self._value_hooks.append(hook.resolve_value)
            if cls.post_token_game is not SimHook.post_token_game:
                self._game_hooks.append(hook.post_token_game)
            if getattr(hook, "perturbs_values", False):
                perturbs_values = True
        self._port_taps = perturbs_values and bool(self._value_hooks)
        # run-local state mirrored onto the instance so hooks and
        # checkpoint() can observe it mid-run
        self._current_step = 0
        self._current_marking = self._net.initial_marking()
        self._current_activations: dict[str, _Activation] = {}
        self._arc_overrides: tuple[frozenset[str], frozenset[str]] | None = None
        self.current_trace: Trace | None = None

    # ------------------------------------------------------------------
    # combinational phase
    # ------------------------------------------------------------------
    def _active_arcs(self, marked: frozenset[str]
                     ) -> tuple[frozenset[str], tuple[str, ...]]:
        """Open arcs (``C(S)`` for every marked ``S``) and the marked
        places two or more transitions consume from, sorted, memoized."""
        cached = self._arcs_cache.get(marked)
        if cached is not None:
            return cached
        active: set[str] = set()
        for place in marked:
            active.update(self.system.control_arcs(place))
        consumers = self._net.token_index().consumers
        result = (frozenset(active),
                  tuple(sorted(p for p in marked
                               if len(consumers.get(p, ())) >= 2)))
        if len(self._arcs_cache) < self._CACHE_LIMIT:
            self._arcs_cache[marked] = result
        return result

    def _plan(self, active: frozenset[str]) -> _Plan:
        """The combinational plan of an open-arc set, memoized."""
        plan = self._plans.get(active)
        if plan is None:
            plan = self._build_plan(active)
            if len(self._plans) < self._CACHE_LIMIT:
                self._plans[active] = plan
        return plan

    def _build_plan(self, active: frozenset[str]) -> _Plan:
        """Derive the plan: input sources, drive conflicts, and the
        topological order of the COM vertices the open arcs drive."""
        dp = self._dp
        sources, conflicts = drive_sources(dp, active)
        source_of = {port: next(iter(srcs)) if len(srcs) == 1 else None
                     for port, srcs in sources.items()}
        live = live_com(self._com, self._always, sources)
        try:
            order = com_order(dp, live, active)
        except ValidationError as error:
            # only an injected arc glitch can close a loop at runtime:
            # statically looping systems fail validation long before
            return _Plan(live, (), source_of, conflicts, 0, error)
        steps = []
        for name in order:
            vertex = dp.vertex(name)
            steps.append((
                tuple(source_of.get(port) for port in vertex.input_ids()),
                tuple((PortId(name, port), vertex.operation(port).evaluate)
                      for port in vertex.out_ports)))
        return _Plan(live, tuple(steps), source_of, conflicts,
                     sum(len(outputs) for _sources, outputs in steps), None)

    def _drive_conflicts(self, plan: _Plan, step: int, trace: Trace) -> None:
        """Record this step's drive conflicts (strict mode raises)."""
        for _port, detail in plan.conflicts:
            record = ConflictRecord(step, "drive", detail)
            trace.conflicts.append(record)
            if self.strict:
                raise ExecutionError(record.detail)

    def _evaluate(self, plan: _Plan) -> dict[PortId, Value]:
        """Compute the combinational fixpoint: one pass in plan order.

        Returns the value present at every output port.  The pass starts
        from the sequential state and every COM port's undriven value,
        then recomputes the plan's live ports in topological order: a
        COM vertex no open arc drives reads UNDEF on every input, so its
        undriven value is what a full pass would compute for it.
        """
        if plan.loop is not None:
            raise RuntimeFaultError(
                f"combinational loop closed at step {self._current_step}: "
                f"{plan.loop}",
                step=self._current_step, kind="comb_loop") from plan.loop
        values: dict[PortId, Value] = dict(self._state)
        values.update(self._undriven)
        taps = self._port_taps
        if taps:
            # value-perturbing hooks tap every port value: the state and
            # undriven ports here, each live port as it is computed
            live = plan.live
            for port in list(values):
                if port.vertex not in live:
                    values[port] = self._tap_port(port, values[port])
        get = values.get
        for sources, outputs in plan.steps:
            # an undriven or conflicted input has source None, which is
            # never a key: it reads UNDEF (Definition 3.1(10))
            args = [get(source, UNDEF) for source in sources]
            for port, evaluate in outputs:
                value = evaluate(*args)
                if taps:
                    value = self._tap_port(port, value)
                values[port] = value
        self._port_evals += plan.ports
        return values

    def _tap_port(self, port: PortId, value: Value) -> Value:
        """Apply every value hook's port tap, in hook order."""
        for resolve in self._value_hooks:
            value = resolve(self, self._current_step, "port", port, value)
        return value

    # ------------------------------------------------------------------
    # control phase helpers
    # ------------------------------------------------------------------
    def _guard_eval(self, out_values: dict[PortId, Value]):
        """This step's guard evaluator (Definition 3.1(4)): each
        transition's guard is evaluated, and tapped, once per step."""
        guard_ports = self._guard_ports
        value_hooks = self._value_hooks
        memo: dict[str, bool] = {}

        def evaluate(transition: str) -> bool:
            value = memo.get(transition)
            if value is not None:
                return value
            ports = guard_ports[transition]
            value = (True if not ports
                     else any(truthy(out_values.get(p, UNDEF)) for p in ports))
            for resolve in value_hooks:
                value = bool(resolve(self, self._current_step, "guard",
                                     transition, value))
            memo[transition] = value
            return value
        return evaluate

    def _choice_conflicts(self, marking: Marking, contested: tuple[str, ...],
                          guard_eval, step: int,
                          trace: Trace) -> list[ConflictRecord]:
        """Dynamic Definition 3.2(3) check: competing fireable transitions.

        Visits the ``contested`` places (see :meth:`_active_arcs`): sorted,
        so the record order does not vary across runs.  Records and
        returns this step's choice conflicts.
        """
        index = self._net.token_index()
        consumers, presets = index.consumers, index.presets
        records = []
        for place in contested:
            if marking[place] >= 2:
                continue
            fireable = [
                t for t in consumers[place]
                if marking.covers(presets[t]) and guard_eval(t)
            ]
            if len(fireable) > 1:
                records.append(ConflictRecord(
                    step, "choice",
                    f"transitions {sorted(fireable)} compete for the token "
                    f"in place {place!r}",
                ))
        trace.conflicts.extend(records)
        return records

    def _start_activations(self, places: list[str], step: int,
                           activations: dict[str, _Activation]) -> None:
        """Open activations and draw environment values for input reads."""
        tables = self._tables
        draws: list[tuple[str, PortId]] = []
        for place in places:
            self._activation_counter += 1
            activations[place] = _Activation(self._activation_counter, place, step)
            draws.extend(tables[place].draws)
        if len(places) > 1:
            draws = sorted(set(draws))
        for vertex, port in draws:
            self._state[port] = self.environment.draw(vertex)

    def _complete_activation(self, place: str, step: int,
                             activation: _Activation,
                             out_values: dict[PortId, Value],
                             source_of: Mapping[PortId, PortId | None],
                             latch_plan: dict[PortId, tuple[Value, str]] | None,
                             trace: Trace) -> None:
        """Emit events and plan latches for a departing control state.

        Latch inputs read through the step plan's ``source_of``.
        ``latch_plan=None`` emits events only — used when flushing the
        activations still open at quiescence, whose tokens never depart
        and whose registers therefore never commit.
        """
        table = self._tables[place]
        get = out_values.get
        # external events (Definition 3.4)
        event_index = self._event_index
        for arc_name, source in table.events:
            index = event_index.get(arc_name, 0)
            event_index[arc_name] = index + 1
            trace.events.append(ExternalEvent(
                arc=arc_name, value=get(source, UNDEF), index=index,
                state=place, activation=activation.ident,
                start=activation.start, end=step,
            ))
        # latch plan (Definition 3.1(9))
        if latch_plan is None:
            return
        state = self._state
        for target, port, mode, op in table.latches:
            incoming = get(source_of.get(target), UNDEF)
            old = state.get(port, UNDEF)
            if mode == LATCH_OUT:
                new = incoming
            elif mode == LATCH_PLAIN:
                new = incoming if incoming is not UNDEF else old
            else:
                computed = op.evaluate(old, incoming)
                new = computed if computed is not UNDEF else old
            planned = latch_plan.get(port)
            if planned is not None and planned[0] != new:
                record = ConflictRecord(
                    step, "latch",
                    f"port {port} latched by {planned[1]!r} and "
                    f"{place!r} in the same step",
                )
                trace.conflicts.append(record)
                if self.strict:
                    raise ExecutionError(record.detail)
            latch_plan[port] = (new, place)
            trace.latches.append(LatchRecord(step, port, old, new, place))

    # ------------------------------------------------------------------
    # hook and checkpoint plumbing
    # ------------------------------------------------------------------
    def state_value(self, port: PortId) -> Value:
        """Current sequential-state value of a port (UNDEF if stateless)."""
        return self._state.get(port, UNDEF)

    def poke_state(self, port: PortId, value: Value) -> None:
        """Overwrite one sequential state value (SEU-style perturbation).

        Only ports that carry state (SEQ registers, input pads, output
        records) may be poked; the next combinational pass reads the new
        value.
        """
        if port not in self._state:
            raise DefinitionError(
                f"port {port} holds no sequential state; only SEQ/INPUT/"
                f"OUTPUT ports can be poked")
        self._state[port] = value

    def _apply_pre_hooks(self, step: int, marking: Marking,
                         activations: dict[str, _Activation]) -> Marking:
        """Run every pre-step hook; apply marking/arc perturbations."""
        opens: set[str] = set()
        closes: set[str] = set()
        for hook in self._pre_hooks:
            perturbation = hook(self, step, marking)
            if perturbation is None:
                continue
            if (perturbation.marking is not None
                    and perturbation.marking != marking):
                marking = perturbation.marking
                self._reconcile_activations(marking, step, activations)
                self._current_marking = marking
            opens |= perturbation.open_arcs
            closes |= perturbation.close_arcs
        self._arc_overrides = ((frozenset(opens), frozenset(closes))
                               if opens or closes else None)
        return marking

    def _reconcile_activations(self, marking: Marking, step: int,
                               activations: dict[str, _Activation]) -> None:
        """Re-align open activations after a marking perturbation.

        A place that lost its token has its activation dropped *without*
        completing it — the events and latches it would have produced are
        lost, which is exactly the injected fault's damage.  A place that
        gained a token out of thin air opens a fresh activation (drawing
        environment values for any input reads it controls).
        """
        for place in list(activations):
            if marking[place] <= 0:
                del activations[place]
        added = sorted(place for place in marking.marked_places()
                       if place not in activations)
        if added:
            self._start_activations(added, step, activations)

    def _run_vector(self, max_steps: int, on_limit: str,
                    from_checkpoint: Checkpoint | None) -> Trace:
        """Delegate this run to the compiled vector backend (one lane)."""
        if self.hooks:
            raise DefinitionError(
                "the vector backend does not support simulator hooks; "
                "use backend='interpreter' for hook-instrumented runs")
        if from_checkpoint is not None:
            raise DefinitionError(_VECTOR_CHECKPOINT_ERROR)
        from .vector import Lane, VectorSimulator
        if self._vector_sim is None:
            self._vector_sim = VectorSimulator(self.system,
                                               strict=self.strict,
                                               mode="scalar")
        result = self._vector_sim.run(
            [Lane(self.environment, self.policy)], max_steps=max_steps,
            on_limit=on_limit)
        return result.trace(0)

    def checkpoint(self) -> Checkpoint:
        """Snapshot the complete mutable run state (see :class:`Checkpoint`).

        Valid at any step boundary: from inside a ``pre_step`` hook
        (capturing the state the step will start from) or after
        :meth:`run` returned with ``on_limit="return"`` (capturing the
        state the next run would continue from).
        """
        if self.backend == "vector":
            raise DefinitionError(_VECTOR_CHECKPOINT_ERROR)
        rng = getattr(self.policy, "_rng", None)
        return Checkpoint(
            step=self._current_step,
            marking=self._current_marking,
            state=dict(self._state),
            activations=tuple(sorted(
                (a.place, a.ident, a.start)
                for a in self._current_activations.values())),
            activation_counter=self._activation_counter,
            event_index=dict(self._event_index),
            env_cursors=self.environment.cursors(),
            rng_state=rng.getstate() if rng is not None else None,
        )

    def _restore(self, checkpoint: Checkpoint
                 ) -> tuple[Marking, dict[str, _Activation], int]:
        """Load a checkpoint into this simulator's mutable state."""
        self._state = dict(checkpoint.state)
        self._event_index = dict(checkpoint.event_index)
        self._activation_counter = checkpoint.activation_counter
        self.environment.restore_cursors(checkpoint.env_cursors)
        if checkpoint.rng_state is not None:
            rng = getattr(self.policy, "_rng", None)
            if rng is not None:
                rng.setstate(checkpoint.rng_state)
        activations = {
            place: _Activation(ident, place, start)
            for place, ident, start in checkpoint.activations
        }
        return checkpoint.marking, activations, checkpoint.step

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self, *, max_steps: int = 10_000, on_limit: str = "raise",
            from_checkpoint: Checkpoint | None = None) -> Trace:
        """Execute until termination, deadlock, or the step budget.

        ``on_limit`` — ``"raise"`` (default) raises
        :class:`~repro.errors.ExecutionError` when ``max_steps`` is
        reached; ``"return"`` returns the partial trace instead (with
        neither ``terminated`` nor ``deadlocked`` set).  Both arguments
        are validated eagerly — an unknown ``on_limit`` or a
        non-positive ``max_steps`` raises :class:`ValueError` before any
        stepping happens.  The returned trace carries a fresh
        :class:`~repro.semantics.profile.SimMetrics` for this run.

        ``from_checkpoint`` resumes a run from a
        :meth:`checkpoint` snapshot instead of the initial marking; the
        step counter continues from the snapshot (``max_steps`` stays an
        *absolute* budget), and the continuation trace extends the
        original run exactly.
        """
        if on_limit not in ("raise", "return"):
            raise ValueError(
                f"unknown on_limit {on_limit!r}; choose 'raise' or 'return'")
        if max_steps <= 0:
            raise ValueError(
                f"max_steps must be a positive step budget, got {max_steps}")
        if self.backend == "vector":
            return self._run_vector(max_steps, on_limit, from_checkpoint)
        self._port_evals = 0
        wall_start = perf_counter()
        comb_seconds = 0.0
        ctrl_seconds = 0.0
        peak_marked = 0

        trace = Trace()
        if from_checkpoint is not None:
            marking, activations, step = self._restore(from_checkpoint)
        else:
            marking = self._net.initial_marking()
            activations = {}
            self._start_activations(sorted(marking.marked_places()), 0,
                                    activations)
            step = 0
        self.current_trace = trace
        self._current_activations = activations

        while step < max_steps:
            self._current_step = step
            self._current_marking = marking
            if self._pre_hooks:
                marking = self._apply_pre_hooks(step, marking, activations)
            if marking.is_empty():
                trace.terminated = True
                break
            marked = marking.marked_places()
            if len(marked) > peak_marked:
                peak_marked = len(marked)
            phase_start = perf_counter()
            active, contested = self._active_arcs(marked)
            if self._arc_overrides is not None:
                opens, closes = self._arc_overrides
                active = frozenset((active | opens) - closes)
            plan = self._plan(active)
            self._drive_conflicts(plan, step, trace)
            out_values = self._evaluate(plan)
            if self._eval_hooks:
                for observe in self._eval_hooks:
                    observe(self, step, active, out_values)
            comb_seconds += perf_counter() - phase_start
            phase_start = perf_counter()

            guard_eval = self._guard_eval(out_values)
            choices = self._choice_conflicts(marking, contested, guard_eval,
                                             step, trace)
            if self.strict and choices:
                raise ExecutionError(choices[0].detail)

            chosen = self.policy.choose(self._net, marking, guard_eval)
            if self._game_hooks:
                for observe in self._game_hooks:
                    observe(self, step, marking, chosen)
            if not chosen:
                # quiescent with tokens: deadlock; flush open activations
                for place in sorted(marking.marked_places()):
                    activation = activations.pop(place, None)
                    if activation is not None:
                        self._complete_activation(
                            place, step, activation, out_values,
                            plan.source_of, None, trace,
                        )
                trace.deadlocked = True
                ctrl_seconds += perf_counter() - phase_start
                break

            presets = self._net.token_index().presets
            consumed: list[str] = []
            for transition in chosen:
                preset = presets.get(transition)
                # a name outside the net raises in PetriNet.preset
                consumed.extend(preset if preset is not None
                                else self._net.preset(transition))
            latch_plan: dict[PortId, tuple[Value, str]] = {}
            for place in sorted(set(consumed)):
                activation = activations.pop(place, None)
                if activation is None:  # pragma: no cover - defensive
                    raise ExecutionError(
                        f"token leaves place {place!r} with no activation open"
                    )
                self._complete_activation(place, step, activation, out_values,
                                          plan.source_of, latch_plan, trace)
            for port, (value, _state) in latch_plan.items():
                self._state[port] = value

            marking = fire_step(self._net, marking, chosen, guard_eval)
            trace.steps.append(list(chosen))
            produced = sorted(
                p for p in marking.marked_places() if p not in activations
            )
            self._start_activations(produced, step + 1, activations)
            ctrl_seconds += perf_counter() - phase_start
            step += 1
        else:
            if on_limit == "raise":
                raise ExecutionError(
                    f"simulation did not finish within {max_steps} steps"
                )

        self._current_step = step
        self._current_marking = marking
        trace.step_count = step
        trace.final_marking = marking
        trace.final_state = dict(self._state)
        trace.metrics = SimMetrics(
            steps=step,
            firings=trace.num_firings,
            port_evaluations=self._port_evals,
            peak_marked_places=peak_marked,
            combinational_seconds=comb_seconds,
            control_seconds=ctrl_seconds,
            wall_seconds=perf_counter() - wall_start,
        )
        return trace


def simulate(system: DataControlSystem,
             environment: Environment | None = None, *,
             policy: FiringPolicy | None = None,
             max_steps: int = 10_000,
             strict: bool = True,
             on_limit: str = "raise",
             hooks: Sequence[SimHook] = (),
             backend: str = "interpreter") -> Trace:
    """One-shot convenience wrapper around :class:`Simulator`."""
    return Simulator(
        system,
        environment if environment is not None else Environment(),
        policy if policy is not None else MaximalStepPolicy(),
        strict,
        hooks=hooks,
        backend=backend,
    ).run(max_steps=max_steps, on_limit=on_limit)
