"""Vectorised batch simulation: compile once, step many runs at once.

The interpreter in :mod:`repro.semantics.simulator` walks the
``DataControlSystem`` object graph on every step — dict lookups for
arcs, ports, operations, activations.  This module makes the
dataflow-accelerator move instead: **compile the graph, batch the
execution**.  :class:`CompiledSystem` lowers a system once into flat
numeric form —

* a frozen *place order* and *transition order* with dense pre/post
  incidence rows (the token game becomes integer comparisons),
* a flat *register file*: one slot per value-carrying port (sequential
  state, input pads, output records, combinational outputs), with
  slot 0 permanently :data:`~repro.semantics.values.UNDEF`, plus one
  never-written slot per port whose *undriven value* — what a COM
  vertex no open arc drives outputs at every step
  (:func:`~repro.datapath.validate.undriven_values`) — is defined but
  cannot sit in the port's own slot,
* per reachable marking, a :class:`_Plan`: the open-arc set resolved to
  one straight-line list of register-to-register instructions over the
  COM vertices the open arcs drive, in topological order (each engine
  builds its *tape* from that list), the drive-conflict verdict, guard
  registers per enabled transition, choice-conflict candidates, and the
  latch/event recipe for every departing place (the state's
  :class:`~repro.semantics.simulator.ActivationTable`, the interpreter's
  own, with its ports resolved to registers).  Every read of a COM
  port the plan does not evaluate goes to that port's undriven slot
  (slot 0 when the value is UNDEF, the port's own slot for a vertex
  without inputs), never to its own slot, which may still hold what an
  earlier plan computed,
* per ``(plan, guard bits)``, memoized *effects*: the chosen step, the
  next marking (hence next plan), activation openings and environment
  draws — so a loop's steady state replays from a dict hit.

:class:`VectorSimulator` then advances a whole **batch** of lanes
(N seeds × M environments per :class:`Lane`) against one compiled
system.  Two engines share the compiled plans:

* the **scalar engine** (``mode="scalar"``) runs each lane through the
  compiled tape with plain Python values — exact bignum arithmetic and
  byte-identical traces versus the interpreter (this is what
  ``backend="vector"`` on a single
  :class:`~repro.semantics.simulator.Simulator` uses);
* the **numpy engine** (``mode="numpy"``, automatic for batches of
  ≥ 8 lanes) keeps the register file as a ``(registers, lanes)``
  ``int64``/``bool`` pair and executes every tape instruction across
  all lanes of a plan-group in one array op, grouping lanes by
  ``(plan, guard bits)`` so divergent control flow stays correct.
  Trace records are buffered as compact per-group chunks and expanded
  lazily: to :class:`~repro.semantics.trace.Trace` objects, or — reading
  only the step, event and conflict chunks — to the per-lane
  :class:`~repro.semantics.trace.Outcome` a job payload needs.

Exactness contract: traces from either engine are **byte-identical** to
the interpreter's (:func:`~repro.semantics.profile.traces_equivalent`),
including conflict records, latch order, activation identifiers and
seeded-policy decisions.  The numpy engine pre-checks operand
magnitudes and falls back to exact per-lane Python evaluation whenever
a result might not fit in 64 bits; a value that cannot be *stored* in
64 bits raises :class:`~repro.errors.ExecutionError` (use the scalar
engine or the interpreter for bignum workloads).

Unsupported in this backend (``DefinitionError``): simulator hooks
(fault injectors perturb per-step state the compiler froze), checkpoint
and resume (the interpreter's
:meth:`~repro.semantics.simulator.Simulator.checkpoint` is the one
checkpoint mechanism), and policies other than
:class:`~repro.semantics.policies.MaximalStepPolicy`,
:class:`~repro.semantics.policies.SequentialPolicy` and
:class:`~repro.semantics.policies.SeededMaximalPolicy`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Sequence

import numpy as np

from ..core.events import ExternalEvent
from ..core.system import DataControlSystem
from ..datapath.operations import OpKind, Operation
from ..datapath.ports import PortId
from ..datapath.validate import (com_order, com_vertices, drive_sources,
                                 live_com, undriven_values)
from ..errors import DefinitionError, ExecutionError, ReproError, RuntimeFaultError, ValidationError
from ..petri.marking import Marking
from .environment import Environment
from .policies import (FiringPolicy, MaximalStepPolicy, SeededMaximalPolicy,
                       SequentialPolicy)
from .profile import SimMetrics
from .simulator import LATCH_OUT, LATCH_PLAIN, ActivationTables
from .trace import ConflictRecord, LatchRecord, Outcome, Trace
from .values import UNDEF, Value, as_word

#: Magnitude bounds below which int64 arithmetic cannot overflow.
_ADD_BOUND = 1 << 62
_MUL_BOUND = 1 << 31
_SHIFT_BOUND = 30

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1


class _Fallback(Exception):
    """Raised by a vector handler when int64 arithmetic might overflow."""


def _policy_kind(policy: FiringPolicy) -> str:
    """Classify a policy for compiled emulation (exact type check only:
    a subclass may override ``choose`` arbitrarily)."""
    cls = type(policy)
    if cls is MaximalStepPolicy:
        return "max"
    if cls is SequentialPolicy:
        return "seq"
    if cls is SeededMaximalPolicy:
        return "rng"
    raise DefinitionError(
        f"policy {policy!r} is not supported by the vector backend; use "
        "MaximalStepPolicy, SequentialPolicy or SeededMaximalPolicy")


# ---------------------------------------------------------------------------
# compiled instructions
# ---------------------------------------------------------------------------
def _scalar_instruction(op: Operation, out: int, args: tuple[int, ...]):
    """One tape entry for the scalar engine: ``regs[out] = op(regs[args])``.

    Mirrors ``Operation.evaluate`` exactly — strict UNDEF propagation is
    inside ``op.func`` already, and booleans are normalised to words —
    with the arity check hoisted to compile time (the error message is
    preserved and raised on first execution, like the interpreter's
    first pass would: such a vertex's undriven evaluation raises too,
    so it is in every plan).
    """
    func = op.func
    if func is None:
        message = f"operation {op.name!r} has no value function"

        def broken(regs, _m=message):
            raise DefinitionError(_m)
        return broken
    if op.arity >= 0 and len(args) != op.arity:
        message = (f"operation {op.name!r} expects {op.arity} argument(s), "
                   f"got {len(args)}")

        def mismatched(regs, _m=message):
            raise DefinitionError(_m)
        return mismatched

    if len(args) == 0:
        def instr0(regs, _f=func, _o=out):
            v = _f()
            regs[_o] = v if type(v) is int or v is UNDEF else as_word(v)
        return instr0
    if len(args) == 1:
        def instr1(regs, _f=func, _o=out, _a=args[0]):
            v = _f(regs[_a])
            regs[_o] = v if type(v) is int or v is UNDEF else as_word(v)
        return instr1
    if len(args) == 2:
        def instr2(regs, _f=func, _o=out, _a=args[0], _b=args[1]):
            v = _f(regs[_a], regs[_b])
            regs[_o] = v if type(v) is int or v is UNDEF else as_word(v)
        return instr2
    if len(args) == 3:
        def instr3(regs, _f=func, _o=out, _a=args[0], _b=args[1], _c=args[2]):
            v = _f(regs[_a], regs[_b], regs[_c])
            regs[_o] = v if type(v) is int or v is UNDEF else as_word(v)
        return instr3

    def instrN(regs, _f=func, _o=out, _args=args):
        v = _f(*[regs[a] for a in _args])
        regs[_o] = v if type(v) is int or v is UNDEF else as_word(v)
    return instrN


def _magnitude_reaches(a, bound):
    """True when any ``|a| >= bound`` — ``np.abs`` wraps at INT64_MIN
    (``abs(-2**63) == -2**63``), so compare both signs directly."""
    return bool(((a >= bound) | (a <= -bound)).any())


def _check_add(a, b, da, db):
    if _magnitude_reaches(a, _ADD_BOUND) or _magnitude_reaches(b, _ADD_BOUND):
        raise _Fallback
    return da & db


def _vh_add(vals):
    (a, b), (da, db) = vals
    return a + b, _check_add(a, b, da, db)


def _vh_sub(vals):
    (a, b), (da, db) = vals
    return a - b, _check_add(a, b, da, db)


def _vh_mul(vals):
    (a, b), (da, db) = vals
    if _magnitude_reaches(a, _MUL_BOUND) or _magnitude_reaches(b, _MUL_BOUND):
        raise _Fallback
    return a * b, da & db


def _div_mod(a, b):
    """Truncating (toward-zero) int64 quotient and remainder, b != 0 safe."""
    bsafe = np.where(b == 0, 1, b)
    q = a // bsafe
    r = a - q * bsafe
    adjust = (r != 0) & ((a < 0) != (bsafe < 0))
    return q + adjust, r - np.where(adjust, bsafe, 0)


def _vh_div(vals):
    (a, b), (da, db) = vals
    if _magnitude_reaches(a, _ADD_BOUND):  # INT64_MIN // -1 overflows
        raise _Fallback
    q, _ = _div_mod(a, b)
    return q, da & db & (b != 0)


def _vh_mod(vals):
    (a, b), (da, db) = vals
    if _magnitude_reaches(a, _ADD_BOUND):  # INT64_MIN // -1 overflows
        raise _Fallback
    _, r = _div_mod(a, b)
    return r, da & db & (b != 0)


def _vh_neg(vals):
    (a,), (da,) = vals
    if _magnitude_reaches(a, _ADD_BOUND):
        raise _Fallback
    return -a, da


def _vh_abs(vals):
    (a,), (da,) = vals
    if _magnitude_reaches(a, _ADD_BOUND):
        raise _Fallback
    return np.abs(a), da


def _vh_min(vals):
    (a, b), (da, db) = vals
    return np.minimum(a, b), da & db


def _vh_max(vals):
    (a, b), (da, db) = vals
    return np.maximum(a, b), da & db


def _vh_shl(vals):
    (a, b), (da, db) = vals
    if (b > _SHIFT_BOUND).any() or _magnitude_reaches(a, _MUL_BOUND):
        raise _Fallback
    return a << np.where(b >= 0, b, 0), da & db & (b >= 0)


def _vh_shr(vals):
    (a, b), (da, db) = vals
    return a >> np.clip(b, 0, 63), da & db & (b >= 0)


def _vh_eq(vals):
    (a, b), (da, db) = vals
    return (a == b).astype(np.int64), da & db


def _vh_ne(vals):
    (a, b), (da, db) = vals
    return (a != b).astype(np.int64), da & db


def _vh_lt(vals):
    (a, b), (da, db) = vals
    return (a < b).astype(np.int64), da & db


def _vh_le(vals):
    (a, b), (da, db) = vals
    return (a <= b).astype(np.int64), da & db


def _vh_gt(vals):
    (a, b), (da, db) = vals
    return (a > b).astype(np.int64), da & db


def _vh_ge(vals):
    (a, b), (da, db) = vals
    return (a >= b).astype(np.int64), da & db


def _vh_and(vals):
    (a, b), (da, db) = vals
    return ((a != 0) & (b != 0)).astype(np.int64), da & db


def _vh_or(vals):
    (a, b), (da, db) = vals
    return ((a != 0) | (b != 0)).astype(np.int64), da & db


def _vh_not(vals):
    (a,), (da,) = vals
    return (a == 0).astype(np.int64), da


def _vh_xor(vals):
    (a, b), (da, db) = vals
    return ((a != 0) != (b != 0)).astype(np.int64), da & db


def _vh_band(vals):
    (a, b), (da, db) = vals
    return a & b, da & db


def _vh_bor(vals):
    (a, b), (da, db) = vals
    return a | b, da & db


def _vh_bxor(vals):
    (a, b), (da, db) = vals
    return a ^ b, da & db


def _vh_id(vals):
    (a,), (da,) = vals
    return a, da


def _vh_mux(vals):
    (s, a, b), (ds, da, db) = vals
    return np.where(s != 0, a, b), ds & da & db


_VECTOR_HANDLERS = {
    "add": _vh_add, "sub": _vh_sub, "mul": _vh_mul, "div": _vh_div,
    "mod": _vh_mod, "neg": _vh_neg, "abs": _vh_abs, "min": _vh_min,
    "max": _vh_max, "shl": _vh_shl, "shr": _vh_shr,
    "eq": _vh_eq, "ne": _vh_ne, "lt": _vh_lt, "le": _vh_le,
    "gt": _vh_gt, "ge": _vh_ge,
    "and": _vh_and, "or": _vh_or, "not": _vh_not, "xor": _vh_xor,
    "band": _vh_band, "bor": _vh_bor, "bxor": _vh_bxor,
    "id": _vh_id, "mux": _vh_mux,
}


def _owned(array: np.ndarray) -> np.ndarray:
    """A copy that outlives the register file's next mutation (views from
    slice-indexing share memory; fancy-indexed results are already owned)."""
    return array.copy() if array.base is not None else array


def _store_word(value: Value) -> int:
    """Range-check a Python int for the int64 register file."""
    if _INT64_MIN <= value <= _INT64_MAX:
        return value
    raise ExecutionError(
        f"value {value} exceeds the vector backend's 64-bit range; use "
        "the scalar mode or the interpreter")


def _python_eval(op: Operation, arg_vals, arg_defs, n: int):
    """Exact per-lane fallback for one numpy tape instruction."""
    values = np.zeros(n, dtype=np.int64)
    defined = np.zeros(n, dtype=bool)
    for j in range(n):
        args = [int(col[j]) if dcol[j] else UNDEF
                for col, dcol in zip(arg_vals, arg_defs)]
        result = op.evaluate(*args)
        if result is not UNDEF:
            values[j] = _store_word(result)
            defined[j] = True
    return values, defined


def _vector_instruction(op: Operation, out: int, args: tuple[int, ...]):
    """One tape entry for the numpy engine.

    Operates on the group's lane columns: reads the argument registers,
    dispatches the vector handler for the operation (falling back to
    exact per-lane Python on overflow risk or unknown operations), zeroes
    undefined slots and writes the output register.
    """
    handler = _VECTOR_HANDLERS.get(op.name)

    def instr(values, defined, sel, _op=op, _o=out, _args=args,
              _handler=handler):
        arg_vals = [values[a, sel] for a in _args]
        arg_defs = [defined[a, sel] for a in _args]
        if _handler is not None:
            try:
                v, d = _handler((arg_vals, arg_defs))
            except _Fallback:
                v, d = _python_eval(_op, arg_vals, arg_defs,
                                    arg_vals[0].shape[0])
        else:
            n = (arg_vals[0].shape[0] if arg_vals
                 else values[_o, sel].shape[0])
            v, d = _python_eval(_op, arg_vals, arg_defs, n)
        values[_o, sel] = np.where(d, v, 0)
        defined[_o, sel] = d
    return instr


# ---------------------------------------------------------------------------
# per-marking plans
# ---------------------------------------------------------------------------
class _Plan:
    """Everything one marking determines, compiled to register indices.

    ``instrs`` evaluates only the COM vertices an open arc drives (plus
    any whose undriven evaluation raises); the instruction arguments,
    ``guard_regs``, event sources and latch inputs read every other COM
    port from its undriven register.  ``completions`` maps each marked
    place to its departure recipe ``(events, latches)``: events as
    ``(arc, source reg)``, latches as ``(PortId, state reg, input reg,
    mode, op)``.
    """

    __slots__ = ("marking", "marked_sorted", "empty", "active",
                 "conflict_details", "comb_error", "instrs", "tape", "vec",
                 "enabled", "enabled_index", "sorted_enabled", "guard_regs",
                 "guard_weights", "candidates", "completions", "effects",
                 "pid")

    def __init__(self) -> None:
        self.vec = None          # lazy numpy tape
        self.effects = {}        # (kind, bits) / ("rng", chosen) -> _Effects


class _Effects:
    """What firing a chosen step at a plan does to the run state."""

    __slots__ = ("chosen", "consumed", "produced", "draws", "next_marking",
                 "next_plan")

    def __init__(self, chosen, consumed, produced, draws, next_marking,
                 next_plan):
        self.chosen = chosen            # tuple of transitions, firing order
        self.consumed = consumed        # tuple of places, sorted unique
        self.produced = produced        # tuple of places, sorted
        self.draws = draws              # tuple[(input vertex, register)]
        self.next_marking = next_marking
        self.next_plan = next_plan


class CompiledSystem:
    """A ``DataControlSystem`` lowered to flat numeric form (one-time).

    Frozen orders: ``places`` / ``transitions`` follow the net's
    insertion order; the register file starts with the UNDEF pseudo
    register, then every state-carrying port in the interpreter's
    ``_state`` insertion order, then the combinational output ports,
    then the undriven registers of the ports whose undriven value is
    defined and whose vertex has inputs.
    ``places``, ``place_index``, ``transitions``, ``presets`` and
    ``postsets`` come from the net's
    :class:`~repro.petri.net.TokenIndex` (``token_index``), which the
    interpreter and the explicit explorer read too.  ``tables`` holds
    each control state's activation table, built on first use.
    Plans are compiled per reachable marking on first visit and shared
    by every lane, run and engine of this compiled system: a plan's
    ``(op, out, args)`` instruction list is derived once, and both the
    scalar tape and the lazily built numpy tape come from it.
    """

    def __init__(self, system: DataControlSystem) -> None:
        self.system = system
        dp = system.datapath
        net = system.net
        index = self.token_index = net.token_index()
        self.places: tuple[str, ...] = index.places
        self.place_index = index.place_index
        self.transitions: tuple[str, ...] = index.transitions
        self.presets = index.presets
        self.postsets = index.postsets
        # register file: slot 0 is the permanent UNDEF pseudo register
        self.reg_of: dict[PortId, int] = {}
        initial: list[Value] = [UNDEF]
        self.state_ports: list[tuple[PortId, int]] = []
        for vertex in dp.vertices.values():
            for port in vertex.out_ports:
                op = vertex.operation(port)
                if op.kind in (OpKind.SEQ, OpKind.INPUT, OpKind.OUTPUT):
                    pid = PortId(vertex.name, port)
                    self.reg_of[pid] = len(initial)
                    self.state_ports.append((pid, len(initial)))
                    initial.append(vertex.initial_value(port))
        self._com = com_vertices(dp)
        for vertex in dp.vertices.values():
            if vertex.name in self._com:
                for port in vertex.out_ports:
                    self.reg_of[PortId(vertex.name, port)] = len(initial)
                    initial.append(UNDEF)
        # a plan evaluates only the COM vertices its open arcs drive; a
        # read of any other COM port goes to that port's undriven
        # register, never to its own (which may hold a value an earlier
        # plan computed): register 0 for UNDEF, the port's own register
        # for a vertex without inputs (no plan ever writes it), else one
        # more register of the initial image
        undriven, self._always = undriven_values(dp, self._com)
        self._undriven_reg: dict[PortId, int] = {}
        for pid, value in undriven.items():
            if value is UNDEF:
                reg = 0
            elif not dp.vertex(pid.vertex).in_ports:
                reg = self.reg_of[pid]
                initial[reg] = value
            else:
                reg = len(initial)
                initial.append(value)
            self._undriven_reg[pid] = reg
        self.initial_values: tuple[Value, ...] = tuple(initial)
        self.num_regs = len(initial)
        self._guard_ports = {t: system.guard_ports(t)
                             for t in self.transitions}
        # what each control state's activations latch, emit and draw
        self.tables = ActivationTables(system)
        self.initial_marking: Marking = net.initial_marking()
        self._plans: dict[Marking, _Plan] = {}
        self.plan_registry: list[_Plan] = []

    # -- marking-determined plans ---------------------------------------
    def plan_for(self, marking: Marking) -> _Plan:
        plan = self._plans.get(marking)
        if plan is None:
            plan = self._compile_plan(marking)
            plan.pid = len(self.plan_registry)
            self.plan_registry.append(plan)
            self._plans[marking] = plan
        return plan

    def _read_reg(self, port: PortId, live: frozenset[str]) -> int:
        """Register holding an output port's value in a plan whose pass
        evaluates the COM vertices ``live``."""
        if port.vertex not in live:
            reg = self._undriven_reg.get(port)
            if reg is not None:
                return reg
        return self.reg_of.get(port, 0)

    def _resolve_reg(self, port: PortId, drivers: dict[PortId, set[PortId]],
                     live: frozenset[str]) -> int:
        """Register carrying an input port's value under the open arcs
        (mirrors the interpreter's ``resolve``: ports with no active arc
        and conflicted ports, which have several distinct sources, read
        UNDEF)."""
        sources = drivers.get(port)
        if sources is None or len(sources) > 1:
            return 0
        return self._read_reg(next(iter(sources)), live)

    def _compile_plan(self, marking: Marking) -> _Plan:
        dp = self.system.datapath
        plan = _Plan()
        plan.marking = marking
        marked = marking.marked_places()
        plan.marked_sorted = tuple(sorted(marked))
        plan.empty = marking.is_empty()
        active_set: set[str] = set()
        for place in marked:
            active_set.update(self.system.control_arcs(place))
        active = frozenset(active_set)
        plan.active = active
        drivers, entries = drive_sources(dp, active)
        plan.conflict_details = tuple(detail for _port, detail in entries)
        # topological order of the COM vertices the open arcs drive ->
        # one (op, out, args) instruction list, from which both engines'
        # tapes are built
        live = live_com(self._com, self._always, drivers)
        plan.comb_error = None
        instrs = []
        try:
            order = com_order(dp, live, active)
        except ValidationError as error:
            plan.comb_error = str(error)
            order = []
        for name in order:
            vertex = dp.vertex(name)
            args = tuple(self._resolve_reg(p, drivers, live)
                         for p in vertex.input_ids())
            for port in vertex.out_ports:
                instrs.append((vertex.operation(port),
                               self.reg_of[PortId(name, port)], args))
        plan.instrs = tuple(instrs)
        plan.tape = [_scalar_instruction(*instr) for instr in instrs]
        plan.vec = None
        # token game: enabled transitions in insertion order
        plan.enabled = tuple(self.token_index.enabled(marking))
        plan.enabled_index = {t: i for i, t in enumerate(plan.enabled)}
        plan.sorted_enabled = tuple(sorted(plan.enabled))
        plan.guard_regs = tuple(
            tuple(self._read_reg(p, live) for p in self._guard_ports[t])
            for t in plan.enabled)
        n_enabled = len(plan.enabled)
        plan.guard_weights = (
            np.left_shift(np.ones(n_enabled, dtype=np.int64),
                          np.arange(n_enabled, dtype=np.int64))
            if 0 < n_enabled <= 62 else None)
        # choice-conflict candidates (dynamic Definition 3.2(3) check)
        enabled_set = set(plan.enabled)
        consumers = self.token_index.consumers
        candidates = []
        for place in plan.marked_sorted:
            if marking[place] >= 2:
                continue
            base = sorted(t for t in consumers.get(place, ())
                          if t in enabled_set)
            if len(base) >= 2:
                candidates.append(
                    (place, tuple((t, plan.enabled_index[t]) for t in base)))
        plan.candidates = tuple(candidates)
        # departure recipes per marked place: the activation tables with
        # their ports resolved to this plan's registers
        reg_of = self.reg_of
        completions = {}
        for place in plan.marked_sorted:
            table = self.tables[place]
            completions[place] = (
                tuple((arc_name, self._read_reg(source, live))
                      for arc_name, source in table.events),
                tuple((pid, reg_of[pid],
                       self._resolve_reg(target, drivers, live), mode, op)
                      for target, pid, mode, op in table.latches))
        plan.completions = completions
        return plan

    def draws_for(self, places) -> tuple[tuple[str, int], ...]:
        """The environment draws when ``places`` gain their tokens: each
        input vertex their activations read once, sorted, with its pad
        register (the interpreter's order)."""
        draws: set[tuple[str, PortId]] = set()
        for place in places:
            draws.update(self.tables[place].draws)
        return tuple((vertex, self.reg_of[pad])
                     for vertex, pad in sorted(draws))

    def vec_tape(self, plan: _Plan):
        """The numpy tape for a plan (built lazily on first group)."""
        if plan.vec is None:
            plan.vec = [_vector_instruction(*instr) for instr in plan.instrs]
        return plan.vec

    # -- chosen-step emulation ------------------------------------------
    def maximal_chosen(self, plan: _Plan, bits: int) -> tuple[str, ...]:
        """Greedy maximal step in transition insertion order (the default
        policy), given the guard-truth bitmask over ``plan.enabled``."""
        available = dict(plan.marking)
        step = []
        for i, t in enumerate(plan.enabled):
            if not bits >> i & 1:
                continue
            preset = self.presets[t]
            if all(available.get(p, 0) >= 1 for p in preset):
                for p in preset:
                    available[p] = available.get(p, 0) - 1
                step.append(t)
        return tuple(step)

    def sequential_chosen(self, plan: _Plan, bits: int) -> tuple[str, ...]:
        """First guard-true enabled transition in name order, or nothing."""
        index = plan.enabled_index
        for t in plan.sorted_enabled:
            if bits >> index[t] & 1:
                return (t,)
        return ()

    def seeded_chosen(self, plan: _Plan, bits: int, rng) -> tuple[str, ...]:
        """Greedy maximal step over a seeded shuffle of all transitions —
        consumes the RNG exactly as ``maximal_step(rng=...)`` does (one
        shuffle of the full transition list per step)."""
        base = list(self.transitions)
        rng.shuffle(base)
        index = plan.enabled_index
        available = dict(plan.marking)
        step = []
        for t in base:
            i = index.get(t)
            if i is None or not bits >> i & 1:
                continue
            preset = self.presets[t]
            if all(available.get(p, 0) >= 1 for p in preset):
                for p in preset:
                    available[p] = available.get(p, 0) - 1
                step.append(t)
        return tuple(step)

    def effects_for(self, plan: _Plan, key, chosen: tuple[str, ...]
                    ) -> _Effects:
        """Memoized state delta for firing ``chosen`` at ``plan``."""
        effects = plan.effects.get(key)
        if effects is not None:
            return effects
        consume = [p for t in chosen for p in self.presets[t]]
        produce = [p for t in chosen for p in self.postsets[t]]
        next_marking = plan.marking.after_firing(consume, produce)
        consumed = tuple(sorted(set(consume)))
        remaining = plan.marking.marked_places() - set(consumed)
        produced = tuple(sorted(p for p in next_marking.marked_places()
                                if p not in remaining))
        # the next plan first: compiling it builds the produced states'
        # activation tables, which the draws read
        next_plan = self.plan_for(next_marking)
        effects = _Effects(chosen, consumed, produced,
                           self.draws_for(produced), next_marking, next_plan)
        plan.effects[key] = effects
        return effects


def compile_system(system: DataControlSystem) -> CompiledSystem:
    """Lower a system to flat numeric form (one-time, reusable)."""
    return CompiledSystem(system)


# ---------------------------------------------------------------------------
# lanes and results
# ---------------------------------------------------------------------------
@dataclass
class Lane:
    """One batch lane: an environment and a firing policy.

    Each lane must carry its **own** policy instance — a shared seeded
    policy would interleave its RNG stream across lanes and diverge from
    per-run interpreter behaviour.
    """

    environment: Environment = field(default_factory=Environment)
    policy: FiringPolicy = field(default_factory=MaximalStepPolicy)


class BatchResult:
    """Per-lane results of one batch run.

    A lane reads two ways: :meth:`trace` gives the full
    :class:`~repro.semantics.trace.Trace` (latches and steps included),
    :meth:`outcome` only what the run shows its environment.  The numpy
    engine keeps its chunk buffers until the first :meth:`trace` call
    expands them; outcomes read them without expanding a latch record.
    """

    def __init__(self, n: int, wall_seconds: float,
                 columns: _Columns | None = None) -> None:
        self._n = n
        self._wall = wall_seconds
        self._columns = columns  # numpy engine: chunk buffers
        self._traces: list[Trace | None] | None = (
            None if columns is not None else [None] * n)
        self._outcomes: list[Outcome | None] | None = None
        self._errors: list[ReproError | None] = (
            columns.errors if columns is not None else [None] * n)

    def __len__(self) -> int:
        return self._n

    @property
    def wall_seconds(self) -> float:
        """Wall-clock spent advancing the batch (excludes lazy extraction)."""
        return self._wall

    def error(self, index: int) -> ReproError | None:
        """The error that stopped a lane, or None (see ``capture_errors``)."""
        return self._errors[index]

    def trace(self, index: int) -> Trace:
        """The lane's trace; raises the lane's captured error if it failed."""
        error = self._errors[index]
        if error is not None:
            raise error
        if self._traces is None:
            # the traces hold everything the buffers did: drop them
            self._traces = self._columns.traces()
            self._columns = None
        trace = self._traces[index]
        assert trace is not None
        return trace

    def traces(self) -> list[Trace]:
        """All traces (every lane must have succeeded)."""
        return [self.trace(i) for i in range(self._n)]

    def outcome(self, index: int) -> Outcome:
        """The lane's :class:`~repro.semantics.trace.Outcome`; raises the
        lane's captured error if it failed, exactly as :meth:`trace`."""
        error = self._errors[index]
        if error is not None:
            raise error
        if self._columns is None:
            return self.trace(index).outcome()
        if self._outcomes is None:
            self._outcomes = self._columns.outcomes()
        outcome = self._outcomes[index]
        assert outcome is not None
        return outcome


# ---------------------------------------------------------------------------
# the batch simulator
# ---------------------------------------------------------------------------
class _ScalarLane:
    """Mutable per-lane state for the scalar engine."""

    __slots__ = ("regs", "plan", "activations", "counter", "event_index",
                 "trace", "env", "kind", "rng", "step")


class VectorSimulator:
    """Advance many simulation lanes against one compiled system.

    Parameters
    ----------
    system:
        A :class:`~repro.core.system.DataControlSystem` or an existing
        :class:`CompiledSystem` (compile once, run many batches).
    strict:
        Same meaning as on the interpreter: runtime conflicts raise
        (per lane) instead of being recorded.
    mode:
        ``"auto"`` (default: numpy for batches of ≥ 8 lanes, scalar
        otherwise), ``"scalar"``, or ``"numpy"``.
    """

    #: auto mode switches to the numpy engine at this many lanes
    _NUMPY_THRESHOLD = 8

    def __init__(self, system: DataControlSystem | CompiledSystem, *,
                 strict: bool = True, mode: str = "auto") -> None:
        if mode not in ("auto", "scalar", "numpy"):
            raise ValueError(
                f"unknown mode {mode!r}; choose 'auto', 'scalar' or 'numpy'")
        self.compiled = (system if isinstance(system, CompiledSystem)
                         else CompiledSystem(system))
        self.strict = strict
        self.mode = mode

    # -- public API ------------------------------------------------------
    def run(self, lanes: Sequence[Lane], *, max_steps: int = 10_000,
            on_limit: str = "raise",
            capture_errors: bool = False) -> BatchResult:
        """Advance every lane to termination, deadlock, or the budget.

        Mirrors :meth:`Simulator.run` per lane (same eager validation,
        same ``on_limit`` semantics, ``max_steps`` is an absolute step
        budget).  ``capture_errors=True`` records a failing lane's error
        on the result (``BatchResult.error``) instead of raising, so one
        bad lane cannot abort the batch.
        """
        if on_limit not in ("raise", "return"):
            raise ValueError(
                f"unknown on_limit {on_limit!r}; choose 'raise' or 'return'")
        if max_steps <= 0:
            raise ValueError(
                f"max_steps must be a positive step budget, got {max_steps}")
        lanes = list(lanes)
        kinds = [_policy_kind(lane.policy) for lane in lanes]
        use_numpy = (self.mode == "numpy"
                     or (self.mode == "auto"
                         and len(lanes) >= self._NUMPY_THRESHOLD))
        if not lanes:
            return BatchResult(0, 0.0)
        if use_numpy:
            return self._run_numpy(lanes, kinds, max_steps, on_limit,
                                   capture_errors)
        return self._run_scalar(lanes, kinds, max_steps, on_limit,
                                capture_errors)

    # -- scalar engine ---------------------------------------------------
    def _fresh_scalar_lane(self, lane: Lane, kind: str) -> _ScalarLane:
        comp = self.compiled
        st = _ScalarLane()
        st.regs = list(comp.initial_values)
        st.plan = comp.plan_for(comp.initial_marking)
        st.activations = {}
        st.counter = 0
        st.event_index = {}
        st.trace = Trace()
        st.env = lane.environment
        st.kind = kind
        st.rng = getattr(lane.policy, "_rng", None)
        st.step = 0
        # initial activations + environment draws (interpreter order:
        # places sorted, then the union of draw sources sorted)
        marked = sorted(comp.initial_marking.marked_places())
        for place in marked:
            st.counter += 1
            st.activations[place] = (st.counter, 0)
        for vertex, reg in comp.draws_for(marked):
            st.regs[reg] = st.env.draw(vertex)
        return st

    def _run_scalar(self, lanes, kinds, max_steps, on_limit,
                    capture_errors) -> BatchResult:
        wall_start = perf_counter()
        result = BatchResult(len(lanes), 0.0)
        for i, (lane, kind) in enumerate(zip(lanes, kinds)):
            # lane setup draws the initial environment values, which can
            # itself raise (e.g. an exhausted stream under policy
            # "raise") — it must sit inside the capture scope or one bad
            # lane poisons the whole batch
            try:
                st = self._fresh_scalar_lane(lane, kind)
                self._drive_scalar_lane(st, max_steps, on_limit)
            except ReproError as error:
                if not capture_errors:
                    raise
                result._errors[i] = error
            else:
                result._traces[i] = st.trace
        wall = perf_counter() - wall_start
        result._wall = wall
        for trace in result._traces:
            if trace is not None and trace.metrics is not None:
                trace.metrics.wall_seconds = wall
        return result

    def _drive_scalar_lane(self, st: _ScalarLane, max_steps: int,
                           on_limit: str) -> None:
        """Advance one lane to termination, deadlock, or the budget.

        One frame for the whole run: the lane's registers, plan, step,
        activation counter and the trace's appenders live in locals, and
        ``plan``/``step``/``counter`` go back to ``st`` before the lane
        is finalised (or an error leaves it).
        """
        comp = self.compiled
        strict = self.strict
        regs = st.regs
        plan, step, counter = st.plan, st.step, st.counter
        activations, event_index = st.activations, st.event_index
        kind, rng, env = st.kind, st.rng, st.env
        trace = st.trace
        add_conflict = trace.conflicts.append
        add_event = trace.events.append
        add_latch = trace.latches.append
        add_step = trace.steps.append
        try:
            while True:
                if step >= max_steps:
                    if on_limit == "raise":
                        raise ExecutionError(
                            f"simulation did not finish within {max_steps} "
                            "steps")
                    break
                if plan.empty:
                    trace.terminated = True
                    break
                for detail in plan.conflict_details:
                    add_conflict(ConflictRecord(step, "drive", detail))
                    if strict:
                        raise ExecutionError(detail)
                if plan.comb_error is not None:
                    raise RuntimeFaultError(
                        f"combinational loop closed at step {step}: "
                        f"{plan.comb_error}", step=step, kind="comb_loop")
                for instr in plan.tape:
                    instr(regs)
                # guard truth per enabled transition, as a bitmask
                bits = 0
                for i, gregs in enumerate(plan.guard_regs):
                    if not gregs:
                        bits |= 1 << i
                    else:
                        for r in gregs:
                            v = regs[r]
                            if v is not UNDEF and v:
                                bits |= 1 << i
                                break
                if plan.candidates:
                    first = None
                    for place, cand in plan.candidates:
                        fireable = [t for t, i in cand if bits >> i & 1]
                        if len(fireable) > 1:
                            record = ConflictRecord(
                                step, "choice",
                                f"transitions {fireable} compete for the "
                                f"token in place {place!r}")
                            add_conflict(record)
                            if first is None:
                                first = record
                    if strict and first is not None:
                        raise ExecutionError(first.detail)
                if kind == "rng":
                    chosen = comp.seeded_chosen(plan, bits, rng)
                    effects = comp.effects_for(plan, ("rng", chosen), chosen)
                else:
                    key = (kind, bits)
                    effects = plan.effects.get(key)
                    if effects is None:
                        chosen = (comp.maximal_chosen(plan, bits)
                                  if kind == "max"
                                  else comp.sequential_chosen(plan, bits))
                        effects = comp.effects_for(plan, key, chosen)
                if not effects.chosen:
                    # quiescent with tokens: deadlock; flush open
                    # activations
                    for place in plan.marked_sorted:
                        entry = activations.pop(place, None)
                        if entry is None:  # pragma: no cover - defensive
                            continue
                        ident, start = entry
                        for arc_name, sreg in plan.completions[place][0]:
                            index = event_index.get(arc_name, 0)
                            event_index[arc_name] = index + 1
                            add_event(ExternalEvent(
                                arc_name, regs[sreg], index, place, ident,
                                start, step))
                    trace.deadlocked = True
                    break
                # keyed by state register: a dict hit on an int is cheaper
                # than on a PortId
                latch_plan: dict[int, tuple[Value, str]] = {}
                for place in effects.consumed:
                    ident, start = activations.pop(place)
                    events, latches = plan.completions[place]
                    for arc_name, sreg in events:
                        index = event_index.get(arc_name, 0)
                        event_index[arc_name] = index + 1
                        add_event(ExternalEvent(
                            arc_name, regs[sreg], index, place, ident, start,
                            step))
                    for pid, sreg, ireg, mode, op in latches:
                        old = regs[sreg]
                        incoming = regs[ireg]
                        if mode == LATCH_OUT:
                            new = incoming
                        elif mode == LATCH_PLAIN:
                            new = incoming if incoming is not UNDEF else old
                        else:
                            computed = op.evaluate(old, incoming)
                            new = computed if computed is not UNDEF else old
                        prev = latch_plan.get(sreg)
                        if prev is not None and prev[0] != new:
                            record = ConflictRecord(
                                step, "latch",
                                f"port {pid} latched by {prev[1]!r} and "
                                f"{place!r} in the same step")
                            add_conflict(record)
                            if strict:
                                raise ExecutionError(record.detail)
                        latch_plan[sreg] = (new, place)
                        add_latch(LatchRecord(step, pid, old, new, place))
                for sreg, (value, _place) in latch_plan.items():
                    regs[sreg] = value
                add_step(list(effects.chosen))
                for place in effects.produced:
                    counter += 1
                    activations[place] = (counter, step + 1)
                for vertex, reg in effects.draws:
                    regs[reg] = env.draw(vertex)
                plan = effects.next_plan
                step += 1
        finally:
            st.plan, st.step, st.counter = plan, step, counter
        self._finalise_scalar(st)

    def _finalise_scalar(self, st: _ScalarLane) -> None:
        trace = st.trace
        trace.step_count = st.step
        trace.final_marking = st.plan.marking
        trace.final_state = {pid: st.regs[reg]
                             for pid, reg in self.compiled.state_ports}
        trace.metrics = SimMetrics(steps=st.step, firings=trace.num_firings)

    # -- numpy engine ----------------------------------------------------
    def _run_numpy(self, lanes, kinds, max_steps, on_limit,
                   capture_errors) -> BatchResult:
        comp = self.compiled
        n = len(lanes)
        wall_start = perf_counter()
        values = np.zeros((comp.num_regs, n), dtype=np.int64)
        defined = np.zeros((comp.num_regs, n), dtype=bool)
        for reg, init in enumerate(comp.initial_values):
            if init is not UNDEF:
                values[reg, :] = _store_word(init)
                defined[reg, :] = True
        n_places = len(comp.places)
        act_ident = np.zeros((n_places, n), dtype=np.int64)
        act_start = np.zeros((n_places, n), dtype=np.int64)
        counters = np.zeros(n, dtype=np.int64)
        plan_ids = np.zeros(n, dtype=np.int64)
        kind_codes = np.array([("max", "seq", "rng").index(k)
                               for k in kinds], dtype=np.int64)
        rngs = [getattr(lane.policy, "_rng", None) for lane in lanes]
        envs = [lane.environment for lane in lanes]
        active = np.ones(n, dtype=bool)
        errors: list[ReproError | None] = [None] * n
        finals: list[dict | None] = [None] * n
        event_index: dict[str, np.ndarray] = {}
        chunks: list[tuple] = []

        initial_plan = comp.plan_for(comp.initial_marking)
        plan_ids[:] = initial_plan.pid
        # open the initial activations and draw initial inputs
        marked0 = sorted(comp.initial_marking.marked_places())
        for place in marked0:
            pi = comp.place_index[place]
            counters += 1
            act_ident[pi, :] = counters
            act_start[pi, :] = 0
        sel_all = np.arange(n)

        def fail(lane_indices, error: ReproError) -> None:
            for j in lane_indices:
                j = int(j)
                if errors[j] is None:
                    errors[j] = error
                active[j] = False
            if not capture_errors:
                raise error

        def do_draws(lane_indices, draws) -> None:
            for j in lane_indices:
                j = int(j)
                env = envs[j]
                try:
                    for vertex, reg in draws:
                        value = env.draw(vertex)
                        if value is UNDEF:
                            values[reg, j] = 0
                            defined[reg, j] = False
                        else:
                            values[reg, j] = _store_word(value)
                            defined[reg, j] = True
                except ReproError as error:
                    fail([j], error)

        do_draws(sel_all, comp.draws_for(marked0))

        full = slice(None)  # whole-row view: skips fancy-index copies
        step = 0
        while step < max_steps and active.any():
            live = np.flatnonzero(active)
            cl = plan_ids[live] * 4 + kind_codes[live]
            # common case: every live lane shares one (plan, policy) group
            first = int(cl[0])
            if (cl == first).all():
                groups = ((first, live),)
            else:
                groups = tuple((int(key), live[cl == key])
                               for key in np.unique(cl))
            for key, sel in groups:
                plan = comp.plan_registry[key // 4]
                kind = ("max", "seq", "rng")[key % 4]
                ix = full if len(sel) == n else sel
                if plan.empty:
                    for j in sel:
                        j = int(j)
                        finals[j] = {"status": "terminated", "step": step,
                                     "plan": plan}
                        active[j] = False
                    continue
                if plan.conflict_details:
                    if self.strict:
                        detail = plan.conflict_details[0]
                        chunks.append(("conflict", step, sel, "drive",
                                       (detail,)))
                        fail(sel, ExecutionError(detail))
                        continue
                    chunks.append(("conflict", step, sel, "drive",
                                   plan.conflict_details))
                if plan.comb_error is not None:
                    fail(sel, RuntimeFaultError(
                        f"combinational loop closed at step {step}: "
                        f"{plan.comb_error}", step=step, kind="comb_loop"))
                    continue
                try:
                    for instr in comp.vec_tape(plan):
                        instr(values, defined, ix)
                except ReproError as error:
                    fail(sel, error)
                    continue
                # guard truth matrix over enabled transitions
                n_enabled = len(plan.enabled)
                if n_enabled:
                    guard = np.zeros((n_enabled, len(sel)), dtype=bool)
                    for i, gregs in enumerate(plan.guard_regs):
                        if not gregs:
                            guard[i, :] = True
                        else:
                            row = guard[i]
                            for r in gregs:
                                row |= defined[r, ix] & (values[r, ix] != 0)
                    if plan.guard_weights is not None:
                        bits_arr = guard.T @ plan.guard_weights
                        b0 = int(bits_arr[0])
                        if (bits_arr == b0).all():
                            subgroups = ((b0, sel, ix),)
                        else:
                            subgroups = tuple(
                                (int(b), sel[bits_arr == b], None)
                                for b in np.unique(bits_arr))
                    else:  # > 62 enabled: bits exceed the int64 weights
                        cols, inverse = np.unique(guard, axis=1,
                                                  return_inverse=True)
                        subgroups = []
                        for k in range(cols.shape[1]):
                            b = 0
                            for i in range(n_enabled):
                                if cols[i, k]:
                                    b |= 1 << i
                            subgroups.append((b, sel[inverse == k], None))
                else:
                    subgroups = ((0, sel, ix),)
                for bits, sel2, ix2 in subgroups:
                    self._numpy_subgroup(
                        plan, kind, bits, sel2,
                        sel2 if ix2 is None else ix2, step, values, defined,
                        act_ident, act_start, counters, plan_ids, rngs,
                        event_index, chunks, finals, active, fail, do_draws)
            step += 1

        leftovers = np.flatnonzero(active)
        if len(leftovers):
            if on_limit == "raise":
                fail(leftovers, ExecutionError(
                    f"simulation did not finish within {max_steps} steps"))
            else:
                for j in leftovers:
                    j = int(j)
                    finals[j] = {"status": "partial", "step": max_steps,
                                 "plan": comp.plan_registry[int(plan_ids[j])]}
                    active[j] = False
        wall = perf_counter() - wall_start

        return BatchResult(n, wall, _Columns(
            self.compiled, chunks, finals, errors, values, defined, wall))

    def _numpy_subgroup(self, plan, kind, bits, sel2, ix2, step, values,
                        defined, act_ident, act_start, counters, plan_ids,
                        rngs, event_index, chunks, finals, active, fail,
                        do_draws) -> None:
        comp = self.compiled
        # choice conflicts (identical records for every lane in a subgroup)
        if plan.candidates:
            records = []
            for place, cand in plan.candidates:
                fireable = [t for t, i in cand if bits >> i & 1]
                if len(fireable) > 1:
                    records.append(
                        f"transitions {fireable} compete for the token in "
                        f"place {place!r}")
            if records:
                if self.strict:
                    chunks.append(("conflict", step, sel2, "choice",
                                   (records[0],)))
                    fail(sel2, ExecutionError(records[0]))
                    return
                chunks.append(("conflict", step, sel2, "choice",
                               tuple(records)))
        if kind == "rng":
            # per-lane RNG streams: group lanes by the chosen step
            groups: dict[tuple[str, ...], list[int]] = {}
            for j in sel2:
                j = int(j)
                chosen = comp.seeded_chosen(plan, bits, rngs[j])
                groups.setdefault(chosen, []).append(j)
            parts = [(comp.effects_for(plan, ("rng", chosen), chosen),
                      np.array(lanes_, dtype=np.int64), None)
                     for chosen, lanes_ in groups.items()]
        else:
            key = (kind, bits)
            effects = plan.effects.get(key)
            if effects is None:
                chosen = (comp.maximal_chosen(plan, bits) if kind == "max"
                          else comp.sequential_chosen(plan, bits))
                effects = comp.effects_for(plan, key, chosen)
            parts = [(effects, sel2, ix2)]
        for effects, sel3, ix3 in parts:
            if ix3 is None:
                ix3 = sel3
            if not effects.chosen:
                # deadlock: flush events of every open activation
                for place in plan.marked_sorted:
                    pi = comp.place_index[place]
                    events = plan.completions[place][0]
                    if events:
                        self._emit_events(events, place, pi, sel3, ix3,
                                          step, values, act_ident,
                                          act_start, defined, event_index,
                                          chunks)
                for j in sel3:
                    j = int(j)
                    finals[j] = {"status": "deadlocked", "step": step,
                                 "plan": plan}
                    active[j] = False
                continue
            latch_plan: dict[PortId, tuple] = {}
            conflict_chunks = []
            for place in effects.consumed:
                pi = comp.place_index[place]
                events, latches = plan.completions[place]
                if events:
                    self._emit_events(events, place, pi, sel3,
                                      ix3, step, values, act_ident,
                                      act_start, defined, event_index,
                                      chunks)
                for pid, sreg, ireg, mode, op in latches:
                    old_v = values[sreg, ix3]
                    old_d = defined[sreg, ix3]
                    in_v = values[ireg, ix3]
                    in_d = defined[ireg, ix3]
                    if mode == LATCH_OUT:
                        nv, nd = in_v, in_d
                    elif mode == LATCH_PLAIN:
                        nv = np.where(in_d, in_v, old_v)
                        nd = in_d | old_d
                    elif op.name == "acc":
                        if ((np.abs(old_v) > _ADD_BOUND).any()
                                or (np.abs(in_v) > _ADD_BOUND).any()):
                            cv, cd = _python_eval(op, (old_v, in_v),
                                                  (old_d, in_d),
                                                  old_v.shape[0])
                        else:
                            cv = old_v + in_v
                            cd = old_d & in_d
                        nv = np.where(cd, cv, old_v)
                        nd = cd | old_d
                    else:
                        cv, cd = _python_eval(op, (old_v, in_v),
                                              (old_d, in_d),
                                              old_v.shape[0])
                        nv = np.where(cd, cv, old_v)
                        nd = cd | old_d
                    nv = np.where(nd, nv, 0)
                    nd = _owned(nd)
                    prev = latch_plan.get(pid)
                    if prev is not None:
                        pv, pd, prev_place, _ = prev
                        diff = (pd != nd) | (pd & nd & (pv != nv))
                        if diff.any():
                            detail = (f"port {pid} latched by "
                                      f"{prev_place!r} and {place!r} in "
                                      f"the same step")
                            conflict_chunks.append(
                                ("conflict", step, sel3[diff], "latch",
                                 (detail,)))
                    latch_plan[pid] = (nv, nd, place, sreg)
                    chunks.append(("latch", step, pid, place, sel3,
                                   _owned(old_v), _owned(old_d), nv, nd))
                    for chunk in conflict_chunks:
                        chunks.append(chunk)
                        if self.strict:
                            fail(chunk[2], ExecutionError(chunk[4][0]))
                    conflict_chunks = []
            # strict latch conflicts killed some lanes mid-step: their
            # remaining records are unobservable (trace() raises), so the
            # commit below harmlessly includes them
            for _pid, (nv, nd, _place, sreg) in latch_plan.items():
                values[sreg, ix3] = nv
                defined[sreg, ix3] = nd
            chunks.append(("steps", step, sel3, effects.chosen))
            for place in effects.produced:
                pi = comp.place_index[place]
                counters[ix3] += 1
                act_ident[pi, ix3] = counters[ix3]
                act_start[pi, ix3] = step + 1
            if effects.draws:
                do_draws(sel3, effects.draws)
            plan_ids[ix3] = effects.next_plan.pid

    def _emit_events(self, events, place, pi, sel, ix, step, values,
                     act_ident, act_start, defined, event_index,
                     chunks) -> None:
        idents = _owned(act_ident[pi, ix])
        starts = _owned(act_start[pi, ix])
        for arc_name, sreg in events:
            col = event_index.get(arc_name)
            if col is None:
                col = event_index[arc_name] = np.zeros(
                    act_ident.shape[1], dtype=np.int64)
            indices = col[ix].copy()
            col[ix] += 1
            chunks.append(("event", step, arc_name, place, sel,
                           _owned(values[sreg, ix]),
                           _owned(defined[sreg, ix]),
                           indices, idents, starts))


class _Columns:
    """The numpy engine's chunk buffers for one batch, read two ways.

    Chunks are ``("steps", step, lanes, chosen)``, ``("event", step,
    arc, place, lanes, values, defined, indices, activations, starts)``,
    ``("latch", step, port, place, lanes, old, old_defined, new,
    new_defined)`` and ``("conflict", step, lanes, kind, details)``, in
    the order the run made them; each chunk's lane array holds distinct
    lanes.  ``finals[j]`` is the lane's ``{"status", "step", "plan"}``.
    """

    def __init__(self, comp: CompiledSystem, chunks, finals, errors,
                 values, defined, wall) -> None:
        self.comp = comp
        self.n = len(finals)
        self.chunks = chunks
        self.finals = finals
        self.errors = errors
        self.values = values
        self.defined = defined
        self.wall = wall

    def outcomes(self) -> list[Outcome | None]:
        """Every successful lane's outcome, in one pass over the
        ``steps``, ``event`` and ``conflict`` chunks (None for failed
        lanes)."""
        n = self.n
        firings = np.zeros(n, dtype=np.int64)
        conflicts = np.zeros(n, dtype=np.int64)
        events: list[list] = [[] for _ in range(n)]
        for chunk in self.chunks:
            tag = chunk[0]
            if tag == "steps":
                firings[chunk[2]] += len(chunk[3])
            elif tag == "event":
                (_, end, arc_name, place, sel, vals, defs, indices, _idents,
                 starts) = chunk
                for j, value, is_def, index, start in zip(
                        sel.tolist(), vals.tolist(), defs.tolist(),
                        indices.tolist(), starts.tolist()):
                    events[j].append((end, start, arc_name, index,
                                      value if is_def else UNDEF, place))
            elif tag == "conflict":
                conflicts[chunk[2]] += len(chunk[4])
        outcomes: list[Outcome | None] = [None] * n
        for j, (final, lane_events, fired, clashes) in enumerate(zip(
                self.finals, events, firings.tolist(), conflicts.tolist())):
            if self.errors[j] is None:
                # (arc, index) is unique per lane: the sort never
                # compares values
                lane_events.sort()
                outcomes[j] = Outcome(final["step"], final["status"], fired,
                                      clashes, lane_events)
        return outcomes

    def traces(self) -> list[Trace | None]:
        """Every successful lane's full trace (None for failed lanes)."""
        n = self.n
        values, defined = self.values, self.defined
        traces = [Trace() for _ in range(n)]
        steps_lists = [t.steps for t in traces]
        events_lists = [t.events for t in traces]
        latches_lists = [t.latches for t in traces]
        firings = [0] * n
        for chunk in self.chunks:
            tag = chunk[0]
            if tag == "steps":
                _, _step, sel, chosen = chunk
                # one shared list per chunk: Trace.steps entries are
                # value-compared and never mutated by the library
                chosen_list = list(chosen)
                width = len(chosen_list)
                for j in sel.tolist():
                    steps_lists[j].append(chosen_list)
                    firings[j] += width
            elif tag == "event":
                (_, step_, arc_name, place, sel, vals, defs, indices,
                 idents, starts) = chunk
                for j, value, is_def, index, ident, start in zip(
                        sel.tolist(), vals.tolist(), defs.tolist(),
                        indices.tolist(), idents.tolist(),
                        starts.tolist()):
                    events_lists[j].append(ExternalEvent(
                        arc_name, value if is_def else UNDEF, index, place,
                        ident, start, step_))
            elif tag == "latch":
                _, step_, pid, place, sel, old_v, old_d, nv, nd = chunk
                for j, ov, od, v, d in zip(
                        sel.tolist(), old_v.tolist(), old_d.tolist(),
                        nv.tolist(), nd.tolist()):
                    latches_lists[j].append(LatchRecord(
                        step_, pid, ov if od else UNDEF, v if d else UNDEF,
                        place))
            else:  # conflict
                _, step_, sel, kind_, details = chunk
                records = [ConflictRecord(step_, kind_, detail)
                           for detail in details]
                for j in sel.tolist():
                    traces[j].conflicts.extend(records)
        result: list[Trace | None] = [None] * n
        for j in range(n):
            if self.errors[j] is not None:
                continue
            final = self.finals[j]
            assert final is not None
            trace = traces[j]
            trace.terminated = final["status"] == "terminated"
            trace.deadlocked = final["status"] == "deadlocked"
            trace.step_count = final["step"]
            trace.final_marking = final["plan"].marking
            trace.final_state = {
                pid: (int(values[reg, j]) if defined[reg, j] else UNDEF)
                for pid, reg in self.comp.state_ports}
            trace.metrics = SimMetrics(steps=trace.step_count,
                                       firings=firings[j],
                                       wall_seconds=self.wall)
            result[j] = trace
        return result
