"""Register sharing — an extended transformation with lifetime analysis.

Definition 4.6 deliberately cannot merge *state-holding* vertices: two
registers carry two live values, and "same operational definition +
sequentially ordered uses" says nothing about whether those values'
lifetimes overlap.  Classic high-level synthesis shares registers anyway,
justified by **liveness analysis**: two registers may share storage iff
no point of the control exists where both hold a value that will still be
read.

This module implements that analysis on the control net and the
resulting :class:`RegisterMerger` transformation
(``preserves="behavioural"`` — an extension, verified by the test
battery, not by a theorem from the paper):

* a register is **defined** at the states opening an arc into its data
  port, and **used** at the states opening an arc from its output (plus
  the decision states of any transition whose guard traces back to it);
* liveness is the standard backward may-analysis over the place-level
  successor graph (fixpoint; loops handled naturally);
* two registers **interfere** iff some place has both live on entry, or
  two *coexistent* places (simultaneously markable — fork branches) have
  one live each;
* additionally, a register live at an initially marked place carries its
  reset value, so merging requires equal initial values in that case.

Everything the five interference conditions read is gathered once per
call by :class:`_Analysis`; :func:`share_registers` keeps one analysis
for its whole greedy pass and refreshes only the merged representative's
facts after each merge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from ..core.dependence import sequential_sources
from ..core.system import DataControlSystem
from ..datapath.operations import OpKind
from ..datapath.ports import PortId
from ..datapath.vertex import Vertex
from ..values import UNDEF
from .base import Legality, Transformation


def _is_plain_register(vertex: Vertex) -> bool:
    """A plain ``reg`` unit: single d/q, no next-state function."""
    if vertex.is_external:
        return False
    ops = [vertex.operation(p) for p in vertex.out_ports]
    return len(ops) == 1 and ops[0].name == "reg" and ops[0].kind is OpKind.SEQ


@dataclass(frozen=True)
class _Lifetime:
    """One register's lifetime facts on the control net."""

    defs: frozenset[str]
    uses: frozenset[str]
    live: frozenset[str]
    #: places with a successor where the register is live (live on exit)
    live_out: frozenset[str]
    reset: object


class _Analysis:
    """The facts the interference conditions read, gathered once.

    Built for one call and dropped with it.  Nothing here depends on a
    register merge except the representative's own facts: a merge keeps
    the net, ``C`` and every arc name, and moves only the merged
    register's arcs and guards onto the representative.
    """

    def __init__(self, system: DataControlSystem) -> None:
        self.system = system
        net = system.net
        self.registers = sorted(
            v.name for v in system.datapath.vertices.values()
            if _is_plain_register(v))
        self.predecessors: dict[str, set[str]] = {p: set() for p in net.places}
        for t in net.transitions:
            preset = net.preset(t)
            for q in net.postset(t):
                self.predecessors[q].update(preset)
        self.controlling: dict[str, set[str]] = {}
        for place, arcs in system.control.items():
            for arc in arcs:
                self.controlling.setdefault(arc, set()).add(place)
        # a guard reads its port's vertex and every sequential vertex the
        # port traces back to, while the transition's input places are marked
        self.guard_uses: dict[str, set[str]] = {}
        for transition, ports in system.guards.items():
            preset = net.preset(transition)
            for port in ports:
                for reader in sequential_sources(system, port) | {port.vertex}:
                    self.guard_uses.setdefault(reader, set()).update(preset)
        self.initial = frozenset(p for p, n in net.initial.items() if n > 0)
        self._facts: dict[str, _Lifetime] = {}
        self._near: dict[str, tuple[frozenset[str], frozenset[str]]] = {}

    def facts(self, register: str) -> _Lifetime:
        facts = self._facts.get(register)
        if facts is None:
            dp = self.system.datapath
            vertex = dp.vertex(register)
            defs = self._states(dp.arcs_into(p) for p in vertex.input_ids())
            uses = self._states(dp.arcs_from(p) for p in vertex.output_ids())
            uses |= self.guard_uses.get(register, frozenset())
            reset = (vertex.initial_value(vertex.out_ports[0])
                     if vertex.out_ports else UNDEF)
            facts = self._facts[register] = self._lifetime(defs, uses, reset)
        return facts

    def _states(self, arc_lists) -> frozenset[str]:
        return frozenset(place for arcs in arc_lists for arc in arcs
                         for place in self.controlling.get(arc.name, ()))

    def _lifetime(self, defs: frozenset[str], uses: frozenset[str],
                  reset: object) -> _Lifetime:
        """Backward may-liveness from ``uses``, stopped by ``defs`` (the
        fixpoint of :func:`live_places`)."""
        live = set(uses)
        stack = list(uses)
        while stack:
            for place in self.predecessors[stack.pop()]:
                if place not in live and place not in defs:
                    live.add(place)
                    stack.append(place)
        live_out = frozenset(p for q in live for p in self.predecessors[q])
        return _Lifetime(defs, uses, frozenset(live), live_out, reset)

    def reset_observable(self, register: str) -> bool:
        """Is the register live at an initially marked place?"""
        return not self.facts(register).live.isdisjoint(self.initial)

    def merged(self, r_1: str, r_2: str) -> None:
        """Refresh the facts after :func:`_merge_register` folded ``r_1``
        into ``r_2``: its defs and uses are now ``r_2``'s as well."""
        f_1, f_2 = self.facts(r_1), self.facts(r_2)
        self._facts[r_2] = self._lifetime(
            f_1.defs | f_2.defs, f_1.uses | f_2.uses,
            f_1.reset if self.reset_observable(r_1) else f_2.reset)
        del self._facts[r_1]
        self._near.pop(r_1, None)
        self._near.pop(r_2, None)

    @cached_property
    def coexistent(self) -> dict[str, set[str]] | None:
        """Place → places it may be marked together with (itself included
        when it can hold two tokens); ``None`` when the budget ran out.

        Read from the system's cached default answer, and only on first
        need, so a call decided by condition 1 explores nothing."""
        pairs, complete = self.system.coexistence()
        if not complete:
            return None
        adjacency: dict[str, set[str]] = {}
        for pair in pairs:
            members = tuple(pair)
            p, q = members[0], members[-1]
            adjacency.setdefault(p, set()).add(q)
            adjacency.setdefault(q, set()).add(p)
        return adjacency

    def _near_sets(self, register: str
                   ) -> tuple[frozenset[str], frozenset[str]]:
        """Places coexistent with a place where the register is live, and
        with a place that writes it."""
        near = self._near.get(register)
        if near is None:
            adjacency = self.coexistent
            facts = self.facts(register)
            near = self._near[register] = (
                frozenset(q for p in facts.live for q in adjacency.get(p, ())),
                frozenset(q for p in facts.defs for q in adjacency.get(p, ())))
        return near

    def interference(self, r_1: str, r_2: str) -> InterferenceReport:
        """The five conditions of :func:`registers_interfere`, in order.

        Within a condition the witness named is the first in place-name
        order.
        """
        f_1, f_2 = self.facts(r_1), self.facts(r_2)
        both = f_1.live & f_2.live
        if both:
            return InterferenceReport(
                True, f"both live on entry to {sorted(both)[:3]}")
        adjacency = self.coexistent
        if adjacency is None:
            return InterferenceReport(True, "reachability budget exhausted — "
                                            "assuming interference")
        near_live_1, _ = self._near_sets(r_1)
        near_live_2, near_defs_2 = self._near_sets(r_2)
        crossing = f_1.live & near_live_2
        if crossing:
            p, q = min(tuple(sorted((p, q))) for p in crossing
                       for q in adjacency[p] & f_2.live)
            return InterferenceReport(
                True, f"live in coexistent places {p!r} / {q!r}")
        for writer, reader, victim, near_live in (
                (f_1, f_2, r_2, near_live_2), (f_2, f_1, r_1, near_live_1)):
            hit = writer.defs & (reader.live_out | near_live)
            if not hit:
                continue
            place = min(hit)
            if place in reader.live_out:
                return InterferenceReport(
                    True, f"write at {place!r} would destroy the live "
                          f"value of {victim!r}")
            other = min(adjacency[place] & reader.live)
            return InterferenceReport(
                True, f"write at {place!r} coexists with "
                      f"{other!r} where {victim!r} is live")
        same = f_1.defs & f_2.defs
        if same:
            return InterferenceReport(
                True, f"written in the same state {sorted(same)[:2]}")
        racing = f_1.defs & near_defs_2
        if racing:
            p = min(racing)
            q = min(adjacency[p] & f_2.defs)
            return InterferenceReport(
                True, f"written in coexistent states {p!r} / {q!r}")
        # a register live at an initially marked place carries its reset
        # value into the merged storage
        if self.reset_observable(r_1) and self.reset_observable(r_2):
            i_1, i_2 = f_1.reset, f_2.reset
            if i_1 is UNDEF or i_2 is UNDEF or i_1 != i_2:
                return InterferenceReport(
                    True, "both reset values are observable and differ")
        return InterferenceReport(False)


def def_states(system: DataControlSystem, register: str) -> frozenset[str]:
    """States that (may) latch a new value into the register."""
    return _Analysis(system).facts(register).defs


def use_states(system: DataControlSystem, register: str) -> frozenset[str]:
    """States whose activity reads the register's current value.

    Arcs from the register's output port read it directly; a transition
    guarded by a port combinationally derived from the register reads it
    while the transition's input places are marked.
    """
    return _Analysis(system).facts(register).uses


def live_places(system: DataControlSystem, register: str) -> frozenset[str]:
    """Places where the register is live on entry (backward may-liveness).

    ``live_in(p) = use(p) ∨ (¬def(p) ∧ ∨_{q ∈ succ(p)} live_in(q))`` —
    within one state, reads observe the *old* value (latches commit at
    departure), so a state that both uses and defines keeps the register
    live on entry.
    """
    return _Analysis(system).facts(register).live


@dataclass
class InterferenceReport:
    """Why two registers may or may not share storage."""

    interferes: bool
    reason: str = ""


def registers_interfere(system: DataControlSystem, r_1: str, r_2: str
                        ) -> InterferenceReport:
    """Do the two registers' value lifetimes ever overlap?

    Five conditions, any of which blocks sharing:

    1. both live on entry to some place (two values needed at once), or
       live in two coexistent places;
    2. a write to one kills the other's still-needed value — the classic
       "defined where the other is live(-out)" interference;
    3. the concurrent variant of 2: a write in a place coexistent with a
       place where the other is live;
    4. writes race: both written in the same or coexistent places (even
       dead values must not double-latch one storage in a single step);
    5. both reset values observable (live at the initial marking) but
       different.

    An incomplete coexistence relation (reachability budget exhausted)
    counts as interference once condition 1's same-place test passes.
    """
    return _Analysis(system).interference(r_1, r_2)


def register_merge_candidates(system: DataControlSystem, *, limit: int
                              ) -> list[tuple[str, str]]:
    """For each plain register in name order, the first later register
    it may share storage with — at most ``limit`` pairs."""
    analysis = _Analysis(system)
    registers = analysis.registers
    pairs: list[tuple[str, str]] = []
    for i, r_1 in enumerate(registers):
        if len(pairs) >= limit:
            break
        for r_2 in registers[i + 1:]:
            if not analysis.interference(r_1, r_2).interferes:
                pairs.append((r_1, r_2))
                break
    return pairs


def _copy_keeping_caches(system: DataControlSystem) -> DataControlSystem:
    """Copy for a register merge, which leaves the net untouched: the
    structural relations and coexistence answer stay valid."""
    result = system.copy()
    result._relations = system._relations
    result._coexistence = system._coexistence
    return result


def _merge_register(system: DataControlSystem, r_1: str, r_2: str,
                    keep_reset_of_1: bool) -> None:
    """Fold register ``r_1`` into ``r_2`` in place.

    Arc names are kept and ``C`` is untouched; guards are remapped.  The
    survivor takes ``r_1``'s reset value when ``keep_reset_of_1`` (the
    one live at the initial marking; legality forbids both differing).
    """
    dp = system.datapath
    if keep_reset_of_1:
        v_1, v_2 = dp.vertex(r_1), dp.vertex(r_2)
        dp.vertices[r_2] = type(v_2)(
            v_2.name, v_2.in_ports, v_2.out_ports, dict(v_2.ops),
            {v_2.out_ports[0]: v_1.initial_value(v_1.out_ports[0])},
        )

    def remap(port: PortId) -> PortId:
        if port.vertex == r_1:
            return PortId(r_2, port.port)
        return port

    for arc in list(dp.arcs.values()):
        if arc.source.vertex == r_1 or arc.target.vertex == r_1:
            dp.remove_arc(arc.name)
            dp.connect(remap(arc.source), remap(arc.target), name=arc.name)
    for transition, ports in list(system.guards.items()):
        system.guards[transition] = {remap(p) for p in ports}
    dp.remove_vertex(r_1)


@dataclass
class RegisterMerger(Transformation):
    """Merge register ``r_1`` into ``r_2`` when their lifetimes never
    overlap.

    The rewrite is structurally identical to the Definition 4.6 vertex
    merger (arc names preserved, ``C`` untouched, guards remapped); only
    the *legality* differs — lifetime disjointness replaces operation
    interchangeability.
    """

    r_1: str
    r_2: str

    preserves = "behavioural"

    def describe(self) -> str:
        return f"share_register({self.r_1} -> {self.r_2})"

    def is_legal(self, system: DataControlSystem) -> Legality:
        if self.r_1 == self.r_2:
            return Legality(False, "cannot merge a register with itself")
        for name in (self.r_1, self.r_2):
            vertex = system.datapath.vertices.get(name)
            if vertex is None or not _is_plain_register(vertex):
                return Legality(False,
                                f"{name!r} is not a plain register")
        report = registers_interfere(system, self.r_1, self.r_2)
        if report.interferes:
            return Legality(False, f"lifetimes interfere: {report.reason}")
        return Legality(True)

    def _rewrite(self, system: DataControlSystem) -> DataControlSystem:
        keep_reset_of_1 = _Analysis(system).reset_observable(self.r_1)
        result = _copy_keeping_caches(system)
        _merge_register(result, self.r_1, self.r_2, keep_reset_of_1)
        return result


@dataclass
class RegisterSharingReport:
    """Outcome of the greedy register-sharing pass."""

    merges: list[tuple[str, str]] = field(default_factory=list)
    registers_before: int = 0
    registers_after: int = 0

    def summary(self) -> str:
        return (f"shared {len(self.merges)} register(s): "
                f"{self.registers_before} -> {self.registers_after}")


def share_registers(system: DataControlSystem
                    ) -> tuple[DataControlSystem, RegisterSharingReport]:
    """Greedy register binning by interference (first-fit).

    Like functional-unit allocation this is first-fit on a graph whose
    optimal colouring is NP-hard; first-fit matches period practice.
    Registers are taken in name order; each merges into the first bin
    whose representative it does not interfere with (see
    :func:`registers_interfere`), or opens a new bin.

    One lifetime analysis serves the whole pass: each register's facts
    are computed once, and a merge recomputes only the representative's.
    The input is copied once, at the first merge, and every merge is
    applied to that copy; it keeps the input's structural relations and
    coexistence answer, since register merges leave the net untouched.
    With nothing to merge the input itself is returned.
    """
    # the analysis reads the untouched input; merged() keeps the one
    # register whose facts a merge changes in step with the copy
    analysis = _Analysis(system)
    report = RegisterSharingReport(
        registers_before=len(analysis.registers))
    current = system
    bins: list[str] = []
    for name in analysis.registers:
        for representative in bins:
            if analysis.interference(name, representative).interferes:
                continue
            if current is system:
                current = _copy_keeping_caches(system)
            _merge_register(current, name, representative,
                            analysis.reset_observable(name))
            analysis.merged(name, representative)
            report.merges.append((name, representative))
            break
        else:
            bins.append(name)
    report.registers_after = report.registers_before - len(report.merges)
    return current, report
