"""Fault injection — :class:`FaultInjector` turns specs into hook calls.

One injector carries a whole fault *list* (usually a single fault per
campaign job, but the hook composes).  At the top of every step it
decides which faults are **active** — inside their step window, their
controlling place marked, their probability gate drawn true from the
per-fault seeded RNG — and then:

* token faults rewrite the marking through a
  :class:`~repro.semantics.simulator.StepPerturbation`;
* arc glitches force arcs open/closed the same way;
* ``bit_flip`` pokes the sequential state directly
  (:meth:`~repro.semantics.simulator.Simulator.poke_state`), which the
  next combinational pass reads;
* ``stuck_at`` and ``guard_invert`` resolve through the simulator's
  value tap (``resolve_value``); a stuck-at fault sets
  :attr:`~repro.semantics.simulator.SimHook.perturbs_values` so the
  simulator calls the port taps while the injector is attached.

Every *effective* application is recorded in :attr:`FaultInjector.
injections` as ``(step, fault_index)`` — the campaign reads
:attr:`first_injection_step` to compute detection latency, and an empty
record means the fault never materialised (e.g. its window fell past the
end of the run, or the target place never held a token).
"""

from __future__ import annotations

import random
from typing import Sequence

from ..datapath.ports import PortId
from ..petri.marking import Marking
from ..semantics.simulator import SimHook, Simulator, StepPerturbation
from ..values import UNDEF, Value, is_defined
from .spec import FaultSpec, resolve_seeds

_TOKEN_KINDS = ("token_loss", "token_duplicate", "token_misroute")


class FaultInjector(SimHook):
    """Apply a list of :class:`~repro.faults.spec.FaultSpec`\\ s to a run.

    ``seed`` fills in the per-fault seeds of specs that carry
    ``seed=None`` (deterministically, per fault index); a spec with an
    explicit seed keeps it.  Attach the injector *before* any monitors
    in the simulator's hook list, so monitors observe the perturbed
    marking.
    """

    def __init__(self, specs: Sequence[FaultSpec], seed: int = 0) -> None:
        self.specs: list[FaultSpec] = resolve_seeds(list(specs), seed)
        self._rngs = [random.Random(spec.seed) for spec in self.specs]
        self._done = [False] * len(self.specs)
        self._active_now: set[int] = set()
        #: Effective applications, in order: (step, fault index).
        self.injections: list[tuple[int, int]] = []
        self._recorded_this_step: set[int] = set()
        # stuck-at faults rewrite combinational port values: ask the
        # simulator to call the port taps
        self.perturbs_values = any(spec.kind == "stuck_at"
                                   for spec in self.specs)
        self._port_faults: dict[PortId, list[int]] = {}
        self._guard_faults: dict[str, list[int]] = {}
        for index, spec in enumerate(self.specs):
            if spec.kind == "stuck_at":
                self._port_faults.setdefault(
                    PortId.parse(spec.target), []).append(index)
            elif spec.kind == "guard_invert":
                self._guard_faults.setdefault(spec.target, []).append(index)

    # ------------------------------------------------------------------
    @property
    def injection_count(self) -> int:
        """Number of effective fault applications over the run."""
        return len(self.injections)

    @property
    def first_injection_step(self) -> int | None:
        """Step of the first effective application (None: never applied)."""
        return self.injections[0][0] if self.injections else None

    def _record(self, step: int, index: int) -> None:
        if index not in self._recorded_this_step:
            self._recorded_this_step.add(index)
            self.injections.append((step, index))
        if self.specs[index].once:
            self._done[index] = True

    def _in_window(self, spec: FaultSpec, index: int, step: int,
                   marking: Marking) -> bool:
        if self._done[index]:
            return False
        if step < spec.start:
            return False
        if spec.end is not None and step > spec.end:
            return False
        if spec.while_place is not None and marking[spec.while_place] <= 0:
            return False
        if spec.probability < 1.0:
            return self._rngs[index].random() < spec.probability
        return True

    # ------------------------------------------------------------------
    # hook methods
    # ------------------------------------------------------------------
    def pre_step(self, sim: Simulator, step: int,
                 marking: Marking) -> StepPerturbation | None:
        self._recorded_this_step = set()
        self._active_now = {
            index for index, spec in enumerate(self.specs)
            if self._in_window(spec, index, step, marking)
        }
        if not self._active_now:
            return None
        opens: set[str] = set()
        closes: set[str] = set()
        current = marking
        for index in sorted(self._active_now):
            spec = self.specs[index]
            kind = spec.kind
            if kind in _TOKEN_KINDS:
                count = current[spec.target]
                if count <= 0:
                    continue  # nothing to lose / duplicate / move
                if kind == "token_loss":
                    current = current.with_tokens(**{spec.target: count - 1})
                elif kind == "token_duplicate":
                    current = current.with_tokens(**{spec.target: count + 1})
                else:  # token_misroute
                    assert spec.to_place is not None
                    current = current.with_tokens(**{
                        spec.target: count - 1,
                        spec.to_place: current[spec.to_place] + 1,
                    })
                self._record(step, index)
            elif kind == "arc_open":
                opens.add(spec.target)
                self._record(step, index)
            elif kind == "arc_close":
                closes.add(spec.target)
                self._record(step, index)
            elif kind == "bit_flip":
                port = PortId.parse(spec.target)
                value = sim.state_value(port)
                if is_defined(value) and isinstance(value, int):
                    sim.poke_state(port, value ^ (1 << spec.bit))
                    self._record(step, index)
                # an UNDEF register has no bit to flip: the fault waits
                # (and does not consume its `once` budget)
            else:
                # stuck_at / guard_invert materialise in resolve_value;
                # the activation itself is the injection
                self._record(step, index)
        if current is not marking or opens or closes:
            return StepPerturbation(
                marking=current if current is not marking else None,
                open_arcs=frozenset(opens), close_arcs=frozenset(closes))
        return None

    def resolve_value(self, sim: Simulator, step: int, kind: str,
                      target, value: Value) -> Value:
        if kind == "port":
            for index in self._port_faults.get(target, ()):
                if index in self._active_now:
                    spec = self.specs[index]
                    value = UNDEF if spec.value == "undef" else spec.value
        elif kind == "guard":
            for index in self._guard_faults.get(target, ()):
                if index in self._active_now:
                    value = not value
        return value
