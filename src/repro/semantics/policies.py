"""Firing policies: which fireable transitions advance in one step.

The Petri-net firing rule is non-deterministic; a *policy* resolves the
choice.  For **properly designed** systems (Definition 3.2) the choice is
immaterial — the net is conflict-free, so every policy produces the same
external event structure — and the test suite uses the policies below to
verify exactly that.  The default, :class:`MaximalStepPolicy`, models the
synchronous hardware interpretation: every independent control stream
advances on each clock tick.
"""

from __future__ import annotations

import random
from typing import Protocol, Sequence

from ..petri.execution import GuardEval, maximal_step
from ..petri.marking import Marking
from ..petri.net import PetriNet


class FiringPolicy(Protocol):
    """Strategy interface: pick the step to fire at the current marking."""

    def choose(self, net: PetriNet, marking: Marking,
               guard_eval: GuardEval) -> list[str]:
        """Return the (possibly empty) list of transitions to fire now."""
        ...


class MaximalStepPolicy:
    """Fire a maximal conflict-free set of fireable transitions (default).

    Models one synchronous clock tick: all independent control signals
    advance together.
    """

    def choose(self, net: PetriNet, marking: Marking,
               guard_eval: GuardEval) -> list[str]:
        return maximal_step(net, marking, guard_eval)


class SequentialPolicy:
    """Fire exactly one transition per step, lowest name first.

    The fully interleaved, deterministic schedule — useful as the second
    point of the policy-invariance tests.  Only the index's candidates
    (consumers of marked places and preset-less transitions) are sorted:
    no other transition can be enabled.
    """

    def choose(self, net: PetriNet, marking: Marking,
               guard_eval: GuardEval) -> list[str]:
        candidates = net.token_index().candidates(marking)
        step = maximal_step(net, marking, guard_eval,
                            priority=sorted(candidates))
        return step[:1]


class SeededMaximalPolicy:
    """Maximal step over a seeded-random candidate order.

    Unlike :class:`MaximalStepPolicy` (deterministic insertion order)
    the greedy scan considers transitions in an order shuffled by one
    seeded :class:`random.Random` — the reproducible way to explore how
    conflict resolution lands when a fault *makes* the net conflicted.
    Identical seeds give byte-identical traces; on a conflict-free
    system the chosen step *set* matches :class:`MaximalStepPolicy`
    (only the in-step order varies).  ``repro simulate --seed`` and the
    fault-campaign runner use this policy.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._rng = random.Random(seed)

    def choose(self, net: PetriNet, marking: Marking,
               guard_eval: GuardEval) -> list[str]:
        return maximal_step(net, marking, guard_eval, rng=self._rng)


class RandomPolicy:
    """Fire a random non-empty subset of a randomly ordered maximal step.

    Seeded, so runs are reproducible; distinct seeds explore distinct
    interleavings.
    """

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)

    def choose(self, net: PetriNet, marking: Marking,
               guard_eval: GuardEval) -> list[str]:
        order = list(net.transitions)
        self._rng.shuffle(order)
        step = maximal_step(net, marking, guard_eval, priority=order)
        if len(step) <= 1:
            return step
        keep = self._rng.randint(1, len(step))
        return step[:keep]


class ScriptedPolicy:
    """Replay an explicit firing sequence, one transition per step.

    Drives the simulator through a *specific* interleaving — the bridge
    between the exhaustive enumerator
    (:func:`repro.petri.reachability.firing_sequences`) and the full
    semantics: enumerate every interleaving of a bounded system, replay
    each, and check the external event structures coincide.  Raises
    :class:`~repro.errors.ExecutionError` if the scripted transition is
    not fireable (the script does not match the system); returns an empty
    step when the script is exhausted.
    """

    def __init__(self, sequence: Sequence[str]) -> None:
        self._sequence = list(sequence)
        self._position = 0

    def choose(self, net: PetriNet, marking: Marking,
               guard_eval: GuardEval) -> list[str]:
        from ..errors import ExecutionError
        from ..petri.execution import may_fire

        if self._position >= len(self._sequence):
            return []
        transition = self._sequence[self._position]
        if not may_fire(net, marking, transition, guard_eval):
            raise ExecutionError(
                f"scripted transition {transition!r} is not fireable at "
                f"step {self._position}"
            )
        self._position += 1
        return [transition]


class FixedOrderPolicy:
    """Single-firing policy following an explicit priority list.

    Transitions missing from the priority list are appended in name order.
    Used to force specific interleavings in regression tests.
    """

    def __init__(self, priority: Sequence[str]) -> None:
        self._priority = list(priority)

    def choose(self, net: PetriNet, marking: Marking,
               guard_eval: GuardEval) -> list[str]:
        order = self._priority + sorted(set(net.transitions) - set(self._priority))
        step = maximal_step(net, marking, guard_eval, priority=order)
        return step[:1]
