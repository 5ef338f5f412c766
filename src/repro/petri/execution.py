"""The token game: enabling and firing rules (Definition 3.1(2)–(6)).

The firing rules here are *guard-aware* but data-path-agnostic: a guard
evaluator is passed in as a callable ``guard_eval(transition_name) -> bool``.
Plain nets use :func:`always_true`.  The full data/control flow simulator in
:mod:`repro.semantics.simulator` supplies an evaluator that reads guard
ports from the data path (Definition 3.1(4): multiple guards are OR-ed).
"""

from __future__ import annotations

import random
from typing import Callable, Collection, Sequence

from ..errors import ExecutionError
from .marking import Marking
from .net import PetriNet, TokenIndex

GuardEval = Callable[[str], bool]


def always_true(_transition: str) -> bool:
    """Guard evaluator for unguarded nets."""
    return True


def _preset(net: PetriNet, index: TokenIndex,
            transition: str) -> Collection[str]:
    """``•t`` from the index; a name that is no transition falls back to
    :meth:`PetriNet.preset` (which raises for unknown names)."""
    preset = index.presets.get(transition)
    return preset if preset is not None else net.preset(transition)


def is_enabled(net: PetriNet, marking: Marking, transition: str) -> bool:
    """Definition 3.1(3): a transition is enabled iff every input place
    holds at least one token."""
    return marking.covers(_preset(net, net.token_index(), transition))


def may_fire(net: PetriNet, marking: Marking, transition: str,
             guard_eval: GuardEval = always_true) -> bool:
    """Definition 3.1(4): a transition may fire iff it is enabled and its
    guard condition evaluates to true."""
    return is_enabled(net, marking, transition) and guard_eval(transition)


def enabled_transitions(net: PetriNet, marking: Marking) -> list[str]:
    """All enabled transitions (ignoring guards), in insertion order."""
    return net.token_index().enabled(marking)


def fireable_transitions(net: PetriNet, marking: Marking,
                         guard_eval: GuardEval = always_true) -> list[str]:
    """All transitions that are enabled *and* guard-true, in insertion order."""
    return [t for t in net.token_index().enabled(marking) if guard_eval(t)]


def fire(net: PetriNet, marking: Marking, transition: str,
         guard_eval: GuardEval = always_true) -> Marking:
    """Fire one transition (Definition 3.1(5)) and return the new marking.

    Raises :class:`~repro.errors.ExecutionError` if the transition is not
    fireable at ``marking``.
    """
    index = net.token_index()
    preset = _preset(net, index, transition)
    if not marking.covers(preset):
        raise ExecutionError(f"transition {transition!r} is not enabled")
    if not guard_eval(transition):
        raise ExecutionError(f"guard of transition {transition!r} is false")
    return marking.after_firing(preset, index.postsets[transition])


def fire_step(net: PetriNet, marking: Marking, transitions: Sequence[str],
              guard_eval: GuardEval = always_true) -> Marking:
    """Fire a *step* — a set of transitions simultaneously.

    The step must be conflict-free at ``marking``: every transition must be
    individually fireable and no two transitions may compete for a token
    (i.e. the multiset of consumed tokens must be covered by the marking).
    This models one synchronous clock tick of the hardware, where several
    independent control-flow streams advance together.
    """
    index = net.token_index()
    demand: dict[str, int] = {}
    consume: list[str] = []
    for t in transitions:
        preset = _preset(net, index, t)
        if not (marking.covers(preset) and guard_eval(t)):
            raise ExecutionError(f"transition {t!r} is not fireable in this step")
        for place in preset:
            demand[place] = demand.get(place, 0) + 1
        consume.extend(preset)
    for place, need in demand.items():
        if marking[place] < need:
            raise ExecutionError(
                f"step {list(transitions)!r} conflicts on place {place!r} "
                f"({need} tokens demanded, {marking[place]} available)"
            )
    postsets = index.postsets
    produce = [p for t in transitions for p in postsets[t]]
    return marking.after_firing(consume, produce)


def maximal_step(net: PetriNet, marking: Marking,
                 guard_eval: GuardEval = always_true,
                 priority: Sequence[str] | None = None,
                 rng: "random.Random | None" = None) -> list[str]:
    """Greedily select a maximal conflict-free set of fireable transitions.

    Transitions are considered in ``priority`` order (default: insertion
    order), and a transition joins the step iff the remaining tokens cover
    its preset.  For conflict-free (properly designed) systems the greedy
    choice is canonical: no two fireable transitions ever compete for a
    token, so the "maximal step" is simply *all* fireable transitions.

    Without ``priority`` and ``rng`` the scan visits only the index's
    :meth:`~repro.petri.net.TokenIndex.candidates` — every other
    transition has an unmarked preset place, so skipping it changes
    neither the step nor which guards are evaluated.

    ``rng`` (a seeded :class:`random.Random`) shuffles the candidate
    order before the greedy scan — the one entry point for seeded
    nondeterministic choice.  The same seed always yields the same step
    sequence, because the shuffle is the only randomness consumed.  The
    shuffle covers the full transition list, so the RNG consumption per
    step depends only on the net.
    """
    index = net.token_index()
    if priority is None and rng is None:
        order: Sequence[str] = index.candidates(marking)
    else:
        order = list(priority if priority is not None else index.transitions)
        if rng is not None:
            rng.shuffle(order)
    available: dict[str, int] = dict(marking)
    step: list[str] = []
    for t in order:
        preset = _preset(net, index, t)
        if not (marking.covers(preset) and guard_eval(t)):
            continue
        if all(available.get(p, 0) >= 1 for p in preset):
            for p in preset:
                available[p] = available.get(p, 0) - 1
            step.append(t)
    return step


def run_to_completion(net: PetriNet, *, guard_eval: GuardEval = always_true,
                      max_steps: int = 10_000,
                      marking: Marking | None = None,
                      rng: random.Random | None = None) -> tuple[Marking, list[list[str]]]:
    """Play the token game with maximal steps until quiescence.

    Returns the final marking and the fired step sequence.  Terminates when
    no transition can fire (covers both proper termination — no tokens left,
    Definition 3.1(6) — and deadlock) or when ``max_steps`` is exceeded, in
    which case an :class:`~repro.errors.ExecutionError` is raised (the net
    is assumed to be non-terminating).

    ``rng`` seeds the per-step candidate shuffle (see
    :func:`maximal_step`): the same seeded :class:`random.Random` always
    replays the same firing history.
    """
    current = marking if marking is not None else net.initial_marking()
    history: list[list[str]] = []
    for _ in range(max_steps):
        step = maximal_step(net, current, guard_eval, rng=rng)
        if not step:
            return current, history
        current = fire_step(net, current, step, guard_eval)
        history.append(step)
    raise ExecutionError(f"net did not quiesce within {max_steps} steps")
