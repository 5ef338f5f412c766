"""Transformation verification utilities.

Structural checkers live next to their definitions in
:mod:`repro.core.equivalence`; this module layers the *behavioural*
verification on top: simulate both systems against the same environments
(and several firing policies) and compare external event structures —
the executable statement of Theorems 4.1 and 4.2.

``backend`` picks the engine and the default policy battery, nothing
else: ``"explicit"`` runs the interpreter under maximal, sequential and
three random-seed policies; ``"symbolic"`` runs the compiled vector
engine (:mod:`repro.semantics.vector`) under the deterministic battery
it emulates (maximal, sequential, three seeded maximal), and the
interpreter for any policy outside it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..core.equivalence import _check_backend, _run
from ..core.system import DataControlSystem
from ..semantics.environment import Environment
from ..semantics.event_structure import (
    default_policy_sweep,
    event_structure_from_trace,
)
from ..semantics.policies import (
    MaximalStepPolicy,
    SeededMaximalPolicy,
    SequentialPolicy,
)


@dataclass
class BehaviouralReport:
    """Result of a behavioural equivalence sweep."""

    equivalent: bool
    environments_checked: int = 0
    policies_checked: int = 0
    failure: str = ""
    backend: str = "explicit"

    def __bool__(self) -> bool:
        return self.equivalent


def _vector_policy_sweep():
    """The deterministic battery the compiled vector backend supports."""
    return [MaximalStepPolicy(), SequentialPolicy(),
            SeededMaximalPolicy(1), SeededMaximalPolicy(2),
            SeededMaximalPolicy(3)]


def behaviourally_equivalent(before: DataControlSystem,
                             after: DataControlSystem,
                             environments: Sequence[Environment], *,
                             policies=None,
                             max_steps: int = 10_000,
                             backend: str = "explicit") -> BehaviouralReport:
    """Compare event structures across environments × firing policies.

    Both systems consume forked copies of every environment, and the
    *after* system is additionally exercised under the whole policy
    battery (the *before* system under the default maximal-step policy —
    if ``before`` is properly designed its structure is policy-invariant,
    and comparing each ``after``-policy against it covers both systems).
    """
    _check_backend(backend, "verification")
    if policies is not None:
        battery = list(policies)
    elif backend == "symbolic":
        battery = _vector_policy_sweep()
    else:
        battery = default_policy_sweep()
    if not environments or not battery:
        raise ValueError(
            "at least one environment and one policy are required")

    def observe(system, environment, policy):
        trace = _run(system, environment.fork(), policy,
                     max_steps=max_steps, backend=backend)
        return event_structure_from_trace(system, trace)

    checked_policies = 0
    for env_index, environment in enumerate(environments):
        reference = observe(before, environment, MaximalStepPolicy())
        for policy in battery:
            candidate = observe(after, environment, policy)
            checked_policies += 1
            if not reference.semantically_equal(candidate):
                difference = reference.explain_difference(candidate)
                return BehaviouralReport(
                    False, env_index + 1, checked_policies,
                    f"environment #{env_index}: {difference}",
                    backend=backend,
                )
    return BehaviouralReport(True, len(environments), checked_policies,
                             backend=backend)


def assert_behaviourally_equivalent(before: DataControlSystem,
                                    after: DataControlSystem,
                                    environments: Sequence[Environment], *,
                                    max_steps: int = 10_000,
                                    backend: str = "explicit") -> None:
    """Raise :class:`AssertionError` with the diff if the sweep fails."""
    report = behaviourally_equivalent(before, after, environments,
                                      max_steps=max_steps, backend=backend)
    if not report:
        raise AssertionError(
            f"systems are not behaviourally equivalent: {report.failure}"
        )
