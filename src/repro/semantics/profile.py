"""Step-level observability for the simulation engine.

The simulator's hot loop is the two-phase step of Definition 3.1:
combinational fixpoint, then token game.  :class:`SimMetrics` counts
what each phase actually did — steps, port evaluations, peak marked
places, wall time per phase — and every
:class:`~repro.semantics.trace.Trace` carries one (``trace.metrics``).
The record is machine-readable (:meth:`SimMetrics.as_dict` /
:meth:`SimMetrics.to_json`) so benchmarks and the CLI
``simulate --profile`` flag can consume it without screen-scraping.

* :func:`profile_simulation` — run once, return the trace (metrics
  attached);
* :func:`traces_equivalent` — observational equality of two traces, the
  criterion every engine is held to against the interpreter.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

#: Fields :meth:`SimMetrics.from_dict` reads; any other key (derived
#: rates, or counters older records carried) is ignored.
_FIELDS = (
    "steps", "firings", "port_evaluations", "peak_marked_places",
    "combinational_seconds", "control_seconds", "wall_seconds",
)


@dataclass
class SimMetrics:
    """What one simulation run cost, phase by phase.

    ``port_evaluations`` counts combinational output-port evaluations
    (the unit of work of phase 1): each step evaluates the output ports
    of the COM vertices its open arcs drive (every other COM port holds
    its undriven value, computed once per simulator).
    """

    steps: int = 0
    firings: int = 0
    port_evaluations: int = 0
    peak_marked_places: int = 0
    combinational_seconds: float = 0.0
    control_seconds: float = 0.0
    wall_seconds: float = 0.0

    @property
    def steps_per_second(self) -> float:
        return self.steps / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def as_dict(self) -> dict:
        """JSON-ready representation (plain ints and floats)."""
        payload = {name: getattr(self, name) for name in _FIELDS}
        payload["steps_per_second"] = self.steps_per_second
        return payload

    def to_json(self, *, indent: int | None = None) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, payload: dict) -> "SimMetrics":
        """Inverse of :meth:`as_dict` (derived fields are recomputed)."""
        return cls(**{k: payload[k] for k in _FIELDS if k in payload})

    def summary(self) -> str:
        """Multi-line human-readable report (CLI ``--profile``)."""
        return "\n".join([
            "profile:",
            f"  steps                {self.steps}",
            f"  firings              {self.firings}",
            f"  port evaluations     {self.port_evaluations}",
            f"  peak marked places   {self.peak_marked_places}",
            f"  combinational phase  {self.combinational_seconds * 1e3:.2f} ms",
            f"  control phase        {self.control_seconds * 1e3:.2f} ms",
            f"  wall time            {self.wall_seconds * 1e3:.2f} ms"
            f" ({self.steps_per_second:,.0f} steps/s)",
        ])


def profile_simulation(system, environment=None, *, policy=None,
                       max_steps: int = 10_000, strict: bool = True,
                       on_limit: str = "raise") -> "Trace":
    """Run one simulation and return its trace with metrics attached.

    Identical to :func:`repro.semantics.simulator.simulate`; the
    returned ``trace.metrics`` is never ``None``.
    """
    from .simulator import simulate

    return simulate(system, environment, policy=policy, max_steps=max_steps,
                    strict=strict, on_limit=on_limit)


def traces_equivalent(a: "Trace", b: "Trace") -> bool:
    """Observational equality of two traces (metrics excluded).

    Compares everything a run can externally exhibit: events, fired
    steps, latches, conflicts, final marking/state, and the termination
    verdict.
    """
    return (a.events == b.events
            and a.steps == b.steps
            and a.latches == b.latches
            and a.conflicts == b.conflicts
            and a.final_marking == b.final_marking
            and a.final_state == b.final_state
            and a.terminated == b.terminated
            and a.deadlocked == b.deadlocked
            and a.step_count == b.step_count)
