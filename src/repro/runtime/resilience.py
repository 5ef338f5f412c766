"""Shared resilience primitives: backoff, deadlines, breakers, shutdown.

The batch engine retries with capped full-jitter exponential backoff;
the service client, the remote cache backend and the CLI entry points
need the same waiting, budgeting and stopping rules.  This module names
them once:

:class:`Backoff`
    The engine's seeded full-jitter schedule as a value: attempt ``n``
    waits uniformly in ``[0, min(cap, base · 2^(n-1))]``.  Seeding makes
    schedules reproducible in tests; the jitter keeps N clients blocked
    on the same 503 from re-arriving in lockstep (the thundering herd).
:class:`Deadline`
    A monotonic-clock budget for one *logical* operation spanning many
    attempts.  Distinct from a connect/read timeout: the timeout bounds
    one socket wait, the deadline bounds the whole retry loop, and the
    remaining budget travels to the server in the ``X-Repro-Deadline``
    header so an already-hopeless request is rejected before any work.
:func:`parse_retry_after`
    The ``Retry-After`` header (delay-seconds form) as a float, or
    ``None`` — how a load-shedding server names the polite re-arrival
    time and clients honor it instead of guessing.
:class:`ConnectionBreaker`
    The closed/open/half-open breaker shared by HTTP clients of one
    host, so a dead server costs one timeout rather than one per call.
:class:`GracefulShutdown`
    SIGTERM/SIGINT as a cooperative stop event the engine and the
    server poll, so a stopped run flushes its journal and exits with
    the conventional interrupted status instead of dying mid-write.
"""

from __future__ import annotations

import os
import random
import signal
import threading
from time import monotonic

from ..errors import DefinitionError

#: Header carrying a request's remaining deadline budget (seconds, float).
DEADLINE_HEADER = "X-Repro-Deadline"

#: Header a chaos proxy stamps on requests it tampered with (csv of kinds).
CHAOS_HEADER = "X-Repro-Chaos"


class Backoff:
    """Capped full-jitter exponential backoff with a seedable RNG.

    ``delay(n)`` draws uniformly from ``[0, min(cap, base · 2^(n-1))]``
    for attempt ``n >= 1`` — the "full jitter" variant, which spreads
    retries across the whole window instead of synchronising them at its
    edge.  ``seed=None`` is nondeterministic; tests pin it.

    The engine's historical schedule (no ceiling) is ``cap=None``.
    """

    def __init__(self, base: float = 0.05, *, cap: float | None = 2.0,
                 seed: int | None = None,
                 rng: random.Random | None = None) -> None:
        if base < 0:
            raise DefinitionError(f"backoff base must be >= 0, got {base}")
        if cap is not None and cap < 0:
            raise DefinitionError(f"backoff cap must be >= 0, got {cap}")
        self.base = base
        self.cap = cap
        self._rng = rng if rng is not None else random.Random(seed)

    def ceiling(self, attempt: int, *, base: float | None = None) -> float:
        """The window ceiling for attempt ``attempt`` (>= 1)."""
        if attempt < 1:
            raise DefinitionError(f"attempt must be >= 1, got {attempt}")
        raw = (self.base if base is None else base) * (2 ** (attempt - 1))
        return raw if self.cap is None else min(self.cap, raw)

    def delay(self, attempt: int, *, base: float | None = None) -> float:
        """One jittered delay for attempt ``attempt`` (consumes the RNG)."""
        return self._rng.uniform(0.0, self.ceiling(attempt, base=base))


class Deadline:
    """Remaining wall-clock budget for one logical operation.

    ``None`` seconds means unbounded (``remaining()`` is ``inf`` and
    ``expired`` is never true).  ``clock`` is injectable for tests.
    """

    def __init__(self, seconds: float | None, *, clock=monotonic) -> None:
        self._clock = clock
        self.seconds = seconds
        self._at = None if seconds is None else clock() + seconds

    def remaining(self) -> float:
        if self._at is None:
            return float("inf")
        return self._at - self._clock()

    @property
    def expired(self) -> bool:
        return self.remaining() <= 0.0

    def clamp(self, timeout: float) -> float:
        """``timeout`` bounded by the remaining budget (never below 0)."""
        return max(0.0, min(timeout, self.remaining()))


def parse_retry_after(value: str | None) -> float | None:
    """``Retry-After`` delay-seconds as a float; ``None`` when absent/odd.

    Only the delay-seconds form is parsed (the HTTP-date form would need
    wall-clock arithmetic no component here wants); negative values are
    treated as "retry now" (0.0).
    """
    if value is None:
        return None
    try:
        seconds = float(value.strip())
    except (AttributeError, ValueError):
        return None
    return max(0.0, seconds)


class ConnectionBreaker:
    """Closed/open/half-open circuit breaker for calls to one remote peer.

    A dead server usually comes back, and until it does every optimistic
    call costs a full connect timeout.  This breaker is the classic
    remote-call state machine shared by
    :class:`~repro.runtime.service.client.ServiceClient` and
    :class:`~repro.runtime.service.store.RemoteBackend`:

    * **closed** — calls flow; ``failure_threshold`` *consecutive*
      failures open the breaker.
    * **open** — :meth:`allow` refuses instantly (counted in
      :attr:`short_circuits`) until ``recovery_seconds`` have passed.
    * **half-open** — exactly one probe call is let through;
      success closes the breaker, failure re-opens it and restarts the
      recovery clock.

    One instance may be shared by several clients of the same host —
    that is the point: the first component to notice the host is dead
    spares all the others their timeouts.  Methods are thread-safe.
    """

    STATES = ("closed", "open", "half_open")

    def __init__(self, *, failure_threshold: int = 3,
                 recovery_seconds: float = 5.0, clock=monotonic) -> None:
        if failure_threshold < 1:
            raise DefinitionError(
                f"breaker failure_threshold must be >= 1, "
                f"got {failure_threshold}")
        if recovery_seconds < 0:
            raise DefinitionError(
                f"breaker recovery_seconds must be >= 0, "
                f"got {recovery_seconds}")
        self.failure_threshold = failure_threshold
        self.recovery_seconds = recovery_seconds
        self._clock = clock
        self._lock = threading.Lock()
        self._state = "closed"
        self._opened_at = 0.0
        self._probe_inflight = False
        self.consecutive_failures = 0
        self.successes = 0
        self.failures = 0
        self.short_circuits = 0
        self.transitions = 0  # every state change, for /v1/metrics

    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        with self._lock:
            return self._observe_state()

    def _observe_state(self) -> str:
        """Current state, promoting open → half-open when recovery is due."""
        if (self._state == "open"
                and self._clock() - self._opened_at >= self.recovery_seconds):
            self._transition("half_open")
            self._probe_inflight = False
        return self._state

    def _transition(self, state: str) -> None:
        if state != self._state:
            self._state = state
            self.transitions += 1

    # ------------------------------------------------------------------
    def allow(self) -> bool:
        """May a call proceed right now?  (Refusals are counted.)"""
        with self._lock:
            state = self._observe_state()
            if state == "closed":
                return True
            if state == "half_open" and not self._probe_inflight:
                self._probe_inflight = True  # exactly one probe at a time
                return True
            self.short_circuits += 1
            return False

    def record_success(self) -> None:
        with self._lock:
            self.successes += 1
            self.consecutive_failures = 0
            self._probe_inflight = False
            if self._state in ("half_open", "open"):
                self._transition("closed")

    def record_failure(self) -> None:
        with self._lock:
            self.failures += 1
            self.consecutive_failures += 1
            self._probe_inflight = False
            if self._state == "half_open" or (
                    self._state == "closed"
                    and self.consecutive_failures >= self.failure_threshold):
                self._transition("open")
                self._opened_at = self._clock()

    # ------------------------------------------------------------------
    def report(self) -> dict:
        """Observability record for ``/v1/metrics``."""
        with self._lock:
            return {
                "state": self._observe_state(),
                "successes": self.successes,
                "failures": self.failures,
                "consecutive_failures": self.consecutive_failures,
                "short_circuits": self.short_circuits,
                "transitions": self.transitions,
            }


class GracefulShutdown:
    """Convert SIGTERM/SIGINT into a cooperative stop event.

    Context manager for CLI entry points::

        with GracefulShutdown() as shutdown:
            batch = engine.run(jobs, stop_event=shutdown.stop_event)

    The first signal sets :attr:`stop_event` (the engine finishes its
    current tick, flushes journals, and returns partial results); a
    second signal raises :class:`KeyboardInterrupt` — the operator's
    escalation path.  Installing handlers outside the main thread is a
    no-op (signal handlers are main-thread-only in CPython), so library
    callers can use the class unconditionally.
    """

    _SIGNALS = (signal.SIGTERM, signal.SIGINT)

    def __init__(self) -> None:
        self.stop_event = threading.Event()
        self.signals_seen = 0
        self._pid = os.getpid()
        self._previous: dict[int, object] = {}
        self._installed = False

    def _handle(self, signum, _frame) -> None:
        if os.getpid() != self._pid:
            # forked worker inherited this handler: die with the default
            # semantics instead of driving the parent's shutdown logic
            signal.signal(signum, signal.SIG_DFL)
            os.kill(os.getpid(), signum)
            return
        self.signals_seen += 1
        self.stop_event.set()
        if self.signals_seen > 1:
            raise KeyboardInterrupt

    def __enter__(self) -> "GracefulShutdown":
        if threading.current_thread() is threading.main_thread():
            for signum in self._SIGNALS:
                self._previous[signum] = signal.getsignal(signum)
                signal.signal(signum, self._handle)
            self._installed = True
        return self

    def __exit__(self, *_exc) -> None:
        if self._installed:
            for signum, previous in self._previous.items():
                signal.signal(signum, previous)
            self._previous.clear()
            self._installed = False
