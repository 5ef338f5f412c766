"""Unit tests for the shared resilience primitives."""

from __future__ import annotations

import os
import signal
import threading

import pytest

from repro.errors import DefinitionError
from repro.runtime.resilience import (
    Backoff,
    ConnectionBreaker,
    Deadline,
    GracefulShutdown,
    parse_retry_after,
)


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestBackoff:
    def test_ceiling_doubles_until_cap(self):
        policy = Backoff(0.1, cap=0.5)
        assert policy.ceiling(1) == pytest.approx(0.1)
        assert policy.ceiling(2) == pytest.approx(0.2)
        assert policy.ceiling(3) == pytest.approx(0.4)
        assert policy.ceiling(4) == pytest.approx(0.5)  # capped
        assert policy.ceiling(10) == pytest.approx(0.5)

    def test_uncapped_matches_raw_exponential(self):
        policy = Backoff(0.05, cap=None)
        assert policy.ceiling(6) == pytest.approx(0.05 * 32)

    def test_delay_is_within_the_window(self):
        policy = Backoff(0.1, cap=1.0, seed=123)
        for attempt in range(1, 8):
            delay = policy.delay(attempt)
            assert 0.0 <= delay <= policy.ceiling(attempt)

    def test_seeded_schedules_reproduce(self):
        a = [Backoff(0.1, seed=42).delay(n) for n in range(1, 6)]
        b = [Backoff(0.1, seed=42).delay(n) for n in range(1, 6)]
        assert a == b
        c = [Backoff(0.1, seed=43).delay(n) for n in range(1, 6)]
        assert a != c

    def test_base_override_per_call(self):
        policy = Backoff(0.05, cap=None, seed=1)
        assert policy.ceiling(3, base=0.2) == pytest.approx(0.8)

    def test_attempt_must_be_positive(self):
        with pytest.raises(DefinitionError):
            Backoff(0.1).ceiling(0)

    def test_negative_base_or_cap_rejected(self):
        with pytest.raises(DefinitionError):
            Backoff(-0.1)
        with pytest.raises(DefinitionError):
            Backoff(0.1, cap=-1.0)


class TestDeadline:
    def test_unbounded_never_expires(self):
        deadline = Deadline(None)
        assert deadline.remaining() == float("inf")
        assert not deadline.expired
        assert deadline.clamp(3.0) == 3.0

    def test_remaining_counts_down(self):
        clock = FakeClock()
        deadline = Deadline(2.0, clock=clock)
        assert deadline.remaining() == pytest.approx(2.0)
        clock.advance(1.5)
        assert deadline.remaining() == pytest.approx(0.5)
        assert not deadline.expired
        clock.advance(1.0)
        assert deadline.expired

    def test_clamp_bounds_a_timeout(self):
        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)
        assert deadline.clamp(30.0) == pytest.approx(1.0)
        assert deadline.clamp(0.2) == pytest.approx(0.2)
        clock.advance(2.0)
        assert deadline.clamp(30.0) == 0.0  # never negative


class TestParseRetryAfter:
    def test_absent_is_none(self):
        assert parse_retry_after(None) is None

    def test_delay_seconds(self):
        assert parse_retry_after("2.5") == pytest.approx(2.5)
        assert parse_retry_after(" 10 ") == pytest.approx(10.0)

    def test_negative_means_now(self):
        assert parse_retry_after("-3") == 0.0

    def test_http_date_and_garbage_are_none(self):
        assert parse_retry_after("Wed, 21 Oct 2015 07:28:00 GMT") is None
        assert parse_retry_after("soon") is None


class TestConnectionBreaker:
    def _make(self, **kwargs):
        clock = {"now": 0.0}
        breaker = ConnectionBreaker(clock=lambda: clock["now"], **kwargs)
        return breaker, clock

    def test_starts_closed_and_allows(self):
        breaker, _clock = self._make()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_opens_after_consecutive_failures(self):
        breaker, _clock = self._make(failure_threshold=3)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.short_circuits == 1

    def test_success_resets_the_streak(self):
        breaker, _clock = self._make(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"  # streak broken, never reached 2

    def test_half_open_after_recovery_lets_one_probe(self):
        breaker, clock = self._make(failure_threshold=1,
                                    recovery_seconds=5.0)
        breaker.record_failure()
        assert not breaker.allow()
        clock["now"] = 6.0
        assert breaker.state == "half_open"
        assert breaker.allow()        # the single probe slot
        assert not breaker.allow()    # second caller is refused
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_failed_probe_reopens_and_restarts_the_clock(self):
        breaker, clock = self._make(failure_threshold=1,
                                    recovery_seconds=5.0)
        breaker.record_failure()
        clock["now"] = 6.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        clock["now"] = 10.0           # only 4s since reopen: still open
        assert not breaker.allow()
        clock["now"] = 11.5
        assert breaker.state == "half_open"

    def test_transitions_and_report(self):
        breaker, clock = self._make(failure_threshold=1,
                                    recovery_seconds=1.0)
        breaker.record_failure()      # closed -> open
        clock["now"] = 2.0
        breaker.allow()               # open -> half_open (+ probe)
        breaker.record_success()      # half_open -> closed
        report = breaker.report()
        assert report["state"] == "closed"
        assert report["transitions"] == 3
        assert report["failures"] == 1
        assert report["successes"] == 1
        assert report["consecutive_failures"] == 0

    def test_validation(self):
        with pytest.raises(DefinitionError):
            ConnectionBreaker(failure_threshold=0)
        with pytest.raises(DefinitionError):
            ConnectionBreaker(recovery_seconds=-1.0)


class TestGracefulShutdown:
    def test_first_signal_sets_event_second_raises(self):
        with GracefulShutdown() as shutdown:
            os.kill(os.getpid(), signal.SIGTERM)
            assert shutdown.stop_event.wait(timeout=2.0)
            assert shutdown.signals_seen == 1
            with pytest.raises(KeyboardInterrupt):
                os.kill(os.getpid(), signal.SIGTERM)
        # handlers restored on exit
        assert signal.getsignal(signal.SIGTERM) is not shutdown._handle

    def test_noop_outside_main_thread(self):
        seen = []

        def body():
            with GracefulShutdown() as shutdown:
                seen.append(shutdown._installed)

        thread = threading.Thread(target=body)
        thread.start()
        thread.join()
        assert seen == [False]
