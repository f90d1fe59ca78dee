"""Per-(benchmark, target) circuit breakers.

A cell that fails *permanently* (a guest trap, a validation mismatch —
anything :func:`repro.errors.classify` marks non-transient) will fail
again on every retry: its failures are deterministic.  Without a
breaker, a popular broken benchmark burns a worker slot per submission.
The breaker fails such submissions fast instead:

* **closed** — normal; consecutive permanent failures are counted.
* **open** — :data:`THRESHOLD` consecutive permanent failures tripped
  it; submissions are rejected with ``circuit_open`` + ``retry_after``
  until :data:`RESET_SECONDS` pass.
* **half-open** — the reset timer expired; exactly one probe job is
  admitted.  Success closes the breaker, failure re-opens it for
  another full reset period.

Transient failures never count: the retry machinery owns those.
"""

from __future__ import annotations

import time

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"

#: Consecutive permanent failures that trip a breaker.
THRESHOLD = 3

#: Seconds an open breaker waits before admitting one half-open probe.
RESET_SECONDS = 15.0


class CircuitBreaker:
    """One breaker guarding one (benchmark, target) cell class."""

    def __init__(self, clock=time.monotonic):
        self.clock = clock
        self.state = CLOSED
        self.failures = 0          # consecutive permanent failures
        self.opened_at = None
        self.trips = 0

    def allow(self):
        """May a job for this cell class be admitted right now?

        Returns ``(True, 0.0)`` or ``(False, retry_after)``.  The
        transition to half-open happens here: the first caller after
        the reset timer becomes the probe.
        """
        if self.state == CLOSED:
            return True, 0.0
        now = self.clock()
        if self.state == OPEN:
            remaining = self.opened_at + RESET_SECONDS - now
            if remaining > 0:
                return False, remaining
            self.state = HALF_OPEN
            return True, 0.0
        # Half-open: the probe is already in flight; hold everyone else
        # until it reports.
        return False, RESET_SECONDS

    def record_success(self) -> None:
        self.state = CLOSED
        self.failures = 0
        self.opened_at = None

    def record_failure(self, permanent: bool) -> None:
        if not permanent:
            return
        self.failures += 1
        if self.state == HALF_OPEN or self.failures >= THRESHOLD:
            if self.state != OPEN:
                self.trips += 1
            self.state = OPEN
            self.opened_at = self.clock()

    def as_dict(self) -> dict:
        return {"state": self.state, "failures": self.failures,
                "trips": self.trips}

    def __repr__(self):
        return (f"<breaker {self.state} failures={self.failures}"
                f"/{THRESHOLD} trips={self.trips}>")


class BreakerBoard:
    """The breaker registry, keyed by (benchmark, target)."""

    def __init__(self, clock=time.monotonic, metrics=None):
        self.clock = clock
        self.metrics = metrics
        self._breakers: dict[tuple, CircuitBreaker] = {}

    def breaker(self, key: tuple) -> CircuitBreaker:
        b = self._breakers.get(key)
        if b is None:
            b = self._breakers[key] = CircuitBreaker(clock=self.clock)
        return b

    def allow(self, key: tuple):
        return self.breaker(key).allow()

    def record(self, key: tuple, success: bool, permanent: bool = False):
        b = self.breaker(key)
        trips_before = b.trips
        if success:
            b.record_success()
        else:
            b.record_failure(permanent)
        if self.metrics is not None and b.trips > trips_before:
            self.metrics.counter("serve.breaker_trips").inc()

    def as_dict(self) -> dict:
        return {"/".join(str(part) for part in key): b.as_dict()
                for key, b in sorted(self._breakers.items())}
