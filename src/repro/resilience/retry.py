"""Bounded retry with exponential backoff for transient failures."""

from __future__ import annotations

import hashlib
import time


def _jitter_fraction(seed, attempt: int) -> float:
    """A deterministic uniform draw in [0, 1) for (seed, attempt).

    Hashed rather than drawn from a stateful RNG so ``delay(attempt)``
    is a pure function — reorderings or repeated calls never shift the
    schedule, and failure manifests stay reproducible per seed.
    """
    digest = hashlib.sha256(f"{seed}|{attempt}".encode()).digest()
    return int.from_bytes(digest[:8], "little") / 2.0 ** 64


class RetryPolicy:
    """How many times to retry a cell, and how long to wait between.

    The base schedule is ``base_delay * 2**attempt`` capped at
    ``max_delay`` — classic exponential backoff.  ``jitter`` in (0, 1]
    subtracts a seeded *full-jitter* fraction: the delay becomes
    uniform over ``[(1 - jitter) * backoff, backoff]``, drawn
    deterministically from ``(seed, attempt)``.  Concurrent jobs
    retrying the same transient fault therefore spread out (give each
    job its own seed) instead of synchronizing into a thundering herd,
    while any single job's schedule is a pure function of its seed —
    rerunning a failure manifest replays the exact same waits.
    ``jitter=0`` (the default) keeps the historical deterministic
    schedule.  ``sleep`` is injectable for tests; it cannot cross a
    process boundary, so a pooled cell's policy (rebuilt in the worker
    from :meth:`as_dict`) always sleeps with :func:`time.sleep`.
    """

    def __init__(self, retries: int = 2, base_delay: float = 0.05,
                 max_delay: float = 2.0, sleep=time.sleep,
                 jitter: float = 0.0, seed=0):
        self.retries = max(0, int(retries))
        self.base_delay = base_delay
        self.max_delay = max_delay
        self.sleep = sleep
        self.jitter = max(0.0, min(1.0, float(jitter)))
        self.seed = seed

    @property
    def max_attempts(self) -> int:
        return self.retries + 1

    def delay(self, attempt: int) -> float:
        backoff = min(self.base_delay * (2 ** attempt), self.max_delay)
        if self.jitter <= 0.0:
            return backoff
        return backoff * (1.0 - self.jitter *
                          _jitter_fraction(self.seed, attempt))

    def backoff(self, attempt: int) -> None:
        delay = self.delay(attempt)
        if delay > 0:
            self.sleep(delay)

    def as_dict(self) -> dict:
        return {"retries": self.retries, "base_delay": self.base_delay,
                "max_delay": self.max_delay, "jitter": self.jitter,
                "seed": self.seed}

    def __repr__(self):
        jitter = f" jitter={self.jitter:g}@{self.seed}" if self.jitter \
            else ""
        return (f"<retry-policy retries={self.retries} "
                f"base={self.base_delay}s cap={self.max_delay}s{jitter}>")
