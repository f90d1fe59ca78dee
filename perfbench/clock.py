"""A host clock rescaled to a reference speed.

On a shared host the same Python code runs up to twice as slow from one
tenth of a second to the next, and the average speed over a minute
drifts by tens of percent, so raw seconds of two runs of the same code
are not comparable.  :class:`SpeedClock` measures that speed while the
benchmark runs: every :data:`PERIOD_S` of wall time a ``SIGALRM``
handler runs a fixed calibration loop (:func:`probe`) in the main
thread and times it in thread CPU time.  Each stretch of wall time
since the previous probe is then weighted by ``REF_PROBE_S / probe``,
so the clock counts the seconds the same work would have taken at the
reference speed, at which the probe takes :data:`REF_PROBE_S` (that of
an uncontended 2-vCPU cloud VM core).  Probe time itself is left out.

Only the main thread's code is probed: time spent waiting on worker
processes is weighted by the speed the main thread sees while it waits.
Timers are not inherited across ``fork``, so workers run unprobed.
"""

from __future__ import annotations

import signal
import time

#: Seconds :func:`probe` takes at the reference speed.
REF_PROBE_S = 200e-6

#: Wall seconds between probes.
PERIOD_S = 0.02


def probe() -> float:
    """Thread CPU seconds of one fixed dict-and-integer loop, a mix
    close to the interpreter-bound toolchain's."""
    start = time.thread_time()
    table = {}
    for i in range(2000):
        table[i & 63] = table.get(i & 63, 0) + i
    return time.thread_time() - start


class SpeedClock:
    """A monotonic clock in reference-speed seconds (see the module
    docstring).  Use as a context manager; :meth:`now` reads it."""

    def __init__(self):
        self.probes = 0
        self.host_s = 0.0     # probed wall seconds, probe time excluded
        self.scaled_s = 0.0   # the same seconds at the reference speed
        # (scaled seconds so far, wall mark, speed factor) replaced as
        # one tuple, so a probe landing inside now() cannot tear it.
        self._state = (0.0, time.perf_counter(), REF_PROBE_S / probe())
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _tick(self, _signum, _frame):
        scaled, mark, _factor = self._state
        wall = time.perf_counter() - mark
        factor = REF_PROBE_S / probe()
        self.probes += 1
        self.host_s += wall
        self.scaled_s += wall * factor
        self._state = (scaled + wall * factor, time.perf_counter(), factor)

    def now(self) -> float:
        scaled, mark, factor = self._state
        return scaled + (time.perf_counter() - mark) * factor

    def speed(self) -> float:
        """Mean speed so far relative to the reference (1.0 = as fast
        as the reference; a contended host reads below 1)."""
        return self.scaled_s / self.host_s if self.host_s else 1.0
