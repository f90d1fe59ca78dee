"""Admission control: the bounded pending pool with load shedding.

The pending pool is the service's only queue.  Admission is where
overload becomes a *structured* answer instead of a timeout:

* **Bounded depth.**  More than ``max_depth`` queued jobs sheds the
  newcomer with an ``overloaded`` error whose ``retry_after`` is the
  estimated queue wait (depth x EMA cell seconds / workers) — unless
  the newcomer outranks a queued job, in which case the lowest-
  priority, oldest victim is **evicted** (``preempted``) to make room.
* **Circuit breaking.**  Submissions for a tripped (benchmark, target)
  fail fast (:class:`~repro.serve.breaker.BreakerBoard`).
* **Deadlines.**  Before every dispatch the queue is swept: jobs whose
  deadline already passed are evicted rather than started late.

Everything here must be called with the store lock held (the service
serializes admission, dispatch, and completion on one lock).
"""

from __future__ import annotations

import heapq

from . import jobs as J

#: Smoothing of the cell-seconds EMA behind the queue-wait estimate.
EMA_ALPHA = 0.3


class AdmissionDecision:
    """Why a submission was turned away (or None-equivalent: admitted)."""

    __slots__ = ("code", "message", "retry_after")

    def __init__(self, code: str, message: str, retry_after: float = 0.0):
        self.code = code
        self.message = message
        self.retry_after = retry_after

    def as_dict(self) -> dict:
        return {"code": self.code, "message": self.message,
                "retry_after": round(self.retry_after, 4)}


class AdmissionController:
    """The bounded, priority-ordered pending pool."""

    def __init__(self, store, breakers, max_depth: int, workers: int,
                 metrics=None):
        self.store = store
        self.breakers = breakers
        self.max_depth = max(1, int(max_depth))
        self.workers = max(1, int(workers))
        self.metrics = metrics
        self.draining = False
        self._heap = []          # (-priority, seq, job_id), lazy deletion
        self._queued = set()     # job ids currently QUEUED
        self.ema_cell_seconds = 0.5

    # -- queue plumbing --------------------------------------------------------------

    def depth(self) -> int:
        return len(self._queued)

    def _push(self, job) -> None:
        heapq.heappush(self._heap, (-job.priority, job.seq, job.id))
        self._queued.add(job.id)
        if self.metrics is not None:
            self.metrics.gauge("serve.queue_depth").set(self.depth())

    def requeue(self, job) -> None:
        """Put a job back after a worker crash (same seq: keeps rank)."""
        self.store.transition(job, J.QUEUED, "requeued after worker crash")
        self._push(job)

    def pop_next(self):
        """The highest-priority queued job, or None."""
        while self._heap:
            _, _, job_id = heapq.heappop(self._heap)
            if job_id not in self._queued:
                continue
            self._queued.discard(job_id)
            if self.metrics is not None:
                self.metrics.gauge("serve.queue_depth").set(self.depth())
            job = self.store.get(job_id)
            if job is not None and job.state == J.QUEUED:
                return job
        return None

    def observe_cell_seconds(self, seconds: float) -> None:
        """Feed a completed-cell duration into the wait estimator."""
        self.ema_cell_seconds += EMA_ALPHA * \
            (seconds - self.ema_cell_seconds)

    def estimated_wait(self) -> float:
        return self.depth() * self.ema_cell_seconds / self.workers

    # -- eviction --------------------------------------------------------------------

    def _evict(self, job, reason: str, detail: str) -> None:
        self._queued.discard(job.id)
        self.store.transition(job, J.EVICTED, detail,
                              error={"code": reason, "message": detail})
        if self.metrics is not None:
            self.metrics.counter("serve.evictions").inc()
            self.metrics.counter(f"serve.evictions.{reason}").inc()
            self.metrics.gauge("serve.queue_depth").set(self.depth())

    def _evict_lower_priority(self, priority: int) -> bool:
        """Make room for a ``priority`` job by evicting the lowest-
        priority, oldest queued victim strictly below it."""
        victim = None
        for job_id in self._queued:
            job = self.store.get(job_id)
            if job is None or job.priority >= priority:
                continue
            if victim is None or (job.priority, -job.seq) < \
                    (victim.priority, -victim.seq):
                victim = job
        if victim is None:
            return False
        self._evict(victim, "preempted",
                    f"preempted by priority-{priority} job")
        return True

    def evict_expired(self, now: float) -> None:
        """Sweep the queue: jobs whose deadline passed are evicted
        rather than started late."""
        for job_id in list(self._queued):
            job = self.store.get(job_id)
            if job is None or job.state != J.QUEUED:
                self._queued.discard(job_id)
                continue
            if job.deadline is not None and now > job.deadline:
                self._evict(job, "deadline",
                            "deadline expired while queued")

    def drain_queue(self) -> int:
        """Evict every queued job (graceful drain); returns the count."""
        drained = 0
        for job_id in list(self._queued):
            job = self.store.get(job_id)
            if job is not None and job.state == J.QUEUED:
                self._evict(job, "drain", "service draining")
                drained += 1
            else:
                self._queued.discard(job_id)
        return drained

    # -- the admission decision ------------------------------------------------------

    def admit(self, job):
        """Admit ``job`` into the pending pool, or explain why not.

        Returns None on success (the job is queued) or an
        :class:`AdmissionDecision`; the caller records the SHED state
        and the serve.* rejection counters.
        """
        if self.draining:
            return AdmissionDecision(
                "draining", "service is draining; not accepting jobs",
                retry_after=30.0)
        key = (job.benchmark, job.target)
        ok, retry_after = self.breakers.allow(key)
        if not ok:
            return AdmissionDecision(
                "circuit_open",
                f"circuit open for {job.benchmark}@{job.target}: "
                f"repeated permanent failures",
                retry_after=retry_after)
        if self.depth() >= self.max_depth \
                and not self._evict_lower_priority(job.priority):
            return AdmissionDecision(
                "overloaded", f"pending pool full ({self.depth()} jobs)",
                retry_after=max(self.estimated_wait(), 0.1))
        self._push(job)
        return None
