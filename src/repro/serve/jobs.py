"""Job lifecycle for the benchmark service.

A :class:`Job` is one accepted unit of work — measure a (benchmark,
target, size) cell — moving through a small, strictly terminal
state machine:

    QUEUED -> RUNNING -> DONE | FAILED
    QUEUED -> EVICTED            (preempted, deadline, drain)
    QUEUED -> CANCELLED          (client asked)
    SHED                         (rejected at admission, terminal at birth)

The service-level invariant the chaos gate enforces: every job that was
*accepted* (reached QUEUED) reaches exactly one terminal state — no job
is ever lost, however many workers crash or how hard the service is
drained.  :class:`JobStore` records every transition with a timestamp so
``status`` / the event stream can replay the full history.
"""

from __future__ import annotations

import itertools
import threading
import time

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
EVICTED = "evicted"
CANCELLED = "cancelled"
SHED = "shed"

#: States a job can never leave.
TERMINAL_STATES = frozenset((DONE, FAILED, EVICTED, CANCELLED, SHED))

#: Oldest terminal jobs are forgotten past this many retained records.
HISTORY_CAP = 20000


class Job:
    """One unit of service work plus its full transition history."""

    __slots__ = (
        "id", "client", "benchmark", "target", "size", "runs",
        "priority", "deadline", "ref", "state", "submitted", "started",
        "finished", "result", "error", "attempts", "incarnation",
        "memo_hit", "events", "seq",
    )

    def __init__(self, job_id: str, seq: int, client: str, benchmark: str,
                 target: str, size: str, runs: int,
                 priority: int, deadline: float, ref, now: float):
        self.id = job_id
        self.seq = seq                    # admission order tie-breaker
        self.client = client
        self.benchmark = benchmark
        self.target = target
        self.size = size
        self.runs = runs
        self.priority = priority
        self.deadline = deadline          # absolute clock time, or None
        self.ref = ref                    # picklable spec reference
        self.state = QUEUED
        self.submitted = now
        self.started = None
        self.finished = None
        self.result = None                # dict on DONE
        self.error = None                 # dict on FAILED/EVICTED/...
        self.attempts = 0
        self.incarnation = 0              # bumped per worker crash
        self.memo_hit = False
        self.events = [(now, QUEUED, None)]

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def memo_key(self):
        """The result-memoization identity of this job's measurement."""
        return (self.benchmark, self.target, self.size, self.runs)

    def snapshot(self, now: float = None) -> dict:
        """A JSON-safe view of the job for ``status`` / event streams."""
        now = time.monotonic() if now is None else now
        queue_wait = None
        if self.started is not None:
            queue_wait = self.started - self.submitted
        elif self.state == QUEUED:
            queue_wait = now - self.submitted
        return {
            "job_id": self.id,
            "client": self.client,
            "benchmark": self.benchmark,
            "target": self.target,
            "size": self.size,
            "runs": self.runs,
            "priority": self.priority,
            "state": self.state,
            "terminal": self.terminal,
            "queue_wait_seconds": queue_wait,
            "latency_seconds": (self.finished - self.submitted
                                if self.finished is not None else None),
            "attempts": self.attempts,
            "memo_hit": self.memo_hit,
            "result": self.result,
            "error": self.error,
            "events": [
                {"t": t - self.submitted, "state": state, "detail": detail}
                for t, state, detail in self.events
            ],
        }

    def __repr__(self):
        return (f"<job {self.id} {self.benchmark}@{self.target} "
                f"{self.state} prio={self.priority}>")


class JobStore:
    """Thread-safe id -> :class:`Job` registry with transition history.

    All mutation funnels through :meth:`transition` under one lock; a
    shared condition wakes ``wait``-ing clients (the long-poll RPC and
    the NDJSON event stream) on every state change.
    """

    def __init__(self, clock=time.monotonic):
        self.clock = clock
        self.lock = threading.RLock()
        self.cond = threading.Condition(self.lock)
        self.jobs: dict[str, Job] = {}
        self._order: list[str] = []       # insertion order, for trimming
        self._ids = itertools.count(1)

    def create(self, client: str, benchmark: str, target: str, size: str,
               runs: int, priority: int, deadline_s, ref,
               state: str = QUEUED) -> Job:
        with self.lock:
            seq = next(self._ids)
            now = self.clock()
            deadline = now + deadline_s if deadline_s else None
            job = Job(f"job-{seq}", seq, client, benchmark, target, size,
                      runs, priority, deadline, ref, now)
            if state != QUEUED:
                job.state = state
                job.finished = now
                job.events.append((now, state, "at admission"))
            self.jobs[job.id] = job
            self._order.append(job.id)
            self._trim()
            return job

    def _trim(self) -> None:
        while len(self._order) > HISTORY_CAP:
            victim = self.jobs.get(self._order[0])
            if victim is not None and not victim.terminal:
                break   # never forget live work
            self._order.pop(0)
            if victim is not None:
                del self.jobs[victim.id]

    def get(self, job_id: str) -> Job:
        with self.lock:
            return self.jobs.get(job_id)

    def transition(self, job: Job, state: str, detail: str = None,
                   result: dict = None, error: dict = None) -> None:
        """Move ``job`` to ``state``; terminal states are sticky."""
        with self.cond:
            if job.terminal:
                return
            now = self.clock()
            job.state = state
            job.events.append((now, state, detail))
            if state == RUNNING and job.started is None:
                job.started = now
            if state in TERMINAL_STATES:
                job.finished = now
            if result is not None:
                job.result = result
            if error is not None:
                job.error = error
            self.cond.notify_all()

    def wait_terminal(self, job_id: str, timeout: float = 30.0):
        """Block until the job reaches a terminal state (or timeout).

        Returns the job (terminal or not); None for an unknown id.
        """
        deadline = self.clock() + max(0.0, timeout)
        with self.cond:
            while True:
                job = self.jobs.get(job_id)
                if job is None or job.terminal:
                    return job
                remaining = deadline - self.clock()
                if remaining <= 0:
                    return job
                self.cond.wait(min(remaining, 0.5))

    def counts(self) -> dict:
        """Jobs per state — the drain summary and ``stats`` payload."""
        with self.lock:
            tally = {}
            for job in self.jobs.values():
                tally[job.state] = tally.get(job.state, 0) + 1
            return tally

    def live_jobs(self) -> list:
        with self.lock:
            return [j for j in self.jobs.values() if not j.terminal]
