"""The service executor: jobs -> warm pool workers -> results.

One dispatcher thread drives the whole execution plane.  It owns one
persistent :class:`~repro.harness.shard.ShardPool` of ``--workers``
processes and runs on that pool's worker lifecycle, the one the sweep
scheduler runs on.  Where the scheduler takes the head of its FIFO
queue, the dispatcher takes the highest-priority job from admission:
under the service lock it moves jobs onto idle workers and completions
back onto jobs:

* every job runs **tolerant**: the worker measures through
  :func:`repro.resilience.measure_cell`, so fuel/wall-clock watchdogs,
  failure classification, and bounded in-worker retry (with seeded
  full-jitter backoff, so a burst of jobs hitting the same transient
  fault de-synchronizes) all apply, and failures come back as
  :class:`~repro.resilience.CellFailure` records, never exceptions;
* a dying worker kills one *dispatch*: the pool replaces it and the
  job is re-queued at its original rank, up to ``retries``
  incarnations (then a ``worker``-phase FAILED — the job is never
  lost).  A worker found dead at dispatch ran nothing, so the pool
  resends the job to its replacement and no incarnation is charged;
* a job still in flight ``2 * timeout + 1`` seconds after dispatch
  hung where the in-worker watchdog cannot fire: the pool replaces its
  worker and the job fails as an ``execute``-phase TIMEOUT;
* job deadlines propagate into the worker's wall-clock watchdog: the
  dispatch timeout is the remaining deadline budget, and a job whose
  deadline lapses while queued is evicted instead of started late;
* successful results are **memoized** by (benchmark, target, size,
  runs) — the measurement is deterministic, so a repeat
  submission is answered from memory, bit-identical to a fresh run
  (which itself rides the content-addressed compile cache on disk).
"""

from __future__ import annotations

import threading
import zlib

from ..errors import WorkerCrashError, classify
from ..harness.runner import NOISE
from ..harness.shard import ShardPool
from ..obs.metrics import NULL_REGISTRY
from ..resilience import RetryPolicy
from . import jobs as J

#: Default instruction budget per cell (same as the CLI sweeps).
MAX_INSTRUCTIONS = 2_000_000_000


def result_payload(result, attempts: int = 1, memo: bool = False) -> dict:
    """A JSON-safe, bit-stable view of one BenchResult.

    ``times`` is the full per-run list and ``stdout_sha256`` the output
    digest, so clients (and the load-generator gate) can assert
    bit-identity against a direct CLI run of the same cell.
    """
    import hashlib
    perf = result.perf
    return {
        "benchmark": result.benchmark,
        "target": result.target,
        "mean_seconds": result.mean_seconds,
        "stderr_seconds": result.stderr_seconds,
        "p50_seconds": result.p50_seconds,
        "p95_seconds": result.p95_seconds,
        "times": list(result.times),
        "instructions": perf.instructions,
        "loads": perf.loads,
        "stores": perf.stores,
        "exit_code": result.run.exit_code,
        "stdout_sha256": hashlib.sha256(result.run.stdout).hexdigest(),
        "attempts": attempts,
        "memo": memo,
    }


class ServeExecutor:
    """Dispatches queued jobs onto a warm worker pool; never loses one."""

    def __init__(self, store, admission, breakers, workers: int,
                 retries: int = 2, timeout: float = None, plan=None,
                 metrics=NULL_REGISTRY, use_cache: bool = True):
        self.store = store
        self.admission = admission
        self.breakers = breakers
        self.retries = max(0, int(retries))
        self.timeout = timeout
        self.plan = plan
        self.metrics = metrics
        self.use_cache = use_cache
        self.memo: dict[tuple, dict] = {}
        self.pool = ShardPool(max(1, int(workers)))
        self.wake = threading.Event()
        self.stopping = False
        self.force = False
        self._thread = threading.Thread(target=self._loop, daemon=True,
                                        name="serve-executor")
        metrics.gauge("serve.workers").set(self.pool.width)

    def start(self) -> None:
        self._thread.start()

    def kick(self) -> None:
        """Wake the dispatcher (new job queued / drain requested)."""
        self.wake.set()

    # -- memoization -----------------------------------------------------------------

    def memo_lookup(self, key):
        return self.memo.get(key)

    def finish_from_memo(self, job, memo: dict) -> None:
        """Complete ``job`` instantly from a memoized result."""
        payload = dict(memo, memo=True, attempts=0)
        job.memo_hit = True
        self.store.transition(job, J.DONE, "memoized result", result=payload)
        self.metrics.counter("serve.memo_hits").inc()
        self.metrics.counter("serve.done").inc()
        self._observe_latency(job)

    # -- dispatch --------------------------------------------------------------------

    def _payload(self, job, now: float) -> dict:
        timeout = self.timeout
        if job.deadline is not None:
            remaining = max(job.deadline - now, 0.05)
            timeout = remaining if timeout is None \
                else min(timeout, remaining)
        return {
            "ref": job.ref, "name": job.benchmark, "target": job.target,
            "runs": job.runs, "noise": NOISE,
            "max_instructions": MAX_INSTRUCTIONS,
            "use_cache": self.use_cache, "plan": self.plan,
            "metrics": self.metrics.enabled,
            "policy": RetryPolicy(
                retries=self.retries, jitter=1.0,
                seed=zlib.crc32(job.id.encode())).as_dict(),
            "timeout": timeout, "tolerant": True,
            "incarnation": job.incarnation,
        }

    def _dispatch_ready(self, now: float) -> None:
        while self.pool.idle:
            job = self.admission.pop_next()
            if job is None:
                return
            memo = self.memo_lookup(job.memo_key())
            if memo is not None:
                self.finish_from_memo(job, memo)
                continue
            if job.deadline is not None and now > job.deadline:
                self.store.transition(
                    job, J.EVICTED, "deadline expired before dispatch",
                    error={"code": "deadline",
                           "message": "deadline expired before dispatch"})
                self.metrics.counter("serve.evictions").inc()
                self.metrics.counter("serve.evictions.deadline").inc()
                continue
            worker = self.pool.dispatch(job, self._payload(job, now))
            self.store.transition(
                job, J.RUNNING,
                f"dispatched to worker pid {worker['proc'].pid} "
                f"(incarnation {job.incarnation})")
            self.metrics.gauge("serve.inflight").set(
                len(self.pool.inflight))
            self.metrics.histogram("serve.queue_wait_seconds").observe(
                max(now - job.submitted, 0.0))

    # -- completion ------------------------------------------------------------------

    def _observe_latency(self, job) -> None:
        if job.finished is not None:
            self.metrics.histogram("serve.latency_seconds").observe(
                job.finished - job.submitted)

    def _crash(self, job, exc) -> None:
        """A worker died mid-job: re-queue or fail the job."""
        job.incarnation += 1
        if job.incarnation <= self.retries:
            self.admission.requeue(job)
            self.metrics.counter("serve.requeues").inc()
            return
        info = classify(exc)
        self._fail(job, {
            "code": "worker_crash", "phase": "worker",
            "error": info.error_type, "message": info.message,
            "transient": info.transient, "injected": info.injected,
            "attempts": job.incarnation,
        }, permanent=False)

    def _hung(self, job, exc) -> None:
        """The pool replaced the worker of a hung job: fail the job."""
        from ..resilience import failure_from_exception
        attempts = job.incarnation + 1
        self._fail_cell(job, failure_from_exception(
            job.benchmark, job.target, "execute", exc, attempts=attempts,
            plan=self.plan), attempts)

    def _fail(self, job, error: dict, permanent: bool) -> None:
        self.store.transition(job, J.FAILED, error.get("message"),
                              error=error)
        self.breakers.record(
            (job.benchmark, job.target), success=False,
            permanent=permanent)
        self.metrics.counter("serve.failed").inc()
        self._observe_latency(job)

    def _fail_cell(self, job, failure, attempts: int) -> None:
        self._fail(job, {
            "code": "cell_failure", "phase": failure.phase,
            "status": failure.status, "error": failure.error_type,
            "message": failure.message, "transient": failure.transient,
            "injected": failure.injected, "attempts": attempts,
        }, permanent=not failure.transient)

    def _complete(self, record, reply) -> None:
        """End one dispatch with the pool's ``reply`` (store lock held)."""
        job = record["job"]
        self.metrics.gauge("serve.inflight").set(len(self.pool.inflight))
        if isinstance(reply, WorkerCrashError):
            self._crash(job, reply)
            return
        kind, value, timing = reply
        if kind == "err":
            # The worker protocol's raw-exception lane; tolerant jobs
            # classify in-worker, so this is a harness bug surfacing —
            # degrade it into a FAILED job, never lost.
            info = classify(value)
            self._fail(job, {
                "code": "error", "phase": "worker",
                "error": info.error_type, "message": info.message,
                "transient": info.transient,
                "injected": info.injected, "attempts": 1,
            }, permanent=not info.transient)
            return
        payload, _seconds, attempts = value
        job.attempts = attempts
        seconds = timing["seconds"]
        self.admission.observe_cell_seconds(seconds)
        if timing["metrics"] is not None:
            self.metrics.merge(timing["metrics"])
        self.metrics.histogram("serve.cell_seconds").observe(seconds)
        if kind != "ok":
            self._fail_cell(job, payload, attempts)   # a CellFailure
            return
        result = result_payload(payload, attempts=attempts)
        self.memo.setdefault(job.memo_key(), result)
        self.store.transition(job, J.DONE, "measured", result=result)
        self.breakers.record(
            (job.benchmark, job.target), success=True)
        self.metrics.counter("serve.done").inc()
        self._observe_latency(job)

    # -- the dispatcher loop ---------------------------------------------------------

    def _loop(self) -> None:
        while True:
            with self.store.lock:
                now = self.store.clock()
                self.admission.evict_expired(now)
                if self.stopping:
                    self.admission.drain_queue()
                else:
                    self._dispatch_ready(now)
                for record, exc in self.pool.reap_hung():
                    self._hung(record["job"], exc)
                if self.force:
                    self._abandon_inflight()
                if self.stopping and not self.pool.inflight \
                        and not self.admission.depth():
                    return
            if self.pool.inflight:
                for conn in self.pool.ready(0.05):
                    with self.store.lock:
                        self._complete(*self.pool.receive(conn))
            else:
                self.wake.wait(0.05)
                self.wake.clear()

    def _abandon_inflight(self) -> None:
        """Drain grace expired: record in-flight jobs evicted (terminal,
        partial results preserved) before the pool is torn down."""
        for record in self.pool.inflight.values():
            job = record["job"]
            self.store.transition(
                job, J.EVICTED, "drain grace expired mid-run",
                error={"code": "drain", "message":
                       "service drained before this job finished"})
            self.metrics.counter("serve.evictions").inc()
            self.metrics.counter("serve.evictions.drain").inc()
        self.pool.inflight.clear()

    # -- drain -----------------------------------------------------------------------

    def drain(self, grace: float = 30.0) -> None:
        """Stop dispatching, finish in-flight jobs, tear the pool down.

        Queued jobs are evicted (terminal ``drain`` records); in-flight
        jobs get ``grace`` seconds to finish before being marked
        evicted and their workers terminated.  After this returns every
        accepted job is terminal and zero worker processes remain.
        """
        with self.store.lock:
            self.stopping = True
            self.admission.draining = True
        self.kick()
        self._thread.join(grace)
        if self._thread.is_alive():
            self.force = True
            self.kick()
            self._thread.join(5.0)
        self.pool.shutdown()

    def alive_workers(self) -> int:
        return sum(1 for w in self.pool.workers if w["proc"].is_alive())
