"""The sweep scheduler: one FIFO queue over one warm pool.

Every pooled ``run_suite`` call (``--jobs`` > 1, fast or tolerant) runs
here; ``--jobs 1`` and specs that cannot cross a process boundary stay
in-process (see :mod:`repro.harness.parallel`).

* **One warm pool.**  The ``--jobs`` workers form one
  :class:`ShardPool`, a persistent fork pool.  Workers are forked once,
  inherit the parent's imported toolchain, compile cache and
  configuration, and stay alive across sweeps until the width or the
  ``REPRO_*`` environment changes, or a worker dies outside the
  scheduler's control.  The configuration setters (``set_verify_ir``,
  ``set_check_ranges``, ``set_ranges``, ``report --hwc``) each write
  their ``REPRO_*`` variable, so a pool forked before one of them ran
  is rebuilt rather than left running the old configuration.

* **FIFO dispatch.**  Cells wait in one queue in suite order, and an
  idle worker takes the head.  There is nothing to steal: every worker
  draws from the same queue, so no worker idles while a cell waits.

* **Crash re-queue.**  A dying worker kills one *dispatch*, never the
  sweep: the pool reaps and respawns it (``pool.worker_respawns``),
  the cell is re-queued at the head of the queue, and only a cell that
  keeps killing workers past its retry budget surfaces — as a
  ``worker``-phase :class:`~repro.resilience.CellFailure` in tolerant
  mode, or a :class:`~repro.errors.WorkerCrashError` otherwise.  The
  ``worker`` fault point draws in the per-incarnation scope
  ``"{name}:{target}:w{incarnation}"``, so injected crash/respawn
  sequences are a pure function of the seed, not of the pool width or
  the dispatch order.

* **Hang watchdog.**  A tolerant cell with a ``timeout`` that is still
  in flight ``2 * timeout + 1`` seconds after dispatch (it hung outside
  the instrumented loop, where the in-machine deadline cannot fire) has
  its worker replaced and is recorded as an ``execute``-phase
  :class:`~repro.errors.CellTimeout`.

* **One worker lifecycle.**  Dispatch, crash reaping and the hang
  watchdog belong to :class:`ShardPool`; the scheduler only picks
  cells.  ``repro serve`` runs its jobs on the same lifecycle
  (:mod:`repro.serve.executor`).

* **Deterministic merge.**  Results are keyed by (benchmark, target)
  and reassembled in suite order by the caller; every cell is a
  deterministic simulation with per-cell seeded noise, so the merged
  ``SuiteData`` is bit-identical to a serial run no matter the pool
  width, completion order, or crash pattern.

* **One metrics ledger.**  A payload's ``metrics`` flag says whether
  the caller's registry is on.  If it is, the worker measures the cell
  into a fresh :class:`~repro.obs.metrics.MetricsRegistry` and returns
  it in the reply's ``timing``, and the caller folds it into its own
  (:meth:`~repro.obs.metrics.MetricsRegistry.merge`).  Its
  ``kernel.*`` counts then equal a serial sweep's; its ``cache.*``,
  ``opt.*`` and ``analysis.*`` counts are each worker's own compiles.
"""

from __future__ import annotations

import atexit
import collections
import os
import time

from ..errors import CellTimeout, WorkerCrashError
from ..obs import get_registry
from ..obs import metrics as obs_metrics
from . import compilecache

#: Seconds granted to in-flight cells when draining after an error.
DRAIN_SECONDS = 10.0


# -- the pool worker ---------------------------------------------------------------

def _shard_worker_main(conn):
    """Loop of one persistent pool worker: recv job, measure, reply.

    Jobs carry ``use_cache`` and ``metrics`` (per-call settings a
    persistent worker must not carry over between sweeps), the caller's
    retry ``policy`` (:meth:`RetryPolicy.as_dict`; the defaults when
    absent) and the dispatch ``incarnation``, which scopes the
    ``worker`` fault point so a respawned worker re-draws.  Every job
    runs through :func:`repro.resilience.measure_cell`.  A tolerant job
    (fuel and deadline watchdogs, classification, bounded in-worker
    retry) replies ``fail`` with a CellFailure; a fast job's error
    replies ``err``.  An ``ok`` or ``fail`` reply's ``timing`` carries
    the cell's own registry under ``metrics`` (None when the job's
    ``metrics`` flag is off).
    """
    from ..resilience import RetryPolicy, measure_cell
    from .parallel import resolve_ref

    while True:
        try:
            p = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        if p is None:
            break
        start = time.time()
        if p.get("metrics"):
            registry = obs_metrics.enable()   # a fresh one per cell
        else:
            registry = None
            obs_metrics.disable()
        try:
            compilecache.set_enabled(p["use_cache"])
            plan = p.get("plan")
            if plan is not None:
                from ..resilience import faults
                scope_name = (f"{p['name']}:{p['target']}"
                              f":w{p['incarnation']}")
                with faults.scope(plan, scope_name) as injector:
                    if injector.should("worker"):
                        conn.close()
                        os._exit(17)  # die unreported, like a real crash
            policy = RetryPolicy(**p.get("policy", {}))
            result, failure, seconds, attempts = measure_cell(
                resolve_ref(p["ref"]), p["target"], runs=p["runs"],
                noise=p["noise"], max_instructions=p["max_instructions"],
                plan=plan, policy=policy, timeout=p.get("timeout"),
                tolerant=p.get("tolerant", False))
            timing = {"pid": os.getpid(), "start": start,
                      "seconds": time.time() - start, "metrics": registry}
            if failure is not None:
                conn.send(("fail", (failure, seconds, attempts), timing))
            else:
                conn.send(("ok", (result, seconds, attempts), timing))
        except KeyboardInterrupt:
            os._exit(130)
        except BaseException as exc:
            try:
                conn.send(("err", exc, None))
            except Exception:
                os._exit(1)


class ShardPool:
    """A persistent fork pool of ``width`` workers, and the one worker
    lifecycle that the sweep scheduler and the serve executor both run
    on.

    The caller decides which job runs next; the pool decides what
    happens to the worker that runs it:

    * :meth:`dispatch` sends a job to an idle worker.  A worker that
      died while idle ran nothing, so it is replaced and the job resent
      to its replacement, and the caller charges no incarnation.
    * :meth:`receive` ends a dispatch with the worker's reply, or with
      a :class:`~repro.errors.WorkerCrashError` if the worker died
      first.  Its pipe closed, so the worker is exiting: it is reaped
      before it is replaced, and an injected death keeps its exit code
      17 instead of reading as SIGTERM.
    * :meth:`reap_hung` replaces the worker of every dispatch with a
      ``timeout`` that is still in flight ``2 * timeout + 1`` seconds
      after it was sent (it hung where the in-machine deadline cannot
      fire) and hands back an ``execute``-phase
      :class:`~repro.errors.CellTimeout` for it.

    Every replacement counts as ``pool.worker_respawns``.
    """

    def __init__(self, width: int, ctx=None):
        if ctx is None:
            import multiprocessing as mp
            try:
                ctx = mp.get_context("fork")
            except ValueError:  # pragma: no cover - non-POSIX fallback
                ctx = mp.get_context()
        self.width = width
        self.ctx = ctx
        #: The configuration the workers were forked with.
        self.env = repro_environment()
        self.workers = []
        self.idle = []
        self.inflight = {}   # conn -> {"job", "worker", "sent", "timeout"}
        for _ in range(width):
            self.idle.append(self._spawn())

    def _spawn(self):
        parent_conn, child_conn = self.ctx.Pipe(duplex=True)
        proc = self.ctx.Process(target=_shard_worker_main,
                                args=(child_conn,), daemon=True)
        proc.start()
        child_conn.close()
        worker = {"proc": proc, "conn": parent_conn}
        self.workers.append(worker)
        return worker

    def _respawn(self, worker):
        """Retire ``worker`` (dead, hung or unresponsive) and fork a
        fresh one; returns ``(exit_code, fresh_worker)``."""
        proc = worker["proc"]
        if proc.is_alive():
            proc.terminate()
        proc.join(timeout=2.0)
        try:
            worker["conn"].close()
        except OSError:
            pass
        self.workers.remove(worker)
        get_registry().counter("pool.worker_respawns").inc()
        return proc.exitcode, self._spawn()

    def _replace_inflight(self, conn):
        """Drop the dispatch on ``conn`` and replace its worker with an
        idle fresh one."""
        _code, fresh = self._respawn(self.inflight.pop(conn)["worker"])
        self.idle.append(fresh)

    def dispatch(self, job, payload):
        """Send ``payload`` to an idle worker on behalf of ``job`` (the
        caller's handle, handed back by :meth:`receive` and
        :meth:`reap_hung`); returns the worker that runs it."""
        worker = self.idle.pop()
        try:
            worker["conn"].send(payload)
        except OSError:
            _code, worker = self._respawn(worker)
            worker["conn"].send(payload)
        self.inflight[worker["conn"]] = {
            "job": job, "worker": worker, "sent": time.time(),
            "timeout": payload.get("timeout"),
        }
        return worker

    def receive(self, conn):
        """End the dispatch on ``conn``: ``(record, reply)``, where
        ``reply`` is the worker's ``(kind, value, timing)`` message (the
        worker is idle again) or a :class:`WorkerCrashError`."""
        record = self.inflight.pop(conn)
        worker = record["worker"]
        try:
            reply = conn.recv()
        except (EOFError, OSError):
            worker["proc"].join(timeout=2.0)
            code, fresh = self._respawn(worker)
            self.idle.append(fresh)
            reply = WorkerCrashError(
                f"worker died (exit code {code}) before reporting")
            reply.injected = code == 17
        else:
            self.idle.append(worker)
        return record, reply

    def reap_hung(self):
        """``[(record, CellTimeout)]`` for every hung dispatch, each
        worker already replaced."""
        now = time.time()
        hung = []
        for conn, record in list(self.inflight.items()):
            timeout = record["timeout"]
            if timeout is None or now - record["sent"] <= 2 * timeout + 1.0:
                continue
            self._replace_inflight(conn)
            hung.append((record, CellTimeout(
                f"cell hung past {timeout:g}s; worker terminated")))
        return hung

    def abandon(self):
        """Replace every worker still in flight (unresponsive past a
        drain deadline), so the pool stays warm for the next caller."""
        for conn in list(self.inflight):
            self._replace_inflight(conn)

    def ready(self, timeout: float):
        """Every in-flight ``conn`` whose reply (or closed pipe) is
        waiting, after at most ``timeout`` seconds."""
        from multiprocessing.connection import wait

        return wait(list(self.inflight), timeout=timeout)

    def alive(self) -> bool:
        return len(self.workers) == self.width and not self.inflight \
            and all(w["proc"].is_alive() for w in self.workers)

    def shutdown(self):
        for w in self.workers:
            try:
                w["conn"].send(None)
            except (OSError, ValueError, BrokenPipeError):
                pass
        for w in self.workers:
            try:
                w["conn"].close()
            except OSError:
                pass
        for w in self.workers:
            w["proc"].join(timeout=1.0)
            if w["proc"].is_alive():
                w["proc"].terminate()
                w["proc"].join(timeout=1.0)
        self.workers = []
        self.idle = []
        self.inflight = {}


# -- the persistent pool -----------------------------------------------------------

_SHARDS = None  # the process-wide ShardPool


def repro_environment() -> list:
    """The sorted ``REPRO_*`` items of ``os.environ``."""
    return sorted(item for item in os.environ.items()
                  if item[0].startswith("REPRO_"))


def get_shard_pool(jobs: int) -> ShardPool:
    """The process-wide pool of ``jobs`` workers, rebuilt when the width
    or the ``REPRO_*`` environment changed since it forked, or a worker
    died outside the scheduler's control."""
    global _SHARDS
    if _SHARDS is not None and _SHARDS.width == jobs and _SHARDS.alive() \
            and _SHARDS.env == repro_environment():
        return _SHARDS
    shutdown_warm_pool()
    _SHARDS = ShardPool(jobs)
    return _SHARDS


def shutdown_warm_pool():
    """Tear down the pool (atexit, tests, bench teardown)."""
    global _SHARDS
    if _SHARDS is not None:
        _SHARDS.shutdown()
        _SHARDS = None


atexit.register(shutdown_warm_pool)


# -- the coordinator ---------------------------------------------------------------

class ShardScheduler:
    """FIFO scheduler over one :class:`ShardPool`.

    Drives ``jobs_list`` (picklable cell payloads carrying ``name`` and
    ``target``) to completion on ``pool``.  ``record(job, kind, value,
    timing)`` is called exactly once per cell, in completion order,
    with ``kind`` one of ``ok`` / ``fail`` (tolerant mode only).
    Fast-mode cell errors drain in-flight work and re-raise; worker
    crashes re-queue the cell at the head of the queue, up to
    ``retries`` incarnations.  Workers live and die by
    :class:`ShardPool`'s lifecycle.
    """

    def __init__(self, pool, jobs_list, tolerant: bool = False,
                 retries: int = 2, plan=None):
        self.pool = pool
        self.tolerant = tolerant
        self.retries = retries
        self.plan = plan
        self.metrics = get_registry()
        self.jobs = list(jobs_list)
        self.incarnation = [0] * len(self.jobs)  # bumped per worker crash
        self.queue = collections.deque(range(len(self.jobs)))
        self.busy_by_pid = collections.defaultdict(float)  # pid -> busy secs
        self.completed = 0

    # -- dispatch ------------------------------------------------------------------

    def _fill_idle(self):
        while self.pool.idle and self.queue:
            job_id = self.queue.popleft()
            self.pool.dispatch(job_id, dict(
                self.jobs[job_id], incarnation=self.incarnation[job_id]))

    # -- completion / crash handling -----------------------------------------------

    def _fail(self, job_id: int, phase: str, exc, attempts: int,
              record_cb):
        from ..resilience import failure_from_exception
        job = self.jobs[job_id]
        failure = failure_from_exception(
            job["name"], job["target"], phase, exc, attempts=attempts,
            plan=self.plan)
        self.completed += 1
        record_cb(job, "fail", (failure, {}, attempts), None)

    def _handle_reply(self, record, reply, record_cb):
        job_id = record["job"]
        if isinstance(reply, WorkerCrashError):
            self._handle_crash(job_id, reply, record_cb)
            return
        kind, value, timing = reply
        if kind == "err":
            self._drain()
            raise value
        self.completed += 1
        self.busy_by_pid[timing["pid"]] += timing["seconds"]
        if timing["metrics"] is not None:
            self.metrics.merge(timing["metrics"])
        if self.metrics.enabled:
            self.metrics.histogram("runner.cell_seconds").observe(
                timing["seconds"])
            self.metrics.histogram("runner.queue_wait_seconds").observe(
                max(timing["start"] - record["sent"], 0.0))
        record_cb(self.jobs[job_id], kind, value, timing)

    def _handle_crash(self, job_id: int, exc, record_cb):
        """A worker died mid-cell: re-queue or fail the cell."""
        self.incarnation[job_id] += 1
        if self.incarnation[job_id] <= self.retries:
            self.queue.appendleft(job_id)
            self.metrics.counter("pool.requeues").inc()
            return
        if not self.tolerant:
            self._drain()
            raise exc
        self._fail(job_id, "worker", exc, self.incarnation[job_id],
                   record_cb)

    def _drain(self, deadline: float = DRAIN_SECONDS):
        """Collect or retire in-flight cells after an error, keeping
        every healthy worker warm for the next sweep."""
        limit = time.time() + deadline
        while self.pool.inflight:
            remaining = limit - time.time()
            if remaining <= 0:
                break
            for conn in self.pool.ready(remaining):
                self.pool.receive(conn)
        self.pool.abandon()

    # -- the main loop -------------------------------------------------------------

    def run(self, record_cb):
        total = len(self.jobs)
        start = time.time()
        try:
            while self.completed < total:
                self._fill_idle()
                for conn in self.pool.ready(0.05):
                    record, reply = self.pool.receive(conn)
                    self._handle_reply(record, reply, record_cb)
                if self.tolerant:
                    for record, exc in self.pool.reap_hung():
                        job_id = record["job"]
                        self._fail(job_id, "execute", exc,
                                   self.incarnation[job_id] + 1,
                                   record_cb)
        except KeyboardInterrupt:
            # Ctrl-C routes through the drain path: in-flight cells
            # finish (or their workers are replaced), and the warm pool
            # survives for the partial-result report / next sweep
            # instead of being torn down mid-stride.
            self._drain()
            raise
        if self.metrics.enabled:
            wall = max(time.time() - start, 1e-9)
            self.metrics.gauge("runner.jobs").set(self.pool.width)
            self.metrics.counter("runner.cells").inc(total)
            for i, pid in enumerate(sorted(self.busy_by_pid)):
                self.metrics.gauge(f"runner.worker.{i}.utilization").set(
                    self.busy_by_pid[pid] / wall)

