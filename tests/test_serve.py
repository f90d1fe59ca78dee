"""The benchmark service: admission, backpressure, breakers, drain."""

import json
import os
import pickle
import re
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import obs

from repro.errors import (
    CacheCorruptionError, CellTimeout, CompileError, FuelExhausted,
    LinkError, SyscallError, TrapError, ValidationError, WorkerCrashError,
    classify,
)
from repro.resilience import RetryPolicy
from repro.serve import (
    AdmissionController, BenchService, BreakerBoard, CircuitBreaker,
    JobStore, RpcError, ServeConfig, serve_in_thread,
)
from repro.serve import jobs as J
from repro.serve.breaker import RESET_SECONDS


@pytest.fixture(autouse=True)
def fresh_metrics():
    """Each test gets its own registry (conftest turns it off after)."""
    obs.enable_metrics()


class FakeClock:
    def __init__(self, now: float = 100.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# -- circuit breaker -----------------------------------------------------------------

class TestCircuitBreaker:
    def _breaker(self, clock):
        return CircuitBreaker(clock=clock)

    def test_trips_after_threshold_permanent_failures(self):
        breaker = self._breaker(FakeClock())
        for _ in range(2):
            breaker.record_failure(permanent=True)
            assert breaker.allow()[0]
        breaker.record_failure(permanent=True)
        ok, retry_after = breaker.allow()
        assert not ok and 0 < retry_after <= RESET_SECONDS
        assert breaker.trips == 1

    def test_transient_failures_never_count(self):
        breaker = self._breaker(FakeClock())
        for _ in range(10):
            breaker.record_failure(permanent=False)
        assert breaker.state == "closed" and breaker.allow()[0]

    def test_half_open_admits_one_probe(self):
        clock = FakeClock()
        breaker = self._breaker(clock)
        for _ in range(3):
            breaker.record_failure(permanent=True)
        clock.advance(RESET_SECONDS + 0.5)
        assert breaker.allow()[0]          # the probe
        assert breaker.state == "half-open"
        assert not breaker.allow()[0]      # everyone else held

    def test_probe_success_closes(self):
        clock = FakeClock()
        breaker = self._breaker(clock)
        for _ in range(3):
            breaker.record_failure(permanent=True)
        clock.advance(RESET_SECONDS + 0.5)
        breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed" and breaker.failures == 0

    def test_probe_failure_reopens_for_full_reset(self):
        clock = FakeClock()
        breaker = self._breaker(clock)
        for _ in range(3):
            breaker.record_failure(permanent=True)
        clock.advance(RESET_SECONDS + 0.5)
        breaker.allow()
        breaker.record_failure(permanent=True)
        assert breaker.state == "open" and breaker.trips == 2
        clock.advance(RESET_SECONDS - 1.0)
        assert not breaker.allow()[0]

    def test_success_resets_consecutive_count(self):
        breaker = self._breaker(FakeClock())
        breaker.record_failure(permanent=True)
        breaker.record_failure(permanent=True)
        breaker.record_success()
        breaker.record_failure(permanent=True)
        assert breaker.state == "closed"


# -- admission control ---------------------------------------------------------------

def _admission(clock, max_depth=3):
    store = JobStore(clock=clock)
    controller = AdmissionController(
        store, BreakerBoard(clock=clock), max_depth=max_depth, workers=1)
    return store, controller


def _submit(store, controller, priority=0, deadline_s=None,
            client="c", benchmark="bm", target="native"):
    job = store.create(client, benchmark, target, "test", 3, priority,
                       deadline_s, ref=None)
    decision = controller.admit(job)
    if decision is not None:
        store.transition(job, J.SHED, decision.message,
                         error=decision.as_dict())
    return job, decision


class TestAdmission:
    def test_sheds_when_full_with_structured_answer(self):
        store, controller = _admission(FakeClock(), max_depth=2)
        for _ in range(2):
            _, decision = _submit(store, controller)
            assert decision is None
        job, decision = _submit(store, controller)
        assert decision.code == "overloaded"
        assert decision.retry_after > 0
        assert job.state == J.SHED and job.terminal

    def test_overloaded_retry_after_is_estimated_wait(self):
        store, controller = _admission(FakeClock(), max_depth=2)
        for _ in range(8):   # the EMA settles near 2 s per cell
            controller.observe_cell_seconds(2.0)
        for _ in range(2):
            _submit(store, controller)
        _, decision = _submit(store, controller)
        assert decision.code == "overloaded"
        assert decision.retry_after == controller.estimated_wait()
        assert 3.5 < decision.retry_after < 4.0   # 2 queued x ~2 s / 1

    def test_high_priority_preempts_lowest(self):
        store, controller = _admission(FakeClock(), max_depth=2)
        low, _ = _submit(store, controller, priority=-1)
        mid, _ = _submit(store, controller, priority=0)
        high, decision = _submit(store, controller, priority=1)
        assert decision is None
        assert low.state == J.EVICTED
        assert low.error["code"] == "preempted"
        assert mid.state == J.QUEUED and high.state == J.QUEUED
        # and the queue pops in priority order
        assert controller.pop_next() is high
        assert controller.pop_next() is mid

    def test_no_preemption_among_equals(self):
        store, controller = _admission(FakeClock(), max_depth=1)
        first, _ = _submit(store, controller, priority=0)
        _, decision = _submit(store, controller, priority=0)
        assert decision.code == "overloaded"
        assert first.state == J.QUEUED

    def test_expired_deadline_evicted_not_started(self):
        clock = FakeClock()
        store, controller = _admission(clock)
        job, _ = _submit(store, controller, deadline_s=2.0)
        clock.advance(3.0)
        controller.evict_expired(clock())
        assert job.state == J.EVICTED
        assert job.error["code"] == "deadline"

    def test_draining_rejects_everything(self):
        store, controller = _admission(FakeClock())
        controller.draining = True
        _, decision = _submit(store, controller)
        assert decision.code == "draining"

    def test_open_breaker_fails_fast(self):
        store, controller = _admission(FakeClock())
        key = ("bm", "native")
        for _ in range(3):
            controller.breakers.record(key, success=False, permanent=True)
        _, decision = _submit(store, controller)
        assert decision.code == "circuit_open"

    def test_requeue_keeps_rank(self):
        store, controller = _admission(FakeClock(), max_depth=10)
        first, _ = _submit(store, controller)
        second, _ = _submit(store, controller)
        popped = controller.pop_next()
        assert popped is first
        controller.requeue(first)   # worker crashed; same seq
        assert controller.pop_next() is first
        assert controller.pop_next() is second


# -- retry jitter (satellite: seeded full-jitter backoff) ----------------------------

class TestRetryJitter:
    def test_default_schedule_unchanged(self):
        policy = RetryPolicy(retries=3, base_delay=0.05, max_delay=2.0)
        assert [policy.delay(a) for a in range(4)] == \
            [0.05, 0.1, 0.2, 0.4]

    def test_same_seed_same_schedule(self):
        a = RetryPolicy(jitter=1.0, seed=42)
        b = RetryPolicy(jitter=1.0, seed=42)
        assert [a.delay(i) for i in range(5)] == \
            [b.delay(i) for i in range(5)]

    def test_different_seeds_desynchronize(self):
        a = RetryPolicy(jitter=1.0, seed=1)
        b = RetryPolicy(jitter=1.0, seed=2)
        assert [a.delay(i) for i in range(5)] != \
            [b.delay(i) for i in range(5)]

    def test_delay_is_pure_function(self):
        policy = RetryPolicy(jitter=0.5, seed=9)
        assert policy.delay(3) == policy.delay(3)

    def test_jitter_bounds(self):
        policy = RetryPolicy(jitter=1.0, seed=7, base_delay=0.1,
                             max_delay=2.0)
        for attempt in range(8):
            backoff = min(0.1 * 2 ** attempt, 2.0)
            assert 0.0 <= policy.delay(attempt) <= backoff

    def test_jitter_clamped(self):
        assert RetryPolicy(jitter=5.0).jitter == 1.0
        assert RetryPolicy(jitter=-1.0).jitter == 0.0

    def test_as_dict_round_trip(self):
        policy = RetryPolicy(retries=1, jitter=0.5, seed=3)
        clone = RetryPolicy(sleep=None, **policy.as_dict())
        assert clone.delay(2) == policy.delay(2)


# -- taxonomy pickling (satellite: classify survives the worker pipe) ----------------

TAXONOMY_SAMPLES = [
    CompileError("unexpected token", 3, 7),
    TrapError("unreachable executed"),
    ValidationError("type mismatch at br_if"),
    LinkError("missing import env.sys_write"),
    FuelExhausted("out of fuel after 5000000 instructions"),
    CellTimeout("cell exceeded 30s"),
    SyscallError("EIO", "read"),
    SyscallError("ENOENT", "open"),
    CacheCorruptionError("checksum mismatch"),
    WorkerCrashError("worker died"),
]


class TestTaxonomyPickling:
    @pytest.mark.parametrize(
        "exc", TAXONOMY_SAMPLES,
        ids=lambda e: f"{type(e).__name__}:{e.args[0][:16]}")
    def test_classify_identical_after_round_trip(self, exc):
        before = classify(exc)
        after = classify(pickle.loads(pickle.dumps(exc)))
        assert after == before

    def test_transient_eio_stays_transient(self):
        # The regression this guards: default Exception pickling
        # replays ``args`` (the formatted message) through __init__,
        # turning errno_name into the whole message — and a transient
        # EIO into a permanent failure across the worker pipe.
        exc = pickle.loads(pickle.dumps(SyscallError("EIO", "read")))
        assert exc.errno_name == "EIO" and exc.syscall == "read"
        assert exc.transient

    def test_injected_flag_survives(self):
        exc = SyscallError("EIO", "write")
        exc.injected = True
        clone = pickle.loads(pickle.dumps(exc))
        assert clone.injected and classify(clone).injected

    def test_compile_error_location_survives(self):
        clone = pickle.loads(pickle.dumps(
            CompileError("bad type", 12, 4)))
        assert (clone.line, clone.col) == (12, 4)
        assert "at 12:4" in str(clone)

    def test_round_trip_through_real_pipe(self):
        # The actual boundary: a child process sends every taxonomy
        # sample back over a multiprocessing pipe, as shard workers do.
        import multiprocessing as mp
        ctx = mp.get_context("fork")
        parent, child = ctx.Pipe()

        def _echo(conn):
            while True:
                obj = conn.recv()
                if obj is None:
                    break
                conn.send(obj)

        proc = ctx.Process(target=_echo, args=(child,))
        proc.start()
        try:
            for exc in TAXONOMY_SAMPLES:
                parent.send(exc)
                back = parent.recv()
                assert classify(back) == classify(exc), type(exc).__name__
            parent.send(None)
        finally:
            proc.join(10)
            if proc.is_alive():
                proc.kill()


# -- the service end-to-end ----------------------------------------------------------

def _config(**kwargs):
    defaults = dict(workers=1, queue_depth=8, retries=1, runs=2,
                    grace=30.0)
    defaults.update(kwargs)
    return ServeConfig(**defaults)


@pytest.fixture
def service(fresh_metrics):
    svc = BenchService(_config())
    yield svc
    svc.drain(grace=20.0)


class TestBenchService:
    def test_submit_runs_to_done(self, service):
        reply = service.rpc("submit", {"benchmark": "matmul-8x8x8",
                                       "target": "native", "client": "t"})
        status = service.rpc("wait", {"job_id": reply["job_id"],
                                      "timeout_s": 60.0})
        assert status["state"] == "done"
        result = status["result"]
        assert result["times"] and len(result["times"]) == 2
        assert result["exit_code"] == 0

    def test_stats_carry_the_workers_counters(self, service):
        """The worker measures a job into a registry of its own, which
        the service folds into the one ``stats`` reports."""
        reply = service.rpc("submit", {"benchmark": "matmul-8x8x8",
                                       "target": "native", "client": "t"})
        status = service.rpc("wait", {"job_id": reply["job_id"],
                                      "timeout_s": 60.0})
        assert status["state"] == "done"
        counters = service.rpc("stats", {})["metrics"]["counters"]
        assert counters.get("kernel.syscalls", 0) > 0, counters

    def test_memo_hit_is_bit_identical(self, service):
        params = {"benchmark": "matmul-8x8x8", "target": "native",
                  "client": "t"}
        first = service.rpc("wait", {
            "job_id": service.rpc("submit", params)["job_id"],
            "timeout_s": 60.0})
        second = service.rpc("wait", {
            "job_id": service.rpc("submit", params)["job_id"],
            "timeout_s": 60.0})
        assert second["memo_hit"] and not first["memo_hit"]
        for key in ("times", "mean_seconds", "instructions",
                    "stdout_sha256"):
            assert second["result"][key] == first["result"][key]

    def test_unknown_benchmark_rejected(self, service):
        with pytest.raises(RpcError) as err:
            service.rpc("submit", {"benchmark": "no-such-benchmark",
                                   "client": "t"})
        assert err.value.data["code"] == "unknown_benchmark"

    def test_non_numeric_params_rejected(self, service):
        """A value that is not a number is an invalid-params error, like
        an unknown target, not an internal error."""
        for bad in ({"runs": "abc"}, {"priority": "high"},
                    {"deadline_s": "soon"}):
            with pytest.raises(RpcError) as err:
                service.rpc("submit", dict(bad, benchmark="matmul-8x8x8",
                                           target="native", client="t"))
            assert err.value.code == -32602, bad

    def test_unknown_method_rejected(self, service):
        with pytest.raises(RpcError) as err:
            service.rpc("frobnicate", {})
        assert err.value.code == -32601

    def test_cancel_queued_job(self, service):
        # Saturate the single worker, then cancel the queued follower.
        first = service.rpc("submit", {"benchmark": "matmul-12x12x12",
                                       "target": "chrome", "client": "t"})
        second = service.rpc("submit", {"benchmark": "matmul-13x13x13",
                                        "target": "chrome", "client": "t"})
        reply = service.rpc("cancel", {"job_id": second["job_id"]})
        status = service.rpc("wait", {"job_id": first["job_id"],
                                      "timeout_s": 60.0})
        assert status["state"] == "done"
        if reply["cancelled"]:   # unless the dispatcher won the race
            assert reply["state"] == "cancelled"

    def test_every_accepted_job_terminal_after_drain(self):
        svc = BenchService(_config(workers=2))
        ids = [svc.rpc("submit", {"benchmark": f"matmul-{n}x{n}x{n}",
                                  "target": "native",
                                  "client": "t"})["job_id"]
               for n in (6, 7, 8, 9)]
        summary = svc.drain(grace=30.0)
        assert summary["non_terminal"] == []
        assert summary["orphan_workers"] == 0
        states = {jid: svc.rpc("result", {"job_id": jid})["state"]
                  for jid in ids}
        assert all(state in ("done", "failed", "evicted")
                   for state in states.values()), states

    def test_drain_is_idempotent(self, service):
        first = service.drain(grace=10.0)
        second = service.drain(grace=10.0)
        assert first["drained"] and second["drained"]

    def test_submissions_after_drain_shed(self, service):
        service.drain(grace=10.0)
        with pytest.raises(RpcError) as err:
            service.rpc("submit", {"benchmark": "matmul-8x8x8",
                                   "client": "t"})
        assert err.value.data["code"] == "draining"

    def test_worker_crash_requeues_then_completes(self):
        # Shoot the worker mid-cell: the job must come back DONE on a
        # respawned worker, never lost.
        svc = BenchService(_config(workers=1, retries=2))
        try:
            reply = svc.rpc("submit", {"benchmark": "matmul-10x10x10",
                                       "target": "chrome", "client": "t"})
            deadline = svc.clock() + 30.0
            killed = False
            while svc.clock() < deadline and not killed:
                with svc.store.lock:
                    for record in svc.executor.pool.inflight.values():
                        record["worker"]["proc"].kill()
                        killed = True
            status = svc.rpc("wait", {"job_id": reply["job_id"],
                                      "timeout_s": 60.0})
            assert status["state"] == "done"
            assert svc.metrics.counter("pool.worker_respawns").value >= 1
        finally:
            svc.drain(grace=20.0)


# -- the worker lifecycle shared with the sweep scheduler ---------------------------

def _worker_pid(status: dict) -> int:
    """The pid of the worker a job was last dispatched to."""
    dispatched = [event["detail"] for event in status["events"]
                  if event["state"] == "running"]
    return int(re.search(r"pid (\d+)", dispatched[-1]).group(1))


class TestWorkerLifecycle:
    def test_worker_dead_while_idle_is_replaced_uncharged(self):
        # Nothing ran on the dead worker, so even with no retries the
        # job goes to its replacement instead of failing.
        svc = BenchService(_config(workers=1, retries=0))
        try:
            victim = svc.executor.pool.workers[0]["proc"]
            victim.kill()
            victim.join(timeout=10.0)
            reply = svc.rpc("submit", {"benchmark": "matmul-8x8x8",
                                       "target": "native", "client": "t"})
            status = svc.rpc("wait", {"job_id": reply["job_id"],
                                      "timeout_s": 60.0})
            assert status["state"] == "done", status["error"]
            assert _worker_pid(status) != victim.pid
        finally:
            svc.drain(grace=20.0)

    def test_hung_job_fails_at_watchdog_on_a_fresh_worker(self,
                                                          monkeypatch):
        # A hang before the in-worker deadline is armed: only the
        # 2 x timeout + 1 s watchdog can end it.
        import repro.resilience as resilience
        measure = resilience.measure_cell

        def hang_on_firefox(spec, target, **kwargs):
            if target == "firefox":
                time.sleep(60)
            return measure(spec, target, **kwargs)

        monkeypatch.setattr(resilience, "measure_cell", hang_on_firefox)
        svc = BenchService(_config(workers=1, retries=0, timeout=1.0))
        try:
            start = time.monotonic()
            hung = svc.rpc("submit", {"benchmark": "matmul-8x8x8",
                                      "target": "firefox", "client": "t"})
            status = svc.rpc("wait", {"job_id": hung["job_id"],
                                      "timeout_s": 10.0})
            assert status["state"] == "failed", status["state"]
            assert time.monotonic() - start < 6.0
            error = status["error"]
            assert (error["phase"], error["status"]) == ("execute",
                                                         "TIMEOUT")
            assert "hung past 1s" in error["message"]
            reply = svc.rpc("submit", {"benchmark": "matmul-8x8x8",
                                       "target": "native", "client": "t"})
            after = svc.rpc("wait", {"job_id": reply["job_id"],
                                     "timeout_s": 60.0})
            assert after["state"] == "done", after["error"]
            assert _worker_pid(after) != _worker_pid(status)
        finally:
            svc.drain(grace=5.0)

    def test_lingering_injected_death_reads_injected(self, monkeypatch):
        # The worker closes its pipe and takes a while to exit 17: it
        # must be reaped, not terminated, or the death reads as SIGTERM.
        from repro.harness import shard

        def close_then_linger(conn):
            if conn.recv() is not None:
                conn.close()
                time.sleep(0.5)
            os._exit(17)

        monkeypatch.setattr(shard, "_shard_worker_main", close_then_linger)
        svc = BenchService(_config(workers=1, retries=0))
        try:
            reply = svc.rpc("submit", {"benchmark": "matmul-8x8x8",
                                       "target": "native", "client": "t"})
            status = svc.rpc("wait", {"job_id": reply["job_id"],
                                      "timeout_s": 30.0})
            assert status["state"] == "failed", status["state"]
            error = status["error"]
            assert (error["code"], error["injected"]) == ("worker_crash",
                                                          True)
            assert "exit code 17" in error["message"]
        finally:
            svc.drain(grace=5.0)


# -- the HTTP front-end --------------------------------------------------------------

@pytest.fixture
def http_service(fresh_metrics):
    svc = BenchService(_config(workers=1))
    httpd, thread = serve_in_thread(svc)
    yield svc, httpd.server_address[1]
    svc.drain(grace=20.0)
    httpd.shutdown()
    httpd.server_close()


def _rpc(port, method, params, timeout=60.0):
    body = json.dumps({"jsonrpc": "2.0", "id": 1, "method": method,
                       "params": params}).encode()
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}/rpc", data=body,
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(req, timeout=timeout) as resp:
        return json.loads(resp.read())


def _get(port, path, timeout=10.0):
    try:
        resp = urllib.request.urlopen(
            f"http://127.0.0.1:{port}{path}", timeout=timeout)
        return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


class TestHttpFrontend:
    def test_healthz_and_readyz(self, http_service):
        _, port = http_service
        assert _get(port, "/healthz")[0] == 200
        status, body = _get(port, "/readyz")
        assert status == 200 and body["status"] == "ready"

    def test_submit_wait_over_http(self, http_service):
        _, port = http_service
        reply = _rpc(port, "submit", {"benchmark": "matmul-8x8x8",
                                      "target": "native", "client": "h"})
        job_id = reply["result"]["job_id"]
        status = _rpc(port, "wait", {"job_id": job_id,
                                     "timeout_s": 60.0})
        assert status["result"]["state"] == "done"

    def test_event_stream_replays_lifecycle(self, http_service):
        _, port = http_service
        reply = _rpc(port, "submit", {"benchmark": "matmul-8x8x8",
                                      "target": "native", "client": "h"})
        job_id = reply["result"]["job_id"]
        with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/jobs/{job_id}/events",
                timeout=60.0) as resp:
            lines = [json.loads(line)
                     for line in resp.read().decode().splitlines()]
        assert lines[0]["state"] == "queued"
        assert lines[-1]["terminal"] is True
        assert lines[-1]["state"] in ("done", "failed")

    def test_rpc_error_is_structured(self, http_service):
        _, port = http_service
        reply = _rpc(port, "submit", {"benchmark": "nope", "client": "h"})
        assert reply["error"]["data"]["code"] == "unknown_benchmark"

    def test_parse_error_is_minus_32700(self, http_service):
        _, port = http_service
        req = urllib.request.Request(
            f"http://127.0.0.1:{port}/rpc", data=b"{not json",
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=10.0)
        assert json.loads(err.value.read())["error"]["code"] == -32700

    def test_concurrent_clients_are_all_served(self, http_service):
        """64 clients connecting at once overflow a 5-deep listen
        backlog; every call must still get its answer."""
        _, port = http_service
        clients, calls = 64, 5
        start = threading.Barrier(clients)
        answers, errors = [], []

        def client():
            start.wait(timeout=30.0)
            for _ in range(calls):
                try:
                    answers.append(_rpc(port, "ping", {}, timeout=30.0))
                except OSError as exc:
                    errors.append(exc)

        threads = [threading.Thread(target=client) for _ in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(answers) == clients * calls
        assert all("result" in answer for answer in answers)

    def test_readyz_flips_503_when_draining(self, http_service):
        svc, port = http_service
        svc.drain(grace=10.0)
        status, body = _get(port, "/readyz")
        assert status == 503 and body["status"] == "draining"
