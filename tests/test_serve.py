"""The benchmark service: admission, backpressure, breakers, drain."""

import json
import pickle
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
    JobStore, RpcError, ServeConfig, TokenBucket, serve_in_thread,
)
from repro.serve import jobs as J


@pytest.fixture(autouse=True)
def fresh_metrics():
    """Each test gets its own registry; never leak one across tests."""
    obs.enable_metrics()
    yield
    obs.disable_metrics()


class FakeClock:
    def __init__(self, now: float = 100.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# -- token bucket --------------------------------------------------------------------

class TestTokenBucket:
    def test_burst_then_dry(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, burst=3.0, clock=clock)
        assert [bucket.allow("c")[0] for _ in range(3)] == [True] * 3
        ok, retry_after = bucket.allow("c")
        assert not ok and retry_after == pytest.approx(1.0)

    def test_refills_at_rate(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=1.0, clock=clock)
        assert bucket.allow("c")[0]
        assert not bucket.allow("c")[0]
        clock.advance(0.5)   # one token back at 2/s
        assert bucket.allow("c")[0]

    def test_clients_are_independent(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, burst=1.0, clock=clock)
        assert bucket.allow("a")[0]
        assert not bucket.allow("a")[0]
        assert bucket.allow("b")[0]

    def test_retry_after_is_exact(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=4.0, burst=1.0, clock=clock)
        bucket.allow("c")
        _, retry_after = bucket.allow("c")
        clock.advance(retry_after)
        assert bucket.allow("c")[0]

    def test_rate_zero_disables(self):
        bucket = TokenBucket(rate=0.0, burst=1.0, clock=FakeClock())
        assert all(bucket.allow("c")[0] for _ in range(100))


# -- circuit breaker -----------------------------------------------------------------

class TestCircuitBreaker:
    def _breaker(self, clock):
        return CircuitBreaker(threshold=3, reset_after=10.0, clock=clock)

    def test_trips_after_threshold_permanent_failures(self):
        breaker = self._breaker(FakeClock())
        for _ in range(2):
            breaker.record_failure(permanent=True)
            assert breaker.allow()[0]
        breaker.record_failure(permanent=True)
        ok, retry_after = breaker.allow()
        assert not ok and 0 < retry_after <= 10.0
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
        clock.advance(10.5)
        assert breaker.allow()[0]          # the probe
        assert breaker.state == "half-open"
        assert not breaker.allow()[0]      # everyone else held

    def test_probe_success_closes(self):
        clock = FakeClock()
        breaker = self._breaker(clock)
        for _ in range(3):
            breaker.record_failure(permanent=True)
        clock.advance(10.5)
        breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed" and breaker.failures == 0

    def test_probe_failure_reopens_for_full_reset(self):
        clock = FakeClock()
        breaker = self._breaker(clock)
        for _ in range(3):
            breaker.record_failure(permanent=True)
        clock.advance(10.5)
        breaker.allow()
        breaker.record_failure(permanent=True)
        assert breaker.state == "open" and breaker.trips == 2
        clock.advance(9.0)
        assert not breaker.allow()[0]

    def test_success_resets_consecutive_count(self):
        breaker = self._breaker(FakeClock())
        breaker.record_failure(permanent=True)
        breaker.record_failure(permanent=True)
        breaker.record_success()
        breaker.record_failure(permanent=True)
        assert breaker.state == "closed"


# -- admission control ---------------------------------------------------------------

def _admission(clock, max_depth=3, max_wait=0.0, max_age=60.0,
               rate=0.0):
    store = JobStore(clock=clock)
    controller = AdmissionController(
        store, TokenBucket(rate, 5.0, clock=clock),
        BreakerBoard(3, 10.0, clock=clock), max_depth=max_depth,
        max_wait=max_wait, max_age=max_age, workers=1)
    return store, controller


def _submit(store, controller, priority=0, deadline_s=None,
            client="c", benchmark="bm", target="native"):
    job = store.create(client, benchmark, target, "test", "baseline",
                       3, priority, deadline_s, ref=None)
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

    def test_estimated_wait_sheds(self):
        store, controller = _admission(FakeClock(), max_depth=100,
                                       max_wait=1.0)
        for _ in range(8):   # saturate the EMA at ~2s per cell
            controller.observe_cell_seconds(2.0)
        _submit(store, controller)
        _, decision = _submit(store, controller)
        assert decision is not None and decision.code == "overloaded"
        assert "estimated queue wait" in decision.message

    def test_stale_low_priority_evicted(self):
        clock = FakeClock()
        store, controller = _admission(clock, max_age=5.0)
        low, _ = _submit(store, controller, priority=-1)
        normal, _ = _submit(store, controller, priority=0)
        clock.advance(6.0)
        controller.evict_stale(clock())
        assert low.state == J.EVICTED and low.error["code"] == "stale"
        assert normal.state == J.QUEUED

    def test_expired_deadline_evicted_not_started(self):
        clock = FakeClock()
        store, controller = _admission(clock)
        job, _ = _submit(store, controller, deadline_s=2.0)
        clock.advance(3.0)
        controller.evict_stale(clock())
        assert job.state == J.EVICTED
        assert job.error["code"] == "deadline"

    def test_draining_rejects_everything(self):
        store, controller = _admission(FakeClock())
        controller.draining = True
        _, decision = _submit(store, controller)
        assert decision.code == "draining"

    def test_rate_limit_surfaces_as_shed(self):
        clock = FakeClock()
        store, controller = _admission(clock, max_depth=10, rate=1.0)
        for _ in range(5):   # burst
            _, decision = _submit(store, controller, client="hot")
            assert decision is None
        _, decision = _submit(store, controller, client="hot")
        assert decision.code == "rate_limited"
        assert decision.retry_after > 0

    def test_open_breaker_fails_fast(self):
        store, controller = _admission(FakeClock())
        key = ("bm", "native", "baseline")
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
    defaults = dict(workers=1, queue_depth=8, max_wait=0.0, max_age=60.0,
                    rate=0.0, burst=5.0, breaker_threshold=3,
                    breaker_reset=15.0, retries=1, runs=2, grace=30.0)
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

    def test_unknown_tier_rejected_at_submit(self, service):
        with pytest.raises(RpcError) as err:
            service.rpc("submit", {"benchmark": "matmul-8x8x8",
                                   "target": "native", "tier": "turbo",
                                   "client": "t"})
        assert err.value.code == -32602
        assert "unknown tier" in str(err.value)
        # Rejected before a job exists: nothing queued, nothing dispatched
        # to a worker, no breaker charged.
        assert service.store.jobs == {}
        assert service.admission.breakers.as_dict() == {}

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
                    for record in svc.executor.inflight.values():
                        record["worker"]["proc"].kill()
                        killed = True
            status = svc.rpc("wait", {"job_id": reply["job_id"],
                                      "timeout_s": 60.0})
            assert status["state"] == "done"
            assert svc.metrics.counter("serve.worker_respawns").value >= 1
        finally:
            svc.drain(grace=20.0)


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

    def test_readyz_flips_503_when_draining(self, http_service):
        svc, port = http_service
        svc.drain(grace=10.0)
        status, body = _get(port, "/readyz")
        assert status == 503 and body["status"] == "draining"


# -- report --json serve block -------------------------------------------------------

def test_report_json_has_serve_block(service, tmp_path, capsys):
    from repro.cli import main

    reply = service.rpc("submit", {"benchmark": "matmul-8x8x8",
                                   "target": "native", "client": "r"})
    service.rpc("wait", {"job_id": reply["job_id"], "timeout_s": 60.0})
    out = tmp_path / "report.json"
    assert main(["report", "table3", "--json", str(out)]) == 0
    capsys.readouterr()
    serve = json.loads(out.read_text())["serve"]
    assert serve["submitted"] >= 1 and serve["done"] >= 1
    assert set(serve["rejections"]) == {"overloaded", "rate_limited",
                                        "circuit_open", "draining"}
    assert "p99" in serve["queue_wait"]
