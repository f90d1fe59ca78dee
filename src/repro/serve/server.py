"""`repro serve`: the JSON-RPC-over-HTTP benchmark service.

Stdlib only (``http.server``): a :class:`ThreadingHTTPServer` front-end
over one :class:`BenchService`, which composes the robustness layers —

    POST /rpc            JSON-RPC 2.0: submit / status / wait / result /
                         cancel / stats / drain / ping
    GET  /healthz        liveness (200 while the process runs)
    GET  /readyz         readiness (503 while draining or saturated)
    GET  /jobs/<id>/events   NDJSON stream of state transitions until
                             the job is terminal (chunked)

Overload answers are structured: a shed submission gets a JSON-RPC
error whose ``data`` carries ``code`` (``overloaded`` /
``circuit_open`` / ``draining``) and a ``retry_after`` hint.  Every
accepted job reaches a terminal state — the acceptance invariant the
chaos-under-load gate enforces.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ..obs import get_registry
from . import jobs as J
from .admission import AdmissionController
from .breaker import BreakerBoard
from .executor import ServeExecutor
from .jobs import JobStore

SERVE_TARGETS = ("native", "chrome", "firefox", "asmjs-chrome",
                 "asmjs-firefox")


class ServeConfig:
    """The service's settings, one per ``repro serve`` flag."""

    def __init__(self, workers: int = None, queue_depth: int = 64,
                 retries: int = 2, timeout: float = None, runs: int = 3,
                 grace: float = 30.0):
        self.workers = min(os.cpu_count() or 1, 4) if workers is None \
            else workers
        self.queue_depth = queue_depth
        self.retries = retries
        self.timeout = timeout
        self.runs = runs
        self.grace = grace


class RpcError(Exception):
    """An application-level JSON-RPC error (code + structured data)."""

    def __init__(self, message: str, code: int = -32000, data: dict = None):
        super().__init__(message)
        self.code = code
        self.data = data or {}


def _number(params: dict, name: str, kind, default):
    """``kind(params[name])``, or ``default`` when it is absent; a value
    that does not convert is an invalid-params error."""
    value = params.get(name)
    try:
        return default if value is None else kind(value)
    except (TypeError, ValueError, OverflowError):
        raise RpcError(f"{name} must be a number, got {value!r}",
                       code=-32602) from None


class BenchService:
    """The service core: admission -> queue -> executor -> results."""

    def __init__(self, config: ServeConfig, plan=None, clock=time.monotonic):
        self.config = config
        self.metrics = get_registry()
        self.clock = clock
        self.started_at = clock()
        self.store = JobStore(clock=clock)
        self.breakers = BreakerBoard(clock=clock, metrics=self.metrics)
        self.admission = AdmissionController(
            self.store, self.breakers, max_depth=config.queue_depth,
            workers=config.workers, metrics=self.metrics)
        from ..harness import compilecache
        self.executor = ServeExecutor(
            self.store, self.admission, self.breakers,
            workers=config.workers, retries=config.retries,
            timeout=config.timeout, plan=plan, metrics=self.metrics,
            use_cache=compilecache.is_enabled())
        self.executor.start()
        self.drained = False

    # -- RPC methods -----------------------------------------------------------------

    def rpc(self, method: str, params: dict):
        """Dispatch one JSON-RPC call; raises :class:`RpcError`."""
        handler = getattr(self, f"rpc_{method}", None)
        if handler is None:
            raise RpcError(f"unknown method {method!r}", code=-32601)
        return handler(params or {})

    def _resolve(self, benchmark: str, size: str):
        from ..cli import _resolve_spec
        from ..harness.parallel import spec_ref
        spec = _resolve_spec(benchmark, size)
        if spec is None:
            raise RpcError(f"unknown benchmark {benchmark!r}",
                           code=-32602, data={"code": "unknown_benchmark"})
        ref = spec_ref(spec)
        if ref is None:
            raise RpcError(
                f"benchmark {benchmark!r} is not serveable "
                f"(no picklable spec reference)", code=-32602,
                data={"code": "unknown_benchmark"})
        return spec, ref

    def rpc_ping(self, params: dict) -> dict:
        return {"pong": True, "uptime_seconds":
                self.clock() - self.started_at}

    def rpc_submit(self, params: dict) -> dict:
        benchmark = params.get("benchmark")
        if not benchmark:
            raise RpcError("missing required param 'benchmark'",
                           code=-32602)
        target = params.get("target", "chrome")
        if target not in SERVE_TARGETS:
            raise RpcError(f"unknown target {target!r}", code=-32602)
        size = params.get("size", "test")
        if size not in ("test", "ref"):
            raise RpcError(f"unknown size {size!r}", code=-32602)
        runs = max(1, _number(params, "runs", int, self.config.runs))
        priority = _number(params, "priority", int, 0)
        deadline_s = _number(params, "deadline_s", float, None)
        if deadline_s is not None and not 0 < deadline_s < math.inf:
            raise RpcError("deadline_s must be positive", code=-32602)
        client = str(params.get("client", "anonymous"))
        _spec, ref = self._resolve(benchmark, size)

        with self.store.lock:
            self.metrics.counter("serve.submitted").inc()
            job = self.store.create(client, benchmark, target, size, runs,
                                    priority, deadline_s, ref)
            decision = self.admission.admit(job)
            if decision is not None:
                self.store.transition(
                    job, J.SHED, decision.message,
                    error=decision.as_dict())
                self.metrics.counter("serve.rejected").inc()
                self.metrics.counter(
                    f"serve.rejected.{decision.code}").inc()
                if decision.code == "overloaded":
                    self.metrics.counter("serve.shed").inc()
                raise RpcError(decision.message, data=dict(
                    decision.as_dict(), job_id=job.id))
            self.metrics.counter("serve.accepted").inc()
            memo = self.executor.memo_lookup(job.memo_key())
            if memo is not None:
                # Answer repeats from memory without burning a worker.
                self.admission._queued.discard(job.id)
                self.executor.finish_from_memo(job, memo)
        self.executor.kick()
        return {"job_id": job.id, "state": job.state,
                "queue_depth": self.admission.depth(),
                "estimated_wait_seconds":
                    round(self.admission.estimated_wait(), 4)}

    def _job_or_error(self, params: dict) -> J.Job:
        job_id = params.get("job_id")
        job = self.store.get(job_id) if job_id else None
        if job is None:
            raise RpcError(f"unknown job {job_id!r}", code=-32602,
                           data={"code": "unknown_job"})
        return job

    def rpc_status(self, params: dict) -> dict:
        return self._job_or_error(params).snapshot(self.clock())

    def rpc_result(self, params: dict) -> dict:
        job = self._job_or_error(params)
        return {"job_id": job.id, "state": job.state,
                "terminal": job.terminal, "result": job.result,
                "error": job.error}

    def rpc_wait(self, params: dict) -> dict:
        job = self._job_or_error(params)
        timeout = min(float(params.get("timeout_s", 30.0)), 60.0)
        job = self.store.wait_terminal(job.id, timeout=timeout)
        return job.snapshot(self.clock())

    def rpc_cancel(self, params: dict) -> dict:
        job = self._job_or_error(params)
        with self.store.lock:
            if job.state == J.QUEUED:
                self.admission._queued.discard(job.id)
                self.store.transition(
                    job, J.CANCELLED, "cancelled by client",
                    error={"code": "cancelled",
                           "message": "cancelled by client"})
                self.metrics.counter("serve.cancelled").inc()
        return {"job_id": job.id, "state": job.state,
                "cancelled": job.state == J.CANCELLED}

    def rpc_stats(self, params: dict) -> dict:
        counts = self.store.counts()
        return {
            "uptime_seconds": self.clock() - self.started_at,
            "draining": self.admission.draining,
            "queue_depth": self.admission.depth(),
            "inflight": len(self.executor.pool.inflight),
            "workers": self.executor.pool.width,
            "estimated_wait_seconds": self.admission.estimated_wait(),
            "jobs": counts,
            "breakers": self.breakers.as_dict(),
            "metrics": self.metrics.as_dict(),
        }

    def rpc_drain(self, params: dict) -> dict:
        grace = float(params.get("grace", self.config.grace))
        summary = self.drain(grace=grace)
        return summary

    # -- drain -----------------------------------------------------------------------

    def drain(self, grace: float = None) -> dict:
        """Graceful shutdown: stop admitting, finish in-flight jobs,
        evict the queue, tear down every worker.  Idempotent."""
        with self.store.lock:
            self.admission.draining = True
        if not self.drained:
            self.executor.drain(grace=self.config.grace
                                if grace is None else grace)
            self.drained = True
        counts = self.store.counts()
        live = self.store.live_jobs()
        return {
            "drained": True,
            "jobs": counts,
            "non_terminal": [job.id for job in live],
            "orphan_workers": self.executor.alive_workers(),
        }


# -- the HTTP front-end --------------------------------------------------------------

def _make_handler(service: BenchService, quiet: bool = True):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def log_message(self, fmt, *args):  # noqa: A003
            if not quiet:
                BaseHTTPRequestHandler.log_message(self, fmt, *args)

        def _send_json(self, payload: dict, status: int = 200) -> None:
            body = json.dumps(payload).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        # -- GET: health, readiness, event streams -----------------------------------

        def do_GET(self):  # noqa: N802
            if self.path == "/healthz":
                self._send_json({"status": "alive", "uptime_seconds":
                                 service.clock() - service.started_at})
                return
            if self.path == "/readyz":
                saturated = service.admission.depth() >= \
                    service.admission.max_depth
                if service.admission.draining:
                    self._send_json({"status": "draining"}, status=503)
                elif saturated:
                    self._send_json({"status": "saturated"}, status=503)
                else:
                    self._send_json({"status": "ready"})
                return
            if self.path.startswith("/jobs/") and \
                    self.path.endswith("/events"):
                self._stream_events(self.path[len("/jobs/"):
                                              -len("/events")])
                return
            self._send_json({"error": "not found"}, status=404)

        def _chunk(self, data: bytes) -> None:
            self.wfile.write(b"%x\r\n" % len(data) + data + b"\r\n")
            self.wfile.flush()

        def _stream_events(self, job_id: str) -> None:
            """NDJSON state transitions until the job is terminal."""
            job = service.store.get(job_id)
            if job is None:
                self._send_json({"error": f"unknown job {job_id!r}"},
                                status=404)
                return
            self.send_response(200)
            self.send_header("Content-Type", "application/x-ndjson")
            self.send_header("Transfer-Encoding", "chunked")
            self.end_headers()
            sent = 0
            try:
                while True:
                    with service.store.cond:
                        events = list(job.events)
                        terminal = job.terminal
                        if len(events) == sent and not terminal:
                            service.store.cond.wait(0.25)
                            events = list(job.events)
                            terminal = job.terminal
                    for t, state, detail in events[sent:]:
                        line = json.dumps({
                            "job_id": job.id, "state": state,
                            "detail": detail,
                            "t": round(t - job.submitted, 6)}) + "\n"
                        self._chunk(line.encode())
                    sent = len(events)
                    if terminal and sent == len(events):
                        self._chunk(json.dumps(
                            {"job_id": job.id, "terminal": True,
                             "state": job.state}).encode() + b"\n")
                        break
                self.wfile.write(b"0\r\n\r\n")
                self.wfile.flush()
            except (BrokenPipeError, ConnectionResetError, OSError):
                pass   # client went away mid-stream; nothing to clean up

        # -- POST: JSON-RPC ----------------------------------------------------------

        def do_POST(self):  # noqa: N802
            if self.path != "/rpc":
                self._send_json({"error": "not found"}, status=404)
                return
            try:
                length = int(self.headers.get("Content-Length", 0))
                request = json.loads(self.rfile.read(length) or b"{}")
            except (ValueError, json.JSONDecodeError):
                self._send_json({"jsonrpc": "2.0", "id": None, "error": {
                    "code": -32700, "message": "parse error"}}, status=400)
                return
            request_id = request.get("id")
            method = request.get("method")
            if not isinstance(method, str):
                self._send_json({"jsonrpc": "2.0", "id": request_id,
                                 "error": {"code": -32600, "message":
                                           "invalid request"}}, status=400)
                return
            try:
                result = service.rpc(method, request.get("params"))
                self._send_json({"jsonrpc": "2.0", "id": request_id,
                                 "result": result})
            except RpcError as exc:
                self._send_json({"jsonrpc": "2.0", "id": request_id,
                                 "error": {"code": exc.code,
                                           "message": str(exc),
                                           "data": exc.data}})
            except Exception as exc:  # noqa: BLE001 - a 500, never a hang
                self._send_json({"jsonrpc": "2.0", "id": request_id,
                                 "error": {"code": -32603,
                                           "message": f"internal error: "
                                                      f"{exc}"}},
                                status=500)

    return Handler


class _HttpServer(ThreadingHTTPServer):
    daemon_threads = True
    #: Listen backlog.  socketserver's default of 5 resets connections
    #: when dozens of clients connect at once (serve-smoke's burst load
    #: opens one connection per call from 80 client threads).
    request_queue_size = 128


def make_server(service: BenchService, host: str = "127.0.0.1",
                port: int = 0, quiet: bool = True) -> ThreadingHTTPServer:
    """Bind the HTTP front-end (port 0 = ephemeral); caller serves."""
    return _HttpServer((host, port), _make_handler(service, quiet=quiet))


def serve_in_thread(service: BenchService, host: str = "127.0.0.1",
                    port: int = 0):
    """Start the server on a daemon thread; returns (httpd, thread)."""
    httpd = make_server(service, host, port)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True,
                              name="serve-http")
    thread.start()
    return httpd, thread
