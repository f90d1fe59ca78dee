"""repro.serve: the fault-tolerant benchmark-as-a-service layer.

``repro serve`` runs the measurement stack as a long-running JSON-RPC-
over-HTTP service (stdlib only) where overload, partial failure, and
shutdown are the normal case:

* :mod:`~repro.serve.jobs` — the job state machine and transition log;
  every accepted job reaches exactly one terminal state;
* :mod:`~repro.serve.admission` — the bounded pending pool: load
  shedding with ``retry_after``, priority preemption, deadline
  eviction;
* :mod:`~repro.serve.breaker` — per-(benchmark, target) circuit
  breakers that fail fast on repeated permanent failures and half-open
  on a timer;
* :mod:`~repro.serve.executor` — dispatch onto a warm
  :class:`~repro.harness.shard.ShardPool`, on the worker lifecycle the
  sweep scheduler uses (idle-death resend, crash re-queue, hang
  watchdog), with deadline propagation into the cell watchdogs and
  result memoization;
* :mod:`~repro.serve.server` — the HTTP front-end (JSON-RPC ``/rpc``,
  ``/healthz``, ``/readyz``, NDJSON ``/jobs/<id>/events``);
* :mod:`~repro.serve.drain` — SIGTERM/Ctrl-C graceful drain: stop
  admitting, finish in-flight, evict the queue, zero orphan workers.
"""

from .admission import AdmissionController
from .breaker import BreakerBoard, CircuitBreaker
from .drain import DrainController, run_until_drained
from .executor import ServeExecutor, result_payload
from .jobs import TERMINAL_STATES, Job, JobStore
from .server import (BenchService, RpcError, ServeConfig, make_server,
                     serve_in_thread)

__all__ = [
    "AdmissionController", "BreakerBoard", "CircuitBreaker",
    "DrainController", "run_until_drained", "ServeExecutor",
    "result_payload", "Job", "JobStore", "TERMINAL_STATES",
    "BenchService", "RpcError", "ServeConfig", "make_server",
    "serve_in_thread",
]
