"""The per-cell runner.

:func:`measure_cell` is the one code path through which the serial
driver, every pool worker and ``repro serve`` compile and run a
(benchmark, target) cell, fast or tolerant.  It wraps compile + execute
in:

* a fault-injection scope (``"{benchmark}:{target}:a{attempt}"``), so
  every injected decision is deterministic per seed and attempt;
* a fuel watchdog (the executor's instruction budget) plus an optional
  wall-clock deadline;
* in a tolerant cell, classification of *any* raised exception —
  including raw Python errors escaping a buggy layer — via
  :func:`repro.errors.classify`, and bounded retry with exponential
  backoff for transient failures.

A failed tolerant cell comes back as a :class:`CellFailure` carrying the
phase, the taxonomy, the attempt count, and the exact command that
reproduces the failure — never as an escaped exception.
``KeyboardInterrupt`` is the one exception deliberately re-raised, so a
Ctrl-C can cancel the whole sweep.  A fast cell re-raises its first
exception unchanged.
"""

from __future__ import annotations

import functools

from ..errors import classify
from . import faults as _faults
from .retry import RetryPolicy


class CellFailure:
    """Everything `repro report` needs to explain one failed cell."""

    def __init__(self, benchmark: str, target: str, phase: str,
                 info, attempts: int = 1, plan=None):
        self.benchmark = benchmark
        self.target = target
        self.phase = phase              # compile | execute | worker | interrupted
        self.status = info.status       # ERROR | TIMEOUT
        self.origin = info.origin
        self.transient = info.transient
        self.injected = info.injected
        self.error_type = info.error_type
        self.message = info.message
        self.attempts = attempts
        self.inject_spec = plan.spec if plan is not None else None
        self.inject_seed = plan.seed if plan is not None else None

    def repro_command(self, size: str = None) -> str:
        """The exact CLI invocation that replays this failure."""
        parts = ["repro", "bench", self.benchmark,
                 "--target", self.target]
        if size in ("test", "ref"):
            parts += ["--size", size]
        if self.inject_spec:
            parts += ["--inject", f"'{self.inject_spec}'",
                      "--inject-seed", str(self.inject_seed)]
        return " ".join(parts)

    def as_dict(self, size: str = None) -> dict:
        return {
            "benchmark": self.benchmark, "target": self.target,
            "status": self.status, "phase": self.phase,
            "origin": self.origin, "transient": self.transient,
            "injected": self.injected, "error": self.error_type,
            "message": self.message, "attempts": self.attempts,
            "inject": self.inject_spec, "inject_seed": self.inject_seed,
            "repro": self.repro_command(size),
        }

    def __repr__(self):
        return (f"<cell-failure {self.benchmark}@{self.target} "
                f"{self.status} phase={self.phase} "
                f"{self.error_type} after {self.attempts} attempt(s)>")


def is_failure(cell) -> bool:
    """True when a sweep cell holds a failure record, not a result."""
    return isinstance(cell, CellFailure)


def interrupted_cell(benchmark: str, target: str, plan=None) -> CellFailure:
    """The failure recorded for cells cancelled by Ctrl-C."""
    from ..errors import InterruptedSweep
    info = classify(
        InterruptedSweep("sweep interrupted before this cell finished"))
    return CellFailure(benchmark, target, "interrupted", info,
                       attempts=0, plan=plan)


def failure_from_exception(benchmark: str, target: str, phase: str,
                           exc: BaseException, attempts: int = 1,
                           plan=None) -> CellFailure:
    """Classify any exception into a :class:`CellFailure`."""
    return CellFailure(benchmark, target, phase, classify(exc),
                       attempts=attempts, plan=plan)


def measure_cell(spec, target: str, runs: int = 5, noise: float = None,
                 max_instructions: int = 2_000_000_000, cache=None,
                 plan=None, policy: RetryPolicy = None,
                 timeout: float = None, tolerant: bool = True,
                 compile_step=None):
    """Measure one cell.

    Returns ``(result, failure, compile_seconds, attempts)`` where
    exactly one of ``result`` (a BenchResult) and ``failure`` (a
    :class:`CellFailure`) is not None.  With ``tolerant=False`` the
    cell's first exception propagates unchanged instead: no
    classification, no retry.

    ``compile_step`` returns the cell's CompiledBenchmark; by default
    the cell compiles ``spec`` for ``target`` alone.  A serial sweep
    passes one memoized compile of every target per benchmark, so the
    row's first cell compiles it inside its own fault scope and later
    cells and retries reuse it.
    """
    from ..harness import runner

    if noise is None:
        noise = runner.NOISE
    if compile_step is None:
        compile_step = functools.partial(runner.compile_benchmark, spec,
                                         (target,), cache=cache)
    policy = policy or RetryPolicy()
    compile_seconds = {}
    failure = None
    for attempt in range(policy.max_attempts):
        scope_name = f"{spec.name}:{target}:a{attempt}"
        phase = "compile"
        try:
            with _faults.scope(plan, scope_name):
                compiled = compile_step()
                compile_seconds.update(compiled.compile_seconds)
                phase = "execute"
                _faults.check("trap")
                _faults.check("fuel")
                result = runner.run_compiled(
                    compiled, target, runs=runs, noise=noise,
                    max_instructions=max_instructions, timeout=timeout)
            return result, None, compile_seconds, attempt + 1
        except KeyboardInterrupt:
            raise
        except Exception as exc:  # noqa: BLE001 - classified, never lost
            if not tolerant:
                raise
            info = classify(exc)
            failure = CellFailure(spec.name, target, phase, info,
                                  attempts=attempt + 1, plan=plan)
            if info.transient and attempt < policy.retries:
                policy.backoff(attempt)
                continue
            return None, failure, compile_seconds, attempt + 1
    return None, failure, compile_seconds, policy.max_attempts
