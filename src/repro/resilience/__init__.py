"""Fault injection and fault tolerance for the measurement stack.

The paper's sweeps run inside a fragile stack (browser tabs, a JS
kernel, JIT traps); this package makes our reproduction of that stack
degrade gracefully instead of aborting:

* :mod:`repro.resilience.faults` — a seeded, deterministic fault
  injector with named fault points at the real failure boundaries
  (guest traps, fuel exhaustion, kernel syscall errors, cache
  corruption, worker crashes), driven by ``repro bench --inject``;
* :mod:`repro.resilience.retry` — bounded retry with exponential
  backoff for transient failures;
* :mod:`repro.resilience.cell` — the per-cell runner of every sweep:
  each (benchmark, target) cell gets a fuel watchdog and a wall-clock
  deadline, and a tolerant cell gets classification of any failure via
  :func:`repro.errors.classify` and a
  :class:`~repro.resilience.cell.CellFailure` record (phase, seed,
  exact repro command) instead of an escaped exception.
"""

from .cell import (CellFailure, failure_from_exception, interrupted_cell,
                   is_failure, measure_cell)
from .faults import FAULT_POINTS, FaultInjector, FaultPlan
from .retry import RetryPolicy

__all__ = [
    "FAULT_POINTS", "FaultInjector", "FaultPlan", "RetryPolicy",
    "CellFailure", "measure_cell", "is_failure", "interrupted_cell",
    "failure_from_exception",
]
