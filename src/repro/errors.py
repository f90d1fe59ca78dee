"""Exception types shared across the toolchain.

Every exception carries a *failure taxonomy* used by the fault-tolerant
harness (:mod:`repro.resilience`):

* ``origin`` — ``"guest"`` when the failure is the simulated program's
  fault (a trap, a validation error), ``"harness"`` when the measurement
  stack itself failed (a corrupted cache entry, a dead worker);
* ``transient`` — ``True`` when retrying the same cell may succeed (an
  injected ``EIO``, a crashed worker process), ``False`` when the
  failure is deterministic and a retry would only repeat it;
* ``injected`` — ``True`` when the exception was raised by the fault
  injector rather than a real failure.

:func:`classify` maps any exception (including raw Python errors that
escape a buggy layer) onto this taxonomy.
"""

from typing import NamedTuple


class ReproError(Exception):
    """Base class for all errors raised by this package.

    Every subclass must survive a pickle round-trip (worker results
    cross process boundaries over pipes) with its taxonomy intact:
    subclasses whose ``__init__`` signature differs from ``args``
    override ``__reduce__`` to rebuild from their real constructor
    arguments, and instance state (``injected`` flags set by the fault
    injector) rides along as the reduce state dict.
    """

    #: Whose fault is this: the simulated guest program or the harness.
    origin = "harness"
    #: Whether retrying the failed operation may succeed.
    transient = False
    #: Whether the fault injector (not a real failure) raised this.
    injected = False


class CompileError(ReproError):
    """A source program failed to lex, parse, or type-check."""

    origin = "guest"

    def __init__(self, message: str, line: int = None, col: int = None):
        self.raw_message = message
        self.line = line
        self.col = col
        where = f" at {line}:{col}" if line is not None else ""
        super().__init__(f"{message}{where}")

    def __reduce__(self):
        return (type(self), (self.raw_message, self.line, self.col),
                self.__dict__)


class TrapError(ReproError):
    """Guest execution aborted (unreachable, bad memory access, ...)."""

    origin = "guest"


class ValidationError(ReproError):
    """A WebAssembly module failed validation."""

    origin = "guest"


class LinkError(ReproError):
    """A module references an import that the embedder does not provide."""

    origin = "guest"


class FuelExhausted(TrapError):
    """Guest execution ran out of fuel (a runaway loop / simulated hang).

    Raised by the x86 executor, the wasm interpreter, and the IR
    interpreter when their instruction budget is spent — the fuel-based
    watchdog that turns an infinite loop into a bounded failure.
    """


class CellTimeout(ReproError):
    """A benchmark cell exceeded its wall-clock deadline."""


class SyscallError(TrapError):
    """A kernel syscall failed at the OS boundary (``EIO``, ``ENOSPC``).

    Real Browsix runs see these from the browser's storage layer; the
    fault injector raises them to prove the harness retries transient
    kernel failures.  ``EIO``/``EAGAIN``/``ENOSPC``/``EINTR`` are
    transient; anything else is permanent.
    """

    TRANSIENT_ERRNOS = ("EIO", "EAGAIN", "ENOSPC", "EINTR")

    def __init__(self, errno_name: str, syscall: str = "?"):
        self.errno_name = errno_name
        self.syscall = syscall
        super().__init__(f"syscall {syscall} failed: {errno_name}")

    def __reduce__(self):
        # Default exception pickling replays ``args`` (the formatted
        # message) through ``__init__``, which would turn the message
        # into the errno name — and a transient EIO into a permanent
        # failure on the far side of a worker pipe.  Rebuild from the
        # real constructor arguments instead.
        return (type(self), (self.errno_name, self.syscall),
                self.__dict__)

    @property
    def transient(self) -> bool:
        return self.errno_name in self.TRANSIENT_ERRNOS


class CacheCorruptionError(ReproError):
    """An on-disk compile-cache entry failed its content checksum.

    Always recoverable: the entry is evicted and the artifact recompiled,
    so this never escapes :meth:`repro.harness.compilecache.
    CompileCache.get`.
    """

    transient = True


class WorkerCrashError(ReproError):
    """A parallel-sweep worker process died without reporting a result."""

    transient = True


class InterruptedSweep(ReproError):
    """A sweep was cancelled (Ctrl-C) before this cell could run."""


class FailureInfo(NamedTuple):
    """The taxonomy of one failure, as rendered in reports."""

    status: str        # "ERROR" | "TIMEOUT"
    origin: str        # "guest" | "harness"
    transient: bool
    injected: bool
    error_type: str
    message: str


def classify(exc: BaseException) -> FailureInfo:
    """Map any exception onto the failure taxonomy.

    Raw Python exceptions (the kind the fuzz suite asserts never escape)
    classify as permanent harness failures, so even a bug in the
    toolchain degrades into an ERROR cell instead of aborting a sweep.
    """
    if isinstance(exc, (FuelExhausted, CellTimeout)):
        status = "TIMEOUT"
    else:
        status = "ERROR"
    if isinstance(exc, ReproError):
        origin = exc.origin
        transient = exc.transient
        injected = exc.injected
    else:
        origin, transient, injected = "harness", False, False
    return FailureInfo(status=status, origin=origin, transient=transient,
                       injected=injected, error_type=type(exc).__name__,
                       message=str(exc))
