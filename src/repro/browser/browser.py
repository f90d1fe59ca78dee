"""Simulated browsers: a JIT engine bound to a Browsix-Wasm kernel.

A :class:`Browser` takes WebAssembly binary bytes, JIT-compiles them with
its engine, instantiates a process against the kernel, runs it on the
simulated x86 machine, and reports timing split into guest CPU time and
Browsix overhead — the decomposition behind the paper's Figure 4.

``NativeHost`` runs the Clang-compiled program the same way with native
syscall costs, providing the baseline column of every table.
"""

from __future__ import annotations

import os

from ..jit.engine import CHROME_ENGINE, FIREFOX_ENGINE, Engine
from ..kernel import BrowsixRuntime, Kernel, NativeRuntime
from ..obs import span
from ..x86.machine import X86Machine
from ..x86.perf import CLOCK_HZ
from ..x86.program import X86Program


class RunResult:
    """Outcome of one program execution."""

    def __init__(self, name: str, stdout: bytes, exit_code: int, perf,
                 overhead_cycles: float, syscalls: int,
                 compile_seconds: float, icache_accesses: int = 0,
                 icache_misses: int = 0, hwc=None):
        self.name = name
        self.stdout = stdout
        self.exit_code = exit_code
        self.perf = perf
        self.overhead_cycles = overhead_cycles
        self.syscalls = syscalls
        self.compile_seconds = compile_seconds
        self.icache_accesses = icache_accesses
        self.icache_misses = icache_misses
        #: The attached instrument's report, if any: a
        #: :class:`repro.obs.profile.AttributionReport` or
        #: :class:`repro.obs.hwc.HwcReport`.
        self.hwc = hwc

    @property
    def cycles(self) -> float:
        """Estimated guest CPU cycles (retired model + i-cache term)."""
        return self.perf.cycles(self.icache_misses)

    def event(self, name: str):
        """Read a counter by its paper (Table 3) event name."""
        if name == "cpu-cycles":
            return self.cycles
        if name == "L1-icache-load-misses":
            return self.icache_misses
        return self.perf.event(name)

    @property
    def cpu_seconds(self) -> float:
        return self.perf.seconds(self.icache_misses)

    @property
    def overhead_seconds(self) -> float:
        return self.overhead_cycles / CLOCK_HZ

    @property
    def total_seconds(self) -> float:
        """Wall-clock execution time (guest CPU + kernel overhead)."""
        return self.cpu_seconds + self.overhead_seconds

    @property
    def overhead_fraction(self) -> float:
        total = self.total_seconds
        return self.overhead_seconds / total if total else 0.0

    def __repr__(self):
        return (f"<run {self.name}: rc={self.exit_code} "
                f"t={self.total_seconds:.4f}s "
                f"browsix={100 * self.overhead_fraction:.2f}%>")


def execute_program(program: X86Program, runtime, name: str,
                    entry: str = "main",
                    max_instructions: int = 2_000_000_000,
                    timeout: float = None, reference: bool = False,
                    hwc=None) -> RunResult:
    """Run a compiled program against a process runtime.

    ``timeout`` (wall-clock seconds) arms the machine's deadline
    watchdog: a run that exceeds it raises
    :class:`~repro.errors.CellTimeout` instead of hanging the sweep.
    ``reference=True`` runs the machine's per-instruction reference
    loop instead of the block engine (same results; the oracle that
    equivalence checks compare against).
    ``hwc`` attaches an instrument — a
    :class:`~repro.obs.profile.Attribution` or a
    :class:`~repro.obs.hwc.HwcModel` (with ``hwc=True`` /
    ``REPRO_HWC=1``, a default one); its report lands on
    ``RunResult.hwc``.
    """
    from time import monotonic
    if hwc is None and os.environ.get("REPRO_HWC", "") not in ("", "0"):
        hwc = True
    if hwc is True:
        from ..obs.hwc import HwcModel
        hwc = HwcModel()
    deadline = None if timeout is None else monotonic() + timeout
    machine = X86Machine(program, host=runtime,
                         max_instructions=max_instructions,
                         deadline=deadline, reference=reference, hwc=hwc)
    with span("execute", program=name, entry=entry):
        rax, _ = machine.call(entry)
    return RunResult(
        name=name,
        stdout=runtime.stdout,
        exit_code=rax & 0xFFFFFFFF,
        perf=machine.perf,
        overhead_cycles=runtime.overhead_cycles,
        syscalls=runtime.syscall_count,
        compile_seconds=program.compile_stats.get("compile_seconds", 0.0),
        icache_accesses=machine.icache.accesses,
        icache_misses=machine.icache.misses,
        hwc=hwc.report() if hwc is not None else None,
    )


class Browser:
    """A web browser hosting Browsix-Wasm."""

    def __init__(self, name: str, engine: Engine):
        self.name = name
        self.engine = engine

    def compile(self, wasm_bytes: bytes) -> X86Program:
        return self.engine.compile_bytes(wasm_bytes)

    def run_wasm(self, wasm_bytes: bytes, kernel: Kernel = None,
                 name: str = "benchmark", entry: str = "main",
                 max_instructions: int = 2_000_000_000,
                 program: X86Program = None) -> RunResult:
        """JIT-compile and execute a wasm binary in this browser."""
        kernel = kernel or Kernel()
        if program is None:
            program = self.compile(wasm_bytes)
        process = kernel.spawn(name)
        runtime = BrowsixRuntime(kernel, process, program.heap_base)
        return execute_program(program, runtime, f"{name}@{self.name}",
                               entry, max_instructions)

    def __repr__(self):
        return f"<browser {self.name}>"


class NativeHost:
    """Runs natively compiled programs (the Clang baseline)."""

    name = "native"

    def run_program(self, program: X86Program, kernel: Kernel = None,
                    name: str = "benchmark", entry: str = "main",
                    max_instructions: int = 2_000_000_000) -> RunResult:
        kernel = kernel or Kernel()
        process = kernel.spawn(name)
        runtime = NativeRuntime(kernel, process, program.heap_base)
        return execute_program(program, runtime, f"{name}@native",
                               entry, max_instructions)


def chrome() -> Browser:
    return Browser("chrome", CHROME_ENGINE)


def firefox() -> Browser:
    return Browser("firefox", FIREFOX_ENGINE)
