"""Profile attribution: the paper's §6 root-cause analysis as a tool.

The whole-program counters in :mod:`repro.x86.perf` reproduce the
paper's Table 3 *totals*; this module reproduces the attribution — the
``perf record`` / ``perf annotate`` step that maps counter inflation
back onto specific functions and source lines.

:class:`Attribution` is the x86 machine's instrument.  The reference
loop calls its ``enter(name)`` at every call, ``exit()`` at every
return, ``retire(ins, machine)`` once per instruction and ``finish()``
when it stops.  The instrument keeps the virtual call stack and charges
each function the retired counters and i-cache traffic accrued since
the last enter or exit, plus its instructions per x86 mnemonic.  The
buckets are exact: :meth:`AttributionReport.verify` asserts that they
sum to the whole-program counters field for field.
:class:`repro.obs.hwc.HwcModel` extends it with microarchitectural
events.

:func:`attribute_benchmark` is the one entry point: it runs the native
and a wasm build of one benchmark with an instrument attached and
verifies both reports.  :func:`profile_benchmark` renders them as a
:class:`ProfileComparison`, whose ``annotate()`` prints the benchmark's
mcc source with per-function counter deltas — the simulated
``perf annotate`` view of the paper's §6 analysis.
"""

from __future__ import annotations

from collections import defaultdict
from operator import attrgetter

from ..x86.perf import EVENT_TABLE, PerfCounters

#: PerfCounters fields shown in per-function tables, with short labels.
PROFILE_FIELDS = (
    ("instructions", "instrs"),
    ("loads", "loads"),
    ("stores", "stores"),
    ("branches", "branches"),
    ("icache_misses", "L1I miss"),
)


class FunctionCounters(PerfCounters):
    """One function's retired counters plus its L1 i-cache accesses and
    misses (cache-model events, outside the ``PerfCounters`` slots)."""

    __slots__ = ("icache_accesses", "icache_misses")

    def __init__(self):
        super().__init__()
        self.icache_accesses = self.icache_misses = 0

    def merge(self, other) -> None:
        for field in _FIELDS:
            setattr(self, field, getattr(self, field) + getattr(other, field))

    def __eq__(self, other):
        return isinstance(other, FunctionCounters) and all(
            getattr(self, field) == getattr(other, field)
            for field in _FIELDS)


_FIELDS = PerfCounters.__slots__ + FunctionCounters.__slots__
_read_perf = attrgetter(*PerfCounters.__slots__)


class AttributionReport:
    """Picklable snapshot of one :class:`Attribution` run."""

    def __init__(self, functions: dict, opcodes: dict,
                 program: FunctionCounters):
        self.functions = functions      # name -> FunctionCounters
        self.opcodes = opcodes          # name -> {mnemonic: retired}
        self.program = program          # whole-program, since attach

    def verify(self) -> None:
        """Assert the per-function buckets sum to the whole-program
        counts, field for field — attribution is only trustworthy if it
        is exact."""
        summed = FunctionCounters()
        for counters in self.functions.values():
            summed.merge(counters)
        for field in _FIELDS:
            got = getattr(summed, field)
            want = getattr(self.program, field)
            if got != want:
                raise AssertionError(
                    f"per-function {field} sum {got} != "
                    f"whole-program {want}")

    def hot_functions(self, limit: int = None):
        """(name, counters) sorted by instructions retired, descending."""
        ranked = sorted(self.functions.items(),
                        key=lambda item: item[1].instructions,
                        reverse=True)
        return ranked[:limit] if limit else ranked

    def hot_opcodes(self, limit: int = None):
        """(mnemonic, instructions) over all functions, descending."""
        merged: dict[str, int] = {}
        for per_func in self.opcodes.values():
            for op, count in per_func.items():
                merged[op] = merged.get(op, 0) + count
        ranked = sorted(merged.items(), key=lambda item: -item[1])
        return ranked[:limit] if limit else ranked

    def __eq__(self, other):
        return (isinstance(other, AttributionReport)
                and self.functions == other.functions
                and self.opcodes == other.opcodes
                and self.program == other.program)


class Attribution:
    """Per-function and per-opcode attribution for the x86 machine.

    Attach as ``X86Machine(..., hwc=Attribution())`` (or through
    ``run_compiled``); after the run, :meth:`report` returns the
    :class:`AttributionReport`.
    """

    def __init__(self):
        self.functions: dict[str, FunctionCounters] = {}
        #: function -> {mnemonic: instructions retired}
        self.opcodes: dict[str, dict] = {}
        #: The virtual call stack; ``cur`` is its top.
        self._stack: list[str] = []
        self.cur: str = None
        self._bucket = self._ops = None
        self._machine = None
        self._origin = self._base = None

    # -- the executor's instrument protocol --------------------------------

    def attach(self, machine) -> None:
        self._machine = machine
        self._origin = self._base = self._snapshot()

    def enter(self, name: str) -> None:
        """Execution moved into ``name``: a call, or the entry point."""
        self._fold()
        self._stack.append(name)
        self._switch(name)

    def retire(self, ins, m) -> None:
        """Observe one instruction about to retire on machine ``m``."""
        self._ops[ins.op] += 1

    def exit(self) -> None:
        """The current function returned."""
        self._fold()
        self._stack.pop()
        self._switch(self._stack[-1] if self._stack else None)

    def finish(self) -> None:
        """Execution stopped, normally or by a trap: charge the residue
        to the function it accrued in and clear the call stack."""
        self._fold()
        self._stack.clear()
        self._switch(None)

    def report(self) -> AttributionReport:
        return AttributionReport(self.functions, self.opcodes,
                                 self._program())

    # -- bucketing ----------------------------------------------------------

    def _snapshot(self) -> tuple:
        """The machine's counts, in ``_FIELDS`` order."""
        m = self._machine
        return _read_perf(m.perf) + (m.icache.accesses, m.icache.misses)

    def _fold(self) -> None:
        """Charge the current function everything the machine counted
        since the last enter or exit (the executor folds its counter
        mirrors into ``perf`` first)."""
        now = self._snapshot()
        bucket = self._bucket
        if bucket is not None:
            for field, new, old in zip(_FIELDS, now, self._base):
                if new != old:
                    setattr(bucket, field, getattr(bucket, field) + new - old)
        self._base = now

    def _switch(self, name) -> None:
        self.cur = name
        if name is None:
            self._bucket = self._ops = None
            return
        bucket = self.functions.get(name)
        if bucket is None:
            bucket = self.functions[name] = FunctionCounters()
            self.opcodes[name] = defaultdict(int)
        self._bucket = bucket
        self._ops = self.opcodes[name]

    def _program(self) -> FunctionCounters:
        """The whole-program counts since attach."""
        program = FunctionCounters()
        for field, new, old in zip(_FIELDS, self._snapshot(), self._origin):
            setattr(program, field, new - old)
        return program


# -- the shared entry point and the perf-annotate rendering ------------------------


def attribute_benchmark(spec, target: str, instrument, cache=None,
                        max_instructions: int = 2_000_000_000):
    """Compile ``spec`` native and for ``target``, run each once with a
    fresh ``instrument()`` attached, and verify both reports.

    Returns the native and the target
    :class:`~repro.browser.browser.RunResult`; each carries its report
    as ``run.hwc``.  ``repro profile`` and ``repro explain`` both run
    through here, with :class:`Attribution` and the hwc model.
    """
    from ..harness.runner import compile_benchmark, run_compiled

    compiled = compile_benchmark(spec, ["native", target], cache=cache)
    runs = []
    for pipeline in ("native", target):
        run = run_compiled(compiled, pipeline, runs=1,
                           max_instructions=max_instructions,
                           hwc=instrument()).run
        run.hwc.verify()
        runs.append(run)
    return runs


class ProfileComparison:
    """Native-vs-wasm per-function attribution for one benchmark: the
    ``repro profile`` rendering of two verified reports."""

    def __init__(self, spec, target: str, native_run, target_run):
        self.spec = spec
        self.target = target
        self.native_run = native_run
        self.target_run = target_run
        self.native_profile = native_run.hwc
        self.target_profile = target_run.hwc

    # -- tables -----------------------------------------------------------

    def function_rows(self):
        """Rows of (name, native PerfCounters|None, target
        PerfCounters|None) ordered by target instructions retired."""
        names = dict.fromkeys(
            list(self.target_profile.functions) +
            list(self.native_profile.functions))
        rows = [(name,
                 self.native_profile.functions.get(name),
                 self.target_profile.functions.get(name))
                for name in names]
        rows.sort(key=lambda row: -(row[2].instructions if row[2]
                                    else row[1].instructions))
        return rows

    def render_table(self) -> str:
        from ..analysis.tables import render_table
        rows = []
        for name, native, target in self.function_rows():
            row = [name]
            for field, _label in PROFILE_FIELDS:
                n = getattr(native, field) if native else 0
                t = getattr(target, field) if target else 0
                row.append(f"{n} -> {t} ({_ratio(t, n)})")
            rows.append(row)
        headers = ["function"] + [label for _, label in PROFILE_FIELDS]
        return render_table(
            headers, rows,
            f"{self.spec.name}: per-function counters, "
            f"native -> {self.target}")

    def render_events(self) -> str:
        """Whole-program Table-3 event deltas (the §6 summary row)."""
        from ..analysis.tables import render_table
        rows = []
        for event, _raw, summary in EVENT_TABLE:
            n = self.native_run.event(event)
            t = self.target_run.event(event)
            rows.append([event, f"{n:.0f}" if isinstance(n, float) else n,
                        f"{t:.0f}" if isinstance(t, float) else t,
                        _ratio(t, n), summary])
        return render_table(
            ["perf event", "native", self.target, "ratio",
             "Wasm summary"], rows,
            f"{self.spec.name}: Table 3 events, native vs {self.target}")

    # -- perf annotate ----------------------------------------------------

    def annotate(self) -> str:
        """The benchmark source annotated with per-function deltas.

        Functions are located by re-parsing the benchmark with the mcc
        frontend; each definition line is preceded by the function's
        native -> target counter deltas.  Runtime-library functions
        (prepended stdlib) are summarized separately since they have no
        line in the benchmark source.
        """
        from ..mcc import STDLIB_SOURCE, parse

        source = self.spec.source
        stdlib_lines = STDLIB_SOURCE.count("\n") + 1
        program = parse(STDLIB_SOURCE + "\n" + source)
        func_lines = {}      # user-source line number -> function name
        stdlib_funcs = set()
        for decl in getattr(program, "decls", []):
            name = getattr(decl, "name", None)
            line = getattr(decl, "line", None)
            if name is None or line is None or \
                    not hasattr(decl, "body"):
                continue
            if getattr(decl, "body", None) is None:
                continue
            if line > stdlib_lines:
                func_lines[line - stdlib_lines] = name
            else:
                stdlib_funcs.add(name)

        out = [f";; perf annotate: {self.spec.name}, "
               f"native -> {self.target}"]
        for lineno, text in enumerate(source.splitlines(), start=1):
            name = func_lines.get(lineno)
            if name is not None:
                out.append(self._annotation(name))
            out.append(f"{lineno:4d} | {text}")

        profiled_stdlib = [
            name for name, _c in self.target_profile.hot_functions()
            if name in stdlib_funcs or
            name not in set(func_lines.values())]
        if profiled_stdlib:
            out.append("")
            out.append(";; runtime library:")
            for name in profiled_stdlib:
                out.append(self._annotation(name))
        return "\n".join(out)

    def _annotation(self, name: str) -> str:
        native = self.native_profile.functions.get(name)
        target = self.target_profile.functions.get(name)
        parts = []
        for field, label in PROFILE_FIELDS:
            n = getattr(native, field) if native else 0
            t = getattr(target, field) if target else 0
            if n == 0 and t == 0:
                continue
            parts.append(f"{label} {n} -> {t} ({_ratio(t, n)})")
        detail = ", ".join(parts) if parts else "not executed"
        return f"     ;; {name}: {detail}"


def _ratio(target: float, native: float) -> str:
    if native == 0:
        return "new" if target else "-"
    return f"{target / native:.2f}x"


def profile_benchmark(spec, target: str = "chrome", cache=None,
                      max_instructions: int = 2_000_000_000) \
        -> ProfileComparison:
    """Compile and run ``spec`` native + ``target`` with
    :class:`Attribution` attached; returns the verified comparison."""
    return ProfileComparison(spec, target, *attribute_benchmark(
        spec, target, Attribution, cache, max_instructions))
