"""BROWSIX-SPEC: the benchmark execution harness (paper §3, Fig. 2).

For each benchmark the harness (1) compiles the source with every
pipeline, (2) spawns a fresh kernel with the benchmark's input files,
(3) attaches the perf model, (4) executes, (5) validates the output
against the native baseline with a byte-level ``cmp``, and (6) reports
mean time ± standard error over several runs.

The simulated machine is deterministic, so the run-to-run variance the
paper reports (OS jitter, cache state) is modeled: each of the ``runs``
timings is the deterministic time perturbed by seeded Gaussian
measurement noise.  Counters are exact.
"""

from __future__ import annotations

import random
import time

from ..asmjs import ASMJS_CHROME, ASMJS_FIREFOX
from ..browser.browser import execute_program
from ..codegen.emscripten import compile_ir_to_wasm
from ..codegen.native import compile_native_tail
from ..ir.passes import opt_pipeline_fingerprint, optimize_module
from ..jit.engine import CHROME_ENGINE, FIREFOX_ENGINE
from ..kernel import BrowsixRuntime, Kernel, NativeRuntime
from ..mcc import compile_source
from ..obs import span
from ..wasm.binary import encode_module
from . import compilecache
from .spec import BenchmarkSpec
from .stats import mean, p50, p95, p99, stderr

#: Default measurement-noise level (fraction of the run time).
NOISE = 0.004

TARGETS = ("native", "chrome", "firefox")
ASMJS_TARGETS = ("asmjs-chrome", "asmjs-firefox")

_ENGINES = {
    "chrome": CHROME_ENGINE,
    "firefox": FIREFOX_ENGINE,
    "asmjs-chrome": ASMJS_CHROME,
    "asmjs-firefox": ASMJS_FIREFOX,
}


def _tiered_engines():
    # Opt-in targets (never part of the default 2019 sweep): the
    # tiered engines are the only ones permitted to elide safety
    # checks from interval facts.
    from ..jit.engine import CHROME_TIERED, FIREFOX_TIERED
    return {"chrome-tiered": CHROME_TIERED,
            "firefox-tiered": FIREFOX_TIERED}


class BenchResult:
    """Measurements for one benchmark on one target."""

    def __init__(self, benchmark: str, target: str, times, run_result,
                 compile_seconds: float):
        self.benchmark = benchmark
        self.target = target
        self.times = list(times)
        self.run = run_result            # RunResult (perf, stdout, ...)
        self.compile_seconds = compile_seconds

    @property
    def mean_seconds(self) -> float:
        return mean(self.times)

    @property
    def stderr_seconds(self) -> float:
        return stderr(self.times)

    @property
    def p50_seconds(self) -> float:
        return p50(self.times)

    @property
    def p95_seconds(self) -> float:
        return p95(self.times)

    @property
    def p99_seconds(self) -> float:
        return p99(self.times)

    @property
    def perf(self):
        return self.run.perf

    def __repr__(self):
        return (f"<{self.benchmark}@{self.target}: "
                f"{self.mean_seconds:.4f}s ±{self.stderr_seconds:.4f}>")


class ValidationError(AssertionError):
    """A benchmark produced output differing from the native baseline."""


class CompiledBenchmark:
    """All compiled artifacts for one benchmark."""

    def __init__(self, spec: BenchmarkSpec):
        self.spec = spec
        self.programs = {}
        self.wasm_bytes = None
        self.compile_seconds = {}

    def program_for(self, target: str):
        return self.programs[target]


def _engine_signature(engine):
    """A stable content identity for an engine's code generation,
    including the mid-end pipeline it runs (the SSA region on 2019
    optimizing tiers), so toggling ``REPRO_SSA`` or reordering passes
    never serves a stale cached program."""
    from ..ir.passes import jit_pipeline_fingerprint
    config = engine.config
    abi = config.abi
    fields = tuple(sorted(
        (key, tuple(value) if isinstance(value, (list, tuple)) else value)
        for key, value in vars(config).items()
        if isinstance(value, (str, int, float, bool, type(None), list,
                              tuple))))
    return (engine.name, engine.year, engine.local_cleanup, fields,
            tuple(abi.int_args), tuple(abi.float_args),
            jit_pipeline_fingerprint(getattr(engine, "optimizing_tier",
                                             False)))


def compile_benchmark(spec: BenchmarkSpec, targets=None,
                      engines=None, cache=None) -> CompiledBenchmark:
    """Compile ``spec`` for every requested target.

    ``cache`` selects the compile cache: ``None`` uses the process-wide
    default (two-tier, content-addressed), ``False`` disables caching
    for this call, and an explicit :class:`~repro.harness.compilecache.
    CompileCache` is used as-is.  Keyed on (source, pipeline, opt flags,
    toolchain fingerprint), so each (benchmark, target) compiles exactly
    once per toolchain version no matter how many experiments request it.
    """
    engines = dict(_ENGINES, **(engines or {}))
    targets = list(targets or TARGETS)
    if any(t.endswith("-tiered") for t in targets):
        engines = dict(_tiered_engines(), **engines)
    result = CompiledBenchmark(spec)
    store = compilecache.resolve_cache(cache)
    with span("harness.compile", benchmark=spec.name,
              targets=",".join(targets)):
        _compile_benchmark(spec, targets, engines, store, result)
    return result


def _compile_benchmark(spec, targets, engines, store, result):
    """Compile once: one frontend and one shared mid-end run feed the
    wasm backend first (it only reads the IR) and then the native-only
    tail (unrolling, memfold and lowering rewrite the IR in place).
    Each half keeps its own cache key, so a partial hit compiles only
    the missing half.  On the JIT side, engines with the same front
    identity share one translated IR per binary and lower it in turn;
    each engine keeps its own cache key."""
    native = "native" in targets
    wasm_targets = [t for t in targets if t != "native"]
    program = native_key = cached = wasm_key = None
    if store is not None:
        if native:
            native_key = store.key("native", spec.source, spec.name,
                                   spec.memory_size, ("opt", 2),
                                   ("unroll", True),
                                   ("pipeline", opt_pipeline_fingerprint(
                                       level=2, unroll=True)))
            program = store.get(native_key)
        if wasm_targets:
            wasm_key = store.key("emscripten", spec.source, spec.name,
                                 spec.memory_size, ("opt", 2),
                                 ("unroll", False),
                                 ("pipeline", opt_pipeline_fingerprint(
                                     level=2, unroll=False)))
            cached = store.get(wasm_key)
    need_native = native and program is None
    need_wasm = bool(wasm_targets) and cached is None

    if need_native or need_wasm:
        # Table 2: Clang is charged the shared mid-end plus its tail
        # (no frontend, as a JIT is not charged for producing the
        # wasm); Emscripten is charged everything from source to bytes.
        start = time.perf_counter()
        ir = compile_source(spec.source, spec.name,
                            memory_size=spec.memory_size)
        midend_start = time.perf_counter()
        optimize_module(ir, level=2)
        midend_seconds = time.perf_counter() - midend_start
        if need_wasm:
            wasm_bytes = encode_module(compile_ir_to_wasm(ir))
            cached = (wasm_bytes, time.perf_counter() - start)
            if store is not None:
                store.put(wasm_key, cached)
        if need_native:
            tail_start = time.perf_counter()
            program = compile_native_tail(ir)
            program.compile_stats["compile_seconds"] = \
                midend_seconds + time.perf_counter() - tail_start
            if store is not None:
                store.put(native_key, program)

    if native:
        result.programs["native"] = program
        result.compile_seconds["native"] = \
            program.compile_stats["compile_seconds"]

    if wasm_targets:
        wasm_bytes, emcc_seconds = cached
        result.wasm_bytes = wasm_bytes
        # Engines whose front halves agree translate and optimize the
        # binary once and differ only in lowering (never cached).
        fronts = {}
        for target in wasm_targets:
            engine = engines[target]
            program = engine_key = None
            if store is not None:
                engine_key = store.key("jit", _engine_signature(engine),
                                       wasm_key)
                program = store.get(engine_key)
            if program is None:
                program = engine.compile_bytes(wasm_bytes, fronts)
                if store is not None:
                    store.put(engine_key, program)
            result.programs[target] = program
            result.compile_seconds[target] = \
                program.compile_stats["compile_seconds"]
        result.compile_seconds["emscripten"] = emcc_seconds
    return result


def run_compiled(compiled: CompiledBenchmark, target: str, runs: int = 5,
                 noise: float = NOISE, seed: int = None,
                 max_instructions: int = 2_000_000_000,
                 timeout: float = None, hwc=None):
    """Execute one compiled target; returns a BenchResult.

    ``timeout`` (wall-clock seconds) arms the per-cell deadline
    watchdog.  ``hwc`` attaches an instrument to the simulated machine:
    a :class:`repro.obs.profile.Attribution` for per-function
    attribution, or the microarchitectural event model (``True`` for a
    fresh env-configured :class:`repro.obs.hwc.HwcModel`).  Its report
    lands on ``run.hwc``; no instrument perturbs counters, timings, or
    output.
    """
    spec = compiled.spec
    program = compiled.programs[target]
    with span("kernel.boot", benchmark=spec.name, target=target):
        kernel = Kernel()
        spec.setup_kernel(kernel)
        process = kernel.spawn(spec.name)
        if target == "native":
            runtime = NativeRuntime(kernel, process, program.heap_base)
        else:
            runtime = BrowsixRuntime(kernel, process, program.heap_base)
    with span("harness.run", benchmark=spec.name, target=target):
        run_result = execute_program(program, runtime,
                                     f"{spec.name}@{target}",
                                     max_instructions=max_instructions,
                                     timeout=timeout, hwc=hwc)
    base_time = run_result.total_seconds
    if seed is None:
        # Stable across processes (Python's hash() is randomized).
        import zlib
        seed = zlib.crc32(f"{spec.name}:{target}".encode())
    rng = random.Random(seed)
    times = [max(base_time * (1.0 + rng.gauss(0.0, noise)), 0.0)
             for _ in range(runs)]
    return BenchResult(spec.name, target, times, run_result,
                       compiled.compile_seconds.get(target, 0.0))


def run_benchmark(spec: BenchmarkSpec, targets=None, runs: int = 5,
                  validate: bool = True, noise: float = NOISE,
                  max_instructions: int = 2_000_000_000, cache=None,
                  jobs: int = 1, tolerant: bool = False, plan=None,
                  policy=None, timeout: float = None, shards: int = None):
    """Compile + run ``spec`` on each target; returns {target: BenchResult}.

    With ``validate``, every target's stdout must byte-compare equal to
    the native baseline's (the harness's ``cmp`` step).  ``jobs`` > 1
    fans the targets out over worker processes (results are bit-identical
    to the serial path; see :mod:`repro.harness.parallel`); ``shards``
    > 1 splits the workers into that many work-stealing pools (see
    :mod:`repro.harness.shard`).

    ``tolerant`` (implied by a fault-injection ``plan``) switches to the
    fault-tolerant path: failed cells come back as
    :class:`~repro.resilience.CellFailure` values instead of raising,
    transient failures are retried per ``policy``, every cell gets the
    fuel watchdog plus the optional wall-clock ``timeout``, and Ctrl-C
    yields partial results (remaining cells marked interrupted).
    """
    targets = list(targets or TARGETS)
    tolerant = tolerant or plan is not None
    if not tolerant:
        if jobs is None or jobs > 1:
            from .parallel import run_suite
            by_name, _compiled = run_suite(
                [spec], targets, runs=runs, noise=noise,
                max_instructions=max_instructions, jobs=jobs, cache=cache,
                shards=shards)
            results = by_name[spec.name]
        else:
            compiled = compile_benchmark(spec, targets, cache=cache)
            results = {}
            for target in targets:
                results[target] = run_compiled(
                    compiled, target, runs, noise,
                    max_instructions=max_instructions)
        if validate and "native" in results:
            expected = results["native"].run.stdout
            for target, result in results.items():
                if result.run.stdout != expected:
                    raise ValidationError(
                        f"{spec.name}@{target}: output mismatch vs native")
        return results

    from .parallel import run_suite
    by_name, _seconds = run_suite(
        [spec], targets, runs=runs, noise=noise,
        max_instructions=max_instructions, jobs=jobs, cache=cache,
        tolerant=True, plan=plan, policy=policy, timeout=timeout,
        shards=shards)
    results = by_name[spec.name]
    if validate:
        _validate_tolerant(spec.name, results, plan)
    return results


def _validate_tolerant(name: str, results: dict, plan=None) -> None:
    """The ``cmp`` step, tolerant flavour: a mismatch marks the cell
    failed instead of aborting the sweep; failed cells are skipped."""
    from ..resilience import failure_from_exception, is_failure
    baseline = results.get("native")
    if baseline is None or is_failure(baseline):
        return
    expected = baseline.run.stdout
    for target, result in results.items():
        if is_failure(result):
            continue
        if result.run.stdout != expected:
            results[target] = failure_from_exception(
                name, target, "validate",
                ValidationError(
                    f"{name}@{target}: output mismatch vs native"),
                plan=plan)
