"""The benchmark's workloads: SPEC proxies x {native, chrome, firefox}.

Every workload drives the same harness API the CLI uses,
``runner.compile_benchmark`` and ``runner.run_compiled`` (or
``parallel.run_suite`` for the pooled one), against a private
compile-cache directory.  The seed only permutes the order of the cells
(the analog of link order); no cell's result depends on it.

Importing this module requires ``repro`` on ``sys.path`` and the
``REPRO_*`` environment already pinned (``run.py`` does both).
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import shutil

from repro.benchsuite import SPEC_NAMES, spec_benchmark
from repro.harness import compilecache, parallel, runner
from repro.harness.compilecache import CompileCache
from repro.ir.interp import IRInterpreter
from repro.kernel import Kernel, NativeRuntime
from repro.mcc import compile_source

TARGETS = ("native", "chrome", "firefox")

#: SPEC2006 proxies for the ref-size workloads: integer and float
#: kernels whose 15 cells run in about 5 s serially.  The other eight
#: would add about 25 s of the same simulator layer per sweep and no new
#: layer.
REF_NAMES = ("445.gobmk", "450.soplex", "462.libquantum", "473.astar",
             "482.sphinx3")

#: The warm workload's proxies, every other one: its set-up compiles
#: them all, three times per run, so it takes about half of them.
WARM_NAMES = tuple(SPEC_NAMES[::2])

#: Workers of the pooled workload.
POOL_JOBS = 2


def digest(run) -> str:
    """Identity of one cell's science: stdout, every retired counter,
    and the i-cache misses (plus the cycles derived from them)."""
    blob = json.dumps({
        "stdout": run.stdout.hex(),
        "perf": run.perf.as_dict(icache_misses=run.icache_misses),
    }, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def oracle_stdout(spec) -> bytes:
    """The spec's stdout from the IR interpreter on unoptimized IR: an
    oracle independent of every backend, JIT and simulator."""
    module = compile_source(spec.source, spec.name,
                            memory_size=spec.memory_size)
    kernel = Kernel()
    spec.setup_kernel(kernel)
    runtime = NativeRuntime(kernel, kernel.spawn(spec.name),
                            module.heap_base)
    IRInterpreter(module, runtime).run("main")
    return runtime.stdout


class Workload:
    """One workload: ``setup`` (``SETUPS`` times), then ``reset`` +
    ``sweep`` per measured sweep, then ``teardown``.

    ``sweep`` returns ``[(name, target, RunResult or exception)]``.
    Invariant breaks (cache hits where none may occur, workers left
    alive) are collected in ``problems``.
    """

    size = "test"
    names = tuple(SPEC_NAMES)
    #: Whether a run also checks native stdout against the IR
    #: interpreter (the pinned digests carry it for the others).
    oracle = False
    #: The compile cache of the last sweep, if the sweep used one.
    cache = None

    def __init__(self, cache_dir: str, rng):
        self.cache_dir = cache_dir
        self.rng = rng
        self.problems = []
        self.specs = []

    def shuffled(self, items):
        items = list(items)
        self.rng.shuffle(items)
        return items

    def _build_specs(self):
        self.specs = [spec_benchmark(name, self.size) for name in self.names]

    def _fill(self, cache):
        """Compile every spec for every target into ``cache``."""
        return {spec.name: runner.compile_benchmark(spec, TARGETS,
                                                    cache=cache)
                for spec in self.shuffled(self.specs)}

    def setup(self):
        raise NotImplementedError

    def reset(self):
        """Untimed: state every sweep must start from."""

    def sweep(self):
        raise NotImplementedError

    def teardown(self):
        """After the last sweep: release what set-up acquired."""

    def _run_cells(self, compiled):
        cells = []
        order = [(spec.name, target) for spec in self.specs
                 for target in TARGETS]
        for name, target in self.shuffled(order):
            try:
                program = compiled[name]
                if isinstance(program, Exception):
                    raise program
                run = runner.run_compiled(program, target, runs=1).run
            except Exception as exc:
                run = exc
            cells.append((name, target, run))
        return cells


class _CachedSweep(Workload):
    """Table 1 at test size: compile every benchmark through a fresh
    compile cache (fresh in-memory tier over ``cache_dir``), then run
    every cell."""

    def reset(self):
        self.cache = CompileCache(self.cache_dir)

    def sweep(self):
        compiled = {}
        for spec in self.shuffled(self.specs):
            try:
                compiled[spec.name] = runner.compile_benchmark(
                    spec, self.shuffled(TARGETS), cache=self.cache)
            except Exception as exc:
                compiled[spec.name] = exc
        cells = self._run_cells(compiled)
        self.check_cache(self.cache.stats)
        return cells


class SpecTestCold(_CachedSweep):
    """``report table1`` on a fresh checkout: every lookup misses.
    Set-up builds the specs and hashes the toolchain sources every
    cache key starts from (a fresh process hashes them once)."""

    oracle = True

    def setup(self):
        self._build_specs()
        compilecache._FINGERPRINT = None
        compilecache.toolchain_fingerprint()

    def reset(self):
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        super().reset()

    def check_cache(self, stats):
        if stats.hits:
            self.problems.append(f"cold sweep had {stats.hits} cache hits")


class SpecTestWarm(_CachedSweep):
    """Every later ``report table1``: set-up fills the disk tier, each
    sweep starts with an empty memory tier, so every lookup is a disk
    read and nothing compiles."""

    names = WARM_NAMES

    def setup(self):
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        self._build_specs()
        self._fill(CompileCache(self.cache_dir))

    def check_cache(self, stats):
        if stats.misses:
            self.problems.append(
                f"warm sweep had {stats.misses} cache misses")


class Spec2006Ref(Workload):
    """Ref-size cells compiled during set-up and run serially: the
    timed region is simulator execution alone."""

    size = "ref"
    names = REF_NAMES

    def setup(self):
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        self._build_specs()
        self.compiled = self._fill(CompileCache(self.cache_dir))

    def sweep(self):
        return self._run_cells(self.compiled)


class Spec2006RefJobs2(Workload):
    """The ``spec2006-ref`` cells through ``run_suite(jobs=2)``.  Set-up
    compiles them into the process-wide compile cache and then forks
    the warm pool (with a one-benchmark warm-up suite), so every worker
    inherits every program in its memory tier and the timed region is
    pooled execution alone."""

    size = "ref"
    names = REF_NAMES

    def setup(self):
        parallel.shutdown_warm_pool()
        cache = compilecache.get_cache()
        cache.clear_memory()
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        self._build_specs()
        self._fill(cache)
        parallel.run_suite(self.specs[:1], TARGETS, runs=1, jobs=POOL_JOBS,
                           shards=1)
        self.workers = multiprocessing.active_children()

    def sweep(self):
        results, _compile_seconds = parallel.run_suite(
            self.shuffled(self.specs), TARGETS, runs=1, jobs=POOL_JOBS,
            shards=1)
        return [(name, target, bench.run)
                for name, by_target in results.items()
                for target, bench in by_target.items()]

    def teardown(self):
        parallel.shutdown_warm_pool()
        for proc in self.workers:
            proc.join(timeout=5.0)
        left = [proc.pid for proc in multiprocessing.active_children()]
        left += [proc.pid for proc in self.workers if proc.is_alive()]
        if left:
            self.problems.append(f"pool workers {sorted(set(left))} "
                                 f"outlived the run")


WORKLOADS = {
    "spec-test-cold": SpecTestCold,
    "spec-test-warm": SpecTestWarm,
    "spec2006-ref": Spec2006Ref,
    "spec2006-ref-jobs2": Spec2006RefJobs2,
}
