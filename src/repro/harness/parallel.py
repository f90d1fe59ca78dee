"""Parallel BROWSIX-SPEC suite execution.

A full Table 1 / Fig. 3 sweep measures every benchmark on every target —
dozens of independent (benchmark, target) cells.  :func:`run_suite`
runs them in-process or on the FIFO scheduler over one persistent warm
pool in :mod:`repro.harness.shard`, and either way, fast or tolerant,
each cell is measured by :func:`repro.resilience.measure_cell`.  Every
measurement stays *bit-identical* to a serial run:

* the simulated machine is deterministic, and the synthesized
  measurement noise is seeded per (benchmark, target) with the existing
  ``zlib.crc32(f"{name}:{target}")`` scheme in
  :func:`repro.harness.runner.run_compiled` — no per-process state leaks
  into a result;
* results are reassembled in suite order (benchmark order × target
  order), so completion order never changes output;
* ``jobs=1`` (or a single cell) runs the serial loop in-process, which
  compiles each benchmark once for every target of the sweep.

Jobs are shipped to workers as *spec references* — ``(suite, name,
size)`` triples resolved through :mod:`repro.benchsuite` — because
benchmark specs carry setup closures that cannot cross a process
boundary.  Specs that cannot be referenced (ad-hoc sources) simply run
serially in the parent.  Each pooled cell compiles its benchmark for
its one target, through the on-disk compile cache the workers share:
once a key is stored, every later lookup in any process hits it, but
workers that miss the same key at the same time each compile it, so
on a cold cache the cells of one benchmark may each run the frontend
and mid-end.
"""

from __future__ import annotations

import functools
import os
import sys
import time

from ..obs import get_registry
from ..resilience import (RetryPolicy, interrupted_cell, is_failure,
                          measure_cell)
from . import compilecache, runner
from .shard import ShardScheduler, get_shard_pool
from .shard import shutdown_warm_pool  # noqa: F401  (callers import it here)

#: Upper bound for auto-selected worker counts: beyond this, pool
#: startup and artifact pickling dominate the simulated workloads.
MAX_JOBS = 8


def default_jobs() -> int:
    """``os.cpu_count()`` capped at :data:`MAX_JOBS`."""
    return max(1, min(os.cpu_count() or 1, MAX_JOBS))


#: Whether the single-CPU degrade notice was already printed.  Drivers
#: re-enter ``run_suite`` (compare/report/bench loop over sweeps), and
#: repeating the same notice per sweep is pure noise — say it once.
_DEGRADE_NOTICED = False


def normalize_jobs(jobs, quiet: bool = False) -> int:
    """Resolve a ``--jobs`` request to an effective worker count.

    On a single-CPU box extra workers only add fork/pickle overhead
    (the sweep measured 0.69x), so a multi-job request degrades to
    serial with a one-line notice — printed once per process, however
    many sweeps re-enter this path.  Set ``REPRO_FORCE_JOBS=1`` to keep
    the requested width anyway (tests, or a miscounted container).
    """
    global _DEGRADE_NOTICED
    requested = default_jobs() if jobs is None else max(1, int(jobs))
    if requested > 1 and (os.cpu_count() or 1) <= 1 \
            and not os.environ.get("REPRO_FORCE_JOBS"):
        if not quiet and jobs is not None and not _DEGRADE_NOTICED:
            print(f"repro: 1 CPU available; running serially instead of "
                  f"--jobs {requested} (REPRO_FORCE_JOBS=1 overrides)",
                  file=sys.stderr)
            _DEGRADE_NOTICED = True
        return 1
    return requested


# -- spec references ---------------------------------------------------------------

def spec_ref(spec):
    """A picklable reference that rebuilds ``spec`` in a worker.

    Returns None when the spec is not reconstructible from the registry
    (the caller should then run it in-process).
    """
    dims = getattr(spec, "matmul_dims", None)
    if dims is not None:
        return ("matmul", dims)
    if spec.size not in ("test", "ref"):
        return None
    if spec.suite == "polybench":
        return ("polybench", spec.name, spec.size)
    if spec.suite in ("spec2006", "spec2017"):
        return ("spec", spec.name, spec.size)
    return None


def resolve_ref(ref):
    from ..benchsuite import (matmul_spec, polybench_benchmark,
                              spec_benchmark)

    kind = ref[0]
    if kind == "polybench":
        return polybench_benchmark(ref[1], ref[2])
    if kind == "spec":
        return spec_benchmark(ref[1], ref[2])
    if kind == "matmul":
        return matmul_spec(*ref[1])
    raise ValueError(f"unknown spec reference {ref!r}")


# -- the suite runner --------------------------------------------------------------

def run_suite(benchmarks, targets, runs: int = 5,
              noise: float = runner.NOISE,
              max_instructions: int = 2_000_000_000, jobs=1,
              progress=None, cache=None, tolerant: bool = False,
              plan=None, policy=None, timeout: float = None,
              shards: int = 1):
    """Measure every (benchmark, target) cell of a suite.

    Returns ``(results, compile_seconds)`` where ``results`` maps
    benchmark name -> target -> BenchResult in suite order, and
    ``compile_seconds`` maps benchmark name -> {pipeline: seconds}.
    ``jobs`` > 1 distributes cells over one pool of that many persistent
    worker processes (see :mod:`repro.harness.shard`; tear it down with
    :func:`shutdown_warm_pool`); ``jobs=None`` auto-selects
    :func:`default_jobs`.  Results are bit-identical to serial at every
    width.  With the metrics registry on, each worker's counters and
    histograms are merged into it: the ``kernel.*`` counts equal a
    serial sweep's, while ``cache.*``, ``opt.*`` and ``analysis.*``
    count each worker's own compiles.  A worker that dies mid-cell is
    respawned and its cell re-queued, up to ``policy.retries`` times.

    ``tolerant`` (implied by a fault-injection ``plan``) makes failed
    cells come back as :class:`~repro.resilience.CellFailure` values in
    ``results`` instead of raising, and the sweep always completes the
    full matrix: Ctrl-C marks unfinished cells ``interrupted``.
    ``timeout`` arms every cell's wall-clock deadline, fast or tolerant.

    ``shards`` accepts only 1: it is kept for the perfbench workload
    that still passes ``shards=1`` until a benchmark-only change drops
    the argument.  Any other value raises :class:`ValueError`.
    """
    if shards != 1:
        raise ValueError(f"shards={shards!r}: sweeps run on one pool; "
                         "only shards=1 is accepted")
    benchmarks = list(benchmarks)
    targets = list(targets)
    jobs = normalize_jobs(jobs)
    tolerant = tolerant or plan is not None
    policy = policy or RetryPolicy()
    metrics = get_registry()
    cell_results = {}       # (name, target) -> BenchResult | CellFailure
    compile_seconds = {spec.name: {} for spec in benchmarks}
    remaining = {spec.name: len(targets) for spec in benchmarks}

    def record(name, target, cell, seconds, attempts):
        cell_results[(name, target)] = cell
        compile_seconds[name].update(seconds)
        if tolerant and metrics.enabled:
            metrics.counter("resilience.cells").inc()
            if attempts > 1:
                metrics.counter("resilience.retries").inc(attempts - 1)
            if is_failure(cell):
                metrics.counter(
                    f"resilience.failures.{cell.status}").inc()
                if cell.injected:
                    metrics.counter("resilience.injected").inc()
        remaining[name] -= 1
        if not remaining[name] and progress is not None:
            progress(name)

    def pooled(job, _kind, value, _timing):
        cell, seconds, attempts = value
        record(job["name"], job["target"], cell, seconds, attempts)

    fan_out = jobs > 1 and len(benchmarks) * len(targets) > 1
    refs = {spec.name: spec_ref(spec) for spec in benchmarks}
    pool_specs = [spec for spec in benchmarks
                  if fan_out and refs[spec.name] is not None]
    serial_specs = [spec for spec in benchmarks if spec not in pool_specs]
    use_cache = compilecache.resolve_cache(cache) is not None
    jobs_list = [{
        "ref": refs[spec.name], "name": spec.name, "target": target,
        "runs": runs, "noise": noise, "max_instructions": max_instructions,
        "use_cache": use_cache, "metrics": metrics.enabled,
        "tolerant": tolerant, "plan": plan, "policy": policy.as_dict(),
        "timeout": timeout,
    } for spec in pool_specs for target in targets]

    try:
        if jobs_list:
            # Fast-mode cell errors and an exhausted crash budget raise
            # after draining; Ctrl-C drains and propagates.  Either way
            # the pool stays warm.
            ShardScheduler(get_shard_pool(jobs), jobs_list,
                           tolerant=tolerant, retries=policy.retries,
                           plan=plan).run(pooled)
        for spec in serial_specs:
            row = functools.cache(functools.partial(
                runner.compile_benchmark, spec, targets, cache=cache))
            for target in targets:
                cell_start = time.time()
                result, failure, seconds, attempts = measure_cell(
                    spec, target, runs=runs, noise=noise,
                    max_instructions=max_instructions, plan=plan,
                    policy=policy, timeout=timeout, tolerant=tolerant,
                    compile_step=row)
                if metrics.enabled:
                    metrics.histogram("runner.cell_seconds").observe(
                        time.time() - cell_start)
                    metrics.counter("runner.cells").inc()
                record(spec.name, target,
                       failure if failure is not None else result,
                       seconds, attempts)
    except KeyboardInterrupt:
        if not tolerant:
            raise
        # Fall through: unfinished cells become interrupted rows.

    if tolerant:
        unfinished = [(spec.name, target) for spec in benchmarks
                      for target in targets
                      if (spec.name, target) not in cell_results]
        for name, target in unfinished:
            cell_results[(name, target)] = \
                interrupted_cell(name, target, plan)
        if unfinished and metrics.enabled:
            metrics.counter("resilience.failures.INTERRUPTED").inc(
                len(unfinished))

    return _merge_results(benchmarks, targets, cell_results), \
        compile_seconds


def _merge_results(benchmarks, targets, cell_results):
    """Reassemble per-cell results in suite order: the merge is a pure
    function of (suite order, cell values), so the output is identical
    no matter which worker produced each cell."""
    return {spec.name: {target: cell_results[(spec.name, target)]
                        for target in targets}
            for spec in benchmarks}
