"""Micro-benchmarks for the measurement-stack fast paths.

Times each fast path against the slower path it replaces, both still
in the tree, and writes ``BENCH_repro.json`` at the repo root:

* ``x86_blocks``      — the x86 block engine (the default) vs. the
  per-instruction reference loop (``reference=True``) on a ref-size
  workload, counters and i-cache asserted identical;
* ``parallel_warm``   — the sweep scheduler's persistent worker pool
  reused across sweeps vs. forked afresh for every sweep, results
  asserted bit-identical to serial.

Usage::

    PYTHONPATH=src python bench/run_bench.py [--output BENCH_repro.json]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.benchsuite import polybench_benchmark          # noqa: E402
from repro.codegen import compile_native                  # noqa: E402
from repro.harness.parallel import (                      # noqa: E402
    run_suite, shutdown_warm_pool,
)
from repro.ir import CollectingHost                       # noqa: E402
from repro.x86.machine import X86Machine                  # noqa: E402


class _Host(CollectingHost):
    def __init__(self, heap_base):
        super().__init__()
        self.heap_base = heap_base

    def call(self, env, name, args):
        if name == "sys_heap_base":
            return self.heap_base
        return super().call(env, name, args)


def _best_of(fn, repeats=3):
    """Best wall-clock of ``repeats`` runs; returns (seconds, result)."""
    best = None
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return best, result


def bench_x86_blocks():
    # Ref-size gemm: ~10x the instructions of the "test" size, enough
    # for block translation to amortize and wall-clock noise to shrink.
    spec = polybench_benchmark("gemm", "ref")
    program, module = compile_native(spec.source, spec.name)

    def run(reference):
        machine = X86Machine(program, host=_Host(module.heap_base),
                             reference=reference)
        machine.call("main")
        return (machine.perf.as_dict(), machine.icache.accesses,
                machine.icache.misses)

    # Interleaved, so a slow spell on a shared host hits both sides.
    best = {}
    for _ in range(9):
        for reference in (True, False):
            seconds, out = _best_of(lambda: run(reference), repeats=1)
            if reference not in best or seconds < best[reference][0]:
                best[reference] = (seconds, out)
    (table_seconds, table_out), (block_seconds, block_out) = \
        best[True], best[False]
    assert table_out == block_out, "block engine diverged"
    return {
        "description": "native ref-size gemm on the x86 machine, the "
                       "per-instruction reference loop (reference=True) "
                       "vs the block engine (the default); perf counters "
                       "and i-cache asserted identical",
        "baseline_seconds": table_seconds,
        "optimized_seconds": block_seconds,
        "speedup": table_seconds / block_seconds,
        "instructions": block_out[0]["instructions"],
    }


def bench_parallel_warm():
    """The scheduler's persistent pool reused across sweeps vs. forked
    afresh for every sweep.  Forced on via REPRO_FORCE_JOBS
    so the pool runs even on a single-CPU box, with a shared compile
    cache so the comparison isolates pool lifetime from compile work.
    Results are asserted bit-identical against a serial sweep."""
    names = ["2mm", "3mm", "gemm", "covariance"]
    targets = ["native", "chrome", "firefox"]
    jobs = min(4, max(2, os.cpu_count() or 1))

    prev_force = os.environ.get("REPRO_FORCE_JOBS")
    prev_cache = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_FORCE_JOBS"] = "1"
    tmp = tempfile.mkdtemp(prefix="repro-bench-cache-")
    os.environ["REPRO_CACHE_DIR"] = tmp

    def sweep(n):
        suite = [polybench_benchmark(name, "test") for name in names]
        return run_suite(suite, targets, runs=3, jobs=n)

    def cold_sweep():
        shutdown_warm_pool()
        return sweep(jobs)

    try:
        _, (serial, _) = _best_of(lambda: sweep(1), repeats=1)  # + cache fill
        cold_seconds, (cold, _) = _best_of(cold_sweep, repeats=3)
        shutdown_warm_pool()
        sweep(jobs)  # fork + warm the pool once
        warm_seconds, (warm, _) = _best_of(lambda: sweep(jobs), repeats=3)
    finally:
        shutdown_warm_pool()
        for var, prev in (("REPRO_FORCE_JOBS", prev_force),
                          ("REPRO_CACHE_DIR", prev_cache)):
            if prev is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = prev
        shutil.rmtree(tmp, ignore_errors=True)
    for name in names:
        for target in targets:
            assert serial[name][target].times == \
                warm[name][target].times == \
                cold[name][target].times, "pooled sweep diverged"
    return {
        "description": "4-benchmark x 3-target suite sweep on the "
                       "sweep scheduler's persistent pool vs the same "
                       "pool forked afresh per sweep; "
                       "results asserted bit-identical to serial. "
                       "Measures what repeated sweeps "
                       "(compare/report/bench loops) save.",
        "baseline_seconds": cold_seconds,
        "optimized_seconds": warm_seconds,
        "speedup": cold_seconds / warm_seconds,
        "jobs": jobs,
        "cpus": os.cpu_count(),
    }


SCENARIOS = {
    "x86_blocks": bench_x86_blocks,
    "parallel_warm": bench_parallel_warm,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    default_out = os.path.join(os.path.dirname(__file__), "..",
                               "BENCH_repro.json")
    parser.add_argument("--output", default=os.path.normpath(default_out))
    parser.add_argument("--scenario", action="append",
                        choices=sorted(SCENARIOS),
                        help="run only the named scenario(s)")
    args = parser.parse_args(argv)

    results = {}
    for name in (args.scenario or SCENARIOS):
        print(f"[bench] {name} ...", flush=True)
        results[name] = SCENARIOS[name]()
        print(f"[bench]   {results[name]['speedup']:.2f}x "
              f"({results[name]['baseline_seconds']:.3f}s -> "
              f"{results[name]['optimized_seconds']:.3f}s)")

    payload = {
        "generated_by": "bench/run_bench.py",
        "python": sys.version.split()[0],
        "scenarios": results,
    }
    with open(args.output, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"[bench] wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
