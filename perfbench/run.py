#!/usr/bin/env python3
"""The repository benchmark: SPEC-proxy sweeps through the measurement
harness, timed on the host.

Run from the repository root::

    python3 perfbench/run.py --workload spec-test-cold --seed 1 \\
        --seconds 8 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 8

It measures only what the toolchain and simulator cost in real seconds
and memory.  The modeled science (stdout, PerfCounters, i-cache misses)
is checked against digests pinned in ``reference.json`` (regenerate
with ``perfbench/pin.py``), never measured.

Workloads (all run SPEC proxies x {native, chrome, firefox}):

* ``spec-test-cold``: 15 proxies at test size, empty compile cache.
  Mostly compiling and writing the cache.
* ``spec-test-warm``: the same 45 cells, disk cache filled during set-up,
  fresh in-memory tier: cache reads and execution, no compiling.
* ``spec2006-ref``: five SPEC2006 proxies at ref size, compiled during
  set-up and run serially: simulator execution alone.
* ``spec2006-ref-jobs2``: the same cells through ``run_suite(jobs=2)``
  on a warm pool forked during set-up: pooled execution.

A run sets up three times (``setup_s``: the median), then sweeps until
``--seconds`` have passed, at least once (``sweep_s``: the median
sweep).  Both are read from a :class:`~clock.SpeedClock`: host seconds
rescaled to a reference host speed measured while the run goes, so the
speed of a shared host, which drifts by tens of percent within a
minute, cancels out.  ``peak_rss_mb`` is the process's peak RSS and
``cache_disk_mb`` the cache directory's size after the run.  With
``--trace 1`` a run also sweeps once more with every layer's entry
points wrapped (see ``layers.py``) and reports per-layer self time and
counts instead.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; ``attempted`` and
``failed`` count cells, and a cell fails when it raises or its digest
differs from the pinned one.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
REFERENCE = os.path.join(HERE, "reference.json")

#: Set-ups per run: ``setup_s`` is their median.
SETUPS = 3

#: The keys of ``workloads.WORKLOADS``, which imports the toolchain and
#: so cannot load before the environment is pinned.
WORKLOAD_NAMES = ("spec-test-cold", "spec-test-warm", "spec2006-ref",
                  "spec2006-ref-jobs2")

#: Knobs that change cost or behaviour; a run unsets them (their
#: defaults) and records the values the toolchain then resolves.
KNOBS = ("REPRO_VERIFY_IR", "REPRO_HWC", "REPRO_CHECK_RANGES", "REPRO_TIER",
         "REPRO_SSA", "REPRO_RANGES", "REPRO_NO_CACHE", "REPRO_FORCE_JOBS")

#: Per-layer counts derived from wrapper call counts.
CALL_METRICS = {"mcc.calls": "mcc.s", "ir.passes.calls": "ir.passes.s",
                "jit.calls": "jit.s"}

#: The end-to-end metrics, reported without ``--trace``.
E2E = ("sweep_s", "setup_s", "peak_rss_mb", "cache_disk_mb")

UNITS = {"peak_rss_mb": "MB", "cache_disk_mb": "MB", "wasm.bytes": "B",
         "cache.bytes_read": "B", "cache.bytes_written": "B",
         "cache.hit_ratio": "ratio", "x86.sim_ips": "1/s",
         "host.speed": "ratio", "trace.overhead": "ratio",
         "parallel.utilization": "ratio"}


def unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return "s" if name.endswith(("_s", ".s")) else "count"


def pin_environment(cache_dir: str) -> None:
    """Unset every ``REPRO_*`` variable and give the run a private
    compile-cache directory, so neither the caller's knobs nor
    ``~/.cache/repro`` reach the measurement."""
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["REPRO_CACHE_DIR"] = cache_dir


def pinned_knobs() -> dict:
    from repro.harness import compilecache
    from repro.ir.passes import ssa_enabled
    from repro.ir.passes.ranges import ranges_enabled
    from repro.ir.verify import check_ranges_enabled, verify_ir_enabled
    from repro.tier import get_tier
    resolved = {
        "REPRO_VERIFY_IR": verify_ir_enabled(),
        "REPRO_CHECK_RANGES": check_ranges_enabled(),
        "REPRO_TIER": get_tier(),
        "REPRO_SSA": ssa_enabled(),
        "REPRO_RANGES": ranges_enabled(),
        "REPRO_NO_CACHE": not compilecache.is_enabled(),
    }
    return {knob: resolved.get(knob, os.environ.get(knob))
            for knob in KNOBS}


def git_commit():
    """HEAD's commit when the checkout is a git work tree, else None."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return None


def dir_bytes(path: str) -> int:
    total = 0
    for dirpath, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(dirpath, name))
            except OSError:
                pass
    return total


def layer_metrics(ledger, cache, registry, traced_s, sweep_s, results):
    """Per-layer metrics of one traced sweep; ``sweep_s`` is the median
    untraced sweep."""
    from layers import LAYERS
    metrics = {layer: ledger.self_s[layer] for layer in LAYERS}
    for name, layer in CALL_METRICS.items():
        metrics[name] = ledger.calls[layer]
    runs = [run for _, _, run in results if not isinstance(run, Exception)]
    instructions = sum(run.perf.instructions for run in runs)
    execute_s = metrics["x86.execute_s"]
    hits = cache.stats.hits if cache is not None else 0
    misses = cache.stats.misses if cache is not None else 0
    metrics.update({
        "wasm.bytes": ledger.wasm_bytes,
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cache.bytes_read": ledger.cache_bytes_read,
        "cache.bytes_written":
            cache.stats.bytes_stored if cache is not None else 0,
        "kernel.syscalls": sum(run.syscalls for run in runs),
        "x86.instructions": instructions,
        "x86.sim_ips": instructions / execute_s if execute_s else 0.0,
        "other.s": traced_s - sum(ledger.self_s.values()),
        "trace.sweep_s": traced_s,
        "trace.overhead": traced_s / sweep_s,
    })
    # The warm pool's own accounting (runner.* in the metrics registry):
    # time cells waited for a worker, and each worker's busy share.
    waits = registry.histograms.get("runner.queue_wait_seconds")
    utilization = [gauge.value for name, gauge in registry.gauges.items()
                   if name.startswith("runner.worker.")]
    metrics.update({
        "parallel.queue_wait_s": waits.total if waits else 0.0,
        "parallel.utilization":
            statistics.mean(utilization) if utilization else 0.0,
    })
    return metrics


def measure(workload_name: str, seed: int, seconds: float, trace: bool,
            cache_dir: str):
    """One run of one workload; returns (result dict, metadata dict)."""
    import layers
    import workloads
    from clock import SpeedClock
    from repro.harness.compilecache import toolchain_fingerprint
    from repro.obs import metrics as obs_metrics

    with open(REFERENCE) as fh:
        reference = json.load(fh)
    workload = workloads.WORKLOADS[workload_name](cache_dir,
                                                  random.Random(seed))
    pinned = reference[workload.size]

    with SpeedClock() as clock:
        setups = []
        for _ in range(SETUPS):
            start = clock.now()
            workload.setup()
            setups.append(clock.now() - start)

        sweeps, host_walls, results = [], [], []
        began = time.perf_counter()
        while not sweeps or time.perf_counter() - began < seconds:
            workload.reset()
            start, host_start = clock.now(), time.perf_counter()
            cells = workload.sweep()
            sweeps.append(clock.now() - start)
            host_walls.append(time.perf_counter() - host_start)
            results.extend(cells)
        sweep_s = statistics.median(sweeps)

        if trace:
            ledger = layers.Ledger(clock)
            layers.install(ledger)
            registry = obs_metrics.enable()
            workload.reset()
            start = clock.now()
            traced = workload.sweep()
            traced_s = clock.now() - start
            obs_metrics.disable()
            results.extend(traced)
            layer = layer_metrics(ledger, workload.cache, registry, traced_s,
                                  sweep_s, traced)
        workload.teardown()
    first_sweep = results[:len(workload.specs) * len(workloads.TARGETS)]

    def bad(run, name, target):
        if isinstance(run, Exception):
            print(f"perfbench: {name}@{target} raised {run!r}",
                  file=sys.stderr)
            return True
        return workloads.digest(run) != pinned[name][target]

    failed = {i for i, (name, target, run) in enumerate(results)
              if bad(run, name, target)}
    if workload.oracle:
        # The first sweep's native stdout against the IR interpreter.
        for i, (name, target, run) in enumerate(first_sweep):
            if target != "native" or isinstance(run, Exception):
                continue
            spec = next(s for s in workload.specs if s.name == name)
            if workloads.oracle_stdout(spec) != run.stdout:
                failed.add(i)
                print(f"perfbench: {name} native stdout differs from "
                      f"the IR interpreter", file=sys.stderr)

    metrics = {
        "sweep_s": sweep_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cache_disk_mb": dir_bytes(cache_dir) / 2**20,
    }
    if trace:
        metrics.update(layer)
        metrics["host.wall_s"] = statistics.median(host_walls)
        metrics["host.speed"] = clock.speed()

    for problem in workload.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    result = {
        "correct": not failed and not workload.problems,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": metrics,
    }
    meta = {
        "workload": workload_name, "seed": seed, "seconds": seconds,
        "commit": git_commit(), "source_sha256": toolchain_fingerprint(),
        "nproc": os.cpu_count(), "python": sys.version.split()[0],
        "knobs": pinned_knobs(), "sweeps": len(sweeps),
        "setups": len(setups), "host_speed": round(clock.speed(), 4),
        "probes": clock.probes,
    }
    return result, meta


def report(result: dict, meta: dict, trace: bool) -> None:
    """Print every metric as a table, the metadata, then the JSON line
    (end-to-end metrics without ``--trace``, per-layer ones with it)."""
    metrics = result["metrics"]
    print(f"== {meta['workload']} (seed {meta['seed']}, "
          f"{meta['sweeps']} sweeps, {result['attempted']} cells, "
          f"{result['failed']} failed)")
    for name, value in metrics.items():
        print(f"  {name:24s} {value:>18.6f} {unit(name)}")
    print("meta " + json.dumps(meta, sort_keys=True))
    wanted = [name for name in metrics if (name in E2E) != trace]
    result = dict(result, metrics={
        name: {"value": metrics[name], "unit": unit(name)}
        for name in wanted})
    print(json.dumps(result), flush=True)


def run_all(args) -> int:
    """Every workload, traced, each in its own process: prints every
    end-to-end and per-layer metric of every workload."""
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", "1"], cwd=ROOT, check=False)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no toolchain sources at {src}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    work = os.path.join(WORK_ROOT, str(os.getpid()))
    os.makedirs(work)
    try:
        cache_dir = os.path.join(work, "cache")
        pin_environment(cache_dir)
        sys.path.insert(0, src)
        result, meta = measure(args.workload, args.seed, args.seconds,
                               bool(args.trace), cache_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass
    report(result, meta, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
