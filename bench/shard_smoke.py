"""Shard smoke: the pooled sweep engine must be bit-identical to serial.

Runs a small, skewed benchmark matrix twice — serially, and on one
warm pool (``--jobs 2``) — and asserts that

* every cell's measurements (times, counters, stdout) are
  bit-identical across both schedules;
* suite order is preserved in the merged results;
* a second pooled sweep reuses the warm pool (same worker pids), so
  repeated sweeps do not re-pay the fork cost.

``REPRO_FORCE_JOBS=1`` is set so the real pool runs even on a 1-CPU
CI runner.  Writes a JSON summary and exits non-zero on any
violation, so CI can gate on it.

Usage::

    PYTHONPATH=src python bench/shard_smoke.py [--output shard.json]
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

os.environ.setdefault("REPRO_FORCE_JOBS", "1")

from repro.benchsuite import matmul_spec, polybench_benchmark  # noqa: E402
from repro.harness import shard as shard_mod              # noqa: E402
from repro.harness.parallel import (                      # noqa: E402
    run_suite, shutdown_warm_pool,
)
from repro.obs import metrics as obs_metrics              # noqa: E402

BENCHMARKS = ["trisolv", "bicg", "mvt", "gesummv"]
TARGETS = ["native", "chrome", "firefox"]


def _suite():
    # The heavy matmul cell heads the queue: a skewed matrix.
    return [matmul_spec(40, 40, 40)] + \
        [polybench_benchmark(name, "test") for name in BENCHMARKS]


def sweep(jobs):
    results, _ = run_suite(_suite(), TARGETS, runs=3, jobs=jobs,
                           cache=False)
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default=None)
    args = parser.parse_args(argv)

    names = [spec.name for spec in _suite()]
    print("[shard-smoke] serial sweep ...", flush=True)
    serial = sweep(1)
    print("[shard-smoke] pooled sweep (--jobs 2) ...", flush=True)
    registry = obs_metrics.enable()
    pooled = sweep(2)

    assert list(serial) == list(pooled) == names, \
        "suite order not preserved"
    for name in names:
        for target in TARGETS:
            s = serial[name][target]
            cell = pooled[name][target]
            assert cell.times == s.times, \
                f"pooled diverged: {name}@{target} times"
            assert cell.perf.as_dict() == s.perf.as_dict(), \
                f"pooled diverged: {name}@{target} counters"
            assert cell.run.stdout == s.run.stdout, \
                f"pooled diverged: {name}@{target} stdout"

    gauges = {name: gauge.value
              for name, gauge in registry.gauges.items()}
    counters = {name: counter.value
                for name, counter in registry.counters.items()
                if name.startswith("shard.")}

    pool = shard_mod._SHARDS
    pids = [w["proc"].pid for w in pool.workers]
    rewarmed = sweep(2)
    assert shard_mod._SHARDS is pool and \
        [w["proc"].pid for w in pool.workers] == pids, "pool not reused"
    for name in names:
        for target in TARGETS:
            assert rewarmed[name][target].times == \
                serial[name][target].times, "warm re-sweep diverged"
    shutdown_warm_pool()

    summary = {
        "benchmarks": names,
        "targets": TARGETS,
        "cells": len(names) * len(TARGETS),
        "bit_identical": True,
        "pools_reused": True,
        "shard_counters": counters,
        "shard_gauges": {k: v for k, v in gauges.items()
                         if k.startswith("shard.")},
        "cpus": os.cpu_count(),
    }
    print(json.dumps(summary, indent=2))
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(summary, fh, indent=2)
        print(f"[shard-smoke] wrote {args.output}")
    print("[shard-smoke] pooled sweep bit-identical to serial")
    return 0


if __name__ == "__main__":
    sys.exit(main())
