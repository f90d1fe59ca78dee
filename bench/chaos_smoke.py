"""Chaos smoke: a fixed-seed injected sweep must complete and be
reproducible.

Runs a small benchmark matrix twice under the same fault-injection mix
and seed, and asserts that

* the sweep completes the full (benchmark, target) matrix both times —
  no escaped exception, no hang;
* the failure manifest (which cells failed, with what status, phase,
  error type, and attempt count) is bit-identical across the two runs;
* at least one fault actually fired (otherwise the injector is dead
  code and the smoke proves nothing);
* every clean cell's measurements are bit-identical to an uninjected
  run of the same matrix;
* the same plan swept on a two-worker pool (``REPRO_FORCE_JOBS=1`` is
  set in-process, so the pool runs even on one CPU) yields the serial
  manifest, so manifests do not depend on the pool width.

Prints the manifest as JSON and exits non-zero on any violation, so CI
can gate on it.

Usage::

    PYTHONPATH=src python bench/chaos_smoke.py [--output chaos.json]
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.benchsuite import polybench_benchmark          # noqa: E402
from repro.harness.parallel import (                      # noqa: E402
    run_suite, shutdown_warm_pool,
)
from repro.resilience import (                            # noqa: E402
    FaultPlan, RetryPolicy, is_failure,
)

BENCHMARKS = ["trisolv", "bicg", "mvt"]
TARGETS = ["native", "chrome", "firefox"]
INJECT = "trap:0.3,syscall:0.25,fuel:0.1,cache:0.2"
SEED = 20190710  # the paper's USENIX ATC 2019 presentation date
POLICY = RetryPolicy(retries=2, sleep=lambda s: None)


def sweep(plan, jobs=1):
    specs = [polybench_benchmark(name, "test") for name in BENCHMARKS]
    results, _ = run_suite(specs, TARGETS, runs=2, jobs=jobs, cache=False,
                           tolerant=True, plan=plan, policy=POLICY)
    return results


def manifest(results):
    rows = []
    for name, by_target in sorted(results.items()):
        for target, cell in by_target.items():
            if is_failure(cell):
                rows.append(dict(cell.as_dict("test"), times=None))
            else:
                rows.append({"benchmark": name, "target": target,
                             "status": "OK", "times": cell.times})
    return rows


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--output", default=None, metavar="PATH")
    args = parser.parse_args()

    plan = FaultPlan.parse(INJECT, seed=SEED)
    first = manifest(sweep(plan))
    second = manifest(sweep(plan))

    total = len(BENCHMARKS) * len(TARGETS)
    failed = [row for row in first if row["status"] != "OK"]
    errors = []
    if len(first) != total:
        errors.append(f"matrix incomplete: {len(first)}/{total} cells")
    if first != second:
        errors.append("manifest differs across reruns with the same seed")
    if not failed:
        errors.append("no fault fired: injector appears dead")

    os.environ["REPRO_FORCE_JOBS"] = "1"
    pooled = manifest(sweep(plan, jobs=2))
    shutdown_warm_pool()
    if pooled != first:
        errors.append("manifest differs between jobs=1 and jobs=2")

    clean = manifest(sweep(None))
    clean_by_cell = {(r["benchmark"], r["target"]): r for r in clean}
    for row in first:
        if row["status"] != "OK":
            continue
        ref = clean_by_cell[(row["benchmark"], row["target"])]
        if row["times"] != ref["times"]:
            errors.append(f"clean cell {row['benchmark']}@{row['target']} "
                          "differs from uninjected run")

    payload = {
        "inject": INJECT, "seed": SEED,
        "cells": total, "failed": len(failed),
        "pooled_matches": pooled == first,
        "manifest": first, "errors": errors,
    }
    text = json.dumps(payload, indent=2)
    print(text)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    for error in errors:
        print(f"CHAOS SMOKE FAILED: {error}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
