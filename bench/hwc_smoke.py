"""CI gate for the hwc microarchitectural model (repro.obs.hwc).

Three promises, each checked end-to-end on a small sweep and failed
loudly (exit 1) when broken:

1. **Determinism** — two identical runs with the model attached produce
   bit-identical :class:`~repro.obs.hwc.HwcReport` payloads, and a
   ``--jobs 2`` parallel sweep reproduces the serial sweep exactly
   (the model rides through forked workers via ``REPRO_HWC``).
2. **Bit-identity** — attaching the model changes no retired counter,
   cycle figure, or program byte, at every execution tier.
3. **Exactness** — per-function hwc buckets sum to the whole-program
   totals for every cell (``HwcReport.verify``).

Results are written as JSON (``--output``).

Usage::

    PYTHONPATH=src python bench/hwc_smoke.py [--output HWC_smoke.json]
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.benchsuite import polybench_benchmark          # noqa: E402
from repro.harness.runner import (                        # noqa: E402
    compile_benchmark, run_compiled,
)
from repro.obs.hwc import HwcModel, hwc_cycles            # noqa: E402
from repro.tier import TIERS                              # noqa: E402

BENCHMARKS = ("durbin", "trisolv", "gemm")
TARGETS = ("native", "chrome")


def _fail(message: str) -> int:
    print(f"FAIL: {message}")
    return 1


def _serial_sweep(compiled, hwc: bool):
    """Run every cell once; returns {(bench, target): payload}."""
    cells = {}
    for name in BENCHMARKS:
        for target in TARGETS:
            model = HwcModel() if hwc else None
            result = run_compiled(compiled[name], target, runs=1,
                                  hwc=model)
            run = result.run
            cells[name, target] = {
                "perf": run.perf.as_dict(),
                "icache_misses": run.icache_misses,
                "cycles": run.cycles,
                "stdout": run.stdout.decode("utf-8", "replace"),
                "hwc": run.hwc.as_dict() if run.hwc else None,
            }
            if run.hwc is not None:
                run.hwc.verify()
    return cells


def _parallel_sweep(jobs: int):
    """A --jobs sweep with the env gate on; returns hwc payloads."""
    from repro.harness.parallel import run_suite

    specs = [polybench_benchmark(name, "test") for name in BENCHMARKS]
    os.environ["REPRO_HWC"] = "1"
    # Single-CPU CI runners would silently fall back to the serial
    # path; force real forked workers so the gate exercises them.
    os.environ["REPRO_FORCE_JOBS"] = "1"
    try:
        by_name, _seconds = run_suite(specs, list(TARGETS), runs=1,
                                      jobs=jobs, cache=False)
    finally:
        os.environ.pop("REPRO_HWC", None)
        os.environ.pop("REPRO_FORCE_JOBS", None)
    cells = {}
    for spec in specs:
        for target in TARGETS:
            run = by_name[spec.name][target].run
            if run.hwc is None:
                raise SystemExit(_fail(
                    f"{spec.name}@{target}: REPRO_HWC did not reach "
                    f"the worker"))
            run.hwc.verify()
            cells[spec.name, target] = run.hwc.as_dict()
    return cells


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--output", default="HWC_smoke.json")
    args = parser.parse_args(argv)

    compiled = {name: compile_benchmark(
        polybench_benchmark(name, "test"), TARGETS, cache=False)
        for name in BENCHMARKS}

    # 1a. Serial determinism: two attached runs, identical reports.
    first = _serial_sweep(compiled, hwc=True)
    second = _serial_sweep(compiled, hwc=True)
    if first != second:
        return _fail("hwc reports differ between identical runs")

    # 2. Bit-identity: the model never perturbs what it observes.
    plain = _serial_sweep(compiled, hwc=False)
    for key, cell in plain.items():
        attached = first[key]
        for field in ("perf", "icache_misses", "cycles", "stdout"):
            if cell[field] != attached[field]:
                return _fail(
                    f"{key[0]}@{key[1]}: {field} changed with hwc "
                    f"attached")
        if attached["hwc"]["totals"]["retired"] != \
                cell["perf"]["instructions"]:
            return _fail(f"{key[0]}@{key[1]}: retired != instructions")

    # ...at every tier.
    spec_name = BENCHMARKS[0]
    for tier in TIERS:
        os.environ["REPRO_TIER"] = tier
        try:
            bare = run_compiled(compiled[spec_name], "chrome", runs=1)
            modeled = run_compiled(compiled[spec_name], "chrome", runs=1,
                                   hwc=HwcModel())
        finally:
            os.environ.pop("REPRO_TIER", None)
        if bare.run.perf.as_dict() != modeled.run.perf.as_dict() or \
                bare.run.cycles != modeled.run.cycles or \
                bare.run.stdout != modeled.run.stdout:
            return _fail(f"tier {tier}: counters changed with hwc "
                         f"attached")

    # 1b. Parallel determinism: --jobs reproduces the serial reports.
    parallel = _parallel_sweep(args.jobs)
    for key, report in parallel.items():
        if report != first[key]["hwc"]:
            return _fail(f"{key[0]}@{key[1]}: --jobs {args.jobs} hwc "
                         f"report differs from serial")

    report = {
        "benchmarks": list(BENCHMARKS),
        "targets": list(TARGETS),
        "tiers": list(TIERS),
        "jobs": args.jobs,
        "cells": len(first),
        "hwc_cycles": {
            f"{name}@{target}": hwc_cycles_of(first[name, target])
            for name, target in first
        },
        "deterministic": True,
        "bit_identical": True,
    }
    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2)

    print(f"PASS: {len(first)} cells deterministic (serial and "
          f"--jobs {args.jobs}), retired counters bit-identical with "
          f"the model attached across tiers {', '.join(TIERS)}")
    return 0


def hwc_cycles_of(cell) -> float:
    """Recompute the modeled cycles from a serialized cell payload."""
    from repro.obs.hwc import HwcCounters
    from repro.x86.perf import PerfCounters

    perf = PerfCounters()
    for key, value in cell["perf"].items():
        setattr(perf, key, value)
    totals = HwcCounters()
    for key, value in cell["hwc"]["totals"].items():
        setattr(totals, key, value)
    return hwc_cycles(perf, totals)


if __name__ == "__main__":
    sys.exit(main())
