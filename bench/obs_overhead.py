"""Disabled-observability overhead gate.

The observability layer (repro.obs) promises that when tracing, metrics,
and profiling are all disabled — the default — the instrumented hot
paths cost (near) nothing.  This script measures that promise on a small
bench sweep and fails (exit 1) if the disabled-path overhead exceeds the
budget, so CI catches any instrumentation that leaks cost into
measurements.

Method: time each mode as the best of ``--repeats`` repeats, each
repeat running the same benchmark sweep back to back for at least
``MIN_REPEAT_SECONDS`` (one sweep takes a few hundredths of a second,
too short to resolve a 3% difference), and compare

* ``disabled``  — observability off (the measurement configuration;
  this includes the hwc model's disabled-path checks in the executor
  hot loop, so the gate bounds their cost too);
* ``enabled``   — tracing + metrics on (sanity reference, not gated);
* ``hwc``       — the microarchitectural model attached (reference,
  not gated; retired counters and output are asserted bit-identical
  to the disabled sweep).

The gate compares the ``disabled`` sweeps timed before the enabled and
hwc modes with those timed after them, so any cost that enabling and
then disabling observability leaves behind shows up: overhead = the
slower of the two / the faster - 1 must stay under ``--budget``
(default 3%).

Times are read from the benchmark's speed-calibrated clock
(``perfbench/clock.py``): host seconds rescaled to a reference host
speed measured while the gate runs.  A shared host's speed drifts by
tens of percent within seconds, so raw seconds of the disabled sweeps
before and after the other modes differ by far more than the budget
even when nothing leaked.

Results are written as JSON (``--output``).

Usage::

    PYTHONPATH=src python bench/obs_overhead.py [--budget 0.03]
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..",
                                "perfbench"))

from clock import SpeedClock                              # noqa: E402
from repro import obs                                     # noqa: E402
from repro.benchsuite import polybench_benchmark          # noqa: E402
from repro.harness.runner import (                        # noqa: E402
    compile_benchmark, run_compiled,
)

BENCHMARKS = ("durbin", "trisolv", "gemm")
TARGETS = ("native", "chrome")

#: Shortest timed repeat, in seconds of back-to-back sweeps.
MIN_REPEAT_SECONDS = 0.5


def _sweep(compiled, hwc: bool = False):
    """One full sweep; returns its results key."""
    from repro.obs.hwc import HwcModel

    fingerprint = []
    for name in BENCHMARKS:
        for target in TARGETS:
            result = run_compiled(compiled[name], target, runs=2,
                                  hwc=HwcModel() if hwc else None)
            fingerprint.append(
                (name, target, result.run.perf.instructions,
                 result.run.exit_code, result.run.stdout))
    return fingerprint


def _best(clock, compiled, repeats, sweeps, hwc: bool = False):
    """Best ``clock`` seconds per sweep over ``repeats`` repeats of
    ``sweeps`` back-to-back sweeps; every sweep must give the same
    results."""
    best = None
    fingerprint = None
    for _ in range(repeats):
        start = clock.now()
        for _ in range(sweeps):
            fp = _sweep(compiled, hwc=hwc)
            if fingerprint is None:
                fingerprint = fp
            elif fingerprint != fp:
                raise SystemExit(
                    "FAIL: sweep results are not deterministic")
        seconds = (clock.now() - start) / sweeps
        if best is None or seconds < best:
            best = seconds
    return best, fingerprint


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--budget", type=float, default=0.03,
                        help="max disabled-path overhead (fraction)")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--output", default="OBS_overhead.json")
    args = parser.parse_args(argv)

    # Compile once, outside the timed region (compiles dwarf execution
    # and would drown the per-instruction overhead being measured).
    compiled = {name: compile_benchmark(
        polybench_benchmark(name, "test"), TARGETS, cache=False)
        for name in BENCHMARKS}

    # Warm-up, then size each repeat from one warm sweep: enough
    # back-to-back sweeps to last MIN_REPEAT_SECONDS.
    _sweep(compiled)
    start = time.perf_counter()
    _sweep(compiled)
    sweeps = max(1, math.ceil(
        MIN_REPEAT_SECONDS / (time.perf_counter() - start)))
    obs.disable_tracing()
    obs.disable_metrics()
    with SpeedClock() as clock:
        disabled_a, fp_disabled = _best(clock, compiled, args.repeats,
                                        sweeps)

        obs.enable_tracing()
        obs.enable_metrics()
        try:
            enabled, fp_enabled = _best(clock, compiled, args.repeats,
                                        sweeps)
        finally:
            obs.disable_tracing()
            obs.disable_metrics()

        hwc_seconds, fp_hwc = _best(clock, compiled, args.repeats, sweeps,
                                    hwc=True)

        disabled_b, _ = _best(clock, compiled, args.repeats, sweeps)

    if fp_enabled != fp_disabled:
        print("FAIL: enabling observability changed results")
        return 1
    if fp_hwc != fp_disabled:
        print("FAIL: attaching the hwc model changed results")
        return 1

    baseline = min(disabled_a, disabled_b)
    slower = max(disabled_a, disabled_b)
    overhead = slower / baseline - 1.0
    enabled_overhead = enabled / baseline - 1.0
    hwc_overhead = hwc_seconds / baseline - 1.0

    report = {
        "benchmarks": list(BENCHMARKS),
        "targets": list(TARGETS),
        "repeats": args.repeats,
        "sweeps_per_repeat": sweeps,
        "host_speed": clock.speed(),
        "budget": args.budget,
        "disabled_seconds": baseline,
        "disabled_rerun_seconds": slower,
        "disabled_overhead": overhead,
        "enabled_seconds": enabled,
        "enabled_overhead": enabled_overhead,
        "hwc_seconds": hwc_seconds,
        "hwc_overhead": hwc_overhead,
        "results_identical": True,
    }
    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2)

    print(f"disabled sweep: {baseline:.3f}s "
          f"(rerun {slower:.3f}s, spread {100 * overhead:.2f}%)")
    print(f"enabled sweep:  {enabled:.3f}s "
          f"(+{100 * enabled_overhead:.2f}% vs disabled)")
    print(f"hwc sweep:      {hwc_seconds:.3f}s "
          f"(+{100 * hwc_overhead:.2f}% vs disabled, reference only)")
    if overhead > args.budget:
        print(f"FAIL: disabled-observability overhead {overhead:.4f} "
              f"exceeds budget {args.budget}")
        return 1
    print(f"PASS: disabled-path overhead within "
          f"{100 * args.budget:.0f}% budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
