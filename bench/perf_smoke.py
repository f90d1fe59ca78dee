"""Perf-smoke gate: fail CI when the fast paths stop being fast.

Runs the block-engine and pool scenarios from :mod:`bench.run_bench`
and enforces floors well below the measured speedups, so noise on a
shared CI runner does not flake the gate but a real regression (block
engine slower than the reference loop, a reused pool slower than one
forked per sweep) fails it.  Bit-identity is asserted inside each
scenario — a pooled or block-engine run that diverges raises before the
floors are checked.

Usage::

    PYTHONPATH=src python bench/perf_smoke.py
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from run_bench import bench_parallel_warm, bench_x86_blocks  # noqa: E402

#: (scenario, floor): measured speedups are 1.6-2.7x, about 2.0x
#: typical (x86_blocks: its ref-size gemm retires 49,507 instructions
#: and no block reaches the generated tier's 1,024 runs, so it times the
#: closure tier), and 1.1-1.4x (parallel_warm); both on a 2-vCPU host,
#: parallel_warm unpinned and pinned to one CPU.  The floors sit well
#: below them, so they trip only when an optimization has actually
#: regressed, not on timer jitter.
GATES = (
    ("x86_blocks", bench_x86_blocks, 1.3),
    ("parallel_warm", bench_parallel_warm, 1.05),
)


def main() -> int:
    failed = []
    for name, scenario, floor in GATES:
        print(f"[perf-smoke] {name} ...", flush=True)
        result = scenario()
        speedup = result["speedup"]
        verdict = "ok" if speedup >= floor else "FAIL"
        print(f"[perf-smoke]   {speedup:.2f}x (floor {floor:.2f}x) "
              f"{verdict}")
        if speedup < floor:
            failed.append((name, speedup, floor))
    if failed:
        for name, speedup, floor in failed:
            print(f"[perf-smoke] {name}: {speedup:.2f}x is below the "
                  f"{floor:.2f}x floor", file=sys.stderr)
        return 1
    print("[perf-smoke] all gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
