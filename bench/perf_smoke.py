"""Perf-smoke gate: fail CI when the fast paths stop being fast.

Runs the tier and pool scenarios from :mod:`bench.run_bench` and
enforces floors well below the measured speedups, so noise on a shared
CI runner does not flake the gate but a real regression (fusion slower
than table dispatch, block engine slower than the reference loop, a
reused pool slower than one forked per sweep) fails it.  Bit-identity
is asserted inside each scenario — a pooled, fused or block-engine run
that diverges raises before the floors are checked.

Usage::

    PYTHONPATH=src python bench/perf_smoke.py
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from run_bench import (                                   # noqa: E402
    bench_parallel_warm, bench_sharded_sweep, bench_wasm_fused,
    bench_x86_blocks,
)

#: (scenario, floor): measured speedups are ~1.7x (wasm_fused), ~2.0x
#: (x86_blocks) and 1.1-1.4x (parallel_warm on a 2-vCPU host, unpinned
#: and pinned to one CPU).  The floors sit well below
#: them, so they trip only when an optimization has actually regressed,
#: not on timer jitter.  Two shards cannot beat one on a 1-CPU CI box,
#: so the sharded gate bounds the coordination *overhead* instead
#: (measured ~0.98x of the one-shard time pinned to one CPU of a 2-vCPU
#: host; the 0.75x floor trips only when the coordinator itself
#: regresses); steal activity and bit-identity are asserted inside the
#: scenario.
GATES = (
    ("wasm_fused", bench_wasm_fused, 1.05),
    ("x86_blocks", bench_x86_blocks, 1.3),
    ("parallel_warm", bench_parallel_warm, 1.05),
    ("sharded_sweep", lambda: bench_sharded_sweep(force=True), 0.75),
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
