"""Block engine vs reference loop on every benchmark cell.

Compiles all 39 benchmarks (23 PolyBench kernels, 15 SPEC proxies and
the Figure 8 matmul kernel) at test size for every target, runs each
cell once with ``--tier off`` (the per-instruction reference loop) and
once with the default tier (the block engine), and diffs stdout, every
PerfCounters field and the i-cache accesses and misses.  Exits 1 on any
difference.

Usage::

    PYTHONPATH=src python bench/block_identity.py
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.benchsuite import (                            # noqa: E402
    POLYBENCH_NAMES, SPEC_NAMES, matmul_spec, polybench_benchmark,
    spec_benchmark,
)
from repro.harness.runner import compile_benchmark, run_compiled  # noqa: E402
from repro.tier import DEFAULT_TIER, set_tier             # noqa: E402

TARGETS = ("native", "chrome", "firefox", "chrome-tiered", "firefox-tiered",
           "asmjs-chrome", "asmjs-firefox")


def _observed(compiled, target, tier):
    set_tier(tier)
    run = run_compiled(compiled, target, runs=1).run
    return (run.stdout, run.perf.as_dict(), run.icache_accesses,
            run.icache_misses)


def main() -> int:
    specs = [polybench_benchmark(name, "test") for name in POLYBENCH_NAMES]
    specs += [spec_benchmark(name, "test") for name in SPEC_NAMES]
    specs.append(matmul_spec())
    mismatches = []
    seconds = {"off": 0.0, DEFAULT_TIER: 0.0}
    for spec in specs:
        compiled = compile_benchmark(spec, TARGETS, cache=False)
        for target in TARGETS:
            observed = {}
            for tier in seconds:
                start = time.perf_counter()
                observed[tier] = _observed(compiled, target, tier)
                seconds[tier] += time.perf_counter() - start
            if observed["off"] != observed[DEFAULT_TIER]:
                mismatches.append((spec.name, target))
                print(f"[block-identity] MISMATCH {spec.name} {target}",
                      flush=True)
    set_tier(None)
    cells = len(specs) * len(TARGETS)
    print(f"[block-identity] {cells} cells, {len(mismatches)} mismatches; "
          f"execute {seconds['off']:.1f}s at --tier off, "
          f"{seconds[DEFAULT_TIER]:.1f}s on the block engine")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
