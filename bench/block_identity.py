"""Block engine vs reference loop on every benchmark cell.

Compiles all 39 benchmarks (23 PolyBench kernels, 15 SPEC proxies and
the Figure 8 matmul kernel) at test size for every target, runs each
cell once with ``reference=True`` (the per-instruction reference loop),
once by default (the block engine: closures, and generated code for
blocks that reach ``repro.x86.blocks.HOT_RUNS`` runs) and once with
every block generated before its first run (``HOT_RUNS`` set to 0), and
diffs stdout, every PerfCounters field and the i-cache accesses and
misses of both block-engine runs against the reference loop's.  Exits 1
on any difference, or when the last leg generated no block.

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
from repro.obs import metrics                             # noqa: E402
from repro.x86 import blocks                              # noqa: E402

TARGETS = ("native", "chrome", "firefox", "chrome-tiered", "firefox-tiered",
           "asmjs-chrome", "asmjs-firefox")
#: The runs of each cell: the reference loop, the block engine, and the
#: block engine with every block generated.
LEGS = ("reference", "blocks", "generated")


def _observed(compiled, target, leg):
    """One run of a cell on ``leg``: what it printed and counted, and
    how many blocks it generated."""
    registry = metrics.enable()
    default = blocks.HOT_RUNS
    if leg == "generated":
        blocks.HOT_RUNS = 0
    try:
        run = run_compiled(compiled, target, runs=1,
                           reference=leg == "reference").run
    finally:
        blocks.HOT_RUNS = default
        metrics.disable()
    return ((run.stdout, run.perf.as_dict(), run.icache_accesses,
             run.icache_misses),
            registry.counter("x86.blocks_generated").value)


def main() -> int:
    specs = [polybench_benchmark(name, "test") for name in POLYBENCH_NAMES]
    specs += [spec_benchmark(name, "test") for name in SPEC_NAMES]
    specs.append(matmul_spec())
    mismatches = []
    seconds = dict.fromkeys(LEGS, 0.0)
    generated = dict.fromkeys(LEGS, 0)
    for spec in specs:
        compiled = compile_benchmark(spec, TARGETS, cache=False)
        for target in TARGETS:
            observed = {}
            for leg in LEGS:
                start = time.perf_counter()
                observed[leg], blocks_generated = \
                    _observed(compiled, target, leg)
                seconds[leg] += time.perf_counter() - start
                generated[leg] += blocks_generated
            for leg in LEGS[1:]:
                if observed[leg] != observed["reference"]:
                    mismatches.append((spec.name, target, leg))
                    print(f"[block-identity] MISMATCH {spec.name} {target} "
                          f"({leg})", flush=True)
    cells = len(specs) * len(TARGETS)
    print(f"[block-identity] {cells} cells, {len(mismatches)} mismatches; "
          f"execute {seconds['reference']:.1f}s on the reference loop, "
          f"{seconds['blocks']:.1f}s on the block engine "
          f"({generated['blocks']} blocks generated), "
          f"{seconds['generated']:.1f}s with every block generated "
          f"({generated['generated']} blocks)")
    if not generated["generated"]:
        print("[block-identity] no block was generated", file=sys.stderr)
        return 1
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
