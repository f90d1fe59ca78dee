"""Opt-smoke gate: fail CI when the SSA mid-end stops earning its keep.

Two gates:

1. **Code quality** — across the 23 fig4 polybench kernels, the SSA
   pipeline (GVN + SCCP + strength reduction) must deliver at least a
   5% geometric-mean static instruction reduction over the legacy
   (non-SSA) pipeline, and must never grow any single kernel.  A
   sampled subset is also interpreted both ways and must produce
   bit-identical output.

2. **Compile time** — the caching :class:`FunctionAnalysisManager`
   must make repeated analysis-hungry pipeline rounds at least 1.3x
   faster than the recompute-always control arm (``enabled=False``).
   Measured speedup is ~2-4x; the floor trips on a real regression
   (cache never hitting, over-invalidation), not on CI timer noise.

The third leg of the opt gate — fig4 at ``--verify-ir`` staying clean
with SSA on — runs as a separate step of the CI job, through the real
CLI.

Usage::

    PYTHONPATH=src python bench/opt_smoke.py [--output OPT_smoke.json]
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import sys
import time

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.benchsuite import POLYBENCH_NAMES, polybench_spec  # noqa: E402
from repro.ir.interp import CollectingHost, IRInterpreter     # noqa: E402
from repro.ir.passes import optimize_module                   # noqa: E402
from repro.ir.passmanager import (                            # noqa: E402
    FunctionAnalysisManager, FunctionPass, _run_pass,
)
from repro.mcc import compile_source                          # noqa: E402

GEOMEAN_FLOOR = 1.05     # >= 5% geomean instruction reduction
CACHE_FLOOR = 1.3        # cached analyses >= 1.3x faster than recompute
SEMANTICS_SAMPLE = ("gemm", "durbin", "lu")


def _icount(module):
    return sum(f.instruction_count() for f in module.functions.values())


class _GuestHost(CollectingHost):
    """CollectingHost that also serves sys_heap_base."""

    def __init__(self, heap_base):
        super().__init__()
        self.heap_base = heap_base

    def call(self, env, name, args):
        if name == "sys_heap_base":
            return self.heap_base
        return super().call(env, name, args)


def _interp(module):
    host = _GuestHost(module.heap_base)
    value = IRInterpreter(module, host).run()
    return value, bytes(host.output)


def bench_instruction_reduction():
    """Gate 1: SSA on vs. off over the fig4 kernel set."""
    ratios = {}
    grew = []
    for name in POLYBENCH_NAMES:
        spec = polybench_spec(name, "test")
        base = compile_source(spec.source, name,
                              memory_size=spec.memory_size)
        off = optimize_module(copy.deepcopy(base), level=2, ssa=False)
        on = optimize_module(copy.deepcopy(base), level=2, ssa=True)
        n_off, n_on = _icount(off), _icount(on)
        ratios[name] = n_off / n_on
        if n_on > n_off:
            grew.append(name)
        if name in SEMANTICS_SAMPLE and _interp(on) != _interp(off):
            raise AssertionError(f"{name}: SSA pipeline changed output")
    geomean = math.exp(sum(math.log(r) for r in ratios.values())
                       / len(ratios))
    return {
        "kernels": len(ratios),
        "geomean_reduction": geomean,
        "per_kernel": {k: round(v, 4) for k, v in sorted(ratios.items())},
        "grew": grew,
        "speedup": geomean,          # uniform gate field
    }


class _AnalysisUser(FunctionPass):
    """Stands in for an analysis-hungry pass: queries the facts a real
    pipeline round needs, changes nothing."""

    name = "analysis-user"

    def run(self, func, module, fam):
        for name in ("domtree", "loops", "liveness"):
            fam.get(func, name)
        return False


def bench_analysis_cache(rounds: int = 6, repeats: int = 3):
    """Gate 2: repeated pipeline rounds, cached vs. recompute-always.

    The workload is the steady-state shape of a fixpoint pipeline:
    after the first round nothing changes, so every later round is pure
    analysis load — exactly what the cache exists to absorb.
    """
    from repro.ir.passes import LICMPass, RotatePass

    modules = []
    for name in POLYBENCH_NAMES[:8]:
        spec = polybench_spec(name, "test")
        module = compile_source(spec.source, name,
                                memory_size=spec.memory_size)
        optimize_module(module, level=2)
        modules.append(module)

    passes = [_AnalysisUser(), LICMPass(), RotatePass(), _AnalysisUser()]

    def run(enabled: bool) -> float:
        best = float("inf")
        for _ in range(repeats):
            work = [copy.deepcopy(m) for m in modules]
            fam = FunctionAnalysisManager(enabled=enabled)
            start = time.perf_counter()
            for _ in range(rounds):
                for module in work:
                    for func in module.functions.values():
                        for p in passes:
                            _run_pass(p, func, module, fam)
            best = min(best, time.perf_counter() - start)
        return best

    uncached = run(False)
    cached = run(True)
    return {
        "cached_seconds": cached,
        "uncached_seconds": uncached,
        "speedup": uncached / cached,
    }


GATES = (
    ("instruction_reduction", bench_instruction_reduction, GEOMEAN_FLOOR),
    ("analysis_cache", bench_analysis_cache, CACHE_FLOOR),
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", help="write results as JSON")
    args = parser.parse_args(argv)

    results, failed = {}, []
    for name, scenario, floor in GATES:
        print(f"[opt-smoke] {name} ...", flush=True)
        result = scenario()
        results[name] = result
        speedup = result["speedup"]
        verdict = "ok" if speedup >= floor else "FAIL"
        print(f"[opt-smoke]   {speedup:.2f}x (floor {floor:.2f}x) "
              f"{verdict}")
        if speedup < floor:
            failed.append((name, speedup, floor))
        if result.get("grew"):
            failed.append((f"{name}:grew", 0.0, 1.0))
            print(f"[opt-smoke]   kernels grew under SSA: "
                  f"{result['grew']}", file=sys.stderr)

    if args.output:
        with open(args.output, "w") as fh:
            json.dump({"gates": results}, fh, indent=2, sort_keys=True)
        print(f"[opt-smoke] wrote {args.output}")

    if failed:
        for name, speedup, floor in failed:
            print(f"[opt-smoke] {name}: {speedup:.2f}x is below the "
                  f"{floor:.2f}x floor", file=sys.stderr)
        return 1
    print("[opt-smoke] all gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
