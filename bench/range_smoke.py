"""Range-analysis smoke gate: the soundness oracle and the elision floor.

Three promises are enforced, on every one of the 39 benchmarks (23
PolyBenchC + 15 SPEC + matmul) at test size, with ``--verify-ir`` and
``--check-ranges`` armed:

* **Soundness** — the runtime range oracle stays silent on both
  executors: the wasm interpreter asserts every fact-bearing local and
  the x86 machine asserts every annotated def while running the
  check-eliding ``chrome-tiered`` engine.  One escaped interval fails
  the gate with the ``ranges`` pass named.
* **Elision floor** — on the fig4 kernels (the 23 PolyBenchC
  benchmarks) the tiered engine statically elides at least 25% of
  stack-depth checks and at least 50% of indirect-call checks (bounds
  + signature), and every eliding run's stdout/exit code still matches
  native exactly.  The suite-wide rate (SPEC brings function-pointer
  tables whose indices are loaded from memory, beyond an interval
  domain) is reported but not gated.
* **No gap regression** — the matmul wasm/native hwc-cycle ratio on the
  baseline chrome engine stays at or under the checked-in 1.65x, and
  the eliding chrome-tiered engine strictly improves on it.

Usage::

    PYTHONPATH=src python bench/range_smoke.py [--output FILE]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.benchsuite import (                           # noqa: E402
    POLYBENCH_NAMES, SPEC_NAMES, matmul_spec, polybench_benchmark,
    spec_benchmark,
)
from repro.codegen.emscripten import compile_emscripten  # noqa: E402
from repro.harness.runner import (                       # noqa: E402
    compile_benchmark, run_compiled,
)
from repro.ir import CollectingHost                      # noqa: E402
from repro.ir.verify import set_check_ranges, set_verify_ir  # noqa: E402
from repro.obs.hwc import HwcModel, hwc_cycles           # noqa: E402
from repro.wasm import WasmInstance                      # noqa: E402

#: PR 9 checked-in matmul wasm/native gap (EXPERIMENTS.md): the
#: baseline engine must not regress past it and the eliding engine
#: must come in under it.
BASELINE_GAP = 1.65

STACK_FLOOR = 0.25
INDIRECT_FLOOR = 0.50


class _Host(CollectingHost):
    def __init__(self, heap_base):
        super().__init__()
        self.heap_base = heap_base

    def call(self, env, name, args):
        if name == "sys_heap_base":
            return self.heap_base
        return super().call(env, name, args)


def _all_specs():
    for name in POLYBENCH_NAMES:
        yield polybench_benchmark(name, "test")
    for name in SPEC_NAMES:
        yield spec_benchmark(name, "test")
    yield matmul_spec()


def sweep():
    """Oracle + elision sweep; returns (per-benchmark rows, totals)."""
    rows = []
    totals = {"stack_total": 0, "stack_elided": 0,
              "indirect_total": 0, "indirect_elided": 0}
    fig4 = dict(totals)
    failures = []
    for spec in _all_specs():
        t0 = time.time()
        # Wasm-interpreter leg: facts ride in the repro-ranges custom
        # section; every local.set/tee of a fact-bearing local asserts.
        wasm, ir = compile_emscripten(spec.source, spec.name)
        host = _Host(ir.heap_base)
        try:
            WasmInstance(wasm, host=host).invoke("main")
        except AssertionError as err:
            failures.append(f"{spec.name}: wasm oracle: {err}")
            continue

        # x86 leg: the eliding engine under the machine oracle, with
        # stdout/exit compared against native.
        compiled = compile_benchmark(
            spec, ("native", "chrome-tiered"), cache=False)
        native = run_compiled(compiled, "native", runs=1)
        try:
            tiered = run_compiled(compiled, "chrome-tiered", runs=1)
        except AssertionError as err:
            failures.append(f"{spec.name}: x86 oracle: {err}")
            continue
        if (tiered.run.stdout, tiered.run.exit_code) != \
                (native.run.stdout, native.run.exit_code):
            failures.append(f"{spec.name}: eliding output diverged "
                            f"from native")
            continue
        checks = compiled.program_for(
            "chrome-tiered").compile_stats["checks"]
        for key in totals:
            totals[key] += checks[key]
            if spec.suite == "polybench":
                fig4[key] += checks[key]
        rows.append({"benchmark": spec.name, "suite": spec.suite,
                     **checks, "seconds": round(time.time() - t0, 2)})
        print(f"  {spec.name}: stack {checks['stack_elided']}"
              f"/{checks['stack_total']} indirect "
              f"{checks['indirect_elided']}/{checks['indirect_total']} "
              f"elided, oracle clean")
    return rows, totals, fig4, failures


def matmul_gap():
    """matmul hwc-cycle gap on the baseline vs the eliding engine."""
    spec = matmul_spec()
    compiled = compile_benchmark(
        spec, ("native", "chrome", "chrome-tiered"), cache=False)
    cycles = {}
    for target in ("native", "chrome", "chrome-tiered"):
        run = run_compiled(compiled, target, runs=1, hwc=HwcModel()).run
        cycles[target] = hwc_cycles(run.perf, run.hwc.totals)
    return {
        "native_cycles": cycles["native"],
        "chrome_cycles": cycles["chrome"],
        "chrome_tiered_cycles": cycles["chrome-tiered"],
        "chrome_gap": cycles["chrome"] / cycles["native"],
        "chrome_tiered_gap": cycles["chrome-tiered"] / cycles["native"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", help="write the report as JSON")
    args = parser.parse_args(argv)

    set_verify_ir(True)
    set_check_ranges(True)

    print("range oracle + elision sweep (39 benchmarks, --verify-ir, "
          "--check-ranges):")
    rows, totals, fig4, failures = sweep()
    gap = matmul_gap()

    ok = True
    if failures:
        ok = False
        for line in failures:
            print(f"FAIL {line}")

    stack_rate = fig4["stack_elided"] / max(fig4["stack_total"], 1)
    indirect_rate = (fig4["indirect_elided"]
                     / max(fig4["indirect_total"], 1))
    print(f"\nfig4 stack checks elided: {fig4['stack_elided']}"
          f"/{fig4['stack_total']} ({100 * stack_rate:.1f}%, "
          f"floor {100 * STACK_FLOOR:.0f}%)")
    print(f"fig4 indirect checks elided: {fig4['indirect_elided']}"
          f"/{fig4['indirect_total']} ({100 * indirect_rate:.1f}%, "
          f"floor {100 * INDIRECT_FLOOR:.0f}%)")
    print(f"suite-wide (not gated): stack {totals['stack_elided']}"
          f"/{totals['stack_total']}, indirect "
          f"{totals['indirect_elided']}/{totals['indirect_total']}")
    if stack_rate < STACK_FLOOR:
        print("FAIL stack-check elision under floor")
        ok = False
    if fig4["indirect_total"] and indirect_rate < INDIRECT_FLOOR:
        print("FAIL indirect-check elision under floor")
        ok = False

    print(f"matmul gap: chrome {gap['chrome_gap']:.3f}x, chrome-tiered "
          f"{gap['chrome_tiered_gap']:.3f}x (PR baseline "
          f"{BASELINE_GAP:.2f}x)")
    if gap["chrome_gap"] > BASELINE_GAP + 0.01:
        print("FAIL baseline chrome gap regressed past the checked-in "
              "figure")
        ok = False
    if gap["chrome_tiered_gap"] >= min(gap["chrome_gap"], BASELINE_GAP):
        print("FAIL eliding engine does not improve on the baseline gap")
        ok = False

    if args.output:
        with open(args.output, "w") as fh:
            json.dump({"benchmarks": rows, "totals": totals,
                       "fig4": fig4,
                       "stack_rate": stack_rate,
                       "indirect_rate": indirect_rate,
                       "matmul": gap, "failures": failures,
                       "ok": ok}, fh, indent=2)
        print(f"wrote {args.output}")

    print("range-smoke:", "OK" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
