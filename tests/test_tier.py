"""The x86 block engine must be invisible.

The machine runs the block engine unless the reference loop is asked
for (``reference=True``, an attached instrument, or ``--check-ranges``),
and every observable output (result values, stdout, perf counters,
i-cache, profile attribution) must be bit-identical on both loops, on
every benchmark, on every target.  These tests pin that invariant.
"""

import pytest

from conftest import GuestHost, every_block_generated

from repro.benchsuite import matmul_spec, polybench_benchmark, spec_benchmark
from repro.codegen import compile_native
from repro.harness.runner import compile_benchmark, run_compiled
from repro.obs.profile import profile_benchmark
from repro.x86.machine import (
    K_CQO, K_NEG, K_NOP, K_SQRTSD, K_TRAP, K_UNKNOWN, X86Machine,
)

TARGETS = ["native", "chrome", "firefox"]

LOOPY = """
int work(int x) {
    int acc = x; int j;
    for (j = 0; j < 40; j++) {
        acc += j * 3;
        acc -= acc / 7;
        if (acc > 1000) { acc -= 900; }
    }
    return acc;
}
int main(void) {
    int i; int s = 0;
    for (i = 0; i < 30; i++) { s += work(i); }
    print_i32(s);
    return 0;
}
"""


# -- bit-identity on the x86 machine ------------------------------------------------

def _run(program, heap_base, reference):
    host = GuestHost(heap_base)
    machine = X86Machine(program, host=host, reference=reference)
    rax, _ = machine.call("main")
    return rax & 0xFFFFFFFF, bytes(host.output), machine.perf.as_dict()


def test_x86_tiers_bit_identical():
    program, module = compile_native(LOOPY, "tiertest")
    assert _run(program, module.heap_base, False) == \
        _run(program, module.heap_base, True)


# -- bit-identity across the full measurement stack ---------------------------------

CELL_TARGETS = TARGETS + ["chrome-tiered", "firefox-tiered"]
#: gemm and bicg plus the SPEC proxies that, with them, retire every
#: decoded kind any of the 39 benchmarks retires (astar: test, movx,
#: setcc; sphinx3: indirect calls; nab_s: cvttsd2si).
CELL_BENCHMARKS = ["gemm", "bicg", "473.astar", "482.sphinx3", "644.nab_s"]
#: Kinds no benchmark retires: tests/test_x86_machine.py checks them on
#: hand-built programs.
NEVER_RETIRED = {K_CQO, K_SQRTSD, K_NEG, K_TRAP, K_NOP, K_UNKNOWN}


@pytest.fixture(scope="module")
def compiled_cells():
    """name -> the benchmark compiled once, shared by the cell tests of
    this module."""
    cache = {}

    def compiled(name):
        if name not in cache:
            spec = spec_benchmark(name, "test") if name[0].isdigit() \
                else polybench_benchmark(name, "test")
            cache[name] = compile_benchmark(spec, CELL_TARGETS, cache=False)
        return cache[name]
    return compiled


@pytest.mark.parametrize("name", CELL_BENCHMARKS)
def test_benchmark_cells_bit_identical_across_tiers(name, compiled_cells):
    """Every cell, including the tiered engines' range-eliding code,
    runs the same on the reference loop and on the block engine, with
    hot blocks generated and with every block generated."""
    compiled = compiled_cells(name)
    for target in CELL_TARGETS:
        base = run_compiled(compiled, target, runs=2, reference=True)
        cells = [run_compiled(compiled, target, runs=2)]
        with every_block_generated():
            cells.append(run_compiled(compiled, target, runs=2))
        for cell in cells:
            assert cell.times == base.times, (name, target)
            assert cell.perf.as_dict() == base.perf.as_dict()
            assert cell.run.stdout == base.run.stdout
            assert cell.run.icache_accesses == base.run.icache_accesses
            assert cell.run.icache_misses == base.run.icache_misses


class _KindRecorder:
    """A retire hook whose report is the set of decoded kinds retired."""

    def attach(self, machine):
        self.machine = machine
        self.retired = set()

    def enter(self, name):
        pass

    def retire(self, ins, machine):
        self.retired.add(id(ins))

    def exit(self):
        pass

    def finish(self):
        pass

    def report(self):
        machine = self.machine
        return {entry[0] for func in machine.program.functions.values()
                for entry in machine._decode_func(func)
                if id(entry[5]) in self.retired}


def test_benchmark_cells_retire_every_kind(compiled_cells):
    retired = set()
    for name in CELL_BENCHMARKS:
        compiled = compiled_cells(name)
        for target in CELL_TARGETS:
            retired |= run_compiled(compiled, target, runs=1,
                                    hwc=_KindRecorder()).run.hwc
    assert retired == set(range(K_UNKNOWN + 1)) - NEVER_RETIRED


def test_verify_with_fusion_enabled():
    """Profile attribution (which runs on the reference loop) is exact."""
    comparison = profile_benchmark(matmul_spec(8), target="chrome",
                                   cache=False)
    comparison.native_profile.verify()
    comparison.target_profile.verify()
