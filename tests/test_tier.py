"""Tiered execution: the x86 block engine must be invisible.

The tier model (``--tier off|fuse``) is a pure speed knob — every
observable output (result values, stdout, perf counters, i-cache,
profile attribution) must be bit-identical at every tier, on every
benchmark, on every target.  These tests pin that invariant.
"""

import pytest

from conftest import GuestHost

from repro import obs
from repro.benchsuite import matmul_spec, polybench_benchmark, spec_benchmark
from repro.codegen import compile_native
from repro.harness.runner import compile_benchmark, run_compiled
from repro.obs.profile import profile_benchmark
from repro.tier import (
    DEFAULT_TIER, TIERS, get_tier, set_tier, tier_level,
)
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


@pytest.fixture(autouse=True)
def _reset_tier():
    yield
    set_tier(None)
    obs.disable_metrics()


# -- the tier registry --------------------------------------------------------------

def test_tier_names_and_levels():
    assert TIERS == ("off", "fuse")
    assert DEFAULT_TIER in TIERS
    for level, name in enumerate(TIERS):
        assert tier_level(name) == level


def test_set_tier_round_trip():
    for name in TIERS:
        set_tier(name)
        assert get_tier() == name
    set_tier(None)
    assert get_tier() == DEFAULT_TIER


def test_set_tier_rejects_unknown():
    with pytest.raises(ValueError):
        set_tier("turbo")


def test_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_TIER", "off")
    assert get_tier() == "off"
    set_tier("fuse")             # explicit setting wins over the env
    assert get_tier() == "fuse"
    set_tier(None)
    monkeypatch.setenv("REPRO_TIER", "turbo")   # unknown: the default
    assert get_tier() == DEFAULT_TIER


# -- bit-identity on the x86 machine ------------------------------------------------

def _run_at_tier(program, heap_base, tier):
    host = GuestHost(heap_base)
    machine = X86Machine(program, host=host, tier=tier)
    rax, _ = machine.call("main")
    return rax & 0xFFFFFFFF, bytes(host.output), machine.perf.as_dict()


def test_x86_tiers_bit_identical():
    program, module = compile_native(LOOPY, "tiertest")
    baseline = _run_at_tier(program, module.heap_base, "off")
    for tier in TIERS:
        assert _run_at_tier(program, module.heap_base, tier) == baseline


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
    """(name, tier) -> the benchmark compiled at that tier, shared by
    the cell tests of this module.  gemm and bicg are compiled at every
    tier, which checks that compilation ignores the tier; the SPEC
    proxies, there for the kinds they retire, are compiled once."""
    cache = {}

    def compiled(name, tier):
        is_spec = name[0].isdigit()
        key = (name, None if is_spec else tier)
        if key not in cache:
            set_tier(tier)
            spec = spec_benchmark(name, "test") if is_spec \
                else polybench_benchmark(name, "test")
            cache[key] = compile_benchmark(spec, CELL_TARGETS, cache=False)
        return cache[key]
    return compiled


@pytest.mark.parametrize("name", CELL_BENCHMARKS)
def test_benchmark_cells_bit_identical_across_tiers(name, compiled_cells):
    """Compiled and run at each tier, including the tiered engines,
    whose range-driven check elision must not follow the tier."""
    cells = {}
    for tier in TIERS:
        compiled = compiled_cells(name, tier)
        set_tier(tier)
        cells[tier] = {
            target: run_compiled(compiled, target, runs=2)
            for target in CELL_TARGETS
        }
    for target in CELL_TARGETS:
        base = cells["off"][target]
        for tier in TIERS:
            cell = cells[tier][target]
            assert cell.times == base.times, (name, target, tier)
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
        compiled = compiled_cells(name, "off")
        for target in CELL_TARGETS:
            retired |= run_compiled(compiled, target, runs=1,
                                    hwc=_KindRecorder()).run.hwc
    assert retired == set(range(K_UNKNOWN + 1)) - NEVER_RETIRED


def test_verify_with_fusion_enabled():
    """Profile attribution is exact, and the same, at both tiers."""
    set_tier("fuse")
    comparison = profile_benchmark(matmul_spec(8), target="chrome",
                                   cache=False)
    comparison.native_profile.verify()
    comparison.target_profile.verify()
    set_tier("off")
    unfused = profile_benchmark(matmul_spec(8), target="chrome",
                                cache=False)
    unfused.native_profile.verify()
    unfused.target_profile.verify()
    fused_rows = [(name, n.as_dict(), t.as_dict())
                  for name, n, t in comparison.function_rows()]
    plain_rows = [(name, n.as_dict(), t.as_dict())
                  for name, n, t in unfused.function_rows()]
    assert fused_rows == plain_rows
