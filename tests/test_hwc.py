"""Microarchitectural counter model (repro.obs.hwc) tests.

The load-bearing invariants:

* the model is purely observational: every retired counter, i-cache
  count, cycle figure, and program output is bit-identical with the
  model attached, at every tier;
* per-function hwc buckets sum EXACTLY to the whole-program totals;
* the model's own accounting is closed: retired events mirror the
  machine's counters (``retired == instructions``, ``dcache_accesses ==
  loads + stores``) and the cycle decomposition sums to the modeled
  cycle count;
* both execution tiers report the same hwc counters;
* everything is deterministic per (program, input, config).
"""

import pytest
from conftest import GuestHost

from repro.benchsuite import matmul_spec, spec_benchmark
from repro.codegen import compile_native
from repro.harness.runner import compile_benchmark, run_compiled
from repro.obs.hwc import (
    BranchHwc, BranchPredictor, HwcCounters, HwcModel, class_cycles,
    explain_benchmark, hwc_cycles, hwc_site,
)
from repro.tier import TIERS
from repro.wasm import WasmInstance
from repro.x86 import X86Machine

PROGRAM = """
int bump(int x) { return x * 3 + 1; }
int pick(int i, int v) {
    if (i % 3 == 0) { return bump(v); }
    if (i % 3 == 1) { return v - 2; }
    return v ^ 5;
}
int main(void) {
    int i; int s = 0;
    int buf[64];
    for (i = 0; i < 64; i++) { buf[i] = i * 7; }
    for (i = 0; i < 400; i++) {
        s += pick(i, buf[i & 63]);
        if (s > 100000) { s -= 100000; }
    }
    print_i32(s);
    return 0;
}
"""


def _native(hwc=None, tier="off"):
    program, module = compile_native(PROGRAM, "test")
    host = GuestHost(module.heap_base)
    machine = X86Machine(program, host=host, tier=tier, hwc=hwc)
    rax, _ = machine.call("main")
    return rax & 0xFFFFFFFF, bytes(host.output), machine


# -- branch predictor unit behaviour ------------------------------------------------


def test_predictor_learns_a_loop_branch():
    bp = BranchPredictor()
    site = hwc_site("f", 3)
    misses = [bp.cond(site, True) for _ in range(10)]
    # Weakly-not-taken start: the first taken outcome mispredicts, the
    # counter saturates, and the branch predicts correctly forever.
    assert misses[0] is True
    assert not any(misses[2:])


def test_predictor_mispredicts_alternation():
    bp = BranchPredictor()
    site = hwc_site("f", 4)
    outcomes = [bool(i % 2) for i in range(64)]
    misses = sum(bp.cond(site, taken) for taken in outcomes)
    assert misses >= 16   # a bimodal counter cannot learn alternation


def test_btb_tracks_last_target():
    bp = BranchPredictor()
    site = hwc_site("f", 9)
    assert bp.indirect(site, 100) is True     # cold
    assert bp.indirect(site, 100) is False    # hit
    assert bp.indirect(site, 200) is True     # retarget
    assert bp.indirect(site, 200) is False


def test_hwc_site_is_stable_and_spreads():
    assert hwc_site("main", 7) == hwc_site("main", 7)
    sites = {hwc_site("main", i) for i in range(256)}
    assert len(sites) == 256


def test_hwc_counters_merge_and_eq():
    a, b = HwcCounters(), HwcCounters()
    a.branches, a.spill_loads = 5, 2
    b.branches, b.dcache_misses = 3, 4
    a.merge(b)
    assert (a.branches, a.spill_loads, a.dcache_misses) == (8, 2, 4)
    c = HwcCounters()
    c.branches, c.spill_loads, c.dcache_misses = 8, 2, 4
    assert a == c and a != b


# -- the model never perturbs execution ---------------------------------------------


@pytest.mark.parametrize("tier", TIERS)
def test_retired_counters_bit_identical_with_hwc(tier):
    rax_plain, out_plain, m_plain = _native(tier=tier)
    rax_hwc, out_hwc, m_hwc = _native(hwc=HwcModel(), tier=tier)
    assert rax_plain == rax_hwc
    assert out_plain == out_hwc
    assert m_plain.perf.as_dict() == m_hwc.perf.as_dict()
    assert m_plain.icache.misses == m_hwc.icache.misses
    assert m_plain.icache.accesses == m_hwc.icache.accesses


def test_hwc_accounting_is_closed():
    model = HwcModel()
    _, _, machine = _native(hwc=model)
    report = model.report()
    report.verify()    # per-function sums == totals, field for field
    totals, perf = report.totals, machine.perf
    assert totals.retired == perf.instructions
    assert totals.dcache_accesses == perf.loads + perf.stores
    assert totals.icache_accesses == machine.icache.accesses
    assert totals.icache_misses == machine.icache.misses
    assert totals.branches <= perf.branches
    assert totals.spill_loads <= perf.loads
    assert totals.spill_stores <= perf.stores


def test_class_cycles_sum_to_hwc_cycles():
    model = HwcModel()
    _, _, machine = _native(hwc=model)
    totals = model.report().totals
    decomposed = class_cycles(machine.perf, totals)
    assert sum(decomposed.values()) == pytest.approx(
        hwc_cycles(machine.perf, totals), rel=1e-9)
    assert decomposed["base (retired instructions)"] > 0


def test_hwc_is_deterministic():
    m1 = HwcModel()
    m2 = HwcModel()
    _native(hwc=m1)
    _native(hwc=m2)
    assert m1.report() == m2.report()


def test_fused_tier_reports_identical_hwc():
    m_off, m_fuse = HwcModel(), HwcModel()
    _native(hwc=m_off, tier="off")
    _native(hwc=m_fuse, tier="fuse")
    assert m_off.report() == m_fuse.report()


# -- spill accounting ---------------------------------------------------------------


def test_spills_are_tagged_on_wasm_codegen():
    spec = matmul_spec()
    compiled = compile_benchmark(spec, ["native", "chrome"])
    reports = {}
    for target in ("native", "chrome"):
        model = HwcModel()
        run_compiled(compiled, target, runs=1, hwc=model)
        reports[target] = model.report().totals
    # The Chrome pipeline's weaker allocator spills; spill traffic is
    # the paper's §5 "more loads and stores" root cause.
    assert reports["chrome"].spill_loads > 0
    assert reports["chrome"].spill_stores > 0
    assert reports["chrome"].spill_loads > reports["native"].spill_loads


# -- sampling -----------------------------------------------------------------------


def test_event_sampling_is_deterministic_and_attributed():
    m1 = HwcModel(sample_every=1000)
    m2 = HwcModel(sample_every=1000)
    _native(hwc=m1)
    _native(hwc=m2)
    r1, r2 = m1.report(), m2.report()
    assert r1.samples and r1.samples == r2.samples
    assert sum(r1.samples.values()) == r1.totals.retired // 1000
    assert set(r1.samples) <= set(r1.functions)
    assert m1.report().as_dict()["samples"] == r1.samples


def test_from_env_reads_config(monkeypatch):
    monkeypatch.setenv("REPRO_HWC_DCACHE", "2048,4")
    monkeypatch.setenv("REPRO_HWC_SAMPLE", "500")
    model = HwcModel.from_env()
    assert model.config["dcache_size"] == 2048
    assert model.dcache.ways == 4
    assert model.sample_every == 500


def test_run_result_carries_hwc_via_env(monkeypatch):
    spec = matmul_spec()
    compiled = compile_benchmark(spec, ["native"])
    plain = run_compiled(compiled, "native", runs=1)
    assert plain.run.hwc is None
    monkeypatch.setenv("REPRO_HWC", "1")
    gated = run_compiled(compiled, "native", runs=1)
    assert gated.run.hwc is not None
    gated.run.hwc.verify()
    assert plain.run.perf.as_dict() == gated.run.perf.as_dict()
    assert plain.run.cycles == gated.run.cycles


# -- interpreter branch models ------------------------------------------------------

BRANCHY = """
int f0(int x) { return x + 1; }
int f1(int x) { return x * 2; }
int (*tab[2])(int) = { f0, f1 };
int main(void) {
    int i; int s = 0;
    for (i = 0; i < 200; i++) {
        if (i % 4 == 0) { s += 3; } else { s -= 1; }
        s += tab[(i >> 4) & 1](s) & 255;
    }
    print_i32(s);
    return 0;
}
"""


def _run_wasm(hwc=None):
    from repro.codegen.emscripten import compile_emscripten
    wasm, ir = compile_emscripten(BRANCHY, "test")
    host = GuestHost(ir.heap_base)
    instance = WasmInstance(wasm, host=host, hwc=hwc)
    value = instance.invoke("main")
    return value, bytes(host.output)


def test_wasm_interpreter_branch_model():
    plain = _run_wasm()
    hwc = BranchHwc()
    traced = _run_wasm(hwc=hwc)
    assert plain == traced            # observational only
    assert hwc.branches > 200         # loop br_if + if arms
    assert hwc.indirect_branches >= 200   # call_indirect per iteration
    assert 0 < hwc.branch_misses < hwc.branches
    # The table index flips every 16 iterations, so the BTB hits in
    # between and misses only on retargets.
    assert 0 < hwc.btb_misses < hwc.indirect_branches


def test_ir_interpreter_branch_model():
    from repro.ir.interp import IRInterpreter
    from repro.mcc import compile_source

    module = compile_source(BRANCHY, "test")
    hwc = BranchHwc()
    host = GuestHost(module.heap_base)
    value = IRInterpreter(module, host, hwc=hwc).run("main")
    plain_host = GuestHost(module.heap_base)
    plain = IRInterpreter(module, plain_host).run("main")
    assert value == plain
    assert bytes(host.output) == bytes(plain_host.output)
    assert hwc.branches > 200
    assert 0 < hwc.branch_misses < hwc.branches


# -- gap explanation ----------------------------------------------------------------


def test_explain_decomposes_the_gap():
    explanation = explain_benchmark(matmul_spec(), target="chrome")
    explanation.check()    # per-function sums == totals, both runs
    rows = explanation.class_rows()
    native = hwc_cycles(explanation.native_run.perf,
                        explanation.native_run.hwc.totals)
    target = hwc_cycles(explanation.target_run.perf,
                        explanation.target_run.hwc.totals)
    assert sum(delta for _name, _n, _t, delta in rows) == \
        pytest.approx(target - native, rel=1e-9)
    # The paper's §5 root causes dominate: more retired instructions
    # and spill traffic.
    by_name = {name: delta for name, _n, _t, delta in rows}
    assert by_name["base (retired instructions)"] > 0
    assert by_name["spill loads"] > 0
    text = explanation.render()
    assert "event class" in text and "share of gap" in text
    assert "matmul" in text


def test_explain_runs_on_a_spec_benchmark():
    spec = spec_benchmark("429.mcf", "test")
    explanation = explain_benchmark(spec, target="chrome")
    explanation.check()
    data = explanation.as_dict()
    assert data["classes"] and data["functions"]
    assert data["hwc_cycles"]["native"] > 0
