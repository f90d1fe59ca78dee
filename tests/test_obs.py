"""Observability layer tests: tracing, metrics, and profile exactness.

The load-bearing invariants:

* per-function profile buckets sum EXACTLY to the whole-program
  counters (attribution is only trustworthy if it is exact);
* enabling tracing/metrics/profiling changes no output, counter, or
  synthesized timing — observability only observes;
* the cycle model is linear in the event counts;
* ``percentile`` satisfies the usual order statistics properties.
"""

import json
import math
from collections import Counter

import pytest
from conftest import GuestHost

from repro import obs
from repro.benchsuite import matmul_spec
from repro.codegen import compile_native
from repro.errors import TrapError
from repro.harness.compilecache import CompileCache
from repro.harness.runner import compile_benchmark, run_compiled
from repro.harness.stats import p50, p95, p99, percentile
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.hwc import HwcModel
from repro.obs.profile import (
    PROFILE_FIELDS, Attribution, profile_benchmark,
)
from repro.x86 import Imm, Instr, Label, Mem, Reg, X86Machine, X86Program
from repro.x86.perf import EVENT_TABLE, PerfCounters
from repro.x86.registers import RAX, RBX, RCX, RSI

PROGRAM = """
int square(int x) {
    int j; int acc = 0;
    for (j = 0; j < x; j++) {
        acc += x * j;
        if (acc > 10000) { acc -= 10000; }
        acc += j / 3;
        acc -= j / 5;
        acc += (j * 7) / 11;
        if (acc < 0) { acc += 13; }
        acc += x / 7;
    }
    return acc;
}
int main(void) {
    int i; int s = 0;
    for (i = 0; i < 25; i++) { s += square(i); }
    print_i32(s);
    return 0;
}
"""


@pytest.fixture(autouse=True)
def _observability_off():
    """Never leak an enabled tracer/registry into another test."""
    yield
    obs.disable_tracing()
    obs.disable_metrics()


def _run_native(instrument=None):
    program, module = compile_native(PROGRAM, "test")
    host = GuestHost(module.heap_base)
    machine = X86Machine(program, host=host, hwc=instrument)
    rax, _ = machine.call("main")
    return rax & 0xFFFFFFFF, bytes(host.output), machine


# -- span tracing -------------------------------------------------------------------


def test_tracer_records_nested_spans():
    tracer = obs_trace.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner", {"k": 1}):
            pass
    assert [e[0] for e in tracer.events] == ["inner", "outer"]
    names_by_depth = {e[0]: e[3] for e in tracer.events}
    assert names_by_depth == {"outer": 0, "inner": 1}
    assert tracer.phases() == ["outer", "inner"]  # first-start order
    assert tracer.total_seconds() >= 0.0


def test_span_marks_errors():
    tracer = obs_trace.Tracer()
    with pytest.raises(ValueError):
        with tracer.span("doomed"):
            raise ValueError("boom")
    (name, _s, _e, _d, args) = tracer.events[0]
    assert name == "doomed"
    assert args["error"] == "ValueError"


def test_global_span_is_null_when_disabled():
    assert obs_trace.current() is None
    assert obs.span("anything", k=1) is obs_trace.NULL_SPAN
    tracer = obs.enable_tracing()
    with obs.span("real", k=1):
        pass
    assert obs_trace.current() is tracer
    assert tracer.events[0][0] == "real"
    obs.disable_tracing()
    assert obs.span("again") is obs_trace.NULL_SPAN


def test_chrome_export_is_valid_trace_event_json():
    tracer = obs_trace.Tracer()
    with tracer.span("phase.a", {"module": "m", "obj": object()}):
        with tracer.span("phase.b"):
            pass
    doc = json.loads(json.dumps(tracer.to_chrome()))
    events = doc["traceEvents"]
    assert events[0]["ph"] == "M"          # process_name metadata
    complete = [e for e in events if e["ph"] == "X"]
    assert {e["name"] for e in complete} == {"phase.a", "phase.b"}
    for event in complete:
        assert event["ts"] >= 0.0 and event["dur"] >= 0.0
        assert event["pid"] == 1 and event["tid"] == 1
    # Non-primitive args are stringified, never structural.
    (a,) = [e for e in complete if e["name"] == "phase.a"]
    assert isinstance(a["args"]["obj"], str)


def test_full_pipeline_trace_covers_phases():
    obs.enable_tracing()
    spec = matmul_spec(8)
    compiled = compile_benchmark(spec, ("native", "chrome"), cache=False)
    run_compiled(compiled, "chrome", runs=1)
    phases = obs_trace.current().phases()
    expected = {
        "frontend.parse", "frontend.irgen", "opt.cleanup",
        "codegen.lower", "regalloc", "wasm.encode", "wasm.validate",
        "jit.translate", "kernel.boot", "execute",
    }
    assert expected <= set(phases)
    assert len(phases) >= 8


def test_tracer_span_reentrancy():
    """The same span name can be open multiple times at once (recursive
    phases); depth bookkeeping survives nesting and exceptions."""
    tracer = obs_trace.Tracer()

    def recurse(n):
        with tracer.span("phase"):
            if n:
                recurse(n - 1)

    recurse(3)
    assert tracer.depth == 0
    phase_events = [e for e in tracer.events if e[0] == "phase"]
    assert len(phase_events) == 4
    # Innermost activation completes first, at the greatest depth.
    assert [e[3] for e in phase_events] == [3, 2, 1, 0]
    # An exception inside a span must unwind the depth counter too.
    with pytest.raises(RuntimeError):
        with tracer.span("outer"):
            with tracer.span("inner"):
                raise RuntimeError("boom")
    assert tracer.depth == 0
    # The tracer stays usable after the unwind, at depth 0.
    with tracer.span("after"):
        pass
    assert tracer.events[-1][3] == 0


def test_global_span_reenters_after_disable():
    tracer = obs.enable_tracing()
    with obs.span("a"):
        with obs.span("a"):       # reentrant on the same name
            pass
    obs.disable_tracing()
    assert obs.span("ignored") is obs_trace.NULL_SPAN
    assert [e[0] for e in tracer.events] == ["a", "a"]
    assert {e[3] for e in tracer.events} == {0, 1}


# -- percentiles --------------------------------------------------------------------


def test_percentile_order_statistics():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 5.0
    assert percentile(values, 50) == 3.0
    assert percentile(values, 25) == 2.0
    assert percentile(values, 62.5) == pytest.approx(3.5)
    assert values == [5.0, 1.0, 4.0, 2.0, 3.0]  # input not mutated
    assert percentile([], 99) == 0.0
    assert percentile([7.0], 95) == 7.0
    with pytest.raises(ValueError):
        percentile(values, 101)
    with pytest.raises(ValueError):
        percentile(values, -1)


def test_percentile_shortcuts_and_monotonicity():
    values = [float(i) for i in range(101)]
    assert p50(values) == 50.0
    assert p95(values) == 95.0
    assert p99(values) == 99.0
    samples = [percentile(values, p) for p in range(0, 101, 5)]
    assert samples == sorted(samples)


def test_histogram_percentile_edge_cases():
    empty = obs_metrics.Histogram("empty")
    assert empty.count == 0 and empty.mean == 0.0
    assert empty.percentile(50) == 0.0
    data = empty.as_dict()
    assert data["p50"] == data["p95"] == data["p99"] == 0.0
    assert data["min"] is None and data["max"] is None

    single = obs_metrics.Histogram("single")
    single.observe(42.0)
    for p in (0, 50, 95, 99, 100):
        assert single.percentile(p) == 42.0
    data = single.as_dict()
    assert data["min"] == data["max"] == data["mean"] == 42.0

    equal = obs_metrics.Histogram("equal")
    for _ in range(100):
        equal.observe(7.5)
    for p in (0, 1, 50, 99, 100):
        assert equal.percentile(p) == 7.5
    data = equal.as_dict()
    assert data["p50"] == data["p95"] == data["p99"] == 7.5
    assert data["count"] == 100 and data["sum"] == pytest.approx(750.0)


# -- metrics ------------------------------------------------------------------------


def test_metrics_null_sink_by_default():
    registry = obs.get_registry()
    assert not registry.enabled
    assert registry.counter("x") is obs_metrics.NULL_INSTRUMENT
    registry.counter("x").inc()
    registry.histogram("h").observe(1.0)
    assert registry.as_dict() == {}
    assert registry.summary_lines() == []


def test_metrics_registry_records():
    registry = obs.enable_metrics()
    registry.counter("c").inc()
    registry.counter("c").inc(4)
    registry.gauge("g").set(2.5)
    for value in (1.0, 2.0, 3.0, 4.0):
        registry.histogram("h").observe(value)
    data = registry.as_dict()
    assert data["counters"]["c"] == 5
    assert data["gauges"]["g"] == 2.5
    hist = data["histograms"]["h"]
    assert hist["count"] == 4 and hist["sum"] == 10.0
    assert hist["min"] == 1.0 and hist["max"] == 4.0
    assert hist["p50"] == pytest.approx(2.5)
    assert any("c: 5" in line for line in registry.summary_lines())
    obs.disable_metrics()
    assert obs.get_registry() is obs_metrics.NULL_REGISTRY


def test_kernel_syscall_metrics():
    registry = obs.enable_metrics()
    spec = matmul_spec(8)
    compiled = compile_benchmark(spec, ("native",), cache=False)
    run_compiled(compiled, "native", runs=1)
    counters = registry.as_dict()["counters"]
    assert counters["kernel.syscalls"] >= 1
    assert any(name.startswith("kernel.syscall.") and
               name != "kernel.syscalls" for name in counters)
    hist = registry.as_dict()["histograms"]["kernel.syscall.cycles"]
    assert hist["count"] == counters["kernel.syscalls"]


def test_compile_cache_metrics():
    registry = obs.enable_metrics()
    cache = CompileCache(use_disk=False)
    key = cache.key("pipeline", "source")
    assert cache.get(key) is None
    cache.put(key, {"artifact": 1})
    assert cache.get(key) == {"artifact": 1}
    cache.clear_memory()
    counters = registry.as_dict()["counters"]
    assert counters["cache.misses"] == 1
    assert counters["cache.stores"] == 1
    assert counters["cache.memory_hits"] == 1
    assert counters["cache.evictions"] == 1
    line = cache.stats.summary_line()
    assert "1 hits" in line and "1 misses" in line


# -- the cycle model ----------------------------------------------------------------


def _counters(**values):
    counters = PerfCounters()
    for field, value in values.items():
        setattr(counters, field, value)
    return counters


def test_cycle_model_is_linear():
    # I-cache misses are a cache-model input, passed as a parameter (the
    # counter itself lives on RunResult / the hwc model, not on the
    # retired-event PerfCounters).
    a = _counters(instructions=1000, loads=300, stores=100, branches=80,
                  muls=20, divs=4, calls=11)
    b = _counters(instructions=777, loads=123, stores=45, branches=67,
                  fdivs=8, fpu_ops=90, calls=2)
    merged = PerfCounters()
    merged.merge(a)
    merged.merge(b)
    assert merged.cycles(7 + 1) == pytest.approx(
        a.cycles(7) + b.cycles(1), rel=1e-12)
    # Scaling every event count by k scales cycles by k.
    k = 13
    scaled = PerfCounters()
    for _ in range(k):
        scaled.merge(a)
    assert scaled.cycles(k * 7) == pytest.approx(k * a.cycles(7),
                                                 rel=1e-12)
    assert PerfCounters().cycles() == 0.0


# -- profile attribution ------------------------------------------------------------


def _assert_partitions(report, machine):
    """The per-function buckets sum exactly to the machine's counters
    and i-cache totals."""
    for field in PerfCounters.__slots__:
        assert sum(getattr(c, field) for c in report.functions.values()) \
            == getattr(machine.perf, field), field
    for field in ("accesses", "misses"):
        assert sum(getattr(c, f"icache_{field}")
                   for c in report.functions.values()) == \
            getattr(machine.icache, field), field


def test_machine_profile_totals_are_exact():
    attribution = Attribution()
    rax, out, machine = _run_native(attribution)
    assert rax == 0
    profile = attribution.report()
    profile.verify()
    assert {"main", "square"} <= set(profile.functions)
    _assert_partitions(profile, machine)
    # Per-opcode instruction counts partition each function's retired
    # instructions.
    for name, counters in profile.functions.items():
        assert sum(profile.opcodes[name].values()) == \
            counters.instructions, name
    hot = profile.hot_functions()
    assert hot[0][1].instructions == \
        max(c.instructions for c in profile.functions.values())


def test_profiling_does_not_perturb_execution():
    rax_plain, out_plain, machine_plain = _run_native(None)
    rax_prof, out_prof, machine_prof = _run_native(Attribution())
    assert rax_plain == rax_prof
    assert out_plain == out_prof
    for field in PerfCounters.__slots__:
        assert getattr(machine_plain.perf, field) == \
            getattr(machine_prof.perf, field), field


def _call_chain(mid_call, leaf_body=()):
    """main saves a register and calls mid; mid loads a zero divisor
    and a bad code address, then runs ``mid_call``; leaf runs
    ``leaf_body``."""
    program = X86Program("t", 1 << 16)
    for name, body in (
            ("leaf", list(leaf_body)),
            ("mid", [Instr("mov", Reg(RCX), Imm(0)),
                     Instr("mov", Reg(RSI), Imm(0xDEAD)), mid_call]),
            ("main", [Instr("push", Reg(RBX)),
                      Instr("call", Label("mid")),
                      Instr("pop", Reg(RBX))])):
        func = program.new_function(name)
        for ins in body + [Instr("ret")]:
            func.emit(ins)
    program.layout()
    return program


@pytest.mark.parametrize("instrument", [Attribution, HwcModel])
@pytest.mark.parametrize("trap", [
    Instr("idiv", Reg(RCX, 4), size=4),
    Instr("mov", Mem(base=RAX, disp=1 << 40, size=8), Reg(RAX)),
], ids=["divide-by-zero", "out-of-bounds-store"])
def test_attribution_is_exact_after_a_trap_two_calls_deep(instrument,
                                                          trap):
    body = [Instr("mov", Reg(RAX), Imm(7)), Instr("cdq"), trap]
    program = _call_chain(Instr("call", Label("leaf")), body)
    model = instrument()
    machine = X86Machine(program, hwc=model)
    with pytest.raises(TrapError, match=r"\[in leaf at #2"):
        machine.call("main", setup_regs=False)
    report = model.report()
    report.verify()
    _assert_partitions(report, machine)
    # The trapping instruction retired in leaf and is charged there.
    assert report.opcodes["leaf"] == Counter(ins.op for ins in body)
    assert report.functions["leaf"].instructions == 3
    assert report.functions["mid"].instructions == 3
    assert report.functions["main"].instructions == 2
    assert report.functions["main"].calls == 1
    assert report.functions["mid"].calls == 1
    assert list(report.functions) == ["main", "mid", "leaf"]


@pytest.mark.parametrize("instrument", [Attribution, HwcModel])
@pytest.mark.parametrize("call", [
    Instr("callr", Reg(RSI)), Instr("call", Label("nowhere")),
], ids=["callr-bad-address", "call-unknown"])
def test_attribution_stays_with_the_caller_of_a_failed_call(instrument,
                                                            call):
    program = _call_chain(call)
    model = instrument()
    machine = X86Machine(program, hwc=model)
    with pytest.raises(TrapError, match=r"\[in mid at #2"):
        machine.call("main", setup_regs=False)
    report = model.report()
    report.verify()
    _assert_partitions(report, machine)
    # No bucket for a target that was never entered: the failed call
    # is charged to the function it retired in.
    assert list(report.functions) == ["main", "mid"]
    assert list(getattr(report, "events", report.functions)) == \
        ["main", "mid"]
    assert report.opcodes["mid"] == {"mov": 2, call.op: 1}
    assert report.functions["mid"].calls == 1


def test_profile_benchmark_attribution_matches_whole_program():
    comparison = profile_benchmark(matmul_spec(8), target="chrome",
                                   cache=False)
    comparison.native_profile.verify()   # exactness, both builds
    comparison.target_profile.verify()
    rows = comparison.function_rows()
    assert any(name == "matmul" for name, _n, _t in rows)
    table = comparison.render_table()
    assert "matmul" in table and "native -> chrome" in table
    events = comparison.render_events()
    for event, _raw, _summary in EVENT_TABLE:
        assert event in events
    annotated = comparison.annotate()
    assert ";; matmul:" in annotated.replace("     ;;", ";;")
    assert "perf annotate" in annotated


def test_verify_detects_mismatch():
    comparison = profile_benchmark(matmul_spec(8), target="chrome",
                                   cache=False)
    comparison.target_profile.functions["matmul"].instructions += 1
    with pytest.raises(AssertionError):
        comparison.target_profile.verify()


# -- the invisibility invariant -----------------------------------------------------


def test_enabling_observability_changes_nothing():
    """Tracing + metrics + profiling on: identical results, counters,
    and synthesized timings versus the fully disabled path."""
    spec = matmul_spec(8)
    compiled = compile_benchmark(spec, ("native", "chrome"), cache=False)
    baseline = {target: run_compiled(compiled, target, runs=3)
                for target in ("native", "chrome")}

    obs.enable_tracing()
    obs.enable_metrics()
    observed = {}
    for target in ("native", "chrome"):
        observed[target] = run_compiled(compiled, target, runs=3,
                                        hwc=Attribution())
    obs.disable_tracing()
    obs.disable_metrics()

    for target in ("native", "chrome"):
        base, seen = baseline[target], observed[target]
        assert seen.run.stdout == base.run.stdout
        assert seen.run.exit_code == base.run.exit_code
        assert seen.times == base.times            # bit-identical noise
        for field in PerfCounters.__slots__:
            assert getattr(seen.run.perf, field) == \
                getattr(base.run.perf, field), (target, field)
        assert seen.run.overhead_cycles == base.run.overhead_cycles
        assert seen.run.syscalls == base.run.syscalls
