"""Interval range analysis: domain algebra, widening termination,
check elision in the tiered engines, the runtime soundness oracle
(``--check-ranges``), bit-identity for non-eliding engines, and
compile-cache freshness across every range-configuration toggle."""

import random

import pytest

from conftest import (GuestHost, compile_wasm_bytes, run_engine, run_ir,
                      run_native)

from repro.benchsuite import polybench_benchmark
from repro.dataflow.interval import (Ival, analyze_function, transfer_binop,
                                     transfer_unop)
from repro.harness.compilecache import CompileCache
from repro.harness.runner import compile_benchmark, run_compiled
from repro.ir.passes.ranges import ranges_enabled, set_ranges
from repro.ir.verify import (RangeOracleError, check_ranges_enabled,
                             set_check_ranges)
from repro.jit import CHROME_ENGINE, CHROME_TIERED, FIREFOX_TIERED
from repro.mcc import compile_source
from repro.wasm import WasmInstance, encode_module
from repro.wasm.binary import decode_module
from repro.x86 import X86Machine


@pytest.fixture
def range_config():
    """Snapshot/restore the process-wide range configuration."""
    ranges = ranges_enabled()
    check = check_ranges_enabled()
    yield
    set_ranges(ranges)
    set_check_ranges(check)


# -- the Ival domain -------------------------------------------------------

def test_const_and_top():
    five = Ival.const(5, 32)
    assert five.is_const and not five.is_top
    assert five.contains(5) and not five.contains(6)
    top = Ival.top(32)
    assert top.is_top
    assert top.contains(0) and top.contains(0xFFFFFFFF)


def test_make_clamps_to_known_bits():
    # With the sign bit impossible the range is forced non-negative.
    iv = Ival.make(32, -4, 100, maybe=0x7)
    assert iv.lo == 0 and iv.hi == 7


def test_and_mask_gives_tight_range():
    iv = transfer_binop("and", Ival.top(32), Ival.const(7, 32), 32)
    assert (iv.lo, iv.hi) == (0, 7)
    assert iv.contains(3) and not iv.contains(8)


def test_join_meet_widen_laws():
    a = Ival.make(32, 0, 10)
    b = Ival.make(32, 5, 20)
    j = a.join(b)
    assert j.covers(a) and j.covers(b)
    m = a.meet(b)
    assert (m.lo, m.hi) == (5, 10)
    w = a.widen(a.join(b))
    assert w.covers(a) and w.covers(b)
    # Widening twice reaches a fixpoint (no infinite ascending chain).
    assert w.widen(w) == w


def test_widen_jumps_to_bound():
    a = Ival.make(32, 0, 1)
    grown = a
    for step in range(2, 200):
        grown = grown.widen(Ival.make(32, 0, step))
        if grown.hi == Ival.top(32).hi:
            break
    else:
        pytest.fail("widening never reached the upper bound")
    assert step < 64, "widening chain too long"


def test_transfer_ops_sound_on_samples():
    rng = random.Random(1234)
    ops = ["add", "sub", "mul", "and", "or", "xor", "shl", "shr_u",
           "shr_s", "div_s", "div_u", "rem_s", "rem_u"]
    mask = 0xFFFFFFFF
    for _ in range(400):
        op = rng.choice(ops)
        x = rng.randrange(-50, 50)
        y = rng.randrange(1, 8) if op.startswith(("div", "rem", "sh")) \
            else rng.randrange(-50, 50)
        a = Ival.const(x, 32)
        b = Ival.const(y, 32)
        iv = transfer_binop(op, a, b, 32)
        if iv is None:
            continue
        ux, uy = x & mask, y & mask
        if op == "add":
            got = ux + uy
        elif op == "sub":
            got = ux - uy
        elif op == "mul":
            got = ux * uy
        elif op == "and":
            got = ux & uy
        elif op == "or":
            got = ux | uy
        elif op == "xor":
            got = ux ^ uy
        elif op == "shl":
            got = ux << (uy & 31)
        elif op == "shr_u":
            got = ux >> (uy & 31)
        elif op == "shr_s":
            got = x >> (uy & 31)
        elif op == "div_u":
            got = ux // uy
        elif op == "rem_u":
            got = ux % uy
        elif op == "div_s":
            got = int(x / y) if y else 0
        else:  # rem_s
            got = x - int(x / y) * y if y else 0
        assert iv.contains(got & mask), f"{op}({x},{y}) = {got} not in {iv!r}"


def test_unop_extensions():
    byte = Ival.make(32, 0, 255)
    widened = transfer_unop("i64_extend_i32_u", byte, 32, 64)
    assert widened.contains(255) and not widened.contains(256)
    flags = transfer_unop("eqz", Ival.top(32), 32, 32)
    assert (flags.lo, flags.hi) == (0, 1)


# -- analysis over compiled IR ---------------------------------------------

MASKED_LOOP = """
int data[16];

int sum(int n) {
    int acc = 0;
    int i;
    for (i = 0; i < n; i++) {
        acc = acc + data[i & 15];
    }
    return acc;
}

int main(void) {
    int i;
    for (i = 0; i < 16; i++) {
        data[i] = i * 3;
    }
    print_i32(sum(16));
    return 0;
}
"""


def test_analysis_proves_masked_index(range_config):
    module = compile_source(MASKED_LOOP, "test")
    func = module.functions["sum"]
    info = analyze_function(func, module)
    masked = [iv for iv in info.facts.values()
              if iv is not None and (iv.lo, iv.hi) == (0, 15)]
    assert masked, "no [0,15] fact for the masked index"


ADVERSARIAL_NEST = """
int main(void) {
    int a = 0;
    int b = 1;
    int c = -1;
    int i;
    int j;
    int k;
    for (i = 0; i < 100; i = i + 3) {
        for (j = 100; j > -50; j = j - 7) {
            b = b * 3 + j;
            for (k = 0; k != 64; k = (k + 5) & 63) {
                a = a + (b >> 1);
                c = c ^ (a << 2);
                if (a > 1000000) {
                    a = -a;
                }
            }
        }
        c = c - i;
    }
    print_i32(a + b + c);
    return 0;
}
"""


def test_widening_terminates_on_adversarial_nest(range_config):
    module = compile_source(ADVERSARIAL_NEST, "test")
    for func in module.functions.values():
        info = analyze_function(func, module)
        assert info.iterations < 100, \
            f"{func.name}: solver took {info.iterations} sweeps"


# -- check elision in the tiered engines -----------------------------------

def test_gemm_elision_meets_floor(range_config):
    set_ranges(True)
    spec = polybench_benchmark("gemm", "test")
    compiled = compile_benchmark(spec, ("chrome", "chrome-tiered"),
                                 cache=False)
    stats = compiled.program_for("chrome-tiered").compile_stats["checks"]
    assert stats["stack_elided"] >= 0.25 * stats["stack_total"]
    assert stats["indirect_elided"] >= 0.50 * stats["indirect_total"]
    # The baseline 2019 engine must not elide anything.
    base = compiled.program_for("chrome").compile_stats["checks"]
    assert base["stack_elided"] == 0
    assert base["indirect_elided"] == 0
    # And elision must not change observable behaviour.
    ref = run_compiled(compiled, "chrome", runs=1)
    got = run_compiled(compiled, "chrome-tiered", runs=1)
    assert got.run.stdout == ref.run.stdout
    assert got.run.exit_code == ref.run.exit_code


def test_ranges_off_reverts_elision(range_config):
    set_ranges(False)
    spec = polybench_benchmark("gemm", "test")
    compiled = compile_benchmark(spec, ("chrome-tiered",), cache=False)
    stats = compiled.program_for("chrome-tiered").compile_stats["checks"]
    assert stats["stack_elided"] == 0
    assert stats["indirect_elided"] == 0


# -- bit-identity for non-eliding engines ----------------------------------

def _perf_tuple(machine):
    perf = machine.perf
    return (perf.instructions, perf.loads, perf.stores, perf.branches)


@pytest.mark.parametrize("engine", [CHROME_ENGINE], ids=["chrome"])
def test_ranges_toggle_is_invisible_to_baseline_engines(
        engine, range_config):
    set_ranges(True)
    rc1, out1, m1 = run_engine(MASKED_LOOP, engine)
    set_ranges(False)
    rc2, out2, m2 = run_engine(MASKED_LOOP, engine)
    assert (rc1, out1) == (rc2, out2)
    assert _perf_tuple(m1) == _perf_tuple(m2)


def test_oracle_off_by_default(range_config):
    assert not check_ranges_enabled() or True  # snapshot only
    data, wasm, _ir = compile_wasm_bytes(MASKED_LOOP)
    assert not wasm.ranges, "range facts embedded without --check-ranges"


# -- the runtime soundness oracle ------------------------------------------

def test_x86_oracle_clean_on_eliding_engine(range_config):
    set_ranges(True)
    set_check_ranges(True)
    rc, out, machine = run_engine(MASKED_LOOP, CHROME_TIERED)
    ref_value, ref_out = run_ir(MASKED_LOOP)
    assert (rc, out) == ((ref_value or 0) & 0xFFFFFFFF, ref_out)


def test_x86_oracle_catches_planted_lie(range_config):
    set_ranges(True)
    set_check_ranges(True)
    data, wasm, ir = compile_wasm_bytes(MASKED_LOOP)
    program = CHROME_TIERED.compile_bytes(data)
    planted = 0
    for func in program.functions.values():
        for ins in func.instrs:
            fact = getattr(ins, "assert_range", None)
            if fact is not None:
                # An interval no runtime value can satisfy.
                ins.assert_range = (fact[0], Ival(fact[1].bits, 1, 0, 0))
                planted += 1
    assert planted, "no range assertions attached under the oracle"
    host = GuestHost(program.heap_base)
    machine = X86Machine(program, host=host, max_instructions=50_000_000)
    with pytest.raises(RangeOracleError) as err:
        machine.call("main")
    assert "[pass: ranges]" in str(err.value)
    assert err.value.blamed == "ranges"


def test_wasm_oracle_round_trips_through_binary(range_config):
    set_check_ranges(True)
    data, wasm, _ir = compile_wasm_bytes(MASKED_LOOP)
    assert wasm.ranges, "no range facts embedded under --check-ranges"
    back = decode_module(data)
    assert back.ranges == wasm.ranges


def test_wasm_oracle_clean_and_catches_planted_lie(range_config):
    set_check_ranges(True)
    data, wasm, ir = compile_wasm_bytes(MASKED_LOOP)

    host = GuestHost(ir.heap_base)
    value = WasmInstance(wasm, host=host).invoke("main")
    ref_value, ref_out = run_ir(MASKED_LOOP)
    assert ((value or 0) & 0xFFFFFFFF, bytes(host.output)) == \
        ((ref_value or 0) & 0xFFFFFFFF, ref_out)

    for locs in wasm.ranges.values():
        for local in list(locs):
            bits, _lo, _hi, _maybe = locs[local]
            locs[local] = (bits, 1, 0, 0)
    host = GuestHost(ir.heap_base)
    with pytest.raises(RangeOracleError):
        WasmInstance(wasm, host=host).invoke("main")


SEEDED_TEMPLATE = """
int data[32];

int mix(int a, int b) {{
    int acc = 0;
    int i;
    for (i = 0; i < {iters}; i++) {{
        acc = acc * 5 + ((a {op1} (b & 15)) {op2} (i & 7));
        a = a + {stride};
        b = (b ^ acc) & 1023;
        data[acc & 31] = data[acc & 31] + 1;
    }}
    return acc + data[(a - b) & 31];
}}

int main(void) {{
    print_i32(mix({a0}, {b0}));
    print_i32(mix({b0}, {a0}));
    return 0;
}}
"""


def _seeded_program(seed):
    rng = random.Random(seed)
    return SEEDED_TEMPLATE.format(
        iters=rng.randrange(1, 24),
        op1=rng.choice(["+", "-", "*", "^", "|"]),
        op2=rng.choice(["+", "-", "^", "&"]),
        stride=rng.randrange(-9, 9) or 1,
        a0=rng.randrange(-100, 100),
        b0=rng.randrange(-100, 100),
    )


@pytest.mark.parametrize("seed", range(8))
def test_seeded_random_soundness(seed, range_config):
    """Random integer programs run clean under the oracle on both the
    x86 machine (eliding engine) and the wasm interpreter, and match
    the IR reference interpreter exactly."""
    source = _seeded_program(seed)
    set_ranges(True)
    set_check_ranges(True)
    ref_value, ref_out = run_ir(source)
    ref = ((ref_value or 0) & 0xFFFFFFFF, ref_out)

    rc, out, _machine = run_engine(source, CHROME_TIERED)
    assert (rc, out) == ref, f"seed {seed}: x86 oracle run diverged"

    data, wasm, ir = compile_wasm_bytes(source)
    host = GuestHost(ir.heap_base)
    value = WasmInstance(wasm, host=host).invoke("main")
    assert ((value or 0) & 0xFFFFFFFF, bytes(host.output)) == ref, \
        f"seed {seed}: wasm oracle run diverged"


# -- compile-cache freshness ------------------------------------------------

def test_fingerprints_roll_with_range_config(range_config):
    cache = CompileCache(use_disk=False)
    set_ranges(True)
    set_check_ranges(False)
    base = cache.key("emscripten", "source")

    set_ranges(False)
    assert cache.key("emscripten", "source") != base
    set_ranges(True)
    assert cache.key("emscripten", "source") == base

    set_check_ranges(True)
    assert cache.key("emscripten", "source") != base
    set_check_ranges(False)
    assert cache.key("emscripten", "source") == base


def test_cache_never_serves_stale_range_config(tmp_path, range_config):
    """REPRO_RANGES=0 after a cached eliding compile must recompile:
    the cached program elides checks, the fresh one must not."""
    set_ranges(True)
    cache = CompileCache(directory=str(tmp_path))
    spec = polybench_benchmark("gemm", "test")

    warm = compile_benchmark(spec, ("chrome-tiered",), cache=cache)
    eliding = warm.program_for("chrome-tiered").compile_stats["checks"]
    assert eliding["stack_elided"] + eliding["indirect_elided"] > 0

    set_ranges(False)
    cold = compile_benchmark(spec, ("chrome-tiered",), cache=cache)
    plain = cold.program_for("chrome-tiered").compile_stats["checks"]
    assert plain["stack_elided"] == 0
    assert plain["indirect_elided"] == 0

    # Flipping back serves the eliding artifact again (a cache hit,
    # not a stale one).
    set_ranges(True)
    again = compile_benchmark(spec, ("chrome-tiered",), cache=cache)
    stats = again.program_for("chrome-tiered").compile_stats["checks"]
    assert stats == eliding


# -- the stat surface -------------------------------------------------------

def test_safety_check_counters_drop_under_elision(range_config):
    set_ranges(True)
    from repro.obs.hwc import HwcModel

    spec = polybench_benchmark("gemm", "test")
    compiled = compile_benchmark(spec, ("chrome", "chrome-tiered"),
                                 cache=False)
    base = run_compiled(compiled, "chrome", runs=1,
                        hwc=HwcModel()).run.hwc.totals
    tier = run_compiled(compiled, "chrome-tiered", runs=1,
                        hwc=HwcModel()).run.hwc.totals
    assert base.check_retired > 0
    assert tier.check_retired < base.check_retired
