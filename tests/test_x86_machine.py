"""Simulated x86-64 machine unit tests."""

import gc
import pickle
import struct
import sys
import time
import weakref

import pytest

from conftest import every_block_generated

from repro.benchsuite import spec_benchmark
from repro.browser.browser import execute_program
from repro.codegen import compile_native
from repro.errors import CellTimeout, FuelExhausted, SyscallError, TrapError
from repro.harness.runner import compile_benchmark
from repro.ir.types import FuncType
from repro.kernel import Kernel, NativeRuntime
from repro.mcc import compile_source
from repro.x86 import ICache, Imm, Instr, Label, Mem, Reg, X86Machine, X86Program
from repro.x86.registers import (
    R8, R9, R10, R11, R12, R13, R14, R15, RAX, RBP, RBX, RCX, RDI, RDX,
    RSI, XMM0, xmm,
)

_I = Instr

LOOP_SOURCE = """
int main(void) {
    int i = 0;
    int s = 0;
    while (i < 500000) {
        s = s + i;
        i = i + 1;
    }
    return s & 255;
}
"""

LOOP_PRINT_SOURCE = """
int main(void) {
    int i; int s = 0;
    for (i = 0; i < 50; i++) { s = s * 3 + i; }
    print_i32(s);
    return 0;
}
"""


def build_program(instrs, name="f", linear_size=1 << 16):
    program = X86Program("t", linear_size)
    func = program.new_function(name)
    for ins in instrs:
        if isinstance(ins, str):
            func.label(ins)
        else:
            func.emit(ins)
    program.layout()
    return program


def run(instrs, setup=None, **kwargs):
    program = build_program(list(instrs) + [_I("ret")])
    machine = X86Machine(program, **kwargs)
    if setup:
        setup(machine)
    machine.call("f", setup_regs=False)
    return machine


def test_mov_and_alu():
    m = run([
        _I("mov", Reg(RAX), Imm(10)),
        _I("mov", Reg(RBX), Imm(32)),
        _I("add", Reg(RAX), Reg(RBX)),
    ])
    assert m.regs[RAX] == 42


def test_32bit_write_zero_extends():
    m = run([
        _I("mov", Reg(RAX), Imm(-1)),
        _I("mov", Reg(RBX, 4), Reg(RAX, 4), size=4),
    ])
    assert m.regs[RBX] == 0xFFFFFFFF


def test_sub_sets_flags_for_signed_compare():
    m = run([
        _I("mov", Reg(RAX), Imm(-5)),
        _I("cmp", Reg(RAX, 4), Imm(3), size=4),
        _I("setcc", Reg(RBX), cond="l"),
        _I("setcc", Reg(RCX), cond="b"),   # unsigned: -5 is huge
    ])
    assert m.regs[RBX] == 1
    assert m.regs[RCX] == 0


def test_memory_store_load_roundtrip():
    m = run([
        _I("mov", Reg(RAX), Imm(0x11223344)),
        _I("mov", Mem(disp=0x100, size=4), Reg(RAX), size=4),
        _I("movzx", Reg(RBX, 8), Mem(disp=0x101, size=1), size=8),
    ])
    assert m.regs[RBX] == 0x33


def test_movsx_sign_extends():
    m = run([
        _I("mov", Reg(RAX), Imm(0x80)),
        _I("mov", Mem(disp=0x40, size=1), Reg(RAX), size=1),
        _I("movsx", Reg(RBX, 4), Mem(disp=0x40, size=1), size=4),
    ])
    assert m.regs[RBX] == 0xFFFFFF80


def test_scaled_index_addressing():
    def setup(m):
        m.write_mem(0x200 + 3 * 4, (99).to_bytes(4, "little"))

    m = run([
        _I("mov", Reg(RSI), Imm(3)),
        _I("mov", Reg(RAX, 4), Mem(index=RSI, scale=4, disp=0x200, size=4),
           size=4),
    ], setup=setup)
    assert m.regs[RAX] == 99


def test_rmw_memory_destination_counts_load_and_store():
    m = run([
        _I("mov", Mem(disp=0x80, size=4), Imm(5), size=4),
        _I("add", Mem(disp=0x80, size=4), Imm(7), size=4),
        _I("mov", Reg(RAX, 4), Mem(disp=0x80, size=4), size=4),
    ])
    assert m.regs[RAX] == 12
    assert m.perf.loads == 3    # RMW load + final load + ret
    assert m.perf.stores == 2   # initial store + RMW store


def test_idiv_signed():
    m = run([
        _I("mov", Reg(RAX), Imm(-7 & 0xFFFFFFFF)),
        _I("cdq"),
        _I("mov", Reg(RBX), Imm(2)),
        _I("idiv", Reg(RBX, 4), size=4),
    ])
    assert m.regs[RAX] == (-3) & 0xFFFFFFFF
    assert m.regs[RDX] == (-1) & 0xFFFFFFFF


def test_div_by_zero_traps():
    with pytest.raises(TrapError):
        run([
            _I("mov", Reg(RAX), Imm(1)),
            _I("cdq"),
            _I("mov", Reg(RBX), Imm(0)),
            _I("idiv", Reg(RBX, 4), size=4),
        ])


def test_shifts():
    m = run([
        _I("mov", Reg(RAX), Imm(0x80000000)),
        _I("sar", Reg(RAX, 4), Imm(4), size=4),
        _I("mov", Reg(RBX), Imm(0x80000000)),
        _I("shr", Reg(RBX, 4), Imm(4), size=4),
        _I("mov", Reg(RCX), Imm(3)),
        _I("shl", Reg(RCX, 4), Imm(2), size=4),
    ])
    assert m.regs[RAX] == 0xF8000000
    assert m.regs[RBX] == 0x08000000
    assert m.regs[RCX] == 12


def test_variable_shift_uses_cl():
    m = run([
        _I("mov", Reg(RAX), Imm(1)),
        _I("mov", Reg(RCX), Imm(5)),
        _I("shl", Reg(RAX, 4), Reg(RCX, 1), size=4),
    ])
    assert m.regs[RAX] == 32


def test_jcc_and_jmp():
    m = run([
        _I("mov", Reg(RAX), Imm(0)),
        _I("mov", Reg(RBX), Imm(0)),
        "loop",
        _I("add", Reg(RAX), Imm(1)),
        _I("add", Reg(RBX), Reg(RAX)),
        _I("cmp", Reg(RAX, 4), Imm(10), size=4),
        _I("jcc", Label("loop"), cond="l"),
    ])
    assert m.regs[RBX] == 55
    assert m.perf.cond_branches == 10


def test_call_and_ret():
    program = X86Program("t", 1 << 16)
    callee = program.new_function("callee")
    callee.emit(_I("mov", Reg(RAX), Imm(7)))
    callee.emit(_I("ret"))
    caller = program.new_function("caller")
    caller.emit(_I("call", Label("callee")))
    caller.emit(_I("add", Reg(RAX), Imm(1)))
    caller.emit(_I("ret"))
    program.layout()
    machine = X86Machine(program)
    rax, _ = machine.call("caller", setup_regs=False)
    assert rax == 8
    assert machine.perf.calls == 1


def test_indirect_call_through_table():
    program = X86Program("t", 1 << 16)
    target = program.new_function("target")
    target.emit(_I("mov", Reg(RAX), Imm(123)))
    target.emit(_I("ret"))
    table = program.add_call_table([("target", 0)], with_sig=False)
    caller = program.new_function("caller")
    caller.emit(_I("mov", Reg(RSI), Imm(0)))
    caller.emit(_I("callr", Mem(index=RSI, scale=8, disp=table, size=8)))
    caller.emit(_I("ret"))
    program.layout()
    machine = X86Machine(program)
    rax, _ = machine.call("caller", setup_regs=False)
    assert rax == 123


def test_indirect_call_to_garbage_traps():
    program = X86Program("t", 1 << 16)
    caller = program.new_function("caller")
    caller.emit(_I("mov", Reg(RSI), Imm(0xDEAD)))
    caller.emit(_I("callr", Reg(RSI)))
    caller.emit(_I("ret"))
    program.layout()
    with pytest.raises(TrapError):
        X86Machine(program).call("caller", setup_regs=False)


def test_float_arithmetic():
    program = X86Program("t", 1 << 16)
    a = program.f64_constant(2.5)
    b = program.f64_constant(4.0)
    func = program.new_function("f")
    func.emit(_I("movsd", Reg(xmm(1)), Mem(disp=a, size=8)))
    func.emit(_I("mulsd", Reg(xmm(1)), Mem(disp=b, size=8)))
    func.emit(_I("movsd", Reg(XMM0), Reg(xmm(1))))
    func.emit(_I("ret"))
    program.layout()
    machine = X86Machine(program)
    _, x = machine.call("f", setup_regs=False)
    assert x == 10.0


def test_ucomisd_sets_carry_for_less_than():
    program = X86Program("t", 1 << 16)
    a = program.f64_constant(1.0)
    b = program.f64_constant(2.0)
    func = program.new_function("f")
    func.emit(_I("movsd", Reg(xmm(1)), Mem(disp=a, size=8)))
    func.emit(_I("ucomisd", Reg(xmm(1)), Mem(disp=b, size=8)))
    func.emit(_I("setcc", Reg(RAX), cond="b"))
    func.emit(_I("ret"))
    program.layout()
    machine = X86Machine(program)
    rax, _ = machine.call("f", setup_regs=False)
    assert rax == 1


def test_cvt_roundtrip():
    m = run([
        _I("mov", Reg(RSI), Imm(-9)),
        _I("cvtsi2sd", Reg(xmm(2)), Reg(RSI, 4), size=4),
        _I("cvttsd2si", Reg(RAX, 4), Reg(xmm(2)), size=4),
    ])
    assert m.regs[RAX] == (-9) & 0xFFFFFFFF


def test_push_pop():
    m = run([
        _I("mov", Reg(RAX), Imm(77)),
        _I("push", Reg(RAX)),
        _I("mov", Reg(RAX), Imm(0)),
        _I("pop", Reg(RBX)),
    ])
    assert m.regs[RBX] == 77


def test_instruction_budget_guards_runaway():
    with pytest.raises(TrapError):
        run([
            "spin",
            _I("jmp", Label("spin")),
        ], max_instructions=1000)


def test_perf_counters_basic():
    m = run([
        _I("mov", Reg(RAX, 4), Mem(disp=0x10, size=4), size=4),
        _I("mov", Mem(disp=0x20, size=4), Reg(RAX), size=4),
        _I("jmp", Label("end")),
        "end",
    ])
    assert m.perf.loads == 2     # the explicit load + ret's stack pop
    assert m.perf.stores == 1
    assert m.perf.branches == 2  # jmp + ret
    assert m.perf.instructions == 4
    assert m.perf.cycles() > 0


def test_trap_message_includes_context():
    try:
        run([_I("mov", Reg(RAX, 4), Mem(disp=1 << 30, size=4), size=4)])
        assert False
    except TrapError as exc:
        assert "in f at #" in str(exc)


class TestICache:
    def test_sequential_fetch_same_line_is_filtered(self):
        cache = ICache(size=1024, ways=4)
        cache.fetch(0x100, 4)
        cache.fetch(0x104, 4)
        cache.fetch(0x108, 4)
        assert cache.accesses == 1
        assert cache.misses == 1

    def test_capacity_eviction(self):
        cache = ICache(size=256, line_size=64, ways=2)  # 2 sets
        # Touch 3 lines mapping to set 0: 0x000, 0x080, 0x100.
        for addr in (0x000, 0x080, 0x100, 0x000):
            cache.fetch(addr, 4)
            cache.invalidate_stream()
            cache._last_line = -1
        assert cache.misses == 4  # last access misses again (LRU evicted)

    def test_hit_after_fill(self):
        cache = ICache(size=1024, ways=4)
        cache.fetch(0x100, 4)
        cache._last_line = -1
        cache.fetch(0x100, 4)
        assert cache.misses == 1
        assert cache.accesses == 2

    def test_straddling_fetch_touches_two_lines(self):
        cache = ICache(size=1024, ways=4)
        cache.fetch(0x13E, 8)  # crosses the 0x140 line boundary
        assert cache.accesses == 2


# -- compiled programs carry data segments, not memory images ---------------

@pytest.fixture(scope="module")
def proxies():
    """Two SPEC proxies with four data segments each: (IR module, programs
    compiled for native and chrome)."""
    out = {}
    for name in ("401.bzip2", "464.h264ref"):
        spec = spec_benchmark(name, "test")
        module = compile_source(spec.source, spec.name,
                                memory_size=spec.memory_size)
        compiled = compile_benchmark(spec, ("native", "chrome"), cache=False)
        out[name] = (module, compiled.programs)
    return out


@pytest.mark.parametrize("target", ["native", "chrome"])
def test_compiled_programs_pickle_compactly(proxies, target):
    _module, programs = proxies["401.bzip2"]
    assert len(pickle.dumps(programs[target])) < 1 << 20


@pytest.mark.parametrize("name", ["401.bzip2", "464.h264ref"])
def test_fresh_memory_matches_module_image(proxies, name):
    module, programs = proxies[name]
    assert len(module.data) == 4
    expected = module.initial_memory()
    for target, program in programs.items():
        memory = X86Machine(program).memory
        assert memory[:program.linear_size] == expected, target


# -- the block engine against the reference loop ------------------------------------
#
# ``reference=True`` runs the per-instruction reference loop; the default
# runs the block engine, whose blocks in these small programs mostly stay
# on closures, so each case runs a second time with every block
# generated.  Each test below requires the reference loop and both block
# engine runs to leave the same exception (class and text), every
# PerfCounters field, the same i-cache accesses and misses, and the same
# register files.

class _FailingHost:
    """Host whose every call fails at the OS boundary."""

    def call(self, env, name, args):
        raise SyscallError("EIO", name)


def _outcome(program, reference, entry="f", setup=None, setup_regs=False,
             check=None, **kwargs):
    machine = X86Machine(program, reference=reference, **kwargs)
    if setup:
        setup(machine)
    try:
        machine.call(entry, setup_regs=setup_regs)
        error = None
    except Exception as exc:       # compared verbatim below
        error = (type(exc), str(exc))
    if check:
        check(machine)
    return (error, machine.perf.as_dict(), machine.icache.accesses,
            machine.icache.misses, list(machine.regs),
            [struct.pack("<d", x) for x in machine.xmm])


def assert_blocks_match_reference(program, **kwargs):
    reference = _outcome(program, True, **kwargs)
    assert _outcome(program, False, **kwargs) == reference
    with every_block_generated() as check:
        assert _outcome(program, False, check=check, **kwargs) == reference
    return reference


def _loop_program():
    """Five blocks per iteration, two ending in a compare joined to its
    jcc, over several i-cache lines, with loads, stores, a multiply and
    a call."""
    program = X86Program("t", 1 << 16)
    callee = program.new_function("g")
    callee.emit(_I("imul", Reg(RCX, 4), Imm(3), size=4))
    callee.emit(_I("ret"))
    func = program.new_function("f")
    for ins in [
        _I("mov", Reg(RAX), Imm(0)),
        _I("mov", Reg(RBX), Imm(0)),
        "loop",
        _I("add", Reg(RBX, 4), Reg(RAX, 4), size=4),
        _I("mov", Mem(base=RAX, disp=0x4000, size=8), Reg(RBX)),
        _I("mov", Reg(RCX, 4), Mem(index=RAX, scale=8, disp=0x4000, size=4),
           size=4),
        _I("call", Label("g")),
        _I("test", Reg(RAX, 4), Imm(1), size=4),
        _I("jcc", Label("odd"), cond="ne"),
        _I("add", Reg(RBX, 4), Imm(1000), size=4),
        _I("mov", Mem(disp=0x3000, size=4), Imm(123456789), size=4),
        _I("jmp", Label("next")),
        "odd",
        _I("sub", Reg(RBX, 4), Imm(1), size=4),
        _I("shl", Reg(RCX, 4), Imm(2), size=4),
        "next",
        _I("add", Reg(RAX, 4), Imm(1), size=4),
        _I("cmp", Reg(RAX, 4), Imm(7), size=4),
        _I("jcc", Label("loop"), cond="l"),
        _I("nop"),
        _I("ret"),
    ]:
        if isinstance(ins, str):
            func.label(ins)
        else:
            func.emit(ins)
    program.layout()
    return program


def test_blocks_match_reference_at_every_fuel_budget():
    program = _loop_program()
    error, perf, *_ = assert_blocks_match_reference(program)
    assert error is None
    total = perf["instructions"]
    lines = {ins.addr >> 6 for func in program.functions.values()
             for ins in func.instrs}
    assert total > 80 and len(lines) > 1
    for budget in range(1, total + 2):
        error, perf, *_ = assert_blocks_match_reference(
            program, max_instructions=budget)
        if budget < total:
            assert error[0] is FuelExhausted and "[in " in error[1]
            assert perf["instructions"] == budget + 1
        else:
            assert error is None


def test_reference_loop_is_chosen_per_machine(monkeypatch):
    """No process-wide setting picks the loop: the block engine runs
    unless this machine asks for the reference loop, by ``reference``,
    an instrument or the range oracle, and all four agree."""
    from repro.ir.verify import check_ranges_enabled, set_check_ranges
    from repro.obs.profile import Attribution

    # The deleted process-wide tier variable, set to its old reference
    # value: no machine may read it.
    monkeypatch.setenv("REPRO_" "TIER", "off")
    # set_check_ranges writes this variable; monkeypatch restores it.
    monkeypatch.setenv("REPRO_CHECK_RANGES", "0")
    program = _loop_program()

    def run(**kwargs):
        machine = X86Machine(program, **kwargs)
        machine.call("f")
        return (len(machine._built), machine.perf.as_dict(),
                machine.icache.accesses, machine.icache.misses)

    default = run()
    assert default[0] > 0
    observed = [run(reference=True), run(hwc=Attribution())]
    was_checking = check_ranges_enabled()
    set_check_ranges(True)
    try:
        observed.append(run())
    finally:
        set_check_ranges(was_checking)
    for built, *figures in observed:
        assert built == 0
        assert figures == list(default[1:])


_FAR = 1 << 30      # beyond the machine's memory


@pytest.mark.parametrize("trapping", [
    _I("mov", Reg(RDX, 4), Mem(disp=_FAR, size=4), size=4),
    _I("mov", Mem(base=RSI, disp=_FAR, size=8), Reg(RAX)),
    _I("mov", Mem(base=RSI, index=RAX, scale=4, disp=_FAR, size=1), Imm(7),
       size=1),
    _I("movsd", Reg(xmm(2)), Mem(base=RSI, index=RAX, scale=8, disp=_FAR,
                                 size=8)),
    _I("movsd", Mem(base=RSI, disp=_FAR, size=8), Reg(xmm(1))),
    _I("add", Mem(disp=_FAR, size=4), Imm(7), size=4),
    _I("imul", Reg(RAX, 4), Mem(base=RSI, disp=_FAR, size=4), size=4),
    _I("divsd", Reg(xmm(1)), Mem(disp=_FAR, size=8)),
    _I("cmp", Reg(RAX, 4), Mem(disp=_FAR, size=4), size=4),
    _I("shl", Mem(disp=_FAR, size=4), Imm(1), size=4),
    _I("idiv", Reg(RDI, 4), size=4),
    _I("cvttsd2si", Reg(RAX, 4), Reg(xmm(3)), size=4),
    _I("trap", "unreachable"),
    _I("setcc", Reg(RAX), cond="zz"),
    _I("frob", Reg(RAX)),
    _I("jcc", Label("out"), cond="zz"),
], ids=lambda ins: repr(ins).split()[0])
def test_blocks_match_reference_on_mid_block_trap(trapping):
    """The trapping instruction sits mid-block (a jcc ends its block);
    0-63 three-byte nops move it to every offset in an i-cache line, so
    it both shares the previous instruction's line and touches a new
    one."""
    def nan(machine):
        machine.xmm[3] = float("nan")

    new_line = set()
    for pad in range(64):
        program = build_program([
            _I("mov", Reg(RAX), Imm(5)),
            _I("mov", Reg(RSI), Imm(0x100)),
            _I("mov", Reg(RDI), Imm(0)),
            _I("mov", Mem(base=RSI, disp=8, size=8), Reg(RAX)),
            _I("movsd", Reg(xmm(1)), Mem(base=RSI, disp=8, size=8)),
            _I("ucomisd", Reg(xmm(3)), Reg(xmm(3))),
            _I("mov", Reg(RBX, 4), Mem(base=RSI, disp=8, size=4), size=4),
        ] + [_I("nop")] * pad + [
            _I("cdq"),
            trapping,
            _I("add", Reg(RBX), Imm(1)),
            _I("mov", Mem(base=RSI, disp=16, size=8), Reg(RBX)),
            "out",
            _I("ret"),
        ])
        error, *_ = assert_blocks_match_reference(program, setup=nan)
        assert issubclass(error[0], TrapError)
        assert f"[in f at #{8 + pad}: " in error[1]
        prev, ins = program.functions["f"].instrs[7 + pad:9 + pad]
        new_line.add((ins.addr + ins.enc_size - 1) >> 6 !=
                     (prev.addr + prev.enc_size - 1) >> 6)
    assert new_line == {False, True}


_CONDS = ("e", "ne", "l", "le", "g", "ge", "b", "be", "a", "ae", "s", "ns")


@pytest.mark.parametrize("cond", _CONDS)
def test_blocks_match_reference_on_cmp_branch(cond):
    """Every jcc condition joined to a cmp, on signed, unsigned and equal
    operand pairs, 32- and 64-bit, register and immediate; with the
    flags dead on both paths, and read (by setcc on every flag) after
    the fall-through, the taken branch, or both."""
    values = (-3, -1, 0, 2, 5, 1 << 31, (1 << 63) + 4)

    def readers(reads, *regs):
        return [_I("setcc", Reg(reg), cond=c) for reg, c in
                zip(regs, ("l", "be")) if reads]

    for size in (4, 8):
        for x in values:
            for y in values:
                for imm in (False, True):
                    if imm and not -(1 << 31) <= y < 1 << 31:
                        continue
                    for fall, taken in ((0, 0), (1, 0), (0, 1), (1, 1)):
                        program = build_program([
                            _I("mov", Reg(RAX), Imm(x)),
                            _I("mov", Reg(RBX), Imm(y)),
                            _I("cmp", Reg(RAX, size),
                               Imm(y) if imm else Reg(RBX, size), size=size),
                            _I("jcc", Label("taken"), cond=cond),
                            *readers(fall, R8, R9),
                            _I("mov", Reg(RCX), Imm(1)),
                            _I("xor", Reg(RDX), Reg(RDX)),  # flags dead
                            _I("ret"),
                            "taken",
                            *readers(taken, R10, R11),
                            _I("xor", Reg(RDX), Reg(RDX)),  # flags dead
                            _I("ret"),
                        ])
                        error, *_ = assert_blocks_match_reference(program)
                        assert error is None


@pytest.mark.parametrize("width, access", [
    (4, lambda mem: _I("mov", Reg(RAX, 4), mem, size=4)),
    (8, lambda mem: _I("mov", Reg(RAX), mem)),
    (8, lambda mem: _I("mov", Reg(RAX, 4), mem, size=4)),  # the low half
    (1, lambda mem: _I("mov", Reg(RAX), mem)),
    (2, lambda mem: _I("mov", mem, Reg(RBX, 2), size=2)),
    (8, lambda mem: _I("mov", mem, Reg(RBX))),
    (4, lambda mem: _I("mov", mem, Imm(-5), size=4)),
    (8, lambda mem: _I("movsd", Reg(xmm(1)), mem)),
    (8, lambda mem: _I("movsd", mem, Reg(xmm(1)))),
], ids=["load4", "load8", "load4of8", "load1", "store2", "store8",
        "store-imm4", "movsd-load", "movsd-store"])
def test_blocks_match_reference_at_memory_bounds(width, access):
    """A plain load or store at the last in-bounds address and one byte
    past it, by base register, scaled index or constant address, and
    one whose displacement wraps below zero."""
    end = len(X86Machine(build_program([_I("ret")])).memory)
    for past in (0, 1):
        top = end - width + past
        for mem, wraps in ((Mem(base=RSI, size=width), False),
                           (Mem(base=RDI, index=RCX, scale=8, disp=-16,
                                size=width), False),
                           (Mem(disp=top, size=width), False),
                           (Mem(base=RDX, disp=-8, size=width), True)):
            program = build_program([
                _I("mov", Reg(RSI), Imm(top)),
                _I("mov", Reg(RDI), Imm(top)),
                _I("mov", Reg(RCX), Imm(2)),
                _I("mov", Reg(RBX), Imm(-3)),
                _I("mov", Reg(RDX), Imm(past)),
                access(mem),
                _I("ret"),
            ])
            error, *_ = assert_blocks_match_reference(program)
            assert (error is None) == (not past and not wraps), (mem, past)


def test_blocks_match_reference_on_inline_kinds():
    """Every kind generated code runs inline, on operands with their
    upper bits set, each result left in a register of its own, so every
    mask and wrap shows in the register file."""
    program = build_program([
        _I("mov", Reg(RAX), Imm(-3)),
        _I("mov", Reg(RBX), Imm(0x1_0000_0005)),
        _I("mov", Reg(RCX, 4), Reg(RAX, 4), size=4),
        _I("mov", Reg(RDX), Reg(RAX)),
        _I("sub", Reg(RDX, 4), Imm(7), size=4),
        _I("mov", Reg(RSI), Reg(RAX)),
        _I("add", Reg(RSI, 4), Reg(RBX, 4), size=4),
        _I("mov", Reg(RBP), Reg(RAX)),
        _I("and", Reg(RBP, 4), Reg(RBX, 4), size=4),
        _I("mov", Reg(RDI), Reg(RAX)),
        _I("or", Reg(RDI), Reg(RBX)),
        _I("mov", Reg(R8), Reg(RAX)),
        _I("xor", Reg(R8, 4), Imm(0x55), size=4),
        _I("mov", Reg(R9), Reg(RAX)),
        _I("imul", Reg(R9, 4), Reg(RBX, 4), size=4),
        _I("mov", Reg(R10), Reg(RBX)),
        _I("imul", Reg(R10), Reg(RAX)),
        _I("lea", Reg(R11, 4), Mem(base=RAX, index=RBX, scale=8, disp=5),
           size=4),
        _I("lea", Reg(R12), Mem(base=RAX, index=RBX, scale=2, disp=-9)),
        _I("mov", Reg(R13), Reg(RAX)),
        _I("shl", Reg(R13, 4), Imm(31), size=4),
        _I("mov", Reg(R14), Reg(RBX)),
        _I("shl", Reg(R14), Imm(63)),
        _I("cvtsi2sd", Reg(xmm(1)), Reg(RAX), size=8),
        _I("cvtsi2sd", Reg(xmm(2)), Reg(RBX), size=8),
        _I("movsd", Reg(xmm(3)), Reg(xmm(1))),
        _I("addsd", Reg(xmm(3)), Reg(xmm(2))),
        _I("subsd", Reg(xmm(1)), Reg(xmm(2))),
        _I("mulsd", Reg(xmm(2)), Reg(xmm(3))),
        _I("mov", Mem(disp=0x100, size=8), Reg(RAX)),
        _I("mov", Reg(RBX, 4), Mem(disp=0x100, size=8), size=4),
        _I("mov", Reg(R15), Mem(disp=0x101, size=2)),
        _I("cmp", Reg(R15), Imm(0)),     # the flags ret reads
        _I("ret"),
    ])
    error, *_, regs, xmms = assert_blocks_match_reference(program)
    assert error is None
    assert regs[RCX] == regs[RBX] == 0xFFFF_FFFD and regs[R15] == 0xFFFF
    assert regs[R13] == 1 << 31


@pytest.mark.parametrize("memory_form", [False, True])
def test_blocks_match_reference_on_bad_indirect_call(memory_form):
    program = X86Program("t", 1 << 16)
    table = program.add_rodata((0xDEAD).to_bytes(8, "little"))
    caller = program.new_function("f")
    caller.emit(_I("mov", Reg(RSI), Imm(0xDEAD)))
    caller.emit(_I("add", Reg(RAX), Imm(3)))
    caller.emit(_I("callr", Mem(disp=table, size=8) if memory_form
                   else Reg(RSI)))
    caller.emit(_I("ret"))
    program.layout()
    error, perf, *_ = assert_blocks_match_reference(program)
    assert error == (TrapError, "indirect call to bad address 0xdead "
                                "[in f at #2: callr " +
                     repr(caller.instrs[2].a) + "]")
    assert perf["calls"] == 1


def test_blocks_match_reference_on_failing_host_call():
    program = X86Program("t", 1 << 16)
    program.extern_sigs["sys_write"] = FuncType([])
    func = program.new_function("f")
    for ins in [_I("mov", Reg(RAX), Imm(1)), _I("hostcall", "sys_write"),
                _I("add", Reg(RAX), Imm(1)), _I("ret")]:
        func.emit(ins)
    program.layout()
    error, perf, *_ = assert_blocks_match_reference(
        program, host=_FailingHost())
    assert error[0] is SyscallError
    assert error[1].startswith("syscall sys_write failed: EIO [in f at #1:")
    assert perf["calls"] == perf["branches"] == 1


def test_blocks_match_reference_past_deadline():
    """``tests/test_resilience.py``'s past-deadline cell: both report the
    same instruction count at the first deadline poll."""
    program, _ = compile_native(LOOP_SOURCE, "t")
    error, perf, *_ = assert_blocks_match_reference(
        program, entry="main", setup_regs=True,
        deadline=time.monotonic() - 1.0)
    stride = X86Machine.DEADLINE_STRIDE
    assert error == (CellTimeout, f"wall-clock deadline exceeded after "
                                  f"{stride + 1} instructions")
    assert perf["instructions"] == stride + 1


def test_blocks_match_reference_on_rare_kinds():
    """Kinds no benchmark retires (cqo, neg, sqrtsd, setcc on every
    condition, flag-live ALU results), so the sweeps never check them."""
    program = build_program([
        _I("mov", Reg(RAX), Imm(-7)),
        _I("cqo"),
        _I("neg", Reg(RDX, 4), size=4),
        _I("mov", Reg(RCX), Imm(9)),
        _I("cvtsi2sd", Reg(xmm(1)), Reg(RCX), size=8),
        _I("sqrtsd", Reg(xmm(2)), Reg(xmm(1))),
        _I("sub", Reg(RCX, 4), Imm(9), size=4),
        *[_I("setcc", Reg(R8 if k % 2 else R9), cond=c)
          for k, c in enumerate(_CONDS)],
        _I("xor", Reg(RBX), Reg(RBX)),
        _I("nop"),
        _I("jcc", Label("skip"), cond="e"),
        _I("mov", Reg(RBX), Imm(1)),
        "skip",
        _I("sar", Reg(RAX, 4), Imm(1), size=4),
        _I("jcc", Label("out"), cond="s"),
        _I("mov", Reg(RBX), Imm(2)),
        "out",
    ] + [_I("ret")])
    error, *_, regs, xmms = assert_blocks_match_reference(program)
    assert error is None
    assert regs[RDX] == 1 and regs[RBX] == 0
    assert struct.unpack("<d", xmms[2])[0] == 3.0


def test_block_engine_frees_finished_machines():
    """No closure, generated function or block table keeps a finished
    machine (or its memory and registers) alive: reference counting
    alone frees it, on closures and with every block generated."""
    program, module = compile_native(LOOP_PRINT_SOURCE, "t")
    seen = []

    class Host(NativeRuntime):
        def call(self, env, name, args):
            if not seen:
                seen.append((weakref.ref(env), env.memory, env.regs,
                             len(env._built)))
            return super().call(env, name, args)

    def run_and_release():
        kernel = Kernel()
        host = Host(kernel, kernel.spawn("t"), module.heap_base)
        result = execute_program(program, host, "t")
        assert result.perf.instructions > 0
        machine, memory, regs, built = seen.pop()
        assert result.stdout and built and machine() is None
        # Only this frame and getrefcount's argument still hold them.
        assert sys.getrefcount(memory) == 2
        assert sys.getrefcount(regs) == 2

    gc.disable()
    try:
        run_and_release()
        with every_block_generated():
            run_and_release()
    finally:
        gc.enable()
