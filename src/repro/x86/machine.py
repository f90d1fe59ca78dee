"""The simulated x86-64 machine.

Executes assembled :class:`~repro.x86.program.X86Program` code against a
flat memory, counting retired-instruction events into
:class:`~repro.x86.perf.PerfCounters` and driving the L1 i-cache model.
This is the measurement substrate standing in for the paper's hardware +
``perf``: every load, store, branch, and instruction the backends emit is
actually executed and counted.
"""

from __future__ import annotations

import math
import struct
from time import monotonic as _monotonic

from ..errors import CellTimeout, FuelExhausted, TrapError
from ..tier import tier_level
from .icache import ICache
from .isa import Imm, Mem, Reg
from .perf import PerfCounters
from .program import X86Program
from .registers import RAX, RCX, RDX, RSP, XMM0

_M64 = (1 << 64) - 1
_M32 = (1 << 32) - 1

def _signed(value: int, bits: int) -> int:
    sign = 1 << (bits - 1)
    return value - (1 << bits) if value & sign else value


# Decoded-instruction kinds.  Each assembled instruction is decoded once
# per machine into ``(kind, payload, icache-first, icache-last,
# single-line, instr)`` so the hot loop dispatches on a small int and
# touches pre-extracted operands instead of re-testing opcode strings
# and operand classes on every retired instruction.  Numbering roughly
# follows dynamic frequency in the generated code.
K_MOV_RR = 0        # reg <- reg (64-bit)
K_MOV_RR32 = 1      # reg <- reg (32-bit, zero-extends)
K_MOV_RI = 2        # reg <- immediate (pre-masked)
K_MOV_LOAD = 3
K_MOV_STORE_R = 4
K_MOV_STORE_I = 5
K_ALU = 6           # add/sub/and/or/xor/imul
K_CMP = 7
K_TEST = 8
K_JCC = 9
K_JMP = 10
K_LEA = 11
K_MOVX = 12         # movsx/movzx
K_SHIFT = 13        # shl/shr/sar
K_PUSH = 14
K_POP = 15
K_CALL = 16
K_CALLR = 17
K_RET = 18
K_HOSTCALL = 19
K_SETCC = 20
K_CDQ = 21
K_CQO = 22
K_IDIV = 23         # idiv/div
K_MOVSD_LOAD = 24
K_MOVSD_STORE = 25
K_MOVSD_RR = 26
K_SSE = 27          # addsd/subsd/mulsd/divsd/minsd/maxsd
K_UCOMISD = 28
K_CVTSI2SD = 29
K_CVTTSD2SI = 30
K_SQRTSD = 31
K_PD = 32           # xorpd/andpd
K_NEG = 33
K_TRAP = 34
K_NOP = 35
K_UNKNOWN = 36

_ALU_IDX = {"add": 0, "sub": 1, "and": 2, "or": 3, "xor": 4, "imul": 5}
_SHIFT_IDX = {"shl": 0, "shr": 1, "sar": 2}
_SSE_IDX = {"addsd": 0, "subsd": 1, "mulsd": 2, "divsd": 3,
            "minsd": 4, "maxsd": 5}
_COND_IDX = {"e": 0, "ne": 1, "l": 2, "le": 3, "g": 4, "ge": 5,
             "b": 6, "be": 7, "a": 8, "ae": 9, "s": 10, "ns": 11}


def _operand_ref(opnd, size):
    """(kind, value) for a read-only operand: 0 reg, 1 imm, 2 mem."""
    if isinstance(opnd, Reg):
        return 0, opnd.reg
    if isinstance(opnd, Imm):
        return 1, int(opnd.value) & (_M32 if size == 4 else _M64)
    return 2, opnd


# -- semantics shared with the block engine ---------------------------------------
# Memory and flag helpers, and a handler ``op(regs, xmm, memory, f, pay)``
# per decoded kind both executors run the same way; callers charge the
# counters.  ``f`` holds the flags: the machine, or the engine's cell.


class Flags:
    """The block engine's flags cell, shared by a machine's closures."""

    __slots__ = ("zf", "sf", "of", "cf")


_F64 = struct.Struct("<d")
_U64 = struct.Struct("<Q")


def _ea_of(regs, mem: Mem) -> int:
    addr = mem.disp
    if mem.base is not None:
        addr += regs[mem.base]
    if mem.index is not None:
        addr += regs[mem.index] * mem.scale
    return addr & _M64


def _load_mem(memory, addr: int, size: int) -> int:
    if addr + size > len(memory) or addr < 0:
        raise TrapError(f"out-of-bounds load at {addr:#x}")
    return int.from_bytes(memory[addr:addr + size], "little")


def _store_mem(memory, addr: int, size: int, value: int) -> None:
    if addr + size > len(memory) or addr < 0:
        raise TrapError(f"out-of-bounds store at {addr:#x}")
    memory[addr:addr + size] = (value & ((1 << (size * 8)) - 1)) \
        .to_bytes(size, "little")


def _read_f64(regs, memory, mem: Mem) -> float:
    addr = _ea_of(regs, mem)
    if addr + 8 > len(memory) or addr < 0:
        raise TrapError(f"out-of-bounds read at {addr:#x}")
    return _F64.unpack_from(memory, addr)[0]


def _int_operand(regs, memory, kind, value, size, mask) -> int:
    """A cmp/test operand by its ``_operand_ref`` kind."""
    if kind == 0:
        return regs[value] & _M32 if size == 4 else regs[value]
    if kind == 1:
        return value
    return _load_mem(memory, _ea_of(regs, value), value.size) & mask


def _value_of(regs, memory, op, size: int) -> int:
    if isinstance(op, Reg):
        return regs[op.reg] & _M32 if size == 4 else regs[op.reg]
    if isinstance(op, Imm):
        return int(op.value) & (_M32 if size == 4 else _M64)
    return _load_mem(memory, _ea_of(regs, op), op.size)


def _sub_flags(f, a: int, b: int, mask: int, shift: int) -> None:
    result = (a - b) & mask
    f.zf = 1 if result == 0 else 0
    f.sf = (result >> shift) & 1
    f.cf = 1 if a < b else 0
    f.of = ((a ^ b) & (a ^ result)) >> shift & 1


#: Condition tests by ``_COND_IDX`` index, over anything holding flags.
_CONDS = (
    lambda f: f.zf == 1, lambda f: f.zf == 0, lambda f: f.sf != f.of,
    lambda f: f.zf == 1 or f.sf != f.of,
    lambda f: f.zf == 0 and f.sf == f.of, lambda f: f.sf == f.of,
    lambda f: f.cf == 1, lambda f: f.cf == 1 or f.zf == 1,
    lambda f: f.cf == 0 and f.zf == 0, lambda f: f.cf == 0,
    lambda f: f.sf == 1, lambda f: f.sf == 0,
)


def _cond_of(f, cond) -> bool:
    """Test a condition given by name or index; unknown names trap."""
    index = _COND_IDX.get(cond) if isinstance(cond, str) else cond
    if index is None:
        raise TrapError(f"unknown condition {cond}")
    return _CONDS[index](f)


def _alu_result(f, alu, x, y, mask, shift, sbit) -> int:
    """add/sub/and/or/xor/imul of pre-masked operands; sets the flags."""
    if alu == 0:
        result = (x + y) & mask
        f.cf = 1 if x + y > mask else 0
        f.of = (~(x ^ y) & (x ^ result)) >> shift & 1
    elif alu == 1:
        result = (x - y) & mask
        f.cf = 1 if x < y else 0
        f.of = ((x ^ y) & (x ^ result)) >> shift & 1
    else:
        if alu == 5:
            result = (x - (sbit << 1) if x & sbit else x) * \
                (y - (sbit << 1) if y & sbit else y) & mask
        else:
            result = x & y if alu == 2 else x | y if alu == 3 else x ^ y
        f.of = f.cf = 0
    f.zf = 1 if result == 0 else 0
    f.sf = (result >> shift) & 1
    return result


def _op_cmp(regs, xmm, memory, f, pay):
    ak, av, bk, bv, _nl, size, mask, shift = pay
    _sub_flags(f, _int_operand(regs, memory, ak, av, size, mask),
               _int_operand(regs, memory, bk, bv, size, mask), mask, shift)


def _op_test(regs, xmm, memory, f, pay):
    ak, av, bk, bv, _nl, size, mask, shift = pay
    result = _int_operand(regs, memory, ak, av, size, mask) & \
        _int_operand(regs, memory, bk, bv, size, mask) & mask
    f.zf = 1 if result == 0 else 0
    f.sf = (result >> shift) & 1
    f.of = f.cf = 0


def _op_movx(regs, xmm, memory, f, pay):
    dst, src, b_is_mem, sign, src_bits, smask, size = pay
    raw = _load_mem(memory, _ea_of(regs, src), src.size) if b_is_mem \
        else regs[src] & smask
    regs[dst] = (_signed(raw, src_bits) if sign else raw) & \
        (_M32 if size == 4 else _M64)


def _op_shift(regs, xmm, memory, f, pay):
    sh, a, a_is_mem, count, size, bits = pay
    if count is None:
        count = regs[RCX] & (bits - 1)
    if a_is_mem:
        ea = _ea_of(regs, a)
        x = _load_mem(memory, ea, a.size)
    else:
        x = regs[a.reg] & _M32 if size == 4 else regs[a.reg]
    if sh == 0:
        result = x << count
    elif sh == 1:
        result = x >> count
    else:
        result = _signed(x, bits) >> count
    result &= (1 << bits) - 1
    f.zf = 1 if result == 0 else 0
    f.sf = (result >> (bits - 1)) & 1
    if a_is_mem:
        _store_mem(memory, ea, a.size, result)
    else:
        regs[a.reg] = result & (_M32 if size == 4 else _M64)


def _op_push(regs, xmm, memory, f, pay):
    src, imm = pay
    regs[RSP] = (regs[RSP] - 8) & _M64
    _store_mem(memory, regs[RSP], 8, regs[src] if src is not None else imm)


def _op_pop(regs, xmm, memory, f, pay):
    value = _load_mem(memory, regs[RSP], 8)
    regs[RSP] = (regs[RSP] + 8) & _M64
    regs[pay] = value


def _op_setcc(regs, xmm, memory, f, pay):
    regs[pay[0]] = 1 if _cond_of(f, pay[1]) else 0


def _op_cdq(regs, xmm, memory, f, pay):
    regs[RDX] = _M32 if regs[RAX] & 0x80000000 else 0


def _op_cqo(regs, xmm, memory, f, pay):
    regs[RDX] = _M64 if regs[RAX] >> 63 else 0


def _op_idiv(regs, xmm, memory, f, pay):
    a, _nl, size, bits, is_signed = pay
    divisor = _value_of(regs, memory, a, size)
    if size == 4:
        dividend = ((regs[RDX] & _M32) << 32) | (regs[RAX] & _M32)
    else:
        dividend = (regs[RDX] << 64) | regs[RAX]
    if is_signed:
        sd = _signed(dividend, 64 if size == 4 else 128)
        sv = _signed(divisor, bits)
        if sv == 0:
            raise TrapError("integer divide by zero")
        q = abs(sd) // abs(sv)
        if (sd < 0) != (sv < 0):
            q = -q
        r = sd - q * sv
    else:
        if divisor == 0:
            raise TrapError("integer divide by zero")
        q, r = divmod(dividend, divisor)
    wmask = _M32 if size == 4 else _M64
    regs[RAX] = q & wmask
    regs[RDX] = r & wmask


def _op_sse(regs, xmm, memory, f, pay):
    """addsd/subsd/mulsd/divsd/minsd/maxsd; a ``divsd`` charges fdivs
    only after its operand loaded."""
    sse, a, b_is_mem, bb = pay
    y = _read_f64(regs, memory, bb) if b_is_mem else xmm[bb]
    x = xmm[a]
    if sse == 0:
        xmm[a] = x + y
    elif sse == 1:
        xmm[a] = x - y
    elif sse == 2:
        xmm[a] = x * y
    elif sse == 3:
        if y == 0.0:
            xmm[a] = (float("inf") if x > 0 else
                      float("-inf") if x < 0 else float("nan"))
        else:
            xmm[a] = x / y
    else:
        xmm[a] = min(x, y) if sse == 4 else max(x, y)


def _op_ucomisd(regs, xmm, memory, f, pay):
    a, b_is_mem, bb = pay
    x = xmm[a]
    y = _read_f64(regs, memory, bb) if b_is_mem else xmm[bb]
    if x != x or y != y:      # unordered
        f.zf = f.cf = 1
    else:
        f.zf, f.cf = int(x == y), int(x < y)
    f.sf = f.of = 0


def _op_cvtsi2sd(regs, xmm, memory, f, pay):
    dst, b, size, bits = pay
    xmm[dst] = float(_signed(_value_of(regs, memory, b, size), bits))


def _op_cvttsd2si(regs, xmm, memory, f, pay):
    dst, src, size, lo, hi = pay
    x = xmm[src]
    if x != x:
        raise TrapError("invalid conversion: NaN to integer")
    truncated = int(x)
    if not lo <= truncated <= hi:
        raise TrapError("integer overflow in float->int conversion")
    regs[dst] = truncated & (_M32 if size == 4 else _M64)


def _op_sqrtsd(regs, xmm, memory, f, pay):
    dst, b_is_mem, bb = pay
    y = _read_f64(regs, memory, bb) if b_is_mem else xmm[bb]
    xmm[dst] = math.sqrt(y) if y >= 0 else float("nan")


def _op_pd(regs, xmm, memory, f, pay):
    is_xor, a, b_is_mem, bb = pay
    mask_bits = _load_mem(memory, _ea_of(regs, bb), 8) if b_is_mem \
        else _U64.unpack(_F64.pack(xmm[bb]))[0]
    x_bits = _U64.unpack(_F64.pack(xmm[a]))[0]
    out = x_bits ^ mask_bits if is_xor else x_bits & mask_bits
    xmm[a] = _F64.unpack(_U64.pack(out))[0]


def _op_neg(regs, xmm, memory, f, pay):
    reg, size, bits = pay
    x = regs[reg] & _M32 if size == 4 else regs[reg]
    mask = (1 << bits) - 1
    _sub_flags(f, 0, x & mask, mask, bits - 1)
    regs[reg] = -x & (_M32 if size == 4 else _M64)


#: Decoded kind -> shared handler.
SHARED_OPS = {
    K_CMP: _op_cmp, K_TEST: _op_test, K_MOVX: _op_movx,
    K_SHIFT: _op_shift, K_PUSH: _op_push, K_POP: _op_pop,
    K_SETCC: _op_setcc, K_CDQ: _op_cdq, K_CQO: _op_cqo, K_IDIV: _op_idiv,
    K_SSE: _op_sse, K_UCOMISD: _op_ucomisd, K_CVTSI2SD: _op_cvtsi2sd,
    K_CVTTSD2SI: _op_cvttsd2si, K_SQRTSD: _op_sqrtsd, K_PD: _op_pd,
    K_NEG: _op_neg,
}


class X86Machine:
    """Executes one compiled program."""

    #: How often (in retired instructions) the wall-clock deadline is
    #: polled; a power of two so the checkpoint arithmetic stays cheap.
    DEADLINE_STRIDE = 1 << 20

    def __init__(self, program: X86Program, host=None, icache: ICache = None,
                 max_instructions: int = 2_000_000_000,
                 deadline: float = None, tier=None, hwc=None):
        self.program = program
        self.memory = bytearray(program.machine_memory_size)
        for addr, blob in program.data_segments + program.rodata_image():
            self.memory[addr:addr + len(blob)] = blob
        self.host = host
        self.regs = [0] * 16
        self.xmm = [0.0] * 16
        self.regs[RSP] = program.stack_top
        self.zf = self.sf = self.of = self.cf = 0
        self.perf = PerfCounters()
        self.icache = icache or ICache()
        self.max_instructions = max_instructions
        #: Absolute ``time.monotonic()`` watchdog; None disables it.
        self.deadline = deadline
        self._entry_map = program.entry_map()
        self._abi = getattr(program, "abi", None)
        self._decode_cache = {}
        #: Execution tier (0=off, 1=fuse); ``None`` follows the
        #: process-wide setting from :mod:`repro.tier`.  Tier off runs
        #: the per-instruction reference loop (:meth:`_execute`); fuse
        #: runs uninstrumented calls on the block engine
        #: (:mod:`repro.x86.blocks`), which retires the same events.
        self._tier = tier_level(tier)
        #: Block-engine state: per-function block tables, every block
        #: built so far, the flags cell, and the dynamic counters.
        #: Closures bind registers and memory, never the machine.
        self._blocks = {}
        self._built = []
        self._flags = Flags()
        self._dyn = [0] * len(PerfCounters.__slots__)
        #: The optional instrument: a :class:`repro.obs.profile.
        #: Attribution` such as the :class:`repro.obs.hwc.HwcModel`.
        #: The reference loop calls its ``retire`` once per instruction,
        #: before it executes, and its ``enter(name)``/``exit()`` at
        #: every call and return, after folding the counter mirrors into
        #: ``perf``.  It never mutates machine or counter state, so
        #: execution results and ``perf`` stay bit-identical with an
        #: instrument on or off.
        self.hwc = hwc
        if hwc is not None:
            hwc.attach(self)
        #: The ``--check-ranges`` soundness oracle: when on, every
        #: instruction carrying an ``assert_range`` fact has the
        #: committed register value validated right after it retires,
        #: so oracle runs take the reference loop.
        from ..ir.verify import check_ranges_enabled
        self._oracle = check_ranges_enabled()

    # -- guest memory interface (Host-compatible) --------------------------------

    def read_mem(self, addr: int, length: int) -> bytes:
        if addr < 0 or addr + length > len(self.memory):
            raise TrapError(f"out-of-bounds read at {addr:#x}")
        return bytes(self.memory[addr:addr + length])

    def write_mem(self, addr: int, data: bytes) -> None:
        if addr < 0 or addr + len(data) > len(self.memory):
            raise TrapError(f"out-of-bounds write at {addr:#x}")
        self.memory[addr:addr + len(data)] = data

    # -- operand helpers -----------------------------------------------------------

    def _ea(self, mem: Mem) -> int:
        return _ea_of(self.regs, mem)

    def _load_int(self, addr: int, size: int) -> int:
        return _load_mem(self.memory, addr, size)

    def _store_int(self, addr: int, size: int, value: int) -> None:
        _store_mem(self.memory, addr, size, value)

    def _write_reg(self, reg: int, size: int, value: int) -> None:
        if size == 4:
            self.regs[reg] = value & _M32  # 32-bit writes zero-extend
        else:
            self.regs[reg] = value & _M64

    def _cond(self, cond: str) -> bool:
        return _cond_of(self, cond)

    # -- execution ----------------------------------------------------------------

    def call(self, func_name: str, int_args=(), setup_regs=True):
        """Run ``func_name`` to completion; returns (rax, xmm0)."""
        func = self.program.functions.get(func_name)
        if func is None:
            raise TrapError(f"no such function {func_name}")
        if setup_regs and self._abi is not None:
            for reg, value in zip(self._abi.int_args, int_args):
                self.regs[reg] = int(value) & _M64
        # The embedder "calls" the entry point: reserve the return-address
        # slot so the entry function's final ret rebalances rsp exactly.
        self.regs[RSP] = (self.regs[RSP] - 8) & _M64
        self._execute(func)
        return self.regs[RAX], self.xmm[0]

    def _decode_func(self, func):
        key = id(func)
        dcode = self._decode_cache.get(key)
        if dcode is None:
            dcode = self._decode_cache[key] = self._build_decode(func)
        return dcode

    def _build_decode(self, func):
        """Decode one function into (kind, payload, first, last, single,
        instr) tuples; every operand shape and counter decision that is
        static per instruction is resolved here, once."""
        functions = self.program.functions
        decoded = []
        for ins in func.instrs:
            op = ins.op
            a = ins.a
            b = ins.b
            size = ins.size
            bits = size * 8
            mask = (1 << bits) - 1
            if op == "mov":
                if isinstance(b, Mem):
                    kind = K_MOV_LOAD
                    wsize = size if b.size >= 4 else 8
                    pay = (a.reg, b.base, b.index, b.scale, b.disp,
                           b.size, _M32 if wsize == 4 else _M64)
                elif isinstance(a, Mem):
                    smask = (1 << (a.size * 8)) - 1
                    if isinstance(b, Reg):
                        kind = K_MOV_STORE_R
                        pay = (a.base, a.index, a.scale, a.disp, a.size,
                               smask, b.reg)
                    else:
                        kind = K_MOV_STORE_I
                        pay = (a.base, a.index, a.scale, a.disp, a.size,
                               (int(b.value) & smask)
                               .to_bytes(a.size, "little"))
                elif isinstance(b, Reg):
                    kind = K_MOV_RR32 if size == 4 else K_MOV_RR
                    pay = (a.reg, b.reg)
                else:
                    kind = K_MOV_RI
                    pay = (a.reg,
                           int(b.value) & (_M32 if size == 4 else _M64))
            elif op in _ALU_IDX:
                a_is_mem = isinstance(a, Mem)
                if isinstance(b, Mem):
                    b_kind, bb = 2, b
                elif isinstance(b, Imm):
                    b_kind, bb = 1, int(b.value) & mask
                else:
                    b_kind, bb = 0, b.reg
                kind = K_ALU
                pay = (_ALU_IDX[op], a if a_is_mem else a.reg, bb,
                       a_is_mem, b_kind, size, bits, mask, bits - 1,
                       1 << (bits - 1))
            elif op == "cmp":
                ak, av = _operand_ref(a, size)
                bk, bv = _operand_ref(b, size)
                nl = (1 if ak == 2 else 0) + (1 if bk == 2 else 0)
                kind = K_CMP
                pay = (ak, av, bk, bv, nl, size, mask, bits - 1)
            elif op == "test":
                ak, av = _operand_ref(a, size)
                bk, bv = _operand_ref(b, size)
                kind = K_TEST
                pay = (ak, av, bk, bv, 1 if ak == 2 else 0, size,
                       mask, bits - 1)
            elif op == "jcc":
                kind = K_JCC
                pay = (_COND_IDX.get(ins.cond, ins.cond), ins.b)
            elif op == "jmp":
                kind, pay = K_JMP, ins.b
            elif op == "lea":
                kind, pay = K_LEA, (a.reg, b, size)
            elif op in ("movsx", "movzx"):
                b_is_mem = isinstance(b, Mem)
                src_bits = b.size * 8
                kind = K_MOVX
                pay = (a.reg, b if b_is_mem else b.reg, b_is_mem,
                       op == "movsx", src_bits, (1 << src_bits) - 1, size)
            elif op in _SHIFT_IDX:
                count = (int(b.value) & (bits - 1)) \
                    if isinstance(b, Imm) else None
                kind = K_SHIFT
                pay = (_SHIFT_IDX[op], a, isinstance(a, Mem), count,
                       size, bits)
            elif op == "push":
                if isinstance(a, Reg):
                    kind, pay = K_PUSH, (a.reg, 0)
                else:
                    kind, pay = K_PUSH, (None, int(a.value))
            elif op == "pop":
                kind, pay = K_POP, a.reg
            elif op == "call":
                kind, pay = K_CALL, (functions.get(a.name), a.name)
            elif op == "callr":
                a_is_mem = isinstance(a, Mem)
                kind, pay = K_CALLR, (a if a_is_mem else a.reg, a_is_mem)
            elif op == "ret":
                kind, pay = K_RET, None
            elif op == "hostcall":
                kind, pay = K_HOSTCALL, a
            elif op == "setcc":
                kind, pay = K_SETCC, (a.reg, ins.cond)
            elif op == "cdq":
                kind, pay = K_CDQ, None
            elif op == "cqo":
                kind, pay = K_CQO, None
            elif op in ("idiv", "div"):
                kind = K_IDIV
                pay = (a, 1 if isinstance(a, Mem) else 0, size, bits,
                       op == "idiv")
            elif op == "movsd":
                if isinstance(b, Mem):
                    kind, pay = K_MOVSD_LOAD, (a.reg - XMM0, b)
                elif isinstance(a, Mem):
                    kind, pay = K_MOVSD_STORE, (a, b.reg - XMM0)
                else:
                    kind, pay = K_MOVSD_RR, (a.reg - XMM0, b.reg - XMM0)
            elif op in _SSE_IDX:
                b_is_mem = isinstance(b, Mem)
                kind = K_SSE
                pay = (_SSE_IDX[op], a.reg - XMM0, b_is_mem,
                       b if b_is_mem else b.reg - XMM0)
            elif op == "ucomisd":
                b_is_mem = isinstance(b, Mem)
                kind = K_UCOMISD
                pay = (a.reg - XMM0, b_is_mem,
                       b if b_is_mem else b.reg - XMM0)
            elif op == "cvtsi2sd":
                kind, pay = K_CVTSI2SD, (a.reg - XMM0, b, size, bits)
            elif op == "cvttsd2si":
                kind = K_CVTTSD2SI
                pay = (a.reg, b.reg - XMM0, size,
                       -(1 << (bits - 1)), (1 << (bits - 1)) - 1)
            elif op == "sqrtsd":
                b_is_mem = isinstance(b, Mem)
                kind = K_SQRTSD
                pay = (a.reg - XMM0, b_is_mem,
                       b if b_is_mem else b.reg - XMM0)
            elif op in ("xorpd", "andpd"):
                b_is_mem = isinstance(b, Mem)
                kind = K_PD
                pay = (op == "xorpd", a.reg - XMM0, b_is_mem,
                       b if b_is_mem else b.reg - XMM0)
            elif op == "neg":
                kind, pay = K_NEG, (a.reg, size, bits)
            elif op == "trap":
                kind, pay = K_TRAP, str(a)
            elif op == "nop":
                kind, pay = K_NOP, None
            else:
                kind, pay = K_UNKNOWN, op
            addr = ins.addr
            first = addr >> 6
            last = (addr + ins.enc_size - 1) >> 6
            decoded.append((kind, pay, first, last, first == last, ins))
        return decoded

    def _execute(self, func) -> None:
        if self._tier and self.hwc is None and not self._oracle:
            from .blocks import run_blocks
            return run_blocks(self, func)
        # The reference loop, one decoded instruction at a time.
        regs = self.regs
        xmm = self.xmm
        memory = self.memory
        memlen = len(memory)
        from_bytes = int.from_bytes
        unpack_from = struct.unpack_from
        pack_into = struct.pack_into
        perf = self.perf
        icache = self.icache
        access_line = icache._access_line
        inst = self.hwc
        retire = None
        if inst is not None:
            inst.enter(func.name)
            retire = inst.retire
        budget = self.max_instructions
        deadline = self.deadline
        # With no deadline the checkpoint IS the budget: one compare per
        # instruction, exactly as before.  With one, execution pauses
        # every DEADLINE_STRIDE instructions to poll the clock.
        checkpoint = budget if deadline is None \
            else min(budget, self.DEADLINE_STRIDE)

        call_stack = []  # (function, decoded code, return index)
        dcode = self._decode_func(func)
        n = len(dcode)
        i = 0
        n_instr = 0
        # Local mirrors of hot counters, folded into perf at the end and,
        # with an instrument attached, before every enter and exit.
        c_instr = c_loads = c_stores = c_branches = c_cond = 0
        c_calls = c_muls = c_divs = c_fdivs = c_fpu = 0
        last_line = -1

        ins = None
        # --check-ranges: a def proved to lie in an interval is validated
        # one fetch later, after its write committed.  Asserted
        # instructions never branch (the lowering guarantees it), so the
        # next fetched instruction always runs after the asserted one.
        oracle = self._oracle
        pending = None
        try:
            while True:
                if i >= n:
                    raise TrapError(
                        f"fell off the end of {getattr(func, 'name', '?')}")
                kind, pay, first, last, single, ins = dcode[i]
                i += 1
                n_instr += 1
                c_instr += 1
                if oracle:
                    if pending is not None:
                        preg, fact, pins, pfunc = pending
                        pattern = regs[preg] & ((1 << fact.bits) - 1)
                        if not fact.contains(pattern):
                            from ..ir.verify import RangeOracleError
                            raise RangeOracleError(
                                f"observed value {pattern:#x} escaped the "
                                f"proved interval {fact!r} after "
                                f"`{pins!r}` in {pfunc}",
                                function=pfunc)
                        pending = None
                    ar = getattr(ins, "assert_range", None)
                    if ar is not None:
                        pending = (ar[0], ar[1], ins,
                                   getattr(func, "name", "?"))
                if n_instr > checkpoint:
                    if n_instr > budget:
                        raise FuelExhausted(
                            "fuel exhausted: instruction budget exceeded")
                    if _monotonic() > deadline:
                        raise CellTimeout(
                            f"wall-clock deadline exceeded after "
                            f"{n_instr} instructions")
                    checkpoint = min(budget,
                                     n_instr + self.DEADLINE_STRIDE)

                # I-cache fetch (fast path: same line).
                if single:
                    if first != last_line:
                        access_line(first)
                        last_line = first
                else:
                    line = first
                    while True:
                        if line != last_line:
                            access_line(line)
                        if line >= last:
                            break
                        line += 1
                    last_line = last

                if retire is not None:
                    retire(ins, self)

                if kind == 0:                         # K_MOV_RR
                    regs[pay[0]] = regs[pay[1]]
                elif kind == 1:                       # K_MOV_RR32
                    regs[pay[0]] = regs[pay[1]] & _M32
                elif kind == 2:                       # K_MOV_RI
                    regs[pay[0]] = pay[1]
                elif kind == 3:                       # K_MOV_LOAD
                    c_loads += 1
                    dst, base, index, scale, disp, msize, wmask = pay
                    addr = disp
                    if base is not None:
                        addr += regs[base]
                    if index is not None:
                        addr += regs[index] * scale
                    addr &= _M64
                    if addr + msize > memlen:
                        raise TrapError(
                            f"out-of-bounds load at {addr:#x}")
                    regs[dst] = from_bytes(memory[addr:addr + msize],
                                           "little") & wmask
                elif kind == 4:                       # K_MOV_STORE_R
                    c_stores += 1
                    base, index, scale, disp, msize, smask, src = pay
                    addr = disp
                    if base is not None:
                        addr += regs[base]
                    if index is not None:
                        addr += regs[index] * scale
                    addr &= _M64
                    if addr + msize > memlen:
                        raise TrapError(
                            f"out-of-bounds store at {addr:#x}")
                    memory[addr:addr + msize] = \
                        (regs[src] & smask).to_bytes(msize, "little")
                elif kind == 5:                       # K_MOV_STORE_I
                    c_stores += 1
                    base, index, scale, disp, msize, vbytes = pay
                    addr = disp
                    if base is not None:
                        addr += regs[base]
                    if index is not None:
                        addr += regs[index] * scale
                    addr &= _M64
                    if addr + msize > memlen:
                        raise TrapError(
                            f"out-of-bounds store at {addr:#x}")
                    memory[addr:addr + msize] = vbytes
                elif kind == 6:                       # K_ALU
                    alu, aa, bb, a_is_mem, b_kind, size, bits, mask, \
                        shift, sbit = pay
                    if a_is_mem:
                        c_loads += 1
                        ea = self._ea(aa)
                        x = self._load_int(ea, aa.size) & mask
                    else:
                        x = regs[aa]
                        if size == 4:
                            x &= _M32
                    if b_kind == 0:
                        y = regs[bb]
                        if size == 4:
                            y &= _M32
                    elif b_kind == 1:
                        y = bb
                    else:
                        c_loads += 1
                        y = self._load_int(self._ea(bb), bb.size) & mask
                    if alu == 5:
                        c_muls += 1
                    result = _alu_result(self, alu, x, y, mask, shift, sbit)
                    if a_is_mem:
                        c_stores += 1
                        self._store_int(ea, aa.size, result)
                    else:
                        regs[aa] = result if size == 4 else result & _M64
                elif kind == 7:                       # K_CMP
                    c_loads += pay[4]
                    _op_cmp(regs, xmm, memory, self, pay)
                elif kind == 8:                       # K_TEST
                    c_loads += pay[4]
                    _op_test(regs, xmm, memory, self, pay)
                elif kind == 9:                       # K_JCC
                    c_branches += 1
                    c_cond += 1
                    if _cond_of(self, pay[0]):
                        i = pay[1]
                        last_line = -1
                elif kind == 10:                      # K_JMP
                    c_branches += 1
                    i = pay
                    last_line = -1
                elif kind == 11:                      # K_LEA
                    dst, mem, size = pay
                    self._write_reg(dst, size, self._ea(mem))
                elif kind == 12:                      # K_MOVX
                    c_loads += pay[2]
                    _op_movx(regs, xmm, memory, self, pay)
                elif kind == 13:                      # K_SHIFT
                    c_loads += pay[2]
                    c_stores += pay[2]
                    _op_shift(regs, xmm, memory, self, pay)
                elif kind == 14:                      # K_PUSH
                    c_stores += 1
                    _op_push(regs, xmm, memory, self, pay)
                elif kind == 15:                      # K_POP
                    c_loads += 1
                    _op_pop(regs, xmm, memory, self, pay)
                elif kind == 16 or kind == 17:        # K_CALL, K_CALLR
                    c_branches += 1
                    c_calls += 1
                    c_stores += 1
                    if kind == 16:
                        target, tname = pay
                        if target is None:
                            raise TrapError(f"call to unknown {tname}")
                    else:
                        aa, a_is_mem = pay
                        if a_is_mem:
                            c_loads += 1
                            code_addr = self._load_int(self._ea(aa), 8)
                        else:
                            code_addr = regs[aa]
                        target = self._entry_map.get(code_addr)
                        if target is None:
                            raise TrapError(f"indirect call to bad "
                                            f"address {code_addr:#x}")
                    regs[RSP] = (regs[RSP] - 8) & _M64
                    self._store_int(regs[RSP], 8, 0)
                    call_stack.append((func, dcode, i))
                    func = target
                    dcode = self._decode_func(target)
                    n = len(dcode)
                    i = 0
                    last_line = -1
                    if inst is not None:
                        perf.add(c_instr, c_loads, c_stores, c_branches,
                                 c_cond, c_calls, c_muls, c_divs, c_fdivs,
                                 c_fpu)
                        c_instr = c_loads = c_stores = c_branches = c_cond = 0
                        c_calls = c_muls = c_divs = c_fdivs = c_fpu = 0
                        inst.enter(func.name)
                elif kind == 18:                      # K_RET
                    c_branches += 1
                    c_loads += 1
                    regs[RSP] = (regs[RSP] + 8) & _M64
                    if inst is not None:
                        perf.add(c_instr, c_loads, c_stores, c_branches,
                                 c_cond, c_calls, c_muls, c_divs, c_fdivs,
                                 c_fpu)
                        c_instr = c_loads = c_stores = c_branches = c_cond = 0
                        c_calls = c_muls = c_divs = c_fdivs = c_fpu = 0
                        inst.exit()
                    if not call_stack:
                        return
                    func, dcode, i = call_stack.pop()
                    n = len(dcode)
                    last_line = -1
                elif kind == 19:                      # K_HOSTCALL
                    c_branches += 1
                    c_calls += 1
                    self._do_hostcall(pay)
                elif kind == 20:                      # K_SETCC
                    _op_setcc(regs, xmm, memory, self, pay)
                elif kind == 21:                      # K_CDQ
                    _op_cdq(regs, xmm, memory, self, pay)
                elif kind == 22:                      # K_CQO
                    _op_cqo(regs, xmm, memory, self, pay)
                elif kind == 23:                      # K_IDIV
                    c_divs += 1
                    c_loads += pay[1]
                    _op_idiv(regs, xmm, memory, self, pay)
                elif kind == 24:                      # K_MOVSD_LOAD
                    c_loads += 1
                    xmm[pay[0]] = _read_f64(regs, memory, pay[1])
                elif kind == 25:                      # K_MOVSD_STORE
                    c_stores += 1
                    mem, src = pay
                    self.write_mem(self._ea(mem),
                                   struct.pack("<d", xmm[src]))
                elif kind == 26:                      # K_MOVSD_RR
                    xmm[pay[0]] = xmm[pay[1]]
                elif kind == 27:                      # K_SSE
                    c_fpu += 1
                    c_loads += pay[2]
                    _op_sse(regs, xmm, memory, self, pay)
                    if pay[0] == 3:
                        c_fdivs += 1
                elif kind == 28:                      # K_UCOMISD
                    c_fpu += 1
                    c_loads += pay[1]
                    _op_ucomisd(regs, xmm, memory, self, pay)
                elif kind == 29:                      # K_CVTSI2SD
                    c_fpu += 1
                    _op_cvtsi2sd(regs, xmm, memory, self, pay)
                elif kind == 30:                      # K_CVTTSD2SI
                    c_fpu += 1
                    _op_cvttsd2si(regs, xmm, memory, self, pay)
                elif kind == 31:                      # K_SQRTSD
                    c_fpu += 1
                    c_loads += pay[1]
                    _op_sqrtsd(regs, xmm, memory, self, pay)
                elif kind == 32:                      # K_PD
                    c_fpu += 1
                    c_loads += pay[2]
                    _op_pd(regs, xmm, memory, self, pay)
                elif kind == 33:                      # K_NEG
                    _op_neg(regs, xmm, memory, self, pay)
                elif kind == 34:                      # K_TRAP
                    raise TrapError(pay)
                elif kind == 35:                      # K_NOP
                    pass
                else:
                    raise TrapError(f"unknown opcode {pay}")
        except TrapError as exc:
            # Append context in place: the subclass (FuelExhausted,
            # SyscallError, ...) and its taxonomy attributes survive.
            name = getattr(func, "name", "?")
            exc.args = (f"{exc} [in {name} at #{i - 1}: {ins!r}]",)
            raise
        finally:
            perf.add(c_instr, c_loads, c_stores, c_branches, c_cond,
                     c_calls, c_muls, c_divs, c_fdivs, c_fpu)
            if inst is not None:
                inst.finish()

    def _do_hostcall(self, name: str) -> None:
        if self.host is None:
            raise TrapError(f"hostcall {name} with no host attached")
        abi = self._abi
        sig = self.program.extern_sigs.get(name)
        if sig is None:
            raise TrapError(f"hostcall to undeclared extern {name}")
        args = []
        int_idx = 0
        float_idx = 0
        from ..ir.types import Type
        for ty in sig.params:
            if ty is Type.F64:
                args.append(self.xmm[abi.float_args[float_idx] - XMM0])
                float_idx += 1
            else:
                value = self.regs[abi.int_args[int_idx]]
                if ty is Type.I32:
                    value &= _M32
                args.append(value)
                int_idx += 1
        result = self.host.call(self, name, args)
        if sig.result is not None:
            if sig.result is Type.F64:
                self.xmm[0] = float(result)
            else:
                self.regs[RAX] = int(result) & _M64
