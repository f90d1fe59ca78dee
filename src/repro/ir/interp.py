"""Reference interpreter for the IR.

This is the semantic ground truth of the toolchain: every backend (native
x86, WebAssembly, the browser JITs, asm.js) must produce a program whose
observable behaviour matches direct interpretation of the IR.  The
differential tests in ``tests/test_differential.py`` enforce that.

The interpreter is deliberately simple and makes no attempt to model
performance; performance comes from the simulated x86 machine.
"""

from __future__ import annotations

import struct

from ..errors import FuelExhausted, ReproError, TrapError
from . import intops
from .instructions import (
    BinOp, Call, CallIndirect, CondBr, GetGlobal, Jump, Lea, Load,
    MemBinOp, Move, Return, SetGlobal, Store, Trap, UnOp,
)
from .module import Module
from .types import Type
from .values import Const, VReg

_LOAD_FMT = {(1, True): "<b", (1, False): "<B", (2, True): "<h", (2, False): "<H",
             (4, True): "<i", (4, False): "<I", (8, True): "<q", (8, False): "<Q"}
_STORE_FMT = {1: "<B", 2: "<H", 4: "<I", 8: "<Q"}


class Host:
    """Embedder interface: implements extern functions for a guest program.

    Subclasses override :meth:`call`.  The interpreter (or machine) passes
    itself so hosts can read and write guest memory.
    """

    def call(self, env, name: str, args):
        raise TrapError(f"unresolved extern function: {name}")


class CollectingHost(Host):
    """A host that implements the mcc runtime externs against a byte buffer.

    Output written through ``sys_write``/print externs is collected in
    ``self.output``.  This is the standalone (non-browser) embedding used by
    unit tests and the native baseline.
    """

    def __init__(self, argv=None):
        self.output = bytearray()
        self.argv = list(argv or [])

    def call(self, env, name, args):
        if name == "sys_write":
            fd, ptr, length = args
            data = env.read_mem(ptr, length)
            self.output.extend(data)
            return length
        if name == "print_i32":
            self.output.extend(str(intops.signed32(args[0])).encode() + b"\n")
            return None
        if name == "print_i64":
            self.output.extend(str(intops.signed64(args[0])).encode() + b"\n")
            return None
        if name == "print_f64":
            self.output.extend((f"{args[0]:.6f}").encode() + b"\n")
            return None
        if name == "sys_read":
            return 0
        if name == "sys_open":
            return -1
        if name == "sys_close":
            return 0
        raise TrapError(f"unresolved extern function: {name}")


class Frame:
    """One activation record: register file plus current position."""

    __slots__ = ("func", "regs")

    def __init__(self, func):
        self.func = func
        self.regs = {}


class IRInterpreter:
    """Executes an IR module directly."""

    #: Default fuel: basic-block transitions before a loop is declared
    #: runaway — the IR-level analogue of the x86 instruction budget.
    DEFAULT_FUEL = 1_000_000_000

    def __init__(self, module: Module, host: Host = None,
                 max_fuel: int = None):
        self.module = module
        self.host = host or CollectingHost()
        self.memory = module.initial_memory()
        self.globals = {name: g.init for name, g in module.wasm_globals.items()}
        self.call_depth = 0
        self.max_call_depth = 10_000
        self.max_fuel = max_fuel if max_fuel is not None else \
            self.DEFAULT_FUEL
        #: Basic blocks executed so far, shared across nested calls.
        self.fuel_used = 0

    # -- guest memory access ------------------------------------------------

    def read_mem(self, addr: int, length: int) -> bytes:
        if addr < 0 or addr + length > len(self.memory):
            raise TrapError(f"out-of-bounds read at {addr:#x}")
        return bytes(self.memory[addr:addr + length])

    def write_mem(self, addr: int, data: bytes) -> None:
        if addr < 0 or addr + len(data) > len(self.memory):
            raise TrapError(f"out-of-bounds write at {addr:#x}")
        self.memory[addr:addr + len(data)] = data

    # -- entry points ---------------------------------------------------------

    def run(self, func_name: str = None, args=()):
        """Call a function by name and return its result (or None)."""
        name = func_name or self.module.start
        if name not in self.module.functions:
            raise TrapError(f"no such function: {name}")
        # Guest boundary: raw Python errors escaping the interpreter
        # degrade into TrapError instead of aborting the embedder.
        try:
            return self._call(name, list(args))
        except ReproError:
            raise
        except (IndexError, KeyError, ValueError, TypeError,
                ArithmeticError, MemoryError, UnicodeDecodeError,
                struct.error, RecursionError) as exc:
            raise TrapError(
                f"interpreter fault: {type(exc).__name__}: {exc}") from exc

    # -- execution ------------------------------------------------------------

    def _call(self, name: str, args):
        if name in self.module.externs:
            return self.host.call(self, name, args)
        func = self.module.functions[name]
        self.call_depth += 1
        if self.call_depth > self.max_call_depth:
            self.call_depth -= 1
            raise TrapError("call stack exhausted")
        try:
            frame = Frame(func)
            for reg, val in zip(func.params, args):
                frame.regs[reg.id] = val
            return self._exec_function(frame)
        except RecursionError:
            raise TrapError("call stack exhausted") from None
        finally:
            self.call_depth -= 1

    def _exec_function(self, frame: Frame):
        func = frame.func
        block = func.blocks[func.entry]
        regs = frame.regs
        max_fuel = self.max_fuel
        while True:
            self.fuel_used += 1
            if self.fuel_used > max_fuel:
                raise FuelExhausted(
                    "fuel exhausted: IR block budget exceeded")
            for instr in block.instrs:
                self._exec_instr(instr, regs)
            term = block.term
            if isinstance(term, Jump):
                block = func.blocks[term.target]
            elif isinstance(term, CondBr):
                taken = self._value(term.cond, regs) != 0
                block = func.blocks[term.if_true if taken else term.if_false]
            elif isinstance(term, Return):
                if term.value is None:
                    return None
                return self._value(term.value, regs)
            elif isinstance(term, Trap):
                raise TrapError(term.message)
            else:  # pragma: no cover - verifier prevents this
                raise TrapError(f"bad terminator {term!r}")

    def _value(self, operand, regs):
        if isinstance(operand, VReg):
            return regs[operand.id]
        if isinstance(operand, Const):
            if operand.ty.is_int:
                bits = 32 if operand.ty is Type.I32 else 64
                return operand.value & ((1 << bits) - 1)
            return operand.value
        raise TrapError(f"bad operand {operand!r}")

    def _exec_instr(self, instr, regs):
        if isinstance(instr, Move):
            regs[instr.dst.id] = self._value(instr.src, regs)
        elif isinstance(instr, BinOp):
            a = self._value(instr.lhs, regs)
            b = self._value(instr.rhs, regs)
            ty = instr.lhs.ty if isinstance(instr.lhs, VReg) else instr.rhs.ty
            regs[instr.dst.id] = eval_binop(instr.op, a, b, ty)
        elif isinstance(instr, UnOp):
            a = self._value(instr.src, regs)
            src_ty = instr.src.ty if isinstance(instr.src, (VReg, Const)) else Type.I32
            regs[instr.dst.id] = eval_unop(instr.op, a, src_ty)
        elif isinstance(instr, Load):
            addr = self._value(instr.base, regs) + instr.offset
            if instr.index is not None:
                addr += self._value(instr.index, regs) * instr.scale
            regs[instr.dst.id] = self._load(addr, instr.size, instr.signed,
                                            instr.dst.ty)
        elif isinstance(instr, Store):
            addr = self._value(instr.base, regs) + instr.offset
            if instr.index is not None:
                addr += self._value(instr.index, regs) * instr.scale
            self._store(addr, self._value(instr.src, regs), instr.size)
        elif isinstance(instr, MemBinOp):
            addr = self._value(instr.base, regs) + instr.offset
            if instr.index is not None:
                addr += self._value(instr.index, regs) * instr.scale
            src = self._value(instr.src, regs)
            ty = (Type.F64 if isinstance(src, float)
                  else (Type.I32 if instr.size == 4 else Type.I64))
            old = self._load(addr, instr.size, True, ty)
            self._store(addr, eval_binop(instr.op, old, src, ty), instr.size)
        elif isinstance(instr, Lea):
            addr = self._value(instr.base, regs) + instr.disp
            if instr.index is not None:
                addr += self._value(instr.index, regs) * instr.scale
            regs[instr.dst.id] = addr & 0xFFFFFFFF
        elif isinstance(instr, GetGlobal):
            regs[instr.dst.id] = self.globals[instr.name]
        elif isinstance(instr, SetGlobal):
            self.globals[instr.name] = self._value(instr.src, regs)
        elif isinstance(instr, Call):
            result = self._call(instr.callee,
                                [self._value(a, regs) for a in instr.args])
            if instr.dst is not None:
                regs[instr.dst.id] = result
        elif isinstance(instr, CallIndirect):
            idx = self._value(instr.target, regs)
            if not 0 < idx < len(self.module.table):
                raise TrapError(f"indirect call to bad table index {idx}")
            name = self.module.table[idx]
            if not name:
                raise TrapError("indirect call to null table entry")
            callee = self.module.functions[name]
            if callee.ftype != instr.ftype:
                raise TrapError("indirect call signature mismatch")
            result = self._call(name, [self._value(a, regs) for a in instr.args])
            if instr.dst is not None:
                regs[instr.dst.id] = result
        else:  # pragma: no cover - verifier prevents this
            raise TrapError(f"bad instruction {instr!r}")

    def _load(self, addr, size, is_signed, dst_ty):
        raw = self.read_mem(addr, size)
        if dst_ty is Type.F64:
            return struct.unpack("<d", raw)[0]
        value = struct.unpack(_LOAD_FMT[(size, is_signed)], raw)[0]
        bits = 32 if dst_ty is Type.I32 else 64
        return value & ((1 << bits) - 1)

    def _store(self, addr, value, size):
        if isinstance(value, float):
            self.write_mem(addr, struct.pack("<d", value))
        else:
            mask = (1 << (size * 8)) - 1
            self.write_mem(addr, struct.pack(_STORE_FMT[size], value & mask))


def eval_binop(op: str, a, b, ty: Type):
    """Evaluate a binary operator on normalized values of type ``ty``."""
    if ty is Type.F64:
        return _eval_float_binop(op, a, b)
    bits = 32 if ty is Type.I32 else 64
    mask = (1 << bits) - 1
    try:
        if op == "add":
            return (a + b) & mask
        if op == "sub":
            return (a - b) & mask
        if op == "mul":
            return (a * b) & mask
        if op == "div_s":
            return intops.div_s(a, b, bits)
        if op == "div_u":
            return intops.div_u(a, b, bits)
        if op == "rem_s":
            return intops.rem_s(a, b, bits)
        if op == "rem_u":
            return intops.rem_u(a, b, bits)
        if op == "and":
            return a & b
        if op == "or":
            return a | b
        if op == "xor":
            return a ^ b
        if op == "shl":
            return intops.shl(a, b, bits)
        if op == "shr_s":
            return intops.shr_s(a, b, bits)
        if op == "shr_u":
            return intops.shr_u(a, b, bits)
        if op == "rotl":
            return intops.rotl(a, b, bits)
        if op == "rotr":
            return intops.rotr(a, b, bits)
    except ZeroDivisionError as exc:
        raise TrapError(str(exc)) from None
    sa, sb = intops.signed(a, bits), intops.signed(b, bits)
    if op == "eq":
        return 1 if a == b else 0
    if op == "ne":
        return 1 if a != b else 0
    if op == "lt_s":
        return 1 if sa < sb else 0
    if op == "lt_u":
        return 1 if a < b else 0
    if op == "le_s":
        return 1 if sa <= sb else 0
    if op == "le_u":
        return 1 if a <= b else 0
    if op == "gt_s":
        return 1 if sa > sb else 0
    if op == "gt_u":
        return 1 if a > b else 0
    if op == "ge_s":
        return 1 if sa >= sb else 0
    if op == "ge_u":
        return 1 if a >= b else 0
    raise TrapError(f"unknown int op {op}")


def _eval_float_binop(op: str, a: float, b: float):
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        if b == 0.0:
            return float("inf") if a > 0 else float("-inf") if a < 0 else float("nan")
        return a / b
    if op == "min":
        return min(a, b)
    if op == "max":
        return max(a, b)
    if op == "copysign":
        import math
        return math.copysign(a, b)
    if op == "eq":
        return 1 if a == b else 0
    if op == "ne":
        return 1 if a != b else 0
    if op == "lt":
        return 1 if a < b else 0
    if op == "le":
        return 1 if a <= b else 0
    if op == "gt":
        return 1 if a > b else 0
    if op == "ge":
        return 1 if a >= b else 0
    raise TrapError(f"unknown float op {op}")


def eval_unop(op: str, a, src_ty: Type):
    """Evaluate a unary operator on a normalized value of ``src_ty``."""
    import math
    try:
        if op == "eqz":
            return 1 if a == 0 else 0
        if op == "clz":
            return intops.clz(a, 32 if src_ty is Type.I32 else 64)
        if op == "ctz":
            return intops.ctz(a, 32 if src_ty is Type.I32 else 64)
        if op == "popcnt":
            return intops.popcnt(a, 32 if src_ty is Type.I32 else 64)
        if op == "neg":
            return -a
        if op == "abs":
            return abs(a)
        if op == "sqrt":
            return math.sqrt(a) if a >= 0 else float("nan")
        if op == "ceil":
            return float(math.ceil(a))
        if op == "floor":
            return float(math.floor(a))
        if op == "trunc":
            return float(math.trunc(a))
        if op == "nearest":
            return float(round(a))
        if op == "i64_extend_i32_s":
            return intops.signed32(a) & intops.MASK64
        if op == "i64_extend_i32_u":
            return a & intops.MASK32
        if op == "i32_wrap_i64":
            return a & intops.MASK32
        if op == "f64_convert_i32_s":
            return float(intops.signed32(a))
        if op == "f64_convert_i32_u":
            return float(a & intops.MASK32)
        if op == "f64_convert_i64_s":
            return float(intops.signed64(a))
        if op == "f64_convert_i64_u":
            return float(a & intops.MASK64)
        if op == "i32_trunc_f64_s":
            return intops.trunc_f64(a, 32, True)
        if op == "i32_trunc_f64_u":
            return intops.trunc_f64(a, 32, False)
        if op == "i64_trunc_f64_s":
            return intops.trunc_f64(a, 64, True)
        if op == "i64_trunc_f64_u":
            return intops.trunc_f64(a, 64, False)
    except ArithmeticError as exc:
        raise TrapError(str(exc)) from None
    raise TrapError(f"unknown unary op {op}")
