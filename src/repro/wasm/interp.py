"""WebAssembly interpreter (MVP) with table dispatch.

A stack-machine interpreter over decoded modules, used as the semantic
reference for WebAssembly execution: the differential tests check that
the Chrome/Firefox JIT pipelines produce x86 code whose behaviour
matches direct interpretation of the same module.

Execution is driven by a pre-decoded instruction stream: each function
body is decoded once (per instance) into a list of ``(kind, payload)``
entries.  Structured control flow (matching ``end``, ``else`` targets,
block arities) is resolved at decode time so branches are O(1), and
every numeric/memory/const opcode becomes a single precomputed handler
closure from the module-level opcode tables below — the hot loop does
one list index, one small-int compare, and one call per step instead of
walking an if/elif chain over opcode strings.
"""

from __future__ import annotations

import math
import struct

from ..errors import FuelExhausted, LinkError, ReproError, TrapError
from ..ir import intops
from .module import PAGE_SIZE, WasmModule
from .validate import validate_module

_M32 = 0xFFFFFFFF
_M64 = 0xFFFFFFFFFFFFFFFF

_LOAD_FMT = {
    "i32.load": ("<I", 4, False, 32), "i64.load": ("<Q", 8, False, 64),
    "i32.load8_s": ("<b", 1, True, 32), "i32.load8_u": ("<B", 1, False, 32),
    "i32.load16_s": ("<h", 2, True, 32), "i32.load16_u": ("<H", 2, False, 32),
    "i64.load8_s": ("<b", 1, True, 64), "i64.load8_u": ("<B", 1, False, 64),
    "i64.load16_s": ("<h", 2, True, 64),
    "i64.load16_u": ("<H", 2, False, 64),
    "i64.load32_s": ("<i", 4, True, 64),
    "i64.load32_u": ("<I", 4, False, 64),
}
_STORE_FMT = {
    "i32.store": ("<I", 4, 32), "i64.store": ("<Q", 8, 64),
    "i32.store8": ("<B", 1, 8), "i32.store16": ("<H", 2, 16),
    "i64.store8": ("<B", 1, 8), "i64.store16": ("<H", 2, 16),
    "i64.store32": ("<I", 4, 32),
}


def _match_control(body):
    """Map each block/loop/if index to (end index, else index or None)."""
    matches = {}
    stack = []
    for i, instr in enumerate(body):
        op = instr.op
        if op in ("block", "loop", "if"):
            stack.append([i, None])
        elif op == "else":
            stack[-1][1] = i
        elif op == "end":
            start, else_idx = stack.pop()
            matches[start] = (i, else_idx)
    return matches


# ---------------------------------------------------------------------------
# Per-opcode handler tables, built once at module load.
#
# Each entry is a closure ``f(stack)`` with every immediate-free numeric
# operation fully bound; the decoder binds immediates (constants, memory
# offsets) into per-instruction closures.  Integer division, remainder
# and float-to-int truncation raise Python arithmetic errors, which the
# execution loop converts to traps.
# ---------------------------------------------------------------------------

def _int_ops(prefix: str, bits: int) -> dict:
    mask = (1 << bits) - 1
    int_min = -(1 << (bits - 1))
    signed = intops.signed
    t = {}

    def eqz(stack):
        stack.append(1 if stack.pop() == 0 else 0)

    def clz(stack):
        stack.append(intops.clz(stack.pop(), bits))

    def ctz(stack):
        stack.append(intops.ctz(stack.pop(), bits))

    def popcnt(stack):
        stack.append(intops.popcnt(stack.pop(), bits))

    t["eqz"], t["clz"], t["ctz"], t["popcnt"] = eqz, clz, ctz, popcnt

    def add(stack):
        b = stack.pop()
        stack.append((stack.pop() + b) & mask)

    def sub(stack):
        b = stack.pop()
        stack.append((stack.pop() - b) & mask)

    def mul(stack):
        b = stack.pop()
        stack.append((stack.pop() * b) & mask)

    t["add"], t["sub"], t["mul"] = add, sub, mul

    def div_s(stack):
        b = stack.pop()
        a = stack.pop()
        if signed(a, bits) == int_min and signed(b, bits) == -1:
            raise TrapError("integer overflow")
        stack.append(intops.div_s(a, b, bits))

    def div_u(stack):
        b = stack.pop()
        stack.append(intops.div_u(stack.pop(), b, bits))

    def rem_s(stack):
        b = stack.pop()
        stack.append(intops.rem_s(stack.pop(), b, bits))

    def rem_u(stack):
        b = stack.pop()
        stack.append(intops.rem_u(stack.pop(), b, bits))

    t["div_s"], t["div_u"], t["rem_s"], t["rem_u"] = \
        div_s, div_u, rem_s, rem_u

    def and_(stack):
        b = stack.pop()
        stack.append(stack.pop() & b)

    def or_(stack):
        b = stack.pop()
        stack.append(stack.pop() | b)

    def xor(stack):
        b = stack.pop()
        stack.append(stack.pop() ^ b)

    t["and"], t["or"], t["xor"] = and_, or_, xor

    for name, fn in (("shl", intops.shl), ("shr_s", intops.shr_s),
                     ("shr_u", intops.shr_u), ("rotl", intops.rotl),
                     ("rotr", intops.rotr)):
        def shift(stack, _fn=fn):
            b = stack.pop()
            stack.append(_fn(stack.pop(), b, bits))
        t[name] = shift

    def eq(stack):
        b = stack.pop()
        stack.append(1 if stack.pop() == b else 0)

    def ne(stack):
        b = stack.pop()
        stack.append(1 if stack.pop() != b else 0)

    def lt_u(stack):
        b = stack.pop()
        stack.append(1 if stack.pop() < b else 0)

    def gt_u(stack):
        b = stack.pop()
        stack.append(1 if stack.pop() > b else 0)

    def le_u(stack):
        b = stack.pop()
        stack.append(1 if stack.pop() <= b else 0)

    def ge_u(stack):
        b = stack.pop()
        stack.append(1 if stack.pop() >= b else 0)

    def lt_s(stack):
        b = stack.pop()
        stack.append(1 if signed(stack.pop(), bits) < signed(b, bits)
                     else 0)

    def gt_s(stack):
        b = stack.pop()
        stack.append(1 if signed(stack.pop(), bits) > signed(b, bits)
                     else 0)

    def le_s(stack):
        b = stack.pop()
        stack.append(1 if signed(stack.pop(), bits) <= signed(b, bits)
                     else 0)

    def ge_s(stack):
        b = stack.pop()
        stack.append(1 if signed(stack.pop(), bits) >= signed(b, bits)
                     else 0)

    t["eq"], t["ne"] = eq, ne
    t["lt_u"], t["gt_u"], t["le_u"], t["ge_u"] = lt_u, gt_u, le_u, ge_u
    t["lt_s"], t["gt_s"], t["le_s"], t["ge_s"] = lt_s, gt_s, le_s, ge_s

    def trunc(stack, _s=True):
        stack.append(intops.trunc_f64(stack.pop(), bits, _s))

    for name in ("trunc_f32_s", "trunc_f64_s"):
        t[name] = trunc
    for name in ("trunc_f32_u", "trunc_f64_u"):
        def trunc_u(stack):
            stack.append(intops.trunc_f64(stack.pop(), bits, False))
        t[name] = trunc_u

    if bits == 32:
        def wrap(stack):
            stack.append(stack.pop() & _M32)

        def reinterpret(stack):
            stack.append(struct.unpack(
                "<I", struct.pack("<f", stack.pop()))[0])

        t["wrap_i64"] = wrap
        t["reinterpret_f32"] = reinterpret
    else:
        def extend_s(stack):
            stack.append(intops.signed32(stack.pop()) & _M64)

        def extend_u(stack):
            stack.append(stack.pop() & _M32)

        def reinterpret(stack):
            stack.append(intops.f64_bits(stack.pop()))

        t["extend_i32_s"] = extend_s
        t["extend_i32_u"] = extend_u
        t["reinterpret_f64"] = reinterpret

    return {f"{prefix}.{name}": fn for name, fn in t.items()}


def _float_ops(prefix: str) -> dict:
    f32 = prefix == "f32"

    def narrow(x: float) -> float:
        if f32:
            return struct.unpack("<f", struct.pack("<f", x))[0]
        return x

    t = {}

    def add(stack):
        b = stack.pop()
        stack.append(narrow(stack.pop() + b))

    def sub(stack):
        b = stack.pop()
        stack.append(narrow(stack.pop() - b))

    def mul(stack):
        b = stack.pop()
        stack.append(narrow(stack.pop() * b))

    def div(stack):
        b = stack.pop()
        a = stack.pop()
        if b == 0.0:
            stack.append(float("inf") if a > 0
                         else float("-inf") if a < 0 else float("nan"))
        else:
            stack.append(narrow(a / b))

    t["add"], t["sub"], t["mul"], t["div"] = add, sub, mul, div

    def fmin(stack):
        b = stack.pop()
        stack.append(min(stack.pop(), b))

    def fmax(stack):
        b = stack.pop()
        stack.append(max(stack.pop(), b))

    def copysign(stack):
        b = stack.pop()
        stack.append(math.copysign(stack.pop(), b))

    t["min"], t["max"], t["copysign"] = fmin, fmax, copysign

    def eq(stack):
        b = stack.pop()
        stack.append(1 if stack.pop() == b else 0)

    def ne(stack):
        b = stack.pop()
        stack.append(1 if stack.pop() != b else 0)

    def lt(stack):
        b = stack.pop()
        stack.append(1 if stack.pop() < b else 0)

    def gt(stack):
        b = stack.pop()
        stack.append(1 if stack.pop() > b else 0)

    def le(stack):
        b = stack.pop()
        stack.append(1 if stack.pop() <= b else 0)

    def ge(stack):
        b = stack.pop()
        stack.append(1 if stack.pop() >= b else 0)

    t["eq"], t["ne"], t["lt"], t["gt"], t["le"], t["ge"] = \
        eq, ne, lt, gt, le, ge

    def fabs(stack):
        stack.append(narrow(abs(stack.pop())))

    def neg(stack):
        stack.append(narrow(-stack.pop()))

    def ceil(stack):
        stack.append(narrow(float(math.ceil(stack.pop()))))

    def floor(stack):
        stack.append(narrow(float(math.floor(stack.pop()))))

    def trunc(stack):
        stack.append(narrow(float(math.trunc(stack.pop()))))

    def nearest(stack):
        stack.append(narrow(float(round(stack.pop()))))

    def sqrt(stack):
        value = stack.pop()
        stack.append(narrow(math.sqrt(value) if value >= 0
                            else float("nan")))

    t["abs"], t["neg"], t["ceil"], t["floor"] = fabs, neg, ceil, floor
    t["trunc"], t["nearest"], t["sqrt"] = trunc, nearest, sqrt

    for name, bits, is_signed in (("convert_i32_s", 32, True),
                                  ("convert_i32_u", 32, False),
                                  ("convert_i64_s", 64, True),
                                  ("convert_i64_u", 64, False)):
        if is_signed:
            def convert(stack, _b=bits):
                stack.append(narrow(float(intops.signed(stack.pop(), _b))))
        else:
            def convert(stack, _m=(1 << bits) - 1):
                stack.append(narrow(float(stack.pop() & _m)))
        t[name] = convert

    def requantize(stack):
        stack.append(narrow(stack.pop()))

    if f32:
        t["demote_f64"] = requantize

        def reinterpret(stack):
            stack.append(struct.unpack(
                "<f", struct.pack("<I", stack.pop()))[0])
        t["reinterpret_i32"] = reinterpret
    else:
        t["promote_f32"] = requantize

        def reinterpret(stack):
            stack.append(intops.bits_f64(stack.pop()))
        t["reinterpret_i64"] = reinterpret

    return {f"{prefix}.{name}": fn for name, fn in t.items()}


#: Numeric opcode -> handler(stack); ZeroDivisionError/ArithmeticError
#: raised by a handler is converted to the matching trap by the loop.
NUMERIC_TABLE = {}
NUMERIC_TABLE.update(_int_ops("i32", 32))
NUMERIC_TABLE.update(_int_ops("i64", 64))
NUMERIC_TABLE.update(_float_ops("f32"))
NUMERIC_TABLE.update(_float_ops("f64"))


def _op_drop(stack):
    stack.pop()


def _op_select(stack):
    cond = stack.pop()
    b = stack.pop()
    a = stack.pop()
    stack.append(a if cond else b)


def _op_nop(stack):
    pass


def _op_unreachable(stack):
    raise TrapError("unreachable executed")


def _const_fn(value):
    def push(stack):
        stack.append(value)
    return push


def _load_fn(memory, fmt, width, mask, offset):
    unpack_from = struct.unpack_from

    def load(stack):
        addr = stack.pop() + offset
        if addr < 0 or addr + width > len(memory):
            raise TrapError("out-of-bounds memory access")
        stack.append(unpack_from(fmt, memory, addr)[0] & mask)
    return load


def _fload_fn(memory, fmt, width, offset):
    unpack_from = struct.unpack_from

    def load(stack):
        addr = stack.pop() + offset
        if addr < 0 or addr + width > len(memory):
            raise TrapError("out-of-bounds memory access")
        stack.append(unpack_from(fmt, memory, addr)[0])
    return load


def _store_fn(memory, fmt, width, mask, offset):
    pack_into = struct.pack_into

    def store(stack):
        value = stack.pop()
        addr = stack.pop() + offset
        if addr < 0 or addr + width > len(memory):
            raise TrapError("out-of-bounds memory access")
        pack_into(fmt, memory, addr, value & mask)
    return store


def _fstore_fn(memory, fmt, width, offset):
    pack_into = struct.pack_into

    def store(stack):
        value = stack.pop()
        addr = stack.pop() + offset
        if addr < 0 or addr + width > len(memory):
            raise TrapError("out-of-bounds memory access")
        pack_into(fmt, memory, addr, value)
    return store


# Decoded-entry kinds (small ints: the hot loop compares these, not
# opcode strings).
K_RAW = 0            # payload(stack): consts, memory, globals, parametrics
K_NUM = 1            # payload(stack) with arithmetic-trap conversion
K_LOCAL_GET = 2      # payload: local index
K_LOCAL_SET = 3
K_LOCAL_TEE = 4
K_END = 5
K_BLOCK = 6          # payload: (op, start, end, arity)
K_IF = 7             # payload: (start, end, else index or None, arity)
K_ELSE = 8           # payload: end index (jump target)
K_BR = 9             # payload: depth
K_BR_IF = 10
K_BR_TABLE = 11      # payload: (targets tuple, default depth)
K_RETURN = 12
K_CALL = 13          # payload: (func index, nargs, result type or None)
K_CALL_INDIRECT = 14  # payload: (expected func type, type index)


class WasmInstance:
    """An instantiated module: memory, table, globals, and execution."""

    #: Default fuel: taken branches before a loop is declared runaway.
    #: Matches the x86 executor's 2G-instruction budget in spirit; every
    #: loop iteration takes at least one taken branch, so a hung guest
    #: raises ``TrapError("fuel exhausted: ...")`` instead of spinning.
    DEFAULT_FUEL = 2_000_000_000

    def __init__(self, module: WasmModule, host=None, validate: bool = True,
                 max_call_depth: int = 2000, max_fuel: int = None):
        if validate:
            validate_module(module)
        self.module = module
        self.host = host
        self._name_cache = {}
        initial, maximum = module.memory_pages
        self.memory = bytearray(initial * PAGE_SIZE)
        self.max_pages = maximum
        self.globals = [self._eval_const(g.init) for g in module.globals]
        self.table = list(module.table)
        self.max_call_depth = max_call_depth
        self.call_depth = 0
        self.max_fuel = max_fuel if max_fuel is not None else \
            self.DEFAULT_FUEL
        #: Taken branches so far, shared across nested calls.
        self.fuel_used = 0
        self._imports = [imp for imp in module.imports if imp.kind == "func"]
        self._decode_cache = {}
        #: --check-ranges oracle facts from the "repro-ranges" custom
        #: section, rekeyed by function identity: {id(WasmFunction):
        #: {local index: Ival}}.  Empty unless the producer emitted them.
        self._range_facts = {}
        for func_pos, locs in getattr(module, "ranges", {}).items():
            from ..dataflow.interval import Ival
            self._range_facts[id(module.functions[func_pos])] = {
                local: Ival(bits, lo, hi, maybe)
                for local, (bits, lo, hi, maybe) in locs.items()}
        for seg in module.data:
            self.memory[seg.offset:seg.offset + len(seg.data)] = seg.data

    @staticmethod
    def _eval_const(instr):
        if instr.op in ("i32.const", "i64.const", "f32.const", "f64.const"):
            value = instr.args[0]
            if instr.op == "i32.const":
                return value & _M32
            if instr.op == "i64.const":
                return value & _M64
            return float(value)
        raise TrapError(f"unsupported constant initializer {instr.op}")

    # -- embedder API -----------------------------------------------------------

    def read_mem(self, addr: int, length: int) -> bytes:
        if addr < 0 or addr + length > len(self.memory):
            raise TrapError(f"out-of-bounds read at {addr:#x}")
        return bytes(self.memory[addr:addr + length])

    def write_mem(self, addr: int, data: bytes) -> None:
        if addr < 0 or addr + len(data) > len(self.memory):
            raise TrapError(f"out-of-bounds write at {addr:#x}")
        self.memory[addr:addr + len(data)] = data

    def invoke(self, export_name: str, args=()):
        index = self.module.export_index(export_name)
        if index is None:
            raise LinkError(f"no exported function {export_name}")
        # Guest boundary: any raw Python error escaping the interpreter
        # (the kind the fuzz suite hunts for) degrades into a TrapError,
        # so a misbehaving module can never abort the embedder.
        try:
            return self._call_function(index, list(args))
        except ReproError:
            raise
        except (IndexError, KeyError, ValueError, TypeError,
                ArithmeticError, MemoryError, UnicodeDecodeError,
                struct.error, RecursionError) as exc:
            raise TrapError(
                f"interpreter fault: {type(exc).__name__}: {exc}") from exc

    # -- pre-decoding ----------------------------------------------------------------

    def _memory_grow(self, stack) -> None:
        delta = stack.pop()
        old = len(self.memory) // PAGE_SIZE
        new = old + delta
        if self.max_pages is not None and new > self.max_pages:
            stack.append(_M32)  # -1
        else:
            # extend() keeps the bytearray's identity, so the decoded
            # memory closures stay valid after growth.
            self.memory.extend(bytes(delta * PAGE_SIZE))
            stack.append(old)

    def _decode_body(self, body):
        """Decode one function body into (kind, payload) entries."""
        matches = _match_control(body)
        numeric = NUMERIC_TABLE
        memory = self.memory
        globals_ = self.globals
        module = self.module
        code = []
        for i, instr in enumerate(body):
            op = instr.op
            if op == "local.get":
                entry = (K_LOCAL_GET, instr.args[0])
            elif op == "local.set":
                entry = (K_LOCAL_SET, instr.args[0])
            elif op == "local.tee":
                entry = (K_LOCAL_TEE, instr.args[0])
            elif op == "i32.const":
                entry = (K_RAW, _const_fn(instr.args[0] & _M32))
            elif op == "i64.const":
                entry = (K_RAW, _const_fn(instr.args[0] & _M64))
            elif op in ("f32.const", "f64.const"):
                entry = (K_RAW, _const_fn(float(instr.args[0])))
            elif op in ("block", "loop"):
                end, _else = matches[i]
                entry = (K_BLOCK, (op, i, end,
                                   1 if instr.args[0] else 0))
            elif op == "if":
                end, else_idx = matches[i]
                entry = (K_IF, (i, end, else_idx,
                                1 if instr.args[0] else 0))
            elif op == "else":
                # Falling into else after the then-arm: jump to end.
                entry = (K_ELSE, self._enclosing_end(matches, body, i))
            elif op == "end":
                entry = (K_END, None)
            elif op == "br":
                entry = (K_BR, instr.args[0])
            elif op == "br_if":
                entry = (K_BR_IF, instr.args[0])
            elif op == "br_table":
                targets, default = instr.args
                entry = (K_BR_TABLE, (tuple(targets), default))
            elif op == "return":
                entry = (K_RETURN, None)
            elif op == "call":
                index = instr.args[0]
                ftype = module.func_type_of(index)
                result = ftype.results[0] if ftype.results else None
                entry = (K_CALL, (index, len(ftype.params), result))
            elif op == "call_indirect":
                entry = (K_CALL_INDIRECT,
                         (module.types[instr.args[0]], instr.args[0]))
            elif op == "drop":
                entry = (K_RAW, _op_drop)
            elif op == "select":
                entry = (K_RAW, _op_select)
            elif op == "nop":
                entry = (K_RAW, _op_nop)
            elif op == "unreachable":
                entry = (K_RAW, _op_unreachable)
            elif op == "global.get":
                def g_get(stack, _g=globals_, _i=instr.args[0]):
                    stack.append(_g[_i])
                entry = (K_RAW, g_get)
            elif op == "global.set":
                def g_set(stack, _g=globals_, _i=instr.args[0]):
                    _g[_i] = stack.pop()
                entry = (K_RAW, g_set)
            elif op == "memory.size":
                def mem_size(stack, _m=memory):
                    stack.append(len(_m) // PAGE_SIZE)
                entry = (K_RAW, mem_size)
            elif op == "memory.grow":
                def mem_grow(stack, _self=self):
                    _self._memory_grow(stack)
                entry = (K_RAW, mem_grow)
            elif op in ("f32.load", "f64.load"):
                width = 8 if op == "f64.load" else 4
                fmt = "<d" if op == "f64.load" else "<f"
                entry = (K_RAW, _fload_fn(memory, fmt, width,
                                          instr.args[1]))
            elif op in _LOAD_FMT:
                fmt, width, _signed, bits = _LOAD_FMT[op]
                entry = (K_RAW, _load_fn(memory, fmt, width,
                                         (1 << bits) - 1, instr.args[1]))
            elif op in ("f32.store", "f64.store"):
                width = 8 if op == "f64.store" else 4
                fmt = "<d" if op == "f64.store" else "<f"
                entry = (K_RAW, _fstore_fn(memory, fmt, width,
                                           instr.args[1]))
            elif op in _STORE_FMT:
                fmt, width, bits = _STORE_FMT[op]
                entry = (K_RAW, _store_fn(memory, fmt, width,
                                          (1 << bits) - 1, instr.args[1]))
            else:
                # WasmInstr admits only known opcodes; the rest are numeric.
                entry = (K_NUM, numeric[op])
            code.append(entry)
        return code

    @staticmethod
    def _enclosing_end(matches, body, else_index):
        """The end index of the if-block owning the else at else_index."""
        for start, (end, else_idx) in matches.items():
            if else_idx == else_index:
                return end
        raise TrapError("else without matching if")

    # -- execution ------------------------------------------------------------------

    def _call_function(self, func_index: int, args):
        num_imports = len(self._imports)
        if func_index < num_imports:
            imp = self._imports[func_index]
            if self.host is None:
                raise LinkError(f"unresolved import {imp.name}")
            return self.host.call(self, imp.name, args)
        func = self.module.functions[func_index - num_imports]
        ftype = self.module.types[func.type_index]
        self.call_depth += 1
        if self.call_depth > self.max_call_depth:
            self.call_depth -= 1
            raise TrapError("call stack exhausted")
        try:
            locals_ = list(args)
            for valtype in func.locals:
                locals_.append(0.0 if valtype in ("f32", "f64") else 0)
            result = self._exec_body(func, ftype, locals_)
            return result
        except RecursionError:
            raise TrapError("call stack exhausted") from None
        finally:
            self.call_depth -= 1

    def _func_name(self, func) -> str:
        name = func.name
        if name:
            return name
        key = id(func)
        cached = self._name_cache.get(key)
        if cached is None:
            index = self.module.functions.index(func)
            cached = f"f{index + len(self._imports)}"
            self._name_cache[key] = cached
        return cached

    def _range_violation(self, func, local, value, fact):
        """Raise the --check-ranges oracle failure for one local."""
        from ..ir.verify import RangeOracleError
        name = self._func_name(func)
        raise RangeOracleError(
            f"wasm local {local} in {name} took value {value!r} outside "
            f"the proved interval {fact!r}", function=name)

    def _exec_body(self, func, ftype, locals_):
        key = id(func)
        code = self._decode_cache.get(key)
        if code is None:
            code = self._decode_cache[key] = self._decode_body(func.body)
        facts = self._range_facts.get(key) if self._range_facts else None

        stack = []
        n = len(code)
        # Control stack entries: (op, start, end, else, height, arity)
        ctrl = [("func", -1, n, None, 0, len(ftype.results))]
        pc = 0
        do_branch = self._do_branch
        max_fuel = self.max_fuel

        while pc < n:
            kind, a = code[pc]
            pc += 1

            if kind == 0:                     # K_RAW
                a(stack)
            elif kind == 1:                   # K_NUM
                try:
                    a(stack)
                except ZeroDivisionError:
                    raise TrapError("integer divide by zero") from None
                except ArithmeticError as exc:
                    raise TrapError(str(exc)) from None
            elif kind == 2:                   # K_LOCAL_GET
                stack.append(locals_[a])
            elif kind == 3:                   # K_LOCAL_SET
                value = stack.pop()
                locals_[a] = value
                if facts is not None:
                    fact = facts.get(a)
                    if fact is not None and not fact.contains(
                            value & ((1 << fact.bits) - 1)):
                        self._range_violation(func, a, value, fact)
            elif kind == 4:                   # K_LOCAL_TEE
                value = stack[-1]
                locals_[a] = value
                if facts is not None:
                    fact = facts.get(a)
                    if fact is not None and not fact.contains(
                            value & ((1 << fact.bits) - 1)):
                        self._range_violation(func, a, value, fact)
            elif kind == 5:                   # K_END
                ctrl.pop()
            elif kind == 6:                   # K_BLOCK / loop
                op, start, end, arity = a
                ctrl.append((op, start, end, None, len(stack), arity))
            elif kind == 7:                   # K_IF
                start, end, else_idx, arity = a
                cond = stack.pop()
                ctrl.append(("if", start, end, else_idx,
                             len(stack), arity))
                if not cond:
                    pc = (else_idx + 1) if else_idx is not None else end
            elif kind == 8:                   # K_ELSE
                pc = a
            elif kind == 9:                   # K_BR
                self.fuel_used = fuel = self.fuel_used + 1
                if fuel > max_fuel:
                    raise FuelExhausted(
                        "fuel exhausted: wasm branch budget exceeded")
                pc = do_branch(a, ctrl, stack)
            elif kind == 10:                  # K_BR_IF
                taken = stack.pop()
                if taken:
                    self.fuel_used = fuel = self.fuel_used + 1
                    if fuel > max_fuel:
                        raise FuelExhausted(
                            "fuel exhausted: wasm branch budget exceeded")
                    pc = do_branch(a, ctrl, stack)
            elif kind == 11:                  # K_BR_TABLE
                targets, default = a
                index = stack.pop()
                depth = targets[index] if index < len(targets) else default
                self.fuel_used = fuel = self.fuel_used + 1
                if fuel > max_fuel:
                    raise FuelExhausted(
                        "fuel exhausted: wasm branch budget exceeded")
                pc = do_branch(depth, ctrl, stack)
            elif kind == 12:                  # K_RETURN
                break
            elif kind == 13:                  # K_CALL
                index, nargs, result_type = a
                if nargs:
                    args = stack[len(stack) - nargs:]
                    del stack[len(stack) - nargs:]
                else:
                    args = []
                result = self._call_function(index, args)
                if result is not None:
                    if result_type == "i32":
                        stack.append(int(result) & _M32)
                    elif result_type == "i64":
                        stack.append(int(result) & _M64)
                    elif result_type is None:
                        stack.append(result)
                    else:
                        stack.append(float(result))
            else:                             # K_CALL_INDIRECT
                expect, _type_index = a
                index = stack.pop()
                if not 0 <= index < len(self.table):
                    raise TrapError("undefined table element")
                target = self.table[index]
                actual = self.module.func_type_of(target)
                if expect != actual:
                    raise TrapError("indirect call type mismatch")
                nargs = len(expect.params)
                args = stack[len(stack) - nargs:]
                del stack[len(stack) - nargs:]
                result = self._call_function(target, args)
                if result is not None and expect.results:
                    stack.append(result)

        if ftype.results:
            return stack[-1] if stack else 0
        return None

    @staticmethod
    def _do_branch(depth, ctrl, stack):
        """Unwind to the target frame; returns the new pc."""
        target = ctrl[len(ctrl) - 1 - depth]
        op, start, end, _else, height, arity = target
        # Preserve the branch operands, discard the rest.
        if arity and op != "loop":
            operands = stack[len(stack) - arity:]
            del stack[height:]
            stack.extend(operands)
        else:
            del stack[height:]
        if op == "loop":
            # Back edge: unwind to (but keep) the loop frame.
            if depth:
                del ctrl[len(ctrl) - depth:]
            return start + 1
        # Forward branch: the target frame is popped too (its `end` is
        # skipped), and execution resumes after it.
        del ctrl[len(ctrl) - depth - 1:]
        return end + 1 if op != "func" else 10 ** 9
