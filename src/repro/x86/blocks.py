"""Block-threaded execution for :class:`~repro.x86.machine.X86Machine`.

A block runs from an entry index to the first ``jcc``, ``jmp``, ``call``,
``callr``, ``ret``, ``hostcall``, ``trap`` or unknown opcode, or to the
function's end.  Blocks run on two tiers.

*Closures*, the baseline tier: on first entry a block becomes one
closure per instruction, operands, masks and bounds bound as closure
variables; a register or immediate ``cmp``/``test`` joins the closure of
the ``jcc`` after it.  Flag writes no path reads are dropped (calls,
returns, host calls, traps and the function's end read every flag).
Building closures costs about 6 µs per instruction.

*Generated code*, the hot tier: before each run the loop compares the
block's runs on its machine with :data:`HOT_RUNS`, and a block that has
reached it is compiled with ``compile()`` into one Python function.
That function runs register and immediate moves, ALU ops with dead
flags, ``lea``, ``shl`` by an immediate, loads and stores with their
bounds check, and register ``addsd``/``subsd``/``mulsd`` as inline
statements, operands, masks and bounds as literals, and calls the
block's closure for every other kind.  A block ending in a ``jcc``
returns the branch outcome: a register or immediate ``cmp`` before it
runs inline and writes its flags only on the path that reads them, as
its closure does.  Instruction ``j`` of the block is line ``j + 2`` of
the function, so a trap's offset is the generated frame's line number
in the traceback and the fast path records no position.  Every machine
generates its own code; nothing is shared across machines.

``compile()`` costs 25-50 µs per instruction, so only blocks that keep
running repay it.  Blocks that reach 1,024 runs hold 81% of the dynamic
instructions of the ref-size SPEC2006 cells and 35-37% at test size.
In CPU time of interleaved sweeps of eight test-size SPEC proxies x
{native, chrome, firefox}, a threshold of 0 ran 49% slower than closures
alone, 128 ran 13% slower, 512 4% slower, and 1,024 and 2,048 no
slower.

On either tier a run of a block counts one run (times its static counter
deltas when the call returns), fetches its i-cache lines and checks fuel
and the deadline once.  A block that would cross the checkpoint steps
one instruction at a time on its closures, and a trap charges exactly
the instructions up to the trapping one, so counters, i-cache state,
``FuelExhausted``, ``CellTimeout`` and trap text equal the reference
loop's.  Counters charged after a trap point (a memory-operand ALU op's
store and multiply, a ``divsd`` from memory's fdivs) go to
``X86Machine._dyn`` from the closure.  Neither tier binds the machine or
a block, so reference counting alone frees a finished machine.
"""

from __future__ import annotations

import operator
import re
import struct
import sys
from functools import partial
from time import monotonic as _monotonic
from time import perf_counter

from ..errors import CellTimeout, FuelExhausted, TrapError
from ..obs import get_registry
from .machine import (
    _COND_EXPRS, _COND_IDX, _CONDS, _M32, _M64, K_ALU, K_CALL, K_CALLR, K_CMP,
    K_CVTSI2SD, K_CVTTSD2SI, K_HOSTCALL, K_IDIV, K_JCC, K_JMP, K_LEA,
    K_MOV_LOAD, K_MOV_RI, K_MOV_RR, K_MOV_RR32, K_MOV_STORE_I,
    K_MOV_STORE_R, K_MOVSD_LOAD, K_MOVSD_RR, K_MOVSD_STORE, K_MOVX, K_NEG,
    K_PD, K_POP, K_PUSH, K_RET, K_SETCC, K_SHIFT, K_SQRTSD, K_SSE, K_TEST,
    K_TRAP, K_UCOMISD, K_UNKNOWN, SHARED_OPS, _alu_result, _cond_of, _ea_of,
    _load_mem, _store_mem, _sub_flags,
)
from .perf import PerfCounters
from .registers import RSP

_SLOTS = PerfCounters.__slots__
_INS, _LOADS, _STORES, _BR, _COND, _CALLS, _MULS, _DIVS, _FDIVS, _FPU = \
    range(len(_SLOTS))

ZF, SF, OF, CF = 1, 2, 4, 8
ALL_FLAGS = ZF | SF | OF | CF
#: Flags read by each condition index of ``machine._COND_IDX``.
_COND_READS = (ZF, ZF, SF | OF, ZF | SF | OF, ZF | SF | OF, SF | OF,
               CF, CF | ZF, CF | ZF, CF, SF, SF)
_FLAG_WRITES = {K_ALU: ALL_FLAGS, K_CMP: ALL_FLAGS, K_TEST: ALL_FLAGS,
                K_UCOMISD: ALL_FLAGS, K_NEG: ALL_FLAGS, K_SHIFT: ZF | SF}

# Terminator kinds; T_FALL ends a block that runs off its function.
T_JCC, T_JMP, T_CALL, T_CALLR, T_RET, T_HOST, T_RAISE, T_FALL = range(8)
_TERMINATORS = {K_JCC: T_JCC, K_JMP: T_JMP, K_CALL: T_CALL,
                K_CALLR: T_CALLR, K_RET: T_RET, K_HOSTCALL: T_HOST,
                K_TRAP: T_RAISE, K_UNKNOWN: T_RAISE}
#: Plain loads and stores.
_MEM_KINDS = (K_MOV_LOAD, K_MOV_STORE_R, K_MOV_STORE_I, K_MOVSD_LOAD,
              K_MOVSD_STORE)

# Loads and stores by size in bytes; 0 is an SSE double.
_LD = {n: struct.Struct(f).unpack_from
       for n, f in ((1, "<B"), (2, "<H"), (4, "<I"), (8, "<Q"), (0, "<d"))}
_ST = {n: struct.Struct(f).pack_into
       for n, f in ((1, "<B"), (2, "<H"), (4, "<I"), (8, "<Q"), (0, "<d"))}
#: Python operators by symbol: closures call them, generated code
#: inlines the symbol.
_OPERATORS = {"+": operator.add, "-": operator.sub, "&": operator.and_,
              "|": operator.or_, "^": operator.xor, "*": operator.mul,
              "==": operator.eq, "!=": operator.ne, "<": operator.lt,
              "<=": operator.le, ">": operator.gt, ">=": operator.ge}
#: ALU index -> operator.
_BINOP = ("+", "-", "&", "|", "^", "*")
#: A flags-free cmp + jcc: condition index -> comparison of the operands
#: (sign-flipped for the signed conditions 2-5).
_RELATION = ("==", "!=", "<", "<=", ">", ">=", "<", "<=", ">", ">=")
# Block list fields read outside the run loop.
_COUNT, _META, _CODE, _SETTLED = 8, 9, 10, 11

#: Runs of a block on its machine before the next one is on generated
#: code (see the module docstring); 0 generates a block before its
#: first run.
HOT_RUNS = 1024


def _cond_reads(cond) -> int:
    cond = _COND_IDX.get(cond) if isinstance(cond, str) else cond
    return ALL_FLAGS if cond is None else _COND_READS[cond]


def flag_liveness(dcode) -> list:
    """Flags live on entry to each decoded instruction (and the end):
    some path from there reads them before overwriting them."""
    n = len(dcode)
    live = [0] * n + [ALL_FLAGS]
    changed = True
    while changed:
        changed = False
        for j in range(n - 1, -1, -1):
            kind, pay = dcode[j][0], dcode[j][1]
            if kind == K_JCC:
                new = live[j + 1] | live[pay[1]] | _cond_reads(pay[0])
            elif kind == K_JMP:
                new = live[pay]
            elif kind in _TERMINATORS:
                new = ALL_FLAGS
            else:
                new = live[j + 1] & ~_FLAG_WRITES.get(kind, 0)
                if kind == K_SETCC:
                    new |= _cond_reads(pay[1])
            if new != live[j]:
                live[j] = new
                changed = True
    return live


def _delta(kind, pay) -> tuple:
    """Counters the reference loop charges for one instruction before
    its first trap point."""
    d = [1] + [0] * (len(_SLOTS) - 1)
    if kind in (K_MOV_LOAD, K_POP, K_MOVSD_LOAD, K_RET):
        d[_LOADS] = 1
    elif kind in (K_MOV_STORE_R, K_MOV_STORE_I, K_PUSH, K_MOVSD_STORE):
        d[_STORES] = 1
    elif kind == K_ALU:
        d[_LOADS] = int(pay[3] or pay[4] == 2)
        d[_MULS] = int(pay[0] == 5 and not d[_LOADS])
    elif kind in (K_CMP, K_TEST, K_IDIV, K_MOVX, K_SHIFT):
        d[_LOADS] = int(pay[{K_IDIV: 1, K_CMP: 4, K_TEST: 4}.get(kind, 2)])
        d[_STORES] = d[_LOADS] if kind == K_SHIFT else 0
        d[_DIVS] = int(kind == K_IDIV)
    elif kind in (K_SSE, K_UCOMISD, K_SQRTSD, K_PD, K_CVTSI2SD,
                  K_CVTTSD2SI):
        b_is_mem = pay[2] if kind in (K_SSE, K_PD) else \
            pay[1] if kind in (K_UCOMISD, K_SQRTSD) else 0
        d[_FPU], d[_LOADS] = 1, int(b_is_mem)
        d[_FDIVS] = int(kind == K_SSE and pay[0] == 3 and not b_is_mem)
    if kind in (K_JCC, K_JMP, K_RET, K_CALL, K_CALLR, K_HOSTCALL):
        d[_BR] = 1
        d[_COND] = int(kind == K_JCC)
    if kind in (K_CALL, K_CALLR, K_HOSTCALL):
        d[_CALLS] = 1
        d[_STORES] = int(kind != K_HOSTCALL)
        d[_LOADS] = int(kind == K_CALLR and pay[1])
    return tuple(d)


def _fetch_lines(spans, last_line) -> tuple:
    """The i-cache lines the reference loop touches fetching ``spans``
    ((first, last) line pairs) after ``last_line``."""
    out = []
    for first, last in spans:
        out.extend(line for line in range(first, last + 1)
                   if line != last_line)
        last_line = last
    return tuple(out)


def _branch_test(cond, F):
    """A jcc condition over the flags cell (unknown conditions trap)."""
    return partial(_CONDS[cond], F) if isinstance(cond, int) \
        else partial(_cond_of, F, cond)


def _reg_compare(pay) -> bool:
    """A cmp or test of a register with a register or an immediate, 32
    or 64 bits wide: the shape a jcc after it takes over."""
    return pay[0] == 0 and pay[2] != 2 and pay[5] in (4, 8)


def _compare(kind, pay, regs, F, live, cond=None, live_taken=0):
    """A register/immediate 32/64-bit cmp or test (None for any other
    shape).  Given the ``cond`` of the jcc it precedes, the closure
    returns the branch outcome, and a cmp writes its flags only when the
    path taken (``live_taken`` or ``live`` after a fall-through) reads
    them."""
    if not _reg_compare(pay):
        return None
    _ak, x, bk, y, _nl, _size, mask, shift = pay
    ys, yi = (regs, y) if bk == 0 else ((y,), 0)
    if kind == K_CMP and isinstance(cond, int) and cond < 10:
        rel = _OPERATORS[_RELATION[cond]]
        flip = 1 << shift if 2 <= cond <= 5 else 0
        if not live and not live_taken:
            return lambda: rel(regs[x] & mask ^ flip, ys[yi] & mask ^ flip)

        def branch():
            a = regs[x] & mask
            b = ys[yi] & mask
            taken = rel(a ^ flip, b ^ flip)
            if live_taken if taken else live:
                _sub_flags(F, a, b, mask, shift)
            return taken
        return branch
    flags = partial(SHARED_OPS[kind], regs, None, None, F, pay)
    if cond is None:
        return flags
    test = _branch_test(cond, F)

    def op():
        flags()
        return test()
    return op


def _mem_access(kind, pay) -> tuple:
    """A plain load or store as ``(base, index, scale, disp, size, what,
    fmt, file, reg, vmask)``: the address, the bytes it must have in
    bounds, the trap text's verb, the ``_LD``/``_ST`` key, and the
    register ``file[reg]`` loaded or stored (masked by ``vmask`` when
    not None); a store of an immediate has file None and the value as
    ``reg``."""
    if kind in (K_MOVSD_LOAD, K_MOVSD_STORE):
        reg, mem = pay if kind == K_MOVSD_LOAD else pay[::-1]
        return (mem.base, mem.index, mem.scale, mem.disp, 8,
                "read" if kind == K_MOVSD_LOAD else "write", 0, "xmm", reg,
                None)
    if kind == K_MOV_LOAD:
        reg, base, index, scale, disp, size, wmask = pay
        # A 32-bit load of a 64-bit slot keeps the low half.
        return (base, index, scale, disp, size, "load",
                4 if size == 8 and wmask == _M32 else size, "regs", reg, None)
    base, index, scale, disp, size = pay[:5]
    if kind == K_MOV_STORE_R:
        return (base, index, scale, disp, size, "store", size, "regs",
                pay[6], pay[5])
    return (base, index, scale, disp, size, "store", size, None,
            int.from_bytes(pay[5], "little"), None)


def _oob(what, a):
    raise TrapError(f"out-of-bounds {what} at {a:#x}")


def _mem_op(kind, pay, regs, xmm, memory):
    """A plain load or store.  Every address is ``regs[b] * bs +
    regs[x] * xs + disp``, with zero scales for absent registers."""
    base, index, scale, disp, size, what, fmt, file, reg, vmask = \
        _mem_access(kind, pay)
    b, bs = (0, 0) if base is None else (base, 1)
    x, xs = (0, 0) if index is None else (index, scale)
    end = len(memory) - size
    values = regs if file == "regs" else xmm if file else (reg,)
    key = 0 if file is None else reg
    if kind in (K_MOV_LOAD, K_MOVSD_LOAD):
        ld = _LD[fmt]

        def op():
            a = (regs[b] * bs + regs[x] * xs + disp) & _M64
            if a > end:
                _oob(what, a)
            values[key] = ld(memory, a)[0]
        return op
    st = _ST[fmt]

    def op():
        a = (regs[b] * bs + regs[x] * xs + disp) & _M64
        if a > end:
            _oob(what, a)
        st(memory, a, values[key] if vmask is None else values[key] & vmask)
    return op


def _alu_wmask(pay):
    """The register mask of a flags-free register ALU op (None when the
    op takes the reference handler: live flags or a memory operand)."""
    alu, _a, _b, a_is_mem, b_kind, size, _bits, mask = pay[:8]
    if a_is_mem or b_kind == 2:
        return None
    # and/or/xor results are not truncated below the register.
    return mask if alu in (0, 1, 5) else (_M32 if size == 4 else _M64)


def _shl_imm(kind, pay, live) -> bool:
    """A flags-free ``shl`` of a register by an immediate."""
    return kind == K_SHIFT and not live and pay[0] == 0 and not pay[2] \
        and pay[3] is not None


def _alu_op(pay, live, regs, memory, F, dyn):
    alu, a, b, a_is_mem, b_kind, size, bits, mask, shift, sbit = pay
    wm = None if live else _alu_wmask(pay)
    if wm is not None:
        fn = _OPERATORS[_BINOP[alu]]
        if alu == 0 and b_kind == 0:
            def op():
                regs[a] = (regs[a] + regs[b]) & wm
        elif alu == 0:
            def op():
                regs[a] = (regs[a] + b) & wm
        elif b_kind == 0:
            def op():
                regs[a] = fn(regs[a], regs[b]) & wm
        else:
            def op():
                regs[a] = fn(regs[a], b) & wm
        return op

    def op():
        # The reference loop's K_ALU handler.
        if a_is_mem:
            ea = _ea_of(regs, a)
            x = _load_mem(memory, ea, a.size) & mask
        else:
            x = regs[a] & _M32 if size == 4 else regs[a]
        if b_kind == 2:
            dyn[_LOADS] += a_is_mem
            y = _load_mem(memory, _ea_of(regs, b), b.size) & mask
        else:
            y = b if b_kind else (regs[b] & _M32 if size == 4 else regs[b])
        dyn[_MULS] += alu == 5 and (a_is_mem or b_kind == 2)
        result = _alu_result(F, alu, x, y, mask, shift, sbit)
        if a_is_mem:
            dyn[_STORES] += 1
            _store_mem(memory, ea, a.size, result)
        else:
            regs[a] = result if size == 4 else result & _M64
    return op


def _make_op(kind, pay, live, regs, xmm, memory, F, dyn):
    """The closure running one non-terminator instruction, or None when
    it has no effect (a ``nop``; a cmp or test with dead flags)."""
    if kind in (K_CMP, K_TEST):
        op = _compare(kind, pay, regs, F, live)
        if op is not None and not live:
            return None
    elif kind in (K_MOV_RR, K_MOV_RR32, K_MOV_RI, K_MOVSD_RR):
        d, s = pay
        if kind == K_MOV_RI:
            def op():
                regs[d] = s
        elif kind == K_MOVSD_RR:
            def op():
                xmm[d] = xmm[s]
        else:
            m = _M32 if kind == K_MOV_RR32 else _M64

            def op():
                regs[d] = regs[s] & m
    elif kind in _MEM_KINDS:
        op = _mem_op(kind, pay, regs, xmm, memory)
    elif kind == K_ALU:
        op = _alu_op(pay, live, regs, memory, F, dyn)
    elif kind == K_LEA:
        d, mem, size = pay
        b, bs = (0, 0) if mem.base is None else (mem.base, 1)
        x, xs = (0, 0) if mem.index is None else (mem.index, mem.scale)
        disp, wm = mem.disp, _M32 if size == 4 else _M64

        def op():
            regs[d] = (regs[b] * bs + regs[x] * xs + disp) & wm
    elif _shl_imm(kind, pay, live):
        r, count, bmask = pay[1].reg, pay[3], (1 << pay[5]) - 1

        def op():
            regs[r] = (regs[r] << count) & bmask
    elif kind == K_SSE and pay[0] < 3 and not pay[2]:  # add/sub/mul reg
        fn, a, b = _OPERATORS[_BINOP[(0, 1, 5)[pay[0]]]], pay[1], pay[3]

        def op():
            xmm[a] = fn(xmm[a], xmm[b])
    else:
        op = None
    if op is None and kind in SHARED_OPS:
        op = partial(SHARED_OPS[kind], regs, xmm, memory, F, pay)
        if kind == K_SSE and pay[0] == 3 and pay[2]:
            def op(divsd=op):              # fdivs lands after the load
                divsd()
                dyn[_FDIVS] += 1
    return op


def _table(m, func) -> list:
    """The block table of ``func``: a slot per entry index plus one for
    the function's end, each filled on first entry."""
    rec = m._blocks.get(id(func))
    if rec is None:
        dcode = m._decode_func(func)
        rec = m._blocks[id(func)] = ([None] * (len(dcode) + 1), dcode,
                                      flag_liveness(dcode))
    return rec[0]


def build_block(m, func, i) -> list:
    """Translate the block entered at decoded index ``i``."""
    _btab, dcode, live = m._blocks[id(func)]
    regs, F = m.regs, m._flags
    instrs, spans, deltas, iops = [], [], [], []
    tk = T_FALL
    j = i
    while j < len(dcode):
        kind, pay, first, last, _single, ins = dcode[j]
        instrs.append(ins)
        spans.append((first, last))
        deltas.append(_delta(kind, pay))
        j += 1
        if kind in _TERMINATORS:
            tk = _TERMINATORS[kind]
            break
        iops.append(_make_op(kind, pay, live[j], regs, m.xmm, m.memory, F,
                             m._dyn))
    term = targ = None
    if tk == T_JCC:
        cond, targ = pay
        prev = dcode[j - 2] if iops else (None, None)
        if prev[0] in (K_CMP, K_TEST):
            term = _compare(prev[0], prev[1], regs, F, live[j], cond,
                            live[targ])
            if term is not None:        # the compare moves into term
                iops[-1] = None
        term = term or _branch_test(cond, F)
    elif tk == T_RAISE:
        targ = pay if kind == K_TRAP else f"unknown opcode {pay}"
    elif tk != T_FALL:
        targ = pay
    meta = (i, instrs, spans, deltas, iops, tuple(map(sum, zip(*deltas))))
    return [tuple(op for op in iops if op), j - i, tk, term, targ, j, {},
            spans[-1][1], 0, meta, None, 0]


# -- the generated tier -------------------------------------------------------
# Instruction ``j`` of a generated block is on line ``j + _FIRST_LINE`` of
# its function: one line each, statements joined by ``;`` (an empty
# line for an instruction with no effect).

_FIRST_LINE = 2
#: Names of the ``_LD``/``_ST`` struct functions in generated code.
_MEM_FNS = {**{f"ld{n}": fn for n, fn in _LD.items()},
            **{f"st{n}": fn for n, fn in _ST.items()}}


def _address(base, index, scale, disp, mask=_M64) -> str:
    """Source of ``regs[base] + regs[index] * scale + disp`` masked,
    absent registers left out."""
    terms = [f"regs[{r}]" if s == 1 else f"regs[{r}] * {s}"
             for r, s in ((base, 1), (index, scale)) if r is not None]
    if not terms:
        return str(disp & mask)
    if disp:
        terms.append(str(disp))
    return f"({' + '.join(terms)}) & {mask}"


def _inline(kind, pay, live, memlen):
    """The source line running one instruction inline, or None when the
    generated block calls its closure instead."""
    if kind == K_MOV_RI:
        return f"regs[{pay[0]}] = {pay[1]}"
    if kind == K_MOV_RR:
        return f"regs[{pay[0]}] = regs[{pay[1]}]"
    if kind == K_MOV_RR32:
        return f"regs[{pay[0]}] = regs[{pay[1]}] & {_M32}"
    if kind == K_MOVSD_RR:
        return f"xmm[{pay[0]}] = xmm[{pay[1]}]"
    if kind in _MEM_KINDS:
        base, index, scale, disp, size, what, fmt, file, reg, vmask = \
            _mem_access(kind, pay)
        check = (f"_a = {_address(base, index, scale, disp)}; "
                 f"_a > {memlen - size} and oob({what!r}, _a); ")
        if kind in (K_MOV_LOAD, K_MOVSD_LOAD):
            return check + f"{file}[{reg}] = ld{fmt}(mem, _a)[0]"
        value = reg if file is None else f"{file}[{reg}]" \
            if vmask is None else f"{file}[{reg}] & {vmask}"
        return check + f"st{fmt}(mem, _a, {value})"
    if kind == K_ALU:
        wm = None if live else _alu_wmask(pay)
        if wm is None:
            return None
        a, b = pay[1], pay[2] if pay[4] else f"regs[{pay[2]}]"
        return f"regs[{a}] = (regs[{a}] {_BINOP[pay[0]]} {b}) & {wm}"
    if kind == K_LEA:
        d, mem, size = pay
        return f"regs[{d}] = " + _address(mem.base, mem.index, mem.scale,
                                          mem.disp,
                                          _M32 if size == 4 else _M64)
    if _shl_imm(kind, pay, live):
        r = pay[1].reg
        return f"regs[{r}] = (regs[{r}] << {pay[3]}) & {(1 << pay[5]) - 1}"
    if kind == K_SSE and pay[0] < 3 and not pay[2]:
        a, b = pay[1], pay[3]
        return f"xmm[{a}] = xmm[{a}] {_BINOP[(0, 1, 5)[pay[0]]]} xmm[{b}]"
    return None


def _branch(cond, prev, live, live_taken):
    """The source line returning a jcc's outcome: a register/immediate
    cmp before it (``prev``, else None) inline, writing its flags only
    on the path that reads them, as ``_compare``'s closure does; any
    other known condition over the flags cell; None for the rest (the
    block's ``term`` closure)."""
    if prev is None:
        return f"return {_COND_EXPRS[cond]}" if isinstance(cond, int) \
            else None
    kind, (_ak, x, bk, y, _nl, _size, mask, shift) = prev
    if kind != K_CMP or not isinstance(cond, int) or cond >= 10:
        return None
    rel = _RELATION[cond]
    sign = 1 << shift if 2 <= cond <= 5 else 0
    flip = f" ^ {sign}" if sign else ""
    a = f"regs[{x}] & {mask}"
    if not live and not live_taken:
        b = str(y & mask ^ sign) if bk else f"(regs[{y}] & {mask}){flip}"
        return f"return ({a}){flip} {rel} {b}"
    b = str(y & mask) if bk else f"regs[{y}] & {mask}"
    flags = f"sub_flags(f, _a, _b, {mask}, {shift}); "
    if not live:
        flags = "_t and " + flags
    elif not live_taken:
        flags = "_t or " + flags
    return (f"_a = {a}; _b = {b}; _t = _a{flip} {rel} _b{flip}; "
            f"{flags}return _t")


def _generate(m, func, blk):
    """Compile ``blk`` (a block of ``func``) into one Python function,
    store it as the block's code, and return it."""
    start = perf_counter()
    _btab, dcode, live = m._blocks[id(func)]
    entry, iops = blk[_META][0], blk[_META][4]
    nins, tk, term = blk[1], blk[2], blk[3]
    env = {"regs": m.regs, "xmm": m.xmm, "mem": m.memory, "f": m._flags,
           "sub_flags": _sub_flags, "term": term, **_MEM_FNS}
    lines = []
    for j, op in enumerate(iops):
        kind, pay = dcode[entry + j][:2]
        line = _inline(kind, pay, live[entry + j + 1], len(m.memory))
        if line is None and op is not None:
            line = f"o{j}()"
            env[f"o{j}"] = op
        lines.append(line or "")
    if tk == T_JCC:
        cond, targ = dcode[entry + nins - 1][1]
        prev = dcode[entry + nins - 2][:2] if iops else (None, None)
        if prev[0] not in (K_CMP, K_TEST) or not _reg_compare(prev[1]):
            prev = None                 # the compare stayed out of term
        lines.append(_branch(cond, prev, live[entry + nins], live[targ])
                     or "return term()")
    else:
        lines.append("return")
    body = "".join(f"    {line}\n" for line in lines)
    names = set(re.findall(r"\w+", body))
    params = ", ".join(f"{name}={name}" for name in env if name in names)
    namespace = dict(env, oob=_oob)
    exec(compile(f"def block({params}):\n{body}",
                 f"<block {getattr(func, 'name', '?')}#{entry}>", "exec"),
         namespace)
    code = blk[_CODE] = namespace.pop("block")
    metrics = get_registry()
    metrics.counter("x86.blocks_generated").inc()
    metrics.histogram("x86.codegen_seconds").observe(perf_counter() - start)
    return code


def _charge(dyn, deltas) -> None:
    for delta in deltas:
        for k, v in enumerate(delta):
            dyn[k] += v


def _settle(m) -> None:
    """Fold run counts and dynamic counters into ``m.perf`` and the
    flags cell back into the machine."""
    dyn = m._dyn
    for blk in m._built:
        runs = blk[_COUNT] - blk[_SETTLED]
        if runs:
            _charge(dyn, [[runs * v for v in blk[_META][5]]])
            blk[_SETTLED] = blk[_COUNT]
    for k, name in enumerate(_SLOTS):
        setattr(m.perf, name, getattr(m.perf, name) + dyn[k])
        dyn[k] = 0
    f = m._flags
    m.zf, m.sf, m.of, m.cf = f.zf, f.sf, f.of, f.cf


def _trap_line() -> int:
    """The block offset of the instruction whose line of generated code
    raised the exception being handled (in the frame after the run
    loop's)."""
    return sys.exc_info()[2].tb_next.tb_lineno - _FIRST_LINE


def _trap_at(meta, j, last_line, access_line, dyn):
    """Charge the counters and lines of a block's instructions up to
    ``j``, where it raised; returns the trap-text location."""
    entry, instrs, spans, deltas = meta[:4]
    _charge(dyn, deltas[:j + 1])
    for line in _fetch_lines(spans[:j + 1], last_line):
        access_line(line)
    return entry + j, instrs[j]


def run_blocks(m, func) -> None:
    """Run ``func`` to its final ``ret`` on the block engine."""
    regs = m.regs
    memory = m.memory
    icache = m.icache
    access_line = icache._access_line
    sets, set_mask, mru_hits = icache.sets, icache._set_mask, 0
    dyn = m._dyn
    budget = m.max_instructions
    deadline = m.deadline
    checkpoint = budget if deadline is None \
        else min(budget, m.DEADLINE_STRIDE)
    hot = HOT_RUNS
    f = m._flags
    f.zf, f.sf, f.of, f.cf = m.zf, m.sf, m.of, m.cf
    btab = _table(m, func)
    call_stack = []
    i = n_instr = 0
    last_line = -1
    blk = where = None
    try:
        while True:
            nb = btab[i]
            if nb is None:
                if i == len(btab) - 1:
                    where = (i - 1, blk[_META][1][-1] if blk else None)
                    raise TrapError(
                        f"fell off the end of {getattr(func, 'name', '?')}")
                nb = btab[i] = build_block(m, func, i)
                m._built.append(nb)
            blk = nb
            ops, nins, tk, term, targ, nxt, fetches, end_line, count, \
                meta, code, _settled = blk
            lines = fetches.get(last_line)
            if lines is None:
                lines = fetches[last_line] = _fetch_lines(meta[2], last_line)
            taken = None
            if n_instr + nins <= checkpoint:
                n_instr += nins
                if code is None and count >= hot:
                    code = _generate(m, func, blk)
                if code is not None:
                    try:
                        taken = code()
                    except Exception:
                        where = _trap_at(meta, _trap_line(), last_line,
                                         access_line, dyn)
                        raise
                else:
                    try:
                        for op in ops:
                            op()
                    except Exception:
                        where = _trap_at(meta, meta[4].index(op), last_line,
                                         access_line, dyn)
                        raise
                blk[8] = count + 1             # _COUNT
            else:
                # Crossing the checkpoint: one instruction at a time, as
                # the reference loop retires them.
                entry, instrs, _spans, deltas, iops = meta[:5]
                for j in range(nins):
                    n_instr += 1
                    if n_instr > checkpoint:
                        if n_instr > budget or _monotonic() > deadline:
                            _trap_at(meta, j - 1, last_line, access_line, dyn)
                            dyn[_INS] += 1
                            if n_instr > budget:
                                where = (entry + j, instrs[j])
                                raise FuelExhausted("fuel exhausted: "
                                                    "instruction budget "
                                                    "exceeded")
                            raise CellTimeout(
                                f"wall-clock deadline exceeded after "
                                f"{n_instr} instructions")
                        checkpoint = min(budget, n_instr + m.DEADLINE_STRIDE)
                    if j < len(iops) and iops[j] is not None:
                        try:
                            iops[j]()
                        except Exception:
                            where = _trap_at(meta, j, last_line,
                                             access_line, dyn)
                            raise
                _charge(dyn, deltas)
            for line in lines:
                # A hit on the most recent line of its set changes no
                # LRU state: count it here instead of calling the model.
                ways = sets[line & set_mask]
                if ways and ways[0] == line:
                    mru_hits += 1
                else:
                    access_line(line)
            last_line = end_line
            if tk == T_JCC:
                if term() if taken is None else taken:
                    i = targ
                    last_line = -1
                else:
                    i = nxt
            elif tk == T_JMP:
                i = targ
                last_line = -1
            elif tk == T_RET:
                regs[RSP] = (regs[RSP] + 8) & _M64
                if not call_stack:
                    return
                func, btab, i = call_stack.pop()
                last_line = -1
            elif tk == T_CALL or tk == T_CALLR:
                if tk == T_CALL:
                    target = targ[0]
                    if target is None:
                        raise TrapError(f"call to unknown {targ[1]}")
                else:
                    code_addr = _load_mem(memory, _ea_of(regs, targ[0]), 8) \
                        if targ[1] else regs[targ[0]]
                    target = m._entry_map.get(code_addr)
                    if target is None:
                        raise TrapError(
                            f"indirect call to bad address {code_addr:#x}")
                regs[RSP] = (regs[RSP] - 8) & _M64
                _store_mem(memory, regs[RSP], 8, 0)
                call_stack.append((func, btab, nxt))
                func = target
                btab = _table(m, func)
                i = 0
                last_line = -1
            elif tk == T_HOST:
                m._do_hostcall(targ)
                i = nxt
            elif tk == T_FALL:
                i = nxt
            else:
                raise TrapError(targ)
    except TrapError as exc:
        # The reference loop's context suffix; the subclass survives.
        where = where or (meta[0] + nins - 1, meta[1][-1])
        exc.args = (f"{exc} [in {getattr(func, 'name', '?')} at "
                    f"#{where[0]}: {where[1]!r}]",)
        raise
    finally:
        icache.accesses += mru_hits
        _settle(m)
