"""Block-threaded execution for :class:`~repro.x86.machine.X86Machine`.

A block runs from an entry index to the first ``jcc``, ``jmp``, ``call``,
``callr``, ``ret``, ``hostcall``, ``trap`` or unknown opcode, or to the
function's end.  On first entry it becomes one closure per instruction,
operands, masks and bounds bound as closure variables; a register or
immediate ``cmp``/``test`` joins the closure of the ``jcc`` after it.
Flag writes no path reads are dropped (calls, returns, host calls, traps
and the function's end read every flag).

A run of a block counts one run (times its static counter deltas when
the call returns), fetches its i-cache lines and checks fuel and the
deadline once.  A block that would cross the checkpoint steps one
instruction at a time, and a trap charges exactly the instructions up to
the trapping one, so counters, i-cache state, ``FuelExhausted``,
``CellTimeout`` and trap text equal the reference loop's.  Counters
charged after a trap point (a memory-operand ALU op's store and multiply,
a ``divsd`` from memory's fdivs) go to ``X86Machine._dyn`` from the
closure.  Closures never bind the machine itself.
"""

from __future__ import annotations

import operator
import struct
from functools import partial
from time import monotonic as _monotonic

from ..errors import CellTimeout, FuelExhausted, TrapError
from .machine import (
    _COND_IDX, _CONDS, _M32, _M64, K_ALU, K_CALL, K_CALLR, K_CMP,
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

# Loads and stores by size in bytes; 0 is an SSE double.
_LD = {n: struct.Struct(f).unpack_from
       for n, f in ((1, "<B"), (2, "<H"), (4, "<I"), (8, "<Q"), (0, "<d"))}
_ST = {n: struct.Struct(f).pack_into
       for n, f in ((1, "<B"), (2, "<H"), (4, "<I"), (8, "<Q"), (0, "<d"))}
_BINOP = (operator.add, operator.sub, operator.and_, operator.or_,
          operator.xor, operator.mul)
#: A flags-free cmp + jcc: condition index -> comparison of the operands
#: (sign-flipped for the signed conditions 2-5).
_RELATION = (operator.eq, operator.ne, operator.lt, operator.le,
             operator.gt, operator.ge, operator.lt, operator.le,
             operator.gt, operator.ge)
# Block list fields read outside the run loop.
_COUNT, _META = 8, 9


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


def _compare(kind, pay, regs, F, live, cond=None, live_taken=0):
    """A register/immediate 32/64-bit cmp or test (None for any other
    shape).  Given the ``cond`` of the jcc it precedes, the closure
    returns the branch outcome, and a cmp writes its flags only when the
    path taken (``live_taken`` or ``live`` after a fall-through) reads
    them."""
    ak, x, bk, y, _nl, size, mask, shift = pay
    if ak != 0 or bk == 2 or size not in (4, 8):
        return None
    ys, yi = (regs, y) if bk == 0 else ((y,), 0)
    if kind == K_CMP and isinstance(cond, int) and cond < 10:
        rel = _RELATION[cond]
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


def _mem_op(kind, pay, regs, xmm, memory):
    """A plain load or store.  Every address is ``regs[b] * bs +
    regs[x] * xs + disp``, with zero scales for absent registers."""
    if kind in (K_MOVSD_LOAD, K_MOVSD_STORE):
        reg, mem = pay if kind == K_MOVSD_LOAD else pay[::-1]
        base, index, scale, disp, size = \
            mem.base, mem.index, mem.scale, mem.disp, 8
    elif kind == K_MOV_LOAD:
        reg, base, index, scale, disp, size, wmask = pay
    else:
        base, index, scale, disp, size = pay[:5]
    b, bs = (0, 0) if base is None else (base, 1)
    x, xs = (0, 0) if index is None else (index, scale)
    end = len(memory) - size
    what = {K_MOV_LOAD: "load", K_MOVSD_LOAD: "read",
            K_MOVSD_STORE: "write"}.get(kind, "store")
    if kind in (K_MOV_LOAD, K_MOVSD_LOAD):
        dst = regs if kind == K_MOV_LOAD else xmm
        # A 32-bit load of a 64-bit slot keeps the low half.
        ld = _LD[0 if kind == K_MOVSD_LOAD else
                 4 if size == 8 and wmask == _M32 else size]

        def op():
            a = (regs[b] * bs + regs[x] * xs + disp) & _M64
            if a > end:
                raise TrapError(f"out-of-bounds {what} at {a:#x}")
            dst[reg] = ld(memory, a)[0]
        return op
    st = _ST[0 if kind == K_MOVSD_STORE else size]
    if kind == K_MOV_STORE_R:
        src, key, vmask = regs, pay[6], pay[5]
    elif kind == K_MOV_STORE_I:
        src, key, vmask = (int.from_bytes(pay[5], "little"),), 0, _M64
    else:
        src, key, vmask = xmm, reg, None

    def op():
        a = (regs[b] * bs + regs[x] * xs + disp) & _M64
        if a > end:
            raise TrapError(f"out-of-bounds {what} at {a:#x}")
        st(memory, a, src[key] if vmask is None else src[key] & vmask)
    return op


def _alu_op(pay, live, regs, memory, F, dyn):
    alu, a, b, a_is_mem, b_kind, size, bits, mask, shift, sbit = pay
    if not live and not a_is_mem and b_kind != 2:
        # and/or/xor results are not truncated below the register.
        wm = mask if alu in (0, 1, 5) else (_M32 if size == 4 else _M64)
        fn = _BINOP[alu]
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
    elif kind in (K_MOV_LOAD, K_MOV_STORE_R, K_MOV_STORE_I, K_MOVSD_LOAD,
                  K_MOVSD_STORE):
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
    elif kind == K_SHIFT and not live and pay[0] == 0 and not pay[2] \
            and pay[3] is not None:                  # shl reg, imm
        r, count, bmask = pay[1].reg, pay[3], (1 << pay[5]) - 1

        def op():
            regs[r] = (regs[r] << count) & bmask
    elif kind == K_SSE and pay[0] < 3 and not pay[2]:  # add/sub/mul reg
        fn, a, b = _BINOP[(0, 1, 5)[pay[0]]], pay[1], pay[3]

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
            spans[-1][1], 0, meta]


def _charge(dyn, deltas) -> None:
    for delta in deltas:
        for k, v in enumerate(delta):
            dyn[k] += v


def _settle(m) -> None:
    """Fold run counts and dynamic counters into ``m.perf`` and the
    flags cell back into the machine."""
    dyn = m._dyn
    for blk in m._built:
        if blk[_COUNT]:
            _charge(dyn, [[blk[_COUNT] * v for v in blk[_META][5]]])
            blk[_COUNT] = 0
    for k, name in enumerate(_SLOTS):
        setattr(m.perf, name, getattr(m.perf, name) + dyn[k])
        dyn[k] = 0
    f = m._flags
    m.zf, m.sf, m.of, m.cf = f.zf, f.sf, f.of, f.cf


def _trap_at(meta, j, last_line, access_line, dyn):
    """Charge the counters and lines of a block's instructions up to
    ``j``, where its closure raised; returns the trap-text location."""
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
            ops, nins, tk, term, targ, nxt, fetches, end_line, _count, \
                meta = blk
            lines = fetches.get(last_line)
            if lines is None:
                lines = fetches[last_line] = _fetch_lines(meta[2], last_line)
            if n_instr + nins <= checkpoint:
                n_instr += nins
                try:
                    for op in ops:
                        op()
                except Exception:
                    where = _trap_at(meta, meta[4].index(op), last_line,
                                     access_line, dyn)
                    raise
                blk[8] += 1                    # _COUNT
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
                if term():
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
