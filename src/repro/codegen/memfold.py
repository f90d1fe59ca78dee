"""Addressing-mode and memory-operand folding (native backend only).

Rewrites IR patterns into the richer memory forms that x86 offers and the
paper's §5.1.1/§6.1.3 show Clang using while the WebAssembly JITs do not:

* read-modify-write memory destinations::

      t = load [m] ; ... ; t2 = add t, x ; store [m] = t2
      ==>  ... ; memadd [m], x

* scaled-index addressing::

      s = mul idx, 4 ; a = add base, s ; ... ; d = load [a+off]
      ==>  ... ; d = load [base + idx*4 + off]

Both transformations eliminate address-computation instructions and free
the registers that held the intermediate values, directly reducing both
instruction count and register pressure for native code.  Matching is
intra-block but not adjacency-bound: stores/calls between the load and the
store block the RMW fold (aliasing), and redefinition of any participating
register blocks both folds.
"""

from __future__ import annotations

from ..ir.function import Function
from ..ir.instructions import (
    BinOp, Call, CallIndirect, Load, MemBinOp, SetGlobal, Store,
)
from ..ir.module import Module
from ..ir.values import Const, VReg

_SCALES = {1, 2, 4, 8}
_RMW_OPS = {"add", "sub", "and", "or", "xor"}
_COMMUT_RMW = {"add", "and", "or", "xor"}
_MEM_WRITES = (Store, MemBinOp, Call, CallIndirect, SetGlobal)


def _use_counts(func: Function):
    counts = {}
    for block in func.blocks.values():
        for instr in block.all_instrs():
            for reg in instr.uses():
                counts[reg.id] = counts.get(reg.id, 0) + 1
    return counts


def fold_memory_ops(func: Function) -> int:
    """Apply both folds to every block; returns number of rewrites.

    RMW folding runs first: collapsing load/op/store into one memory
    operation drops the address register's use count to one, which then
    lets the addressing fold absorb the mul/add address computation too —
    yielding Clang's full ``add [base + idx*4 + disp], reg`` form.
    """
    rewrites = 0
    changed = True
    while changed:
        changed = False
        # Neither fold writes the counts it reads, so they are
        # recounted only after a block was rewritten (the address fold
        # reads the use counts from before its sweep).
        counts = _use_counts(func)
        for block in func.blocks.values():
            if _fold_rmw_block(block, counts):
                changed = True
                rewrites += 1
                counts = _use_counts(func)
        global_defs = _global_def_counts(func)
        for block in func.blocks.values():
            n = _fold_addr_block(block, counts, global_defs)
            if n:
                changed = True
                rewrites += n
                global_defs = _global_def_counts(func)
        if _sweep_dead_scale_defs(func):
            changed = True
    return rewrites


def _sweep_dead_scale_defs(func: Function) -> int:
    """Drop pure scale computations (``mul``/``shl`` by a constant)
    whose every use was absorbed into an addressing mode."""
    counts = _use_counts(func)
    removed = 0
    for block in func.blocks.values():
        keep = []
        for instr in block.instrs:
            if (isinstance(instr, BinOp) and instr.op in ("mul", "shl")
                    and isinstance(instr.rhs, Const)
                    and counts.get(instr.dst.id, 0) == 0):
                removed += 1
                continue
            keep.append(instr)
        if removed:
            block.instrs = keep
    return removed


def fold_module(module: Module) -> int:
    return sum(fold_memory_ops(f) for f in module.functions.values())


# -- read-modify-write fold ---------------------------------------------------

def _mem_key(instr):
    return (instr.base, instr.offset, instr.index, instr.scale, instr.size)


def _fold_rmw_block(block, counts) -> bool:
    """Fold one RMW pattern in ``block``; returns True if one was found."""
    instrs = block.instrs
    for i, store in enumerate(instrs):
        if not isinstance(store, Store) or not isinstance(store.src, VReg):
            continue
        if i == 0 or counts.get(store.src.id, 0) != 1:
            continue
        binop = instrs[i - 1]
        if not (isinstance(binop, BinOp) and binop.op in _RMW_OPS
                and binop.dst == store.src):
            continue
        if binop.dst.ty.is_float:
            continue
        # Identify which operand is the loaded value.
        for h in range(i - 2, -1, -1):
            load = instrs[h]
            if isinstance(load, _MEM_WRITES):
                break  # potential aliasing: stop searching
            if not isinstance(load, Load):
                continue
            if _mem_key(load) != _mem_key(store):
                continue
            if load.size != load.dst.ty.size:
                continue  # sub-word sign-extension subtleties: skip
            loaded = load.dst
            if counts.get(loaded.id, 0) != 1:
                break
            if binop.lhs == loaded:
                other = binop.rhs
            elif binop.rhs == loaded and binop.op in _COMMUT_RMW:
                other = binop.lhs
            else:
                break
            if isinstance(other, VReg) and other.ty.is_float:
                break
            # The participating registers must not be redefined between
            # the load and the store.
            participants = {r.id for r in load.uses()}
            if isinstance(other, VReg):
                if not _def_before(instrs, h, i - 1, other):
                    pass  # defined in between is fine; value is read at op
            if _redefined_between(instrs, h + 1, i - 1, participants):
                break
            block.instrs = (instrs[:h] + instrs[h + 1:i - 1] +
                            [MemBinOp(binop.op, load.base, load.offset,
                                      other, load.size, index=load.index,
                                      scale=load.scale)] +
                            instrs[i + 1:])
            return True
    return False


def _redefined_between(instrs, lo, hi, reg_ids) -> bool:
    for idx in range(lo, hi):
        for reg in instrs[idx].defs():
            if reg.id in reg_ids:
                return True
    return False


def _def_before(instrs, lo, hi, reg) -> bool:
    for idx in range(lo, hi):
        if reg in instrs[idx].defs():
            return False
    return True


# -- addressing fold ------------------------------------------------------------

def _global_def_counts(func):
    counts = {}
    for blk in func.blocks.values():
        for instr in blk.all_instrs():
            for reg in instr.defs():
                counts[reg.id] = counts.get(reg.id, 0) + 1
    return counts


def _fold_addr_block(block, counts, global_defs) -> int:
    """Fold address computations into memory accesses within ``block``."""
    instrs = block.instrs
    defs_at = {}
    for idx, instr in enumerate(instrs):
        for reg in instr.defs():
            defs_at.setdefault(reg.id, []).append(idx)

    def single_def(reg):
        if global_defs.get(reg.id, 0) != 1:
            return None
        positions = defs_at.get(reg.id, [])
        return positions[0] if len(positions) == 1 else None

    rewrites = 0
    remove = set()
    for m, mem in enumerate(instrs):
        if not isinstance(mem, (Load, Store, MemBinOp)):
            continue
        if mem.index is not None or not isinstance(mem.base, VReg):
            continue
        if counts.get(mem.base.id, 0) != 1:
            continue
        d = single_def(mem.base)
        if d is None or d in remove or d >= m:
            continue
        add = instrs[d]
        if not (isinstance(add, BinOp) and add.op == "add"):
            continue
        folded = _try_fold_addr(global_defs, instrs, defs_at, counts,
                                remove, mem, m, add, d)
        if folded is not None:
            instrs[m] = folded
            remove.add(d)
            rewrites += 1
    if remove:
        block.instrs = [ins for idx, ins in enumerate(instrs)
                        if idx not in remove]
    return rewrites


def _try_fold_addr(global_defs, instrs, defs_at, counts, remove, mem, m,
                   add, d):
    """Attempt to fold ``add`` (at index d) into ``mem`` (at index m)."""
    # Decompose add into (base, index_part).
    for base, part in ((add.lhs, add.rhs), (add.rhs, add.lhs)):
        if not isinstance(part, VReg):
            continue
        # Case 1: part = mul idx, scale.
        pd = _single_def_at(defs_at, part)
        if pd is not None and global_defs.get(part.id, 0) != 1:
            pd = None
        scale = 1
        index = part
        mul_idx = None
        if pd is not None and pd not in remove:
            mul = instrs[pd]
            # ``mul idx, {1,2,4,8}`` and its strength-reduced spelling
            # ``shl idx, {0,1,2,3}`` both become a hardware scale.  A
            # multi-use scale def (GVN commons the address computation
            # across several accesses) still folds — the hardware scale
            # recomputes it for free — but only a single-use def can be
            # deleted here; a def whose every use folds away goes dead
            # and is swept by the caller.
            factor = None
            if (isinstance(mul, BinOp) and isinstance(mul.rhs, Const)
                    and isinstance(mul.lhs, VReg) and pd < d):
                if mul.op == "mul" and mul.rhs.value in _SCALES:
                    factor = int(mul.rhs.value)
                elif mul.op == "shl" and mul.rhs.value in (0, 1, 2, 3):
                    factor = 1 << int(mul.rhs.value)
            if factor is not None:
                if not _redef_between(instrs, pd + 1, m, mul.lhs):
                    scale = factor
                    index = mul.lhs
                    if counts.get(part.id) == 1:
                        mul_idx = pd
        # Safety: base and index must not be redefined between d and m.
        if isinstance(base, VReg) and _redef_between(instrs, d + 1, m, base):
            continue
        if _redef_between(instrs, d + 1, m, index):
            continue
        if isinstance(mem, Store) and (mem.src == index or mem.src == base):
            pass  # reading those registers is fine
        if mul_idx is not None:
            remove.add(mul_idx)
        return _rebase(mem, base, index, scale)
    return None


def _single_def_at(defs_at, reg):
    positions = defs_at.get(reg.id, [])
    return positions[0] if len(positions) == 1 else None


def _redef_between(instrs, lo, hi, reg) -> bool:
    if not isinstance(reg, VReg):
        return False
    for idx in range(lo, hi):
        if reg in instrs[idx].defs():
            return True
    return False


def _rebase(instr, base, index, scale):
    if isinstance(instr, Load):
        return Load(instr.dst, base, instr.offset, instr.size,
                    instr.signed, index=index, scale=scale)
    if isinstance(instr, MemBinOp):
        return MemBinOp(instr.op, base, instr.offset, instr.src,
                        instr.size, index=index, scale=scale)
    return Store(base, instr.offset, instr.src, instr.size,
                 index=index, scale=scale)
