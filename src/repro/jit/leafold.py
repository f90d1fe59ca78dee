"""JIT-side address-arithmetic folding into ``lea``.

V8 and SpiderMonkey do not use scaled-index *memory* operands for wasm
heap accesses, but they do fold scale+add address arithmetic into a single
``lea`` (paper Fig. 7c, e.g. ``lea r15d,[r12+r15*4]``).  This pass
rewrites::

    s = mul idx, {1,2,4,8} ; ... ; a = add base, s
    ==> a = lea [base + idx*scale]

within a block when ``s`` has no other use.  The strength-reduced
spelling ``shl idx, {0,1,2,3}`` folds the same way, so the lea fold
keeps working behind the SSA mid-end.
"""

from __future__ import annotations

from ..ir.function import Function
from ..ir.instructions import BinOp, Lea
from ..ir.values import Const, VReg

_SCALES = {1, 2, 4, 8}


def _scale_of(instr) -> int | None:
    """Hardware scale produced by ``instr``, or None."""
    if not (isinstance(instr, BinOp) and isinstance(instr.rhs, Const)
            and isinstance(instr.lhs, VReg) and not instr.dst.ty.is_float):
        return None
    if instr.op == "mul" and instr.rhs.value in _SCALES:
        return int(instr.rhs.value)
    if instr.op == "shl" and instr.rhs.value in (0, 1, 2, 3):
        return 1 << int(instr.rhs.value)
    return None


def _use_counts(func: Function):
    counts = {}
    for block in func.blocks.values():
        for instr in block.all_instrs():
            for reg in instr.uses():
                counts[reg.id] = counts.get(reg.id, 0) + 1
    return counts


def fold_leas(func: Function) -> int:
    counts = _use_counts(func)
    folded = 0
    for block in func.blocks.values():
        # Map: vreg id -> (index_vreg, scale, def position) for mul-by-scale.
        out = []
        muls = {}
        for instr in block.instrs:
            scale = _scale_of(instr)
            if scale is not None and counts.get(instr.dst.id, 0) == 1:
                muls[instr.dst.id] = (instr, instr.lhs, scale, len(out))
                out.append(instr)
                continue
            if isinstance(instr, BinOp) and instr.op == "add":
                done = False
                for scaled, base in ((instr.rhs, instr.lhs),
                                     (instr.lhs, instr.rhs)):
                    if isinstance(scaled, VReg) and scaled.id in muls \
                            and base != scaled:
                        mul, idx, scale, pos = muls[scaled.id]
                        # The index register must not be redefined between
                        # the mul and this add.
                        if _redefined(out, pos + 1, idx):
                            continue
                        del muls[scaled.id]
                        out[pos] = None
                        out.append(Lea(instr.dst, base, idx, scale, 0))
                        folded += 1
                        done = True
                        break
                if not done:
                    for reg in instr.defs():
                        muls.pop(reg.id, None)
                    out.append(instr)
                continue
            # Any other definition invalidates pending muls it redefines.
            for reg in instr.defs():
                muls.pop(reg.id, None)
            out.append(instr)
        block.instrs = [i for i in out if i is not None]
    return folded


def _redefined(instrs, lo, reg) -> bool:
    for instr in instrs[lo:]:
        if instr is not None and reg in instr.defs():
            return True
    return False
