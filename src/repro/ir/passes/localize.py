"""Rename block-local temporaries to fresh registers per block.

After loop unrolling, the duplicated bodies share every virtual register
with the original, which (a) inflates live intervals across all copies and
(b) raises use counts so compare/branch fusion no longer fires.  Real
unrollers rename as they clone; we restore that property here: any
register that is defined before every use within a block and is dead
outside it gets a fresh name private to that block.
"""

from __future__ import annotations

from ...dataflow import liveness
from ..function import Function
from ..values import VReg


def localize_temps(func: Function) -> int:
    """Returns the number of registers renamed."""
    live_in, live_out = liveness(func)
    renamed = 0
    for block in func.blocks.values():
        # Candidates: defined in this block, not live-in, not live-out.
        local_defs = set()
        for instr in block.all_instrs():
            for reg in instr.defs():
                local_defs.add(reg.id)
        candidates = (local_defs - live_in[block.label]
                      - live_out[block.label])
        if not candidates:
            continue
        # Verify def-before-use inside the block.
        defined = set()
        ok = set(candidates)
        for instr in block.all_instrs():
            for reg in instr.uses():
                if reg.id in ok and reg.id not in defined:
                    ok.discard(reg.id)
            for reg in instr.defs():
                defined.add(reg.id)
        if not ok:
            continue
        mapping = {}
        for instr in block.all_instrs():
            use_map = {}
            for reg in instr.uses():
                if reg.id in ok and reg.id in mapping:
                    use_map[reg] = mapping[reg.id]
            if use_map:
                instr.replace_uses(use_map)
            for attr in ("dst",):
                dst = getattr(instr, attr, None)
                if isinstance(dst, VReg) and dst.id in ok:
                    fresh = mapping.get(dst.id)
                    if fresh is None:
                        fresh = func.new_vreg(dst.ty, dst.name)
                        mapping[dst.id] = fresh
                        renamed += 1
                    setattr(instr, attr, fresh)
        del mapping
    return renamed
