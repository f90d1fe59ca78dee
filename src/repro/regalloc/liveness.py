"""Liveness analysis over IR functions.

Produces per-block live-in/live-out sets and linearized live intervals for
the register allocators.  Positions are instruction indices in the chosen
block layout order; every block occupies a contiguous position range.
"""

from __future__ import annotations

from ..dataflow import liveness
from ..ir.function import Function
from ..ir.instructions import Call, CallIndirect
from ..ir.loops import loop_depths, natural_loops


class Interval:
    """A live interval for one virtual register."""

    __slots__ = ("vreg_id", "ty", "start", "end", "use_positions",
                 "crosses_call", "weight")

    def __init__(self, vreg_id: int, ty):
        self.vreg_id = vreg_id
        self.ty = ty
        self.start = None
        self.end = None
        self.use_positions: list[int] = []
        self.crosses_call = False
        self.weight = 0.0

    def extend(self, pos: int) -> None:
        if self.start is None or pos < self.start:
            self.start = pos
        if self.end is None or pos > self.end:
            self.end = pos

    def overlaps(self, other: "Interval") -> bool:
        return self.start <= other.end and other.start <= self.end

    def __repr__(self):
        return f"<interval v{self.vreg_id} [{self.start},{self.end}]>"


class LivenessInfo:
    """Everything the allocators need, in one pass."""

    def __init__(self, func: Function):
        self.func = func
        self.order = func.block_order()
        self.live_in, self.live_out = liveness(func)
        self.depths = loop_depths(func)
        self.intervals: dict[int, Interval] = {}
        self.call_positions: list[int] = []
        self.block_ranges: dict[str, tuple[int, int]] = {}
        self._build()

    def _build(self) -> None:
        func = self.func
        intervals = self.intervals

        def interval_for(reg):
            iv = intervals.get(reg.id)
            if iv is None:
                iv = Interval(reg.id, reg.ty)
                intervals[reg.id] = iv
            return iv

        # Parameters are live from position 0.
        for reg in func.params:
            interval_for(reg).extend(0)

        # Positions are doubled: an instruction at index p reads its
        # operands at 2p and writes its results at 2p+1.  This lets a
        # value whose last use feeds a move/def end *before* the result
        # starts, so move-related registers do not falsely interfere (the
        # standard "def after use" sub-position trick).
        pos = 0
        for block in self.order:
            start = pos
            for instr in block.all_instrs():
                if isinstance(instr, (Call, CallIndirect)):
                    self.call_positions.append(2 * pos)
                for reg in instr.uses():
                    iv = interval_for(reg)
                    iv.extend(2 * pos)
                    iv.use_positions.append(2 * pos)
                for reg in instr.defs():
                    iv = interval_for(reg)
                    iv.extend(2 * pos + 1)
                    iv.use_positions.append(2 * pos + 1)
                pos += 1
            self.block_ranges[block.label] = (start, pos)

        # Second pass: registers live across block boundaries span the
        # whole range of every block where they are live-out (the classic
        # conservative single-interval approximation used by linear scan).
        for block in self.order:
            start, end = self.block_ranges[block.label]
            for reg_id in self.live_in[block.label]:
                iv = intervals.get(reg_id)
                if iv is not None:
                    iv.extend(2 * start)
            for reg_id in self.live_out[block.label]:
                iv = intervals.get(reg_id)
                if iv is not None:
                    iv.extend(2 * (end - 1) + 1)
                    iv.extend(2 * start)

        # Loop extension: a register live into a loop header stays live
        # through the entire loop (its value is needed on the back edge).
        for loop in natural_loops(func):
            header_in = self.live_in.get(loop.header, set())
            loop_positions = [self.block_ranges[b] for b in loop.body
                              if b in self.block_ranges]
            if not loop_positions:
                continue
            lo = min(r[0] for r in loop_positions)
            hi = max(r[1] for r in loop_positions)
            for reg_id in header_in:
                iv = intervals.get(reg_id)
                if iv is not None:
                    iv.extend(2 * lo)
                    iv.extend(2 * (hi - 1) + 1)

        # Call-crossing and spill weights.
        calls = self.call_positions
        for iv in intervals.values():
            iv.crosses_call = any(iv.start < c < iv.end for c in calls)
            weight = 0.0
            for use_pos in iv.use_positions:
                depth = self._depth_at(use_pos)
                weight += 10.0 ** min(depth, 4)
            length = max(iv.end - iv.start, 1)
            iv.weight = weight / length

    def _depth_at(self, pos: int) -> int:
        for label, (start, end) in self.block_ranges.items():
            if 2 * start <= pos < 2 * end:
                return self.depths.get(label, 0)
        return 0

    def interference_pairs(self):
        """Yield interfering (vreg_id, vreg_id) pairs via interval overlap.

        Interval overlap over-approximates true interference, which is
        what a linear-scan allocator effectively assumes; the graph
        allocator also uses it here, giving it the same (conservative)
        view but better coloring decisions.
        """
        ivs = sorted(self.intervals.values(), key=lambda iv: iv.start)
        active = []
        for iv in ivs:
            active = [a for a in active if a.end >= iv.start]
            for other in active:
                if other.ty.is_float == iv.ty.is_float:
                    yield iv.vreg_id, other.vreg_id
            active.append(iv)
