"""Canned dataflow analyses over the IR.

All facts are immutable (frozensets or tuples of pairs) so the solver
can compare them with ``==`` and share them safely across blocks.
"""

from __future__ import annotations

from ..ir.function import Function
from ..ir.instructions import Move
from ..ir.values import Const
from .framework import Analysis, solve


# --------------------------------------------------------------------------
# Liveness (backward, union)
# --------------------------------------------------------------------------

class LivenessAnalysis(Analysis):
    """Which vreg ids may be read before their next write.

    Backward may-analysis: ``in_facts`` (the transfer input) is live-out
    of a block, ``out_facts`` is live-in.
    """

    direction = "backward"

    def prepare(self, func):
        self._use = {}
        self._def = {}
        for block in func.blocks.values():
            uses, defs = set(), set()
            for instr in block.all_instrs():
                for reg in instr.uses():
                    if reg.id not in defs:
                        uses.add(reg.id)
                for reg in instr.defs():
                    defs.add(reg.id)
            self._use[block.label] = frozenset(uses)
            self._def[block.label] = frozenset(defs)

    def boundary(self, func):
        return frozenset()

    def top(self, func):
        return frozenset()

    def join(self, facts):
        return frozenset().union(*facts)

    def transfer(self, block, live_out):
        return self._use[block.label] | (live_out - self._def[block.label])


def liveness(func: Function):
    """Per-block liveness; returns ``(live_in, live_out)`` keyed by
    block label, each holding a set of vreg ids."""
    result = solve(func, LivenessAnalysis())
    live_in = {label: set(fact) for label, fact in result.out_facts.items()}
    live_out = {label: set(fact) for label, fact in result.in_facts.items()}
    return live_in, live_out


# --------------------------------------------------------------------------
# Definite assignment (forward, intersection)
# --------------------------------------------------------------------------

class DefiniteAssignment(Analysis):
    """Which vreg ids are written on *every* path from the entry.

    Forward must-analysis.  Parameters are assigned at the boundary.
    Blocks unreachable from the entry keep the optimistic "everything
    assigned" fact, so dead code never produces spurious reports.
    """

    direction = "forward"

    def __init__(self, code=None):
        #: Optional label -> [(instr, uses, defs)] the caller has
        #: already listed (the IR verifier), so prepare need not.
        self._code = code

    def prepare(self, func):
        universe = {p.id for p in func.params}
        gen = {}
        for key, block in func.blocks.items():
            rows = self._code[key] if self._code is not None else \
                [(instr, instr.uses(), instr.defs())
                 for instr in block.all_instrs()]
            defs = set()
            for _, uses, instr_defs in rows:
                for reg in instr_defs:
                    defs.add(reg.id)
                    universe.add(reg.id)
                for reg in uses:
                    universe.add(reg.id)
            gen[block.label] = frozenset(defs)
        self._gen = gen
        self._universe = frozenset(universe)

    def boundary(self, func):
        return frozenset(p.id for p in func.params)

    def top(self, func):
        return self._universe

    def join(self, facts):
        return frozenset.intersection(*facts)

    def transfer(self, block, assigned):
        return assigned | self._gen[block.label]


def definite_assignment(func: Function, code: dict = None):
    """Per-block definitely-assigned vreg ids at block *entry*, keyed by
    label.  Walk the block forward, adding each instruction's defs, to
    get the fact at any interior point.  ``code`` optionally gives each
    block's ``(instr, uses, defs)`` rows, already listed."""
    result = solve(func, DefiniteAssignment(code))
    return {label: set(fact) for label, fact in result.in_facts.items()}


# --------------------------------------------------------------------------
# Reaching definitions (forward, union)
# --------------------------------------------------------------------------

class ReachingDefinitions(Analysis):
    """Which definition sites may reach each block entry.

    A definition site is ``(vreg_id, block_label, index)`` where
    ``index`` is the instruction's position in ``block.all_instrs()``.
    Parameters reach as ``(vreg_id, None, -1)``.
    """

    direction = "forward"

    def prepare(self, func):
        self._gen = {}
        self._defs_of = {}  # vreg id -> frozenset of its sites
        all_sites = {}
        for block in func.blocks.values():
            for index, instr in enumerate(block.all_instrs()):
                for reg in instr.defs():
                    site = (reg.id, block.label, index)
                    all_sites.setdefault(reg.id, set()).add(site)
        for param in func.params:
            all_sites.setdefault(param.id, set()).add((param.id, None, -1))
        self._defs_of = {vid: frozenset(sites)
                         for vid, sites in all_sites.items()}
        for block in func.blocks.values():
            last = {}  # vreg id -> its last site in this block
            for index, instr in enumerate(block.all_instrs()):
                for reg in instr.defs():
                    last[reg.id] = (reg.id, block.label, index)
            self._gen[block.label] = last

    def boundary(self, func):
        return frozenset((p.id, None, -1) for p in func.params)

    def top(self, func):
        return frozenset()

    def join(self, facts):
        return frozenset().union(*facts)

    def transfer(self, block, reaching):
        gen = self._gen[block.label]
        if not gen:
            return reaching
        killed = frozenset().union(*(self._defs_of[vid] for vid in gen))
        return (reaching - killed) | frozenset(gen.values())


def reaching_definitions(func: Function):
    """Per-block reaching definition sites at block entry, keyed by
    label."""
    result = solve(func, ReachingDefinitions())
    return {label: set(fact) for label, fact in result.in_facts.items()}


# --------------------------------------------------------------------------
# Dominators (forward, intersection over labels)
# --------------------------------------------------------------------------

class DominatorAnalysis(Analysis):
    """Which blocks appear on every path from the entry (inclusive)."""

    direction = "forward"

    def prepare(self, func):
        self._universe = frozenset(func.blocks)

    def boundary(self, func):
        return frozenset()

    def top(self, func):
        return self._universe

    def join(self, facts):
        return frozenset.intersection(*facts)

    def transfer(self, block, doms):
        return doms | {block.label}


def dominators(func: Function):
    """Dominator sets for every *reachable* block, keyed by label (same
    contract as :func:`repro.ir.loops.dominators`)."""
    result = solve(func, DominatorAnalysis())
    reachable = func.reachable_blocks()
    return {label: set(fact) for label, fact in result.out_facts.items()
            if label in reachable}


# --------------------------------------------------------------------------
# Constant-ness (forward, pointwise meet)
# --------------------------------------------------------------------------

#: The lattice's "not a single known constant" element.
VARYING = "varying"


class ConstLattice:
    """Helpers over constness facts.

    A fact is a frozenset of ``(vreg_id, value)`` pairs where ``value``
    is a hashable constant, plus ``(vreg_id, VARYING)`` for registers
    written with an unknown value.  A vreg absent from the fact has not
    been written on any path seen so far (unreached = still optimistic).
    """

    @staticmethod
    def lookup(fact, vreg_id):
        """The known constant value, or ``VARYING``/``None``."""
        for vid, value in fact:
            if vid == vreg_id:
                return value
        return None

    @staticmethod
    def as_dict(fact):
        return dict(fact)


class ConstnessAnalysis(Analysis):
    """Sparse conditional-free constant propagation over vregs."""

    direction = "forward"

    def boundary(self, func):
        return frozenset((p.id, VARYING) for p in func.params)

    def top(self, func):
        return frozenset()

    def join(self, facts):
        merged = {}
        for fact in facts:
            for vid, value in fact:
                if vid not in merged:
                    merged[vid] = value
                elif merged[vid] != value:
                    merged[vid] = VARYING
        return frozenset(merged.items())

    def transfer(self, block, fact):
        values = dict(fact)
        for instr in block.all_instrs():
            self._step(instr, values)
        return frozenset(values.items())

    @staticmethod
    def _step(instr, values) -> None:
        defs = instr.defs()
        if not defs:
            return
        if isinstance(instr, Move):
            src = instr.src
            if isinstance(src, Const):
                values[instr.dst.id] = (src.value, src.ty)
                return
            known = values.get(src.id)
            values[instr.dst.id] = known if known is not None else VARYING
            return
        for reg in defs:
            values[reg.id] = VARYING


def constness(func: Function):
    """Per-block constness facts at block entry, keyed by label; each is
    a dict ``vreg_id -> (value, Type) | VARYING``.  Registers missing
    from the dict are never written before the block on any path."""
    result = solve(func, ConstnessAnalysis())
    return {label: dict(fact) for label, fact in result.in_facts.items()}
