"""Range-driven simplification and safety-check elision (paper §6.4).

Jangda et al. attribute part of the wasm-vs-native gap to the extra
branches engines emit for stack-overflow and indirect-call safety
checks (§5.1, §6.2) and suggest that tiers willing to spend more
optimization time could eliminate much of it.  This module is the IR
side of that experiment, built on the interval abstract interpreter in
:mod:`repro.dataflow.interval`:

* ``ranges`` is a registered analysis under the
  :class:`~repro.ir.passmanager.FunctionAnalysisManager`, so the
  simplification pass and any future client share one solve per
  function version.

* :class:`RangeSimplifyPass` runs inside the SSA fixpoint on eliding
  engines only: interval-decided comparisons fold to constants,
  interval-decided branches get constant conditions (SCCP in the same
  fixpoint then prunes the dead arm phi-aware), and ``x & mask``
  results proved equal to ``x`` collapse to moves.

* :func:`annotate_ranges` re-solves on the *final* pre-lowering IR and
  pins the proved interval onto each defining instruction
  (``instr.range_fact``) and each ``CallIndirect`` index
  (``instr.target_fact``).  The x86 lowering reads the annotations to
  elide bounds/signature/stack checks; the runtime oracle
  (``--check-ranges``) reads them to assert every observed def value
  stays inside its proved interval.

The whole feature is gated by ``REPRO_RANGES`` (default on;
``REPRO_RANGES=0`` reverts to the PR 9 pipeline), one of the settings
:func:`repro.harness.compilecache.compile_config` folds into every
compile-cache key, so the cache never serves code built under the
other setting.
"""

from __future__ import annotations

import os

from ...dataflow.interval import analyze_function
from ...obs import get_registry
from ..instructions import CondBr, Move
from ..passmanager import ANALYSES, CFG_ANALYSES, FunctionPass
from ..types import Type
from ..values import Const


def ranges_enabled() -> bool:
    """Range analysis gate: ``REPRO_RANGES`` (default on)."""
    return os.environ.get("REPRO_RANGES", "") not in ("0", "off")


def set_ranges(enabled: bool) -> None:
    """Toggle range analysis for this process and any forked workers."""
    os.environ["REPRO_RANGES"] = "1" if enabled else "0"


def _compute_ranges(func):
    registry = get_registry()
    registry.counter("opt.ranges.analysis_runs").inc()
    info = analyze_function(func)
    registry.counter("opt.ranges.solver_iterations").inc(info.iterations)
    return info


ANALYSES.setdefault("ranges", _compute_ranges)


def _copy_meta(src, dst):
    for attr in ("loc", "synthetic"):
        try:
            setattr(dst, attr, getattr(src, attr))
        except AttributeError:
            pass


class RangeSimplifyPass(FunctionPass):
    """Fold interval-decided facts into the IR (SSA region only).

    Three rewrites, all local: a comparison the intervals decide
    becomes a constant move; a ``CondBr`` whose condition interval
    excludes (or is pinned to) zero gets a constant condition, leaving
    the actual edge pruning to SCCP's phi-aware rewrite in the same
    fixpoint; and an ``and`` whose mask covers every maybe-bit of the
    operand becomes a move of the operand.
    """

    name = "ranges"
    # Rewrites instructions and branch conditions in place but never
    # adds, removes, or retargets blocks or edges.
    preserves = CFG_ANALYSES

    def run(self, func, module, fam):
        if not getattr(func, "ssa", False):
            return False
        info = fam.get(func, "ranges") if fam is not None \
            else _compute_ranges(func)
        registry = get_registry()
        changed = False
        folded = branches = 0
        for label, block in func.blocks.items():
            rewritten = []
            for instr in block.instrs:
                repl = None
                if instr in info.decided:
                    repl = Move(instr.dst,
                                Const(info.decided[instr], Type.I32))
                elif instr in info.redundant_and:
                    repl = Move(instr.dst, info.redundant_and[instr])
                if repl is None:
                    rewritten.append(instr)
                    continue
                _copy_meta(instr, repl)
                rewritten.append(repl)
                folded += 1
                changed = True
            block.instrs = rewritten
            verdict = info.branch_decided.get(label)
            term = block.term
            if (verdict is not None and isinstance(term, CondBr)
                    and not isinstance(term.cond, Const)):
                term.cond = Const(1 if verdict else 0, Type.I32)
                branches += 1
                changed = True
        if folded:
            registry.counter("opt.ranges.folded").inc(folded)
        if branches:
            registry.counter("opt.ranges.branches_decided").inc(branches)
        return changed


def annotate_ranges(module) -> dict:
    """Solve ranges on the final pre-lowering IR and pin the facts.

    Every instruction with a proved (non-top) integer def gets
    ``instr.range_fact``; every ``CallIndirect`` with a proved index
    interval gets ``instr.target_fact``.  Returns summary stats for
    ``compile_stats``.  The solver tolerates non-SSA input (block-local
    comparison shapes are invalidated on redefinition), which is what
    lets this run after SSA destruction, right before lowering, so the
    annotations key the exact instruction objects the backends see.
    """
    stats = {"functions": 0, "facts": 0, "call_targets": 0,
             "iterations": 0}
    for func in module.functions.values():
        info = _compute_ranges(func)
        stats["functions"] += 1
        stats["iterations"] += info.iterations
        for instr, ival in info.facts.items():
            instr.range_fact = ival
            stats["facts"] += 1
        for instr, ival in info.call_targets.items():
            instr.target_fact = ival
            stats["call_targets"] += 1
    registry = get_registry()
    registry.counter("opt.ranges.annotated_defs").inc(stats["facts"])
    return stats
