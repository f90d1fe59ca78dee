"""IR well-formedness checks.

The verifier catches frontend and pass bugs early: unterminated blocks,
branches to missing labels, type-inconsistent operands, calls with wrong
arity, and strict def-before-use — every use of a register must be
definitely assigned on *all* paths from the entry (computed with the
``repro.dataflow`` definite-assignment analysis).  Unreachable blocks
are held to the weaker "defined somewhere" standard, since facts about
code that cannot execute are vacuous.

Between-pass verification is gated: ``verify_ir_enabled()`` reflects the
``REPRO_VERIFY_IR`` environment variable (so forked bench workers
inherit it) combined with :func:`set_verify_ir`.  Tests and CI switch it
on; the bench path pays one boolean check per pass when it is off.
"""

from __future__ import annotations

import os

from .instructions import (
    BinOp, Call, CallIndirect, CondBr, GetGlobal, Jump, Load, Move, Phi,
    Return, SetGlobal, Store, Trap, UnOp, CMP_OPS, FLOAT_ARITH_OPS,
    INT_ARITH_OPS, UNARY_OPS,
)
from .function import Function
from .module import Module
from .types import Type
from .values import Const, VReg


class VerifyError(Exception):
    """Raised when an IR module is malformed.

    Carries enough structure for pass-blame reporting: ``function`` and
    ``block`` locate the failure, ``detail`` is a short phrase naming the
    broken invariant (e.g. ``"def-before-use of %t3"``).
    """

    def __init__(self, message, function=None, block=None, detail=None):
        super().__init__(message)
        self.function = function
        self.block = block
        self.detail = detail


class RangeOracleError(VerifyError, AssertionError):
    """A runtime value escaped the interval the ``ranges`` analysis
    proved for its definition.

    Raised by the runtime soundness oracle (``--check-ranges``) in the
    x86 machine, the wasm interpreter, and the IR interpreter.  Like
    :class:`~repro.ir.passes.PassBlameError` this names the culprit —
    range facts have exactly one producer, so ``blamed`` is always the
    ``ranges`` pass.
    """

    blamed = "ranges"

    def __init__(self, message, function=None, block=None, detail=None):
        super().__init__(f"[pass: ranges] {message}", function=function,
                         block=block, detail=detail)


_ENABLED = os.environ.get("REPRO_VERIFY_IR", "") not in ("", "0")


def set_verify_ir(enabled: bool) -> None:
    """Toggle between-pass IR verification for this process and (via the
    environment) any workers it forks."""
    global _ENABLED
    _ENABLED = bool(enabled)
    os.environ["REPRO_VERIFY_IR"] = "1" if enabled else "0"


def verify_ir_enabled() -> bool:
    return _ENABLED


_CHECK_RANGES = os.environ.get("REPRO_CHECK_RANGES", "") not in ("", "0")


def set_check_ranges(enabled: bool) -> None:
    """Toggle the runtime range-soundness oracle for this process and
    (via the environment) any workers it forks."""
    global _CHECK_RANGES
    _CHECK_RANGES = bool(enabled)
    os.environ["REPRO_CHECK_RANGES"] = "1" if enabled else "0"


def check_ranges_enabled() -> bool:
    return _CHECK_RANGES


class _Where:
    """The ``func/label: instr`` prefix of an error message, formatted
    only when an error is raised (``repr`` of every checked instruction
    would cost a fifth of the verifier's time)."""

    __slots__ = ("func", "label", "instr", "pred")

    def __init__(self, func, label, instr, pred=None):
        self.func = func
        self.label = label
        self.instr = instr
        self.pred = pred

    def __format__(self, spec):
        text = f"{self.func.name}/{self.label}: {self.instr!r}"
        if self.pred is not None:
            text += f" [from {self.pred}]"
        return format(text, spec)


def _operand_ty(op):
    if isinstance(op, (VReg, Const)):
        return op.ty
    raise VerifyError(f"operand {op!r} is not a VReg or Const")


def verify_function(func: Function, module: Module = None) -> None:
    if func.entry is None or func.entry not in func.blocks:
        raise VerifyError(f"{func.name}: missing entry block",
                          function=func.name)
    if len(func.params) != len(func.ftype.params):
        raise VerifyError(f"{func.name}: param count mismatch",
                          function=func.name)
    for reg, ty in zip(func.params, func.ftype.params):
        if reg.ty != ty:
            raise VerifyError(f"{func.name}: param {reg} type != {ty}",
                              function=func.name)

    from ..obs import get_registry
    get_registry().counter("analysis.verifier_runs").inc()

    # Each block's (instruction, uses, defs), listed once for every
    # check below.
    code = {}
    defined = {p.id for p in func.params}
    for label, block in func.blocks.items():
        rows = code[label] = []
        for instr in block.all_instrs():
            defs = instr.defs()
            for reg in defs:
                defined.add(reg.id)
            rows.append((instr, instr.uses(), defs))

    for label, block in func.blocks.items():
        if block.term is None:
            raise VerifyError(f"{func.name}/{label}: block not terminated",
                              function=func.name, block=label)
        for succ in block.successors():
            if succ not in func.blocks:
                raise VerifyError(
                    f"{func.name}/{label}: branch to missing {succ}",
                    function=func.name, block=label)
        for instr, uses, _ in code[label]:
            try:
                _verify_instr(func, label, instr, uses, defined, module)
            except VerifyError as exc:
                if exc.function is None:
                    exc.function = func.name
                    exc.block = label
                raise

    if getattr(func, "ssa", False):
        _verify_ssa(func, code)
    else:
        _verify_def_before_use(func, code)


def _verify_ssa(func: Function, code: dict) -> None:
    """SSA-form invariants: exactly one static assignment per register,
    phi incoming edges matching the CFG predecessors, phis forming a
    block prefix, and every use dominated by its definition (a phi's
    operand is "used" at the exit of the matching predecessor).
    Unreachable blocks are exempt from the dominance rule, as in the
    non-SSA verifier."""
    from .ssa import domtree

    sites = {p.id: (None, -1) for p in func.params}
    for label, rows in code.items():
        for index, (instr, _, defs) in enumerate(rows):
            for reg in defs:
                if reg.id in sites:
                    raise VerifyError(
                        f"{func.name}/{label}: {instr!r}: second "
                        f"assignment to {reg} in SSA form",
                        function=func.name, block=label,
                        detail=f"single assignment of {reg}")
                sites[reg.id] = (label, index)

    preds = func.predecessors()
    dt = domtree(func)
    reachable = func.reachable_blocks()

    def check_use(reg, use_label, use_index, where):
        site = sites.get(reg.id)
        if site is None:
            raise VerifyError(
                f"{where}: use of never-defined {reg}",
                function=func.name, block=use_label,
                detail=f"def-before-use of {reg}")
        def_label, def_index = site
        if def_label is None:       # parameter: dominates everything
            return
        ok = (dt.dominates(def_label, use_label)
              and (def_label != use_label or def_index < use_index))
        if not ok:
            raise VerifyError(
                f"{where}: use of {reg} not dominated by its "
                f"definition in {def_label}",
                function=func.name, block=use_label,
                detail=f"def-before-use of {reg}")

    for label in reachable:
        in_prefix = True
        block_preds = set(preds.get(label, []))
        for index, (instr, uses, _) in enumerate(code[label]):
            if isinstance(instr, Phi):
                if not in_prefix:
                    raise VerifyError(
                        f"{func.name}/{label}: {instr!r}: phi after "
                        f"non-phi instruction",
                        function=func.name, block=label,
                        detail="phi placement")
                if set(instr.incoming) != block_preds:
                    raise VerifyError(
                        f"{func.name}/{label}: {instr!r}: phi edges "
                        f"{sorted(instr.incoming)} != predecessors "
                        f"{sorted(block_preds)}",
                        function=func.name, block=label,
                        detail="phi/predecessor agreement")
                for pred_label, value in instr.incoming.items():
                    if isinstance(value, VReg) and pred_label in reachable:
                        check_use(value, pred_label, len(code[pred_label]),
                                  _Where(func, label, instr, pred_label))
                continue
            in_prefix = False
            where = _Where(func, label, instr)
            for reg in uses:
                check_use(reg, label, index, where)


def _verify_def_before_use(func: Function, code: dict) -> None:
    """Strict def-before-use over reachable blocks: every use must be
    definitely assigned on all paths from the entry."""
    # Imported lazily: repro.dataflow imports repro.ir submodules, and
    # repro.ir's package init imports this module, so a module-level
    # import here would blow up whichever package is imported first.
    from ..dataflow import definite_assignment

    entry_facts = definite_assignment(func, code)
    reachable = func.reachable_blocks()
    for label in reachable:
        assigned = entry_facts[label]
        for instr, uses, defs in code[label]:
            for reg in uses:
                if reg.id not in assigned:
                    raise VerifyError(
                        f"{func.name}/{label}: {instr!r}: use of {reg} "
                        f"without a definition on every path from entry",
                        function=func.name, block=label,
                        detail=f"def-before-use of {reg}")
            for reg in defs:
                assigned.add(reg.id)


def _verify_instr(func, label, instr, uses, defined, module):
    where = _Where(func, label, instr)
    for reg in uses:
        if reg.id not in defined:
            raise VerifyError(f"{where}: use of undefined {reg}",
                              function=func.name, block=label,
                              detail=f"def-before-use of {reg}")

    if isinstance(instr, Phi):
        if not getattr(func, "ssa", False):
            raise VerifyError(f"{where}: phi outside SSA form",
                              function=func.name, block=label,
                              detail="phi outside SSA form")
        if not instr.incoming:
            raise VerifyError(f"{where}: phi with no incoming edges")
        for pred_label, value in instr.incoming.items():
            if pred_label not in func.blocks:
                raise VerifyError(
                    f"{where}: phi edge from missing block {pred_label}")
            if _operand_ty(value) != instr.dst.ty:
                raise VerifyError(f"{where}: phi operand type mismatch")
    elif isinstance(instr, Move):
        if _operand_ty(instr.src) != instr.dst.ty:
            raise VerifyError(f"{where}: move type mismatch")
    elif isinstance(instr, BinOp):
        lty, rty = _operand_ty(instr.lhs), _operand_ty(instr.rhs)
        if lty != rty:
            raise VerifyError(f"{where}: operand types differ ({lty}, {rty})")
        if instr.op in CMP_OPS:
            if instr.dst.ty != Type.I32:
                raise VerifyError(f"{where}: comparison must produce i32")
        elif lty.is_float:
            if instr.op not in FLOAT_ARITH_OPS:
                raise VerifyError(f"{where}: bad float op {instr.op}")
            if instr.dst.ty != lty:
                raise VerifyError(f"{where}: float result type mismatch")
        else:
            if instr.op not in INT_ARITH_OPS:
                raise VerifyError(f"{where}: bad int op {instr.op}")
            if instr.dst.ty != lty:
                raise VerifyError(f"{where}: int result type mismatch")
    elif isinstance(instr, UnOp):
        if instr.op not in UNARY_OPS:
            raise VerifyError(f"{where}: unknown unary op {instr.op}")
    elif isinstance(instr, Load):
        if _operand_ty(instr.base) != Type.I32:
            raise VerifyError(f"{where}: load base must be i32 pointer")
        if instr.size not in (1, 2, 4, 8):
            raise VerifyError(f"{where}: bad load size {instr.size}")
    elif isinstance(instr, Store):
        if _operand_ty(instr.base) != Type.I32:
            raise VerifyError(f"{where}: store base must be i32 pointer")
        if instr.size not in (1, 2, 4, 8):
            raise VerifyError(f"{where}: bad store size {instr.size}")
    elif isinstance(instr, (GetGlobal, SetGlobal)):
        if module is not None and instr.name not in module.wasm_globals:
            raise VerifyError(f"{where}: unknown global {instr.name}")
    elif isinstance(instr, Call):
        if module is not None:
            try:
                ftype = module.signature_of(instr.callee)
            except KeyError:
                raise VerifyError(f"{where}: unknown callee")
            _check_call(where, ftype, instr.args, instr.dst)
    elif isinstance(instr, CallIndirect):
        if _operand_ty(instr.target) != Type.I32:
            raise VerifyError(f"{where}: indirect target must be i32")
        _check_call(where, instr.ftype, instr.args, instr.dst)
    elif isinstance(instr, CondBr):
        if _operand_ty(instr.cond) != Type.I32:
            raise VerifyError(f"{where}: branch condition must be i32")
    elif isinstance(instr, Return):
        want = func.ftype.result
        if want is None and instr.value is not None:
            raise VerifyError(f"{where}: void function returns a value")
        if want is not None:
            if instr.value is None:
                raise VerifyError(f"{where}: missing return value")
            if _operand_ty(instr.value) != want:
                raise VerifyError(f"{where}: return type mismatch")
    elif isinstance(instr, (Jump, Trap)):
        pass


def _check_call(where, ftype, args, dst):
    if len(args) != len(ftype.params):
        raise VerifyError(f"{where}: arity mismatch")
    for arg, ty in zip(args, ftype.params):
        if _operand_ty(arg) != ty:
            raise VerifyError(f"{where}: argument type mismatch")
    if dst is not None:
        if ftype.result is None:
            raise VerifyError(f"{where}: void call assigns a result")
        if dst.ty != ftype.result:
            raise VerifyError(f"{where}: result type mismatch")


def verify_module(module: Module) -> None:
    """Verify every function in ``module``; raise ``VerifyError`` on failure."""
    for name in module.table:
        if name and name not in module.functions:
            raise VerifyError(f"table entry {name} is not a defined function")
    for func in module.functions.values():
        verify_function(func, module)
