"""The Emscripten-style backend: IR -> WebAssembly.

Plays the role of Emscripten/LLVM's wasm backend in the paper's toolchain:
the same optimized IR that feeds the native code generator is lowered to a
WebAssembly module (wasm32, shadow stack in linear memory, externs as
``env`` imports, function pointers through the table).

Control flow is restructured with the dominator-tree algorithm from
Ramsey's "Beyond Relooper" (the algorithm class used by LLVM's wasm
backend): merge nodes become ``block``s, loop headers become ``loop``s,
and every IR branch turns into a ``br``/``br_if`` or straight fall-through.
Requires a reducible CFG, which everything produced by mcc (and the shared
middle-end passes) satisfies.
"""

from __future__ import annotations

import time

from ..errors import CompileError
from ..ir.function import Function
from ..ir.instructions import (
    BinOp, Call, CallIndirect, CondBr, GetGlobal, Jump, Load, Move, Return,
    SetGlobal, Store, Trap, UnOp, CMP_OPS,
)
from ..ir.loops import dominators
from ..ir.module import Module
from ..ir.passes import optimize_module
from ..ir.types import Type
from ..ir.values import Const, VReg
from ..mcc import compile_source
from ..wasm.module import (
    PAGE_SIZE, WasmData, WasmExport, WasmFuncType, WasmFunction, WasmGlobal,
    WasmImport, WasmModule,
)
from ..wasm.opcodes import WasmInstr

_I = WasmInstr


class EmscriptenBackend:
    """Compiles an IR module to a WasmModule."""

    def __init__(self, module: Module):
        self.ir = module
        self.out = WasmModule(module.name)
        self.func_indices: dict[str, int] = {}

    def compile(self) -> WasmModule:
        out = self.out
        ir = self.ir

        # Imports come first in the function index space.
        for name, ftype in sorted(ir.externs.items()):
            type_index = out.type_index(WasmFuncType.from_ir(ftype))
            out.imports.append(WasmImport("env", name, "func", type_index))
            self.func_indices[name] = len(self.func_indices)

        # A null stub occupies table slot 0 (Emscripten's layout): calling
        # through a null function pointer must trap.
        defined = list(ir.functions.values())
        base = len(self.func_indices)
        stub_needed = bool(ir.table)
        stub_index = None
        if stub_needed:
            stub_index = base + len(defined)
        for offset, func in enumerate(defined):
            self.func_indices[func.name] = base + offset

        # Memory and globals.
        pages = (ir.memory_size + PAGE_SIZE - 1) // PAGE_SIZE
        out.memory_pages = (pages, pages)
        global_indices = {}
        for name, gvar in ir.wasm_globals.items():
            global_indices[name] = len(out.globals)
            const_op = {"i32": "i32.const", "i64": "i64.const",
                        "f64": "f64.const"}[gvar.ty.value]
            init = gvar.init if gvar.ty.is_int else float(gvar.init)
            out.globals.append(WasmGlobal(gvar.ty.value, gvar.mutable,
                                          _I(const_op, init)))

        # Table.
        if ir.table:
            out.table = [
                self.func_indices[name] if name else stub_index
                for name in ir.table
            ]

        # Function bodies.
        from ..ir.verify import check_ranges_enabled
        oracle = check_ranges_enabled()
        for offset, func in enumerate(defined):
            emitter = _FunctionEmitter(self, func, global_indices)
            out.functions.append(emitter.run())
            if oracle:
                facts = emitter.range_locals()
                if facts:
                    out.ranges[offset] = facts
        if stub_needed:
            void = out.type_index(WasmFuncType((), ()))
            out.functions.append(
                WasmFunction(void, [], [_I("unreachable")], "__null_stub"))

        # Data segments and exports.
        for seg in ir.data:
            out.data.append(WasmData(seg.addr, seg.data))
        for name in ir.functions:
            out.exports.append(
                WasmExport(name, "func", self.func_indices[name]))
        out.exports.append(WasmExport("memory", "memory", 0))
        # Export the heap start the way Emscripten does, so runtimes know
        # where malloc's arena begins (after data *and* BSS).
        heap_global = len(out.globals)
        out.globals.append(WasmGlobal("i32", False,
                                      _I("i32.const", ir.heap_base)))
        out.exports.append(WasmExport("__heap_base", "global", heap_global))
        return out


class _Ctx:
    """Relooper context entries."""

    BLOCK = "block"
    LOOP = "loop"
    IF = "if"

    __slots__ = ("kind", "label")

    def __init__(self, kind, label=None):
        self.kind = kind
        self.label = label


class _FunctionEmitter:
    def __init__(self, backend: EmscriptenBackend, func: Function,
                 global_indices):
        self.backend = backend
        self.func = func
        self.global_indices = global_indices
        self.code: list[WasmInstr] = []
        self.local_indices: dict[int, int] = {}
        self.local_types: list[str] = []

        # CFG analyses for the relooper.
        reachable = func.reachable_blocks()
        self.order = [b.label for b in func.block_order()
                      if b.label in reachable]
        self.rpo = {label: i for i, label in enumerate(self.order)}
        self.preds = {label: [p for p in ps if p in reachable]
                      for label, ps in func.predecessors().items()
                      if label in reachable}
        self.dom = dominators(func)
        self.idom = self._immediate_dominators()
        self.children = {label: [] for label in self.order}
        for label, parent in self.idom.items():
            if parent is not None:
                self.children[parent].append(label)
        for kids in self.children.values():
            kids.sort(key=lambda l: self.rpo[l])

    # -- locals -----------------------------------------------------------------

    def range_locals(self) -> dict:
        """``--check-ranges`` facts per wasm local: {local index: (bits,
        lo, hi, maybe)}.

        A local gets a fact only when *every* assignment of it carries a
        proved interval — the recorded tuple is the join over all def
        sites, so it holds for each individual ``local.set``.  Call
        after :meth:`run` (the local map must be complete).
        """
        from ..dataflow.interval import analyze_function
        info = analyze_function(self.func, self.backend.ir)
        joined = {}
        tainted = set()
        reachable = self.func.reachable_blocks()
        for label in self.order:
            if label not in reachable:
                continue
            for instr in self.func.blocks[label].instrs:
                dst = getattr(instr, "dst", None)
                if not isinstance(dst, VReg) or not dst.ty.is_int:
                    continue
                local = self.local_indices.get(dst.id)
                if local is None:
                    continue  # def was never emitted (dead)
                fact = info.facts.get(instr)
                if fact is None or fact.is_top:
                    tainted.add(local)
                elif local in joined:
                    joined[local] = joined[local].join(fact)
                else:
                    joined[local] = fact
        return {local: (fact.bits, fact.lo, fact.hi, fact.maybe)
                for local, fact in joined.items()
                if local not in tainted}

    def local_of(self, vreg: VReg) -> int:
        index = self.local_indices.get(vreg.id)
        if index is None:
            index = len(self.func.params) + len(self.local_types)
            self.local_indices[vreg.id] = index
            self.local_types.append(vreg.ty.value)
        return index

    # -- CFG properties -----------------------------------------------------------

    def _immediate_dominators(self):
        idom = {}
        for label in self.order:
            doms = self.dom[label] - {label}
            if not doms:
                idom[label] = None
                continue
            idom[label] = max(doms, key=lambda d: len(self.dom[d]))
        return idom

    def _is_merge(self, label: str) -> bool:
        forward = sum(1 for p in self.preds.get(label, [])
                      if self.rpo[p] < self.rpo[label])
        return forward >= 2

    def _is_loop_header(self, label: str) -> bool:
        return any(self.rpo[p] >= self.rpo[label]
                   for p in self.preds.get(label, []))

    # -- relooper --------------------------------------------------------------------

    def run(self) -> WasmFunction:
        ftype = self.func.ftype
        for param in self.func.params:
            self.local_indices[param.id] = len(self.local_indices)
        self.do_tree(self.func.entry, [])
        # Every IR path ends in return/trap, so the implicit function end
        # is unreachable; emit it explicitly so validation of result-typed
        # functions succeeds (LLVM's wasm backend does the same).
        self.emit("unreachable")
        type_index = self.backend.out.type_index(WasmFuncType.from_ir(ftype))
        return WasmFunction(type_index, self.local_types, self.code,
                            self.func.name)

    def emit(self, op, *args) -> None:
        self.code.append(_I(op, *args))

    def do_tree(self, label: str, context) -> None:
        merge_children = [c for c in self.children[label]
                          if self._is_merge(c)]
        merge_children.sort(key=lambda l: self.rpo[l])
        if self._is_loop_header(label):
            self.emit("loop", None)
            self.node_within(label, merge_children,
                             [_Ctx(_Ctx.LOOP, label)] + context)
            self.emit("end")
        else:
            self.node_within(label, merge_children, context)

    def node_within(self, label: str, merge_children, context) -> None:
        if merge_children:
            inner = merge_children[:-1]
            last = merge_children[-1]
            self.emit("block", None)
            self.node_within(label, inner,
                             [_Ctx(_Ctx.BLOCK, last)] + context)
            self.emit("end")
            self.do_tree(last, context)
            return
        block = self.func.blocks[label]
        for instr in block.instrs:
            self.emit_instr(instr)
        term = block.term
        if isinstance(term, Jump):
            self.do_branch(label, term.target, context)
        elif isinstance(term, CondBr):
            self.push(term.cond)
            true_inline = self._inline_target(label, term.if_true)
            false_inline = self._inline_target(label, term.if_false)
            if not true_inline and not false_inline:
                # Both sides are branches: use br_if + br (the compact
                # form Emscripten emits for loop back edges and exits).
                self.emit("br_if", self._depth_for(label, term.if_true,
                                                   context))
                self.do_branch(label, term.if_false, context)
            else:
                self.emit("if", None)
                if_context = [_Ctx(_Ctx.IF)] + context
                self.do_branch(label, term.if_true, if_context)
                self.emit("else")
                self.do_branch(label, term.if_false, if_context)
                self.emit("end")
        elif isinstance(term, Return):
            if term.value is not None:
                self.push(term.value)
            self.emit("return")
        elif isinstance(term, Trap):
            self.emit("unreachable")
        else:  # pragma: no cover
            raise CompileError(f"bad terminator {term!r}")

    def _inline_target(self, source: str, target: str) -> bool:
        """True when the branch will inline the target subtree."""
        if self.rpo[target] <= self.rpo[source]:
            return False  # back edge
        return not self._is_merge(target)

    def _depth_for(self, source: str, target: str, context) -> int:
        back = self.rpo[target] <= self.rpo[source]
        for depth, entry in enumerate(context):
            if back and entry.kind == _Ctx.LOOP and entry.label == target:
                return depth
            if not back and entry.kind == _Ctx.BLOCK \
                    and entry.label == target:
                return depth
        raise CompileError(
            f"{self.func.name}: no context for branch {source}->{target}")

    def do_branch(self, source: str, target: str, context) -> None:
        if self._inline_target(source, target):
            self.do_tree(target, context)
        else:
            self.emit("br", self._depth_for(source, target, context))

    # -- straight-line code -------------------------------------------------------------

    def push(self, operand) -> None:
        if isinstance(operand, Const):
            if operand.ty is Type.I32:
                self.emit("i32.const", _sign32(int(operand.value)))
            elif operand.ty is Type.I64:
                self.emit("i64.const", _sign64(int(operand.value)))
            else:
                self.emit("f64.const", float(operand.value))
        else:
            self.emit("local.get", self.local_of(operand))

    def set_local(self, vreg: VReg) -> None:
        self.emit("local.set", self.local_of(vreg))

    def emit_instr(self, instr) -> None:
        if isinstance(instr, Move):
            self.push(instr.src)
            self.set_local(instr.dst)
        elif isinstance(instr, BinOp):
            self.push(instr.lhs)
            self.push(instr.rhs)
            operand_ty = (instr.lhs.ty
                          if isinstance(instr.lhs, (VReg, Const))
                          else Type.I32)
            prefix = operand_ty.value if instr.op in CMP_OPS \
                else instr.dst.ty.value
            self.emit(f"{prefix}.{instr.op}")
            self.set_local(instr.dst)
        elif isinstance(instr, UnOp):
            self._emit_unop(instr)
        elif isinstance(instr, Load):
            if instr.index is not None:
                raise CompileError("scaled-index IR reached the wasm "
                                   "backend (native-only form)")
            self.push(instr.base)
            self.emit(_load_op(instr), _align(instr.size), instr.offset)
            self.set_local(instr.dst)
        elif isinstance(instr, Store):
            if instr.index is not None:
                raise CompileError("scaled-index IR reached the wasm "
                                   "backend (native-only form)")
            self.push(instr.base)
            self.push(instr.src)
            self.emit(_store_op(instr), _align(instr.size), instr.offset)
        elif isinstance(instr, GetGlobal):
            self.emit("global.get", self.global_indices[instr.name])
            self.set_local(instr.dst)
        elif isinstance(instr, SetGlobal):
            self.push(instr.src)
            self.emit("global.set", self.global_indices[instr.name])
        elif isinstance(instr, Call):
            for arg in instr.args:
                self.push(arg)
            self.emit("call", self.backend.func_indices[instr.callee])
            if instr.dst is not None:
                self.set_local(instr.dst)
            elif self._callee_returns(instr.callee):
                self.emit("drop")
        elif isinstance(instr, CallIndirect):
            for arg in instr.args:
                self.push(arg)
            self.push(instr.target)
            type_index = self.backend.out.type_index(
                WasmFuncType.from_ir(instr.ftype))
            self.emit("call_indirect", type_index)
            if instr.dst is not None:
                self.set_local(instr.dst)
            elif instr.ftype.result is not None:
                self.emit("drop")
        else:  # pragma: no cover
            raise CompileError(f"cannot emit {instr!r} to wasm")

    def _callee_returns(self, name: str) -> bool:
        return self.backend.ir.signature_of(name).result is not None

    def _emit_unop(self, instr: UnOp) -> None:
        op = instr.op
        src_ty = (instr.src.ty if isinstance(instr.src, (VReg, Const))
                  else Type.I32)
        self.push(instr.src)
        if op == "eqz":
            self.emit(f"{src_ty.value}.eqz")
        elif "_" in op and any(op.startswith(p)
                               for p in ("i32_", "i64_", "f64_")):
            # Conversions: i64_extend_i32_s -> i64.extend_i32_s etc.
            self.emit(op[:3] + "." + op[4:])
        else:
            # Float/integer unary math: neg, abs, sqrt, clz, ...
            self.emit(f"{instr.dst.ty.value}.{op}")
        self.set_local(instr.dst)


def _sign32(value: int) -> int:
    value &= 0xFFFFFFFF
    return value - 0x100000000 if value >= 0x80000000 else value


def _sign64(value: int) -> int:
    value &= 0xFFFFFFFFFFFFFFFF
    return value - (1 << 64) if value >= (1 << 63) else value


def _align(size: int) -> int:
    return {1: 0, 2: 1, 4: 2, 8: 3}[size]


def _load_op(instr: Load) -> str:
    ty = instr.dst.ty
    if ty is Type.F64:
        return "f64.load"
    prefix = ty.value
    if instr.size == ty.size:
        return f"{prefix}.load"
    sign = "s" if instr.signed else "u"
    return f"{prefix}.load{instr.size * 8}_{sign}"


def _store_op(instr: Store) -> str:
    src = instr.src
    ty = src.ty if isinstance(src, (VReg, Const)) else Type.I32
    if ty is Type.F64:
        return "f64.store"
    prefix = ty.value
    if instr.size == ty.size:
        return f"{prefix}.store"
    return f"{prefix}.store{instr.size * 8}"


def compile_ir_to_wasm(module: Module) -> WasmModule:
    """Lower an (already optimized) IR module to WebAssembly."""
    from ..obs import span
    with span("wasm.lower", module=module.name):
        return EmscriptenBackend(module).compile()


def compile_emscripten(source: str, name: str = "program",
                       opt_level: int = 2, memory_size: int = None,
                       stack_size: int = None):
    """Full Emscripten-style pipeline: mcc source -> optimized wasm.

    Returns (wasm_module, ir_module).  The middle-end runs the same shared
    -O2 pipeline as the native backend *minus* loop unrolling (the JITs'
    code is compiled from un-unrolled wasm, which is the paper's §6.3
    i-cache asymmetry).
    """
    start = time.perf_counter()
    ir = compile_source(source, name, memory_size=memory_size,
                        stack_size=stack_size)
    optimize_module(ir, level=opt_level)
    wasm = compile_ir_to_wasm(ir)
    elapsed = time.perf_counter() - start
    wasm.compile_seconds = elapsed
    return wasm, ir
