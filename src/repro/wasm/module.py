"""WebAssembly module structure (MVP sections)."""

from __future__ import annotations

from ..ir.types import FuncType, Type

#: Value types as in the binary format.
VALTYPE_CODES = {0x7F: "i32", 0x7E: "i64", 0x7D: "f32", 0x7C: "f64"}
VALTYPE_BYTES = {v: k for k, v in VALTYPE_CODES.items()}

PAGE_SIZE = 65536


def to_ir_type(valtype: str) -> Type:
    if valtype == "f32":
        raise ValueError("f32 has no IR counterpart in this toolchain")
    return Type(valtype)


class WasmFuncType:
    """A function type as stored in the type section."""

    __slots__ = ("params", "results")

    def __init__(self, params, results):
        self.params = tuple(params)    # valtype strings
        self.results = tuple(results)

    @classmethod
    def from_ir(cls, ftype: FuncType) -> "WasmFuncType":
        return cls([t.value for t in ftype.params],
                   [t.value for t in ftype.results])

    def to_ir(self) -> FuncType:
        return FuncType([to_ir_type(p) for p in self.params],
                        [to_ir_type(r) for r in self.results])

    def __eq__(self, other):
        return (isinstance(other, WasmFuncType)
                and self.params == other.params
                and self.results == other.results)

    def __hash__(self):
        return hash((self.params, self.results))

    def __repr__(self):
        return (f"(func ({' '.join(self.params)}) "
                f"-> ({' '.join(self.results)}))")


class WasmImport:
    __slots__ = ("module", "name", "kind", "type_index")

    def __init__(self, module: str, name: str, kind: str, type_index: int):
        self.module = module
        self.name = name
        self.kind = kind            # only 'func' imports are used here
        self.type_index = type_index

    def __repr__(self):
        return f'(import "{self.module}" "{self.name}" type={self.type_index})'


class WasmFunction:
    """A defined function: type index, extra locals, body instructions."""

    __slots__ = ("type_index", "locals", "body", "name")

    def __init__(self, type_index: int, locals_=(), body=(), name: str = ""):
        self.type_index = type_index
        self.locals = list(locals_)   # valtype strings (excluding params)
        self.body = list(body)        # WasmInstr sequence (without final end)
        self.name = name

    def __repr__(self):
        return f"<wasm func {self.name or '?'} ({len(self.body)} instrs)>"


class WasmGlobal:
    __slots__ = ("valtype", "mutable", "init")

    def __init__(self, valtype: str, mutable: bool, init):
        self.valtype = valtype
        self.mutable = mutable
        self.init = init              # a single const WasmInstr

    def __repr__(self):
        mut = "mut " if self.mutable else ""
        return f"(global {mut}{self.valtype} {self.init!r})"


class WasmExport:
    __slots__ = ("name", "kind", "index")

    def __init__(self, name: str, kind: str, index: int):
        self.name = name
        self.kind = kind              # 'func' | 'memory' | 'global' | 'table'
        self.index = index

    def __repr__(self):
        return f'(export "{self.name}" {self.kind} {self.index})'


class WasmData:
    __slots__ = ("offset", "data")

    def __init__(self, offset: int, data: bytes):
        self.offset = offset
        self.data = bytes(data)

    def __repr__(self):
        return f"(data offset={self.offset} len={len(self.data)})"


class WasmModule:
    """A complete module: mirrors the MVP binary sections."""

    def __init__(self, name: str = "module"):
        self.name = name
        self.types: list[WasmFuncType] = []
        self.imports: list[WasmImport] = []
        self.functions: list[WasmFunction] = []
        self.table: list[int] = []          # function indices (None -> -1)
        self.memory_pages = (1, None)       # (initial, max or None)
        self.globals: list[WasmGlobal] = []
        self.exports: list[WasmExport] = []
        self.start = None
        self.data: list[WasmData] = []
        #: ``--check-ranges`` oracle facts carried in the "repro-ranges"
        #: custom section: {defined-function position: {local index:
        #: (bits, lo, hi, maybe)}}.  Each tuple is the interval proved
        #: for *every* assignment of that local; the wasm interpreter
        #: asserts observed values against it.  Empty unless the
        #: producer ran under ``--check-ranges``.
        self.ranges: dict = {}

    # -- indices -------------------------------------------------------------

    def type_index(self, ftype: WasmFuncType) -> int:
        try:
            return self.types.index(ftype)
        except ValueError:
            self.types.append(ftype)
            return len(self.types) - 1

    @property
    def num_imported_funcs(self) -> int:
        return sum(1 for imp in self.imports if imp.kind == "func")

    def func_type_of(self, func_index: int) -> WasmFuncType:
        imports = [imp for imp in self.imports if imp.kind == "func"]
        if func_index < len(imports):
            return self.types[imports[func_index].type_index]
        return self.types[
            self.functions[func_index - len(imports)].type_index]

    def export_index(self, name: str):
        for exp in self.exports:
            if exp.name == name and exp.kind == "func":
                return exp.index
        return None

    def function_count(self) -> int:
        return self.num_imported_funcs + len(self.functions)

    def instruction_count(self) -> int:
        return sum(len(f.body) for f in self.functions)

    def __repr__(self):
        return (f"<wasm module {self.name}: {len(self.functions)} funcs, "
                f"{len(self.imports)} imports, "
                f"{self.instruction_count()} instrs>")
