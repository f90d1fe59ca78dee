"""Compiled x86 programs: functions, layout, constant pools, tables.

Address-space layout of a compiled program:

    [0, linear_size)                     guest linear memory (the module's)
    [linear_size, +MACHINE_STACK_SIZE)   machine stack (rsp lives here)
    [rodata_base, +rodata)               constant pools, call tables,
                                         instance globals (e.g. __sp)
    CODE_BASE ...                        code addresses (virtual; feeds the
                                         L1 i-cache model, never read as data)
"""

from __future__ import annotations

import struct
from operator import attrgetter

from .isa import Imm, Instr, Label, Mem, Reg, fmt_listing

MACHINE_STACK_SIZE = 1 << 20
CODE_BASE = 0x4000_0000


class X86Function:
    """An assembled function: label-free instruction list + label map."""

    def __init__(self, name: str):
        self.name = name
        self.raw: list[Instr] = []      # as emitted, including labels
        self.instrs: list[Instr] = []   # assembled (labels stripped)
        self.labels: dict[str, int] = {}
        self.entry_addr = 0

    def emit(self, instr: Instr) -> Instr:
        self.raw.append(instr)
        return instr

    def label(self, name: str) -> None:
        self.raw.append(Instr("label", name))

    def assemble(self) -> None:
        """Strip label pseudo-instructions and resolve branch targets to
        instruction indices (stored on ``instr.b`` for jmp/jcc)."""
        self.instrs = []
        self.labels = {}
        for ins in self.raw:
            if ins.op == "label":
                self.labels[ins.a] = len(self.instrs)
            else:
                self.instrs.append(ins)
        for ins in self.instrs:
            if ins.op in ("jmp", "jcc") and isinstance(ins.a, Label):
                if ins.a.name not in self.labels:
                    raise ValueError(
                        f"{self.name}: undefined label {ins.a.name}")
                ins.b = self.labels[ins.a.name]

    def listing(self, with_addr: bool = False) -> str:
        return fmt_listing(self.raw, with_addr)

    def code_size(self) -> int:
        return sum(ins.enc_size for ins in self.instrs)

    def __repr__(self):
        return f"<x86 func {self.name} ({len(self.instrs)} instrs)>"


#: Per operand class, a reader of its class and fields as one tuple.
_IDENTITY = {cls: attrgetter("__class__", *cls.__slots__)
             for cls in (Reg, Mem, Imm, Label)}


def _shared(operand, table: dict):
    """The program's one object for ``operand``.  Two operands are one
    if they have the same class and every field is equal and of the
    same type, so ``Imm(1)`` and ``Imm(True)`` stay apart and a spill
    slot never merges with a program access.  A float field is never
    shared, since ``0.0 == -0.0``."""
    identity = _IDENTITY.get(type(operand))
    if identity is None:
        return operand
    fields = identity(operand)
    types = tuple(map(type, fields))
    if float in types:
        return operand
    return table.setdefault((fields, types), operand)


class _TableSpec:
    __slots__ = ("addr", "entries", "stride", "with_sig")

    def __init__(self, addr, entries, stride, with_sig):
        self.addr = addr
        self.entries = entries
        self.stride = stride
        self.with_sig = with_sig


class X86Program:
    """A fully compiled program for the simulated machine."""

    def __init__(self, name: str, linear_size: int,
                 stack_size: int = MACHINE_STACK_SIZE):
        self.name = name
        self.linear_size = linear_size
        self.machine_stack_size = stack_size
        self.functions: dict[str, X86Function] = {}
        self.entry = "main"

        self.rodata_base = linear_size + stack_size
        self._rodata_cursor = self.rodata_base
        self._rodata_blobs: list[tuple[int, bytes]] = []
        self._tables: list[_TableSpec] = []
        self.instance_globals: dict[str, int] = {}
        self._f64_pool: dict[float, int] = {}
        self.extern_sigs: dict[str, object] = {}  # name -> ir FuncType
        self.abi = None                           # set by the backend
        self.compile_stats: dict[str, float] = {}
        #: Guest linear-memory initializers, (addr, bytes) each, applied
        #: to zeroed memory like a wasm module's data segments.
        self.data_segments: list[tuple[int, bytes]] = []
        self.heap_base: int = 0                   # for sys_heap_base
        #: Branch-target alignment (JIT engines pad targets with nops).
        self.code_alignment: int = 1

    # -- construction ---------------------------------------------------------

    def new_function(self, name: str) -> X86Function:
        func = X86Function(name)
        self.functions[name] = func
        return func

    def add_rodata(self, data: bytes, align: int = 8) -> int:
        addr = (self._rodata_cursor + align - 1) & ~(align - 1)
        self._rodata_blobs.append((addr, bytes(data)))
        self._rodata_cursor = addr + len(data)
        return addr

    def reserve_rodata(self, size: int, align: int = 8) -> int:
        addr = (self._rodata_cursor + align - 1) & ~(align - 1)
        self._rodata_cursor = addr + size
        return addr

    def f64_constant(self, value: float) -> int:
        """Place an f64 in the constant pool; return its address.

        Real codegen loads double immediates from memory (RIP-relative),
        which is why float-heavy code has a baseline load count.
        """
        key = value if value == value else float("nan")
        if key not in self._f64_pool:
            self._f64_pool[key] = self.add_rodata(struct.pack("<d", value))
        return self._f64_pool[key]

    def add_instance_global(self, name: str, init: int) -> int:
        """Mutable 8-byte instance slot (wasm-style global such as __sp)."""
        if name not in self.instance_globals:
            addr = self.add_rodata(struct.pack("<q", int(init)))
            self.instance_globals[name] = addr
        return self.instance_globals[name]

    def add_call_table(self, entries, with_sig: bool) -> int:
        """A function table for indirect calls.

        ``entries`` is a list of (function name or None, signature id).
        Native tables hold just the 8-byte code address; wasm-engine tables
        hold (code address, signature id) pairs so the JIT can emit the
        paper's §6.2.3 signature check.
        """
        stride = 16 if with_sig else 8
        addr = self.reserve_rodata(stride * max(len(entries), 1), align=16)
        self._tables.append(_TableSpec(addr, list(entries), stride,
                                       with_sig))
        return addr

    # -- finalization ------------------------------------------------------------

    def layout(self) -> None:
        """Assemble every function, assign code addresses, and give
        equal operands one shared object per program (nothing mutates
        an operand after its constructor), which shrinks the program in
        memory and in the compile cache."""
        align = max(self.code_alignment, 1)
        cursor = CODE_BASE
        shared = {}
        for func in self.functions.values():
            func.assemble()
            func.entry_addr = cursor
            targets = set()
            if align > 1:
                for ins in func.instrs:
                    if ins.op in ("jmp", "jcc") and isinstance(ins.b, int):
                        targets.add(ins.b)
            for index, ins in enumerate(func.instrs):
                if index in targets:
                    # Nop padding up to the alignment boundary (costs
                    # footprint, not execution).
                    cursor = (cursor + align - 1) & ~(align - 1)
                ins.addr = cursor
                ins.enc_size = ins.encoded_size()
                ins.a = _shared(ins.a, shared)
                ins.b = _shared(ins.b, shared)
                cursor += ins.enc_size
            cursor = (cursor + 15) & ~15  # align function starts

    def table_images(self):
        """Byte images of the call tables (after layout)."""
        images = []
        for spec in self._tables:
            blob = bytearray()
            for name, sig_id in spec.entries:
                func = self.functions.get(name) if name else None
                code_addr = func.entry_addr if func is not None else 0
                blob += struct.pack("<q", code_addr)
                if spec.with_sig:
                    blob += struct.pack("<iI", sig_id, 0)
            images.append((spec.addr, bytes(blob)))
        return images

    def rodata_image(self):
        """All (addr, bytes) blobs to load into machine memory."""
        return list(self._rodata_blobs) + self.table_images()

    @property
    def machine_memory_size(self) -> int:
        return (self._rodata_cursor + 4096 + 0xFFF) & ~0xFFF

    @property
    def stack_top(self) -> int:
        return self.linear_size + self.machine_stack_size - 64

    def entry_map(self):
        """Map of code address -> function, for indirect calls."""
        return {f.entry_addr: f for f in self.functions.values()}

    def total_code_size(self) -> int:
        return sum(f.code_size() for f in self.functions.values())

    def __repr__(self):
        return (f"<x86 program {self.name}: {len(self.functions)} funcs, "
                f"{self.total_code_size()} code bytes>")
