"""Simulated x86-64 instruction set: operands, instructions, sizes.

The instruction set covers what the three backends emit: integer ALU ops
with full addressing-mode support (register, immediate, and memory
operands), sign/zero-extending loads, SSE2 scalar-double arithmetic, the
rax/rdx division idiom, pushes/pops, and the control-flow set.

Each instruction has an *encoded size* estimate in bytes.  Exact encodings
do not matter for the reproduction; what matters is that code footprint is
measured consistently so the L1 i-cache model sees realistic relative
sizes (more instructions => bigger footprint => more misses, §6.3).
"""

from __future__ import annotations

from .registers import reg_name


class Reg:
    """A register operand.  ``size`` is the access width in bytes."""

    __slots__ = ("reg", "size")

    def __init__(self, reg: int, size: int = 8):
        self.reg = reg
        self.size = size

    def __repr__(self):
        return reg_name(self.reg, self.size)


class Imm:
    """An immediate operand."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __repr__(self):
        if isinstance(self.value, float):
            return f"{self.value}"
        return hex(self.value) if abs(self.value) > 9 else str(self.value)


class Mem:
    """A memory operand: ``[base + index*scale + disp]``."""

    __slots__ = ("base", "index", "scale", "disp", "size", "spill")

    def __init__(self, base=None, index=None, scale: int = 1,
                 disp: int = 0, size: int = 8, spill: bool = False):
        self.base = base      # register number or None
        self.index = index    # register number or None
        self.scale = scale
        self.disp = disp
        self.size = size
        #: True for register-allocator spill slots (tagged by the
        #: lowering); lets the hwc model count spill traffic separately
        #: from program memory accesses.
        self.spill = spill

    def __repr__(self):
        parts = []
        if self.base is not None:
            parts.append(reg_name(self.base))
        if self.index is not None:
            part = reg_name(self.index)
            if self.scale != 1:
                part += f"*{self.scale}"
            parts.append(part)
        if self.disp or not parts:
            parts.append(hex(self.disp) if abs(self.disp) > 9
                         else str(self.disp))
        return "[" + "+".join(parts).replace("+-", "-") + "]"


class Label:
    """A branch target by name (resolved at assembly time)."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self):
        return self.name


#: Opcodes that transfer control.
BRANCH_OPS = frozenset({"jmp", "jcc", "call", "callr", "ret", "hostcall"})

#: Conditional-control opcodes.
COND_BRANCH_OPS = frozenset({"jcc"})


class Instr:
    """One x86 instruction.

    ``op`` selects the semantics; ``a`` is the destination (or only)
    operand, ``b`` the source.  ``cond`` holds the condition code for
    ``jcc``/``setcc``; ``size`` the operation width in bytes.

    Two optional annotations stay unset unless the lowering tags an
    instruction (read them with ``getattr(ins, ..., None)``): ``check``
    tags safety-check instructions with their kind
    (``"stack"``/``"indirect"``) for the hwc cycle decomposition, and
    ``assert_range`` carries a ``(reg, Ival)`` fact the machine
    validates after this instruction retires under ``--check-ranges``.

    An instruction pickles as one flat tuple of its fields (see
    :meth:`__reduce__`), followed by the annotations only when set, so
    an unpickled instruction lacks exactly the slots the original did.
    """

    __slots__ = ("op", "a", "b", "cond", "size", "comment", "addr",
                 "enc_size", "check", "assert_range")

    def __init__(self, op: str, a=None, b=None, cond: str = None,
                 size: int = 8, comment: str = ""):
        self.op = op
        self.a = a
        self.b = b
        self.cond = cond
        self.size = size
        self.comment = comment
        self.addr = 0        # assigned at layout time
        self.enc_size = 0    # assigned at layout time

    def __reduce__(self):
        fields = (self.op, self.a, self.b, self.cond, self.size,
                  self.comment, self.addr, self.enc_size)
        if not hasattr(self, "check") and not hasattr(self, "assert_range"):
            return _rebuild_instr, fields
        tags = {name: getattr(self, name)
                for name in ("check", "assert_range") if hasattr(self, name)}
        return _rebuild_instr, fields + (tags,)

    def encoded_size(self) -> int:
        """Estimated encoded length in bytes."""
        op = self.op
        if op == "label":
            return 0
        if op == "ret":
            return 1
        if op in ("push", "pop"):
            return 2
        if op in ("cdq", "cqo"):
            return 2
        if op == "jmp":
            return 2
        if op == "jcc":
            return 3
        if op in ("call", "hostcall"):
            return 5
        if op == "callr":
            return 3
        if op == "setcc":
            return 4  # setcc r8 + implicit widening use
        size = 2  # opcode + modrm
        if self.size == 8:
            size += 1  # REX.W
        for operand in (self.a, self.b):
            if isinstance(operand, Mem):
                size += 2  # SIB + disp8 (typical)
                if abs(operand.disp) > 127:
                    size += 3  # disp32
            elif isinstance(operand, Imm):
                value = operand.value
                if isinstance(value, float) or abs(int(value)) > 127:
                    size += 4
                else:
                    size += 1
            elif isinstance(operand, Reg) and operand.reg >= 8:
                size += 0  # REX.B accounted with REX byte below
        if op.endswith("sd") or op in ("ucomisd", "cvtsi2sd", "cvttsd2si",
                                       "sqrtsd", "xorpd", "andpd"):
            size += 2  # SSE prefix bytes
        return size

    def __repr__(self):
        if self.op == "label":
            return f"{self.a}:"
        parts = [self.op if self.op != "jcc" else f"j{self.cond}"]
        if self.op == "setcc":
            parts = [f"set{self.cond}"]
        ops = ", ".join(repr(o) for o in (self.a, self.b) if o is not None)
        text = f"{parts[0]} {ops}".rstrip()
        if self.comment:
            text += f"  ; {self.comment}"
        return text


def _rebuild_instr(op, a, b, cond, size, comment, addr, enc_size,
                   tags=None):
    """Unpickle one :class:`Instr` from its :meth:`Instr.__reduce__`
    tuple."""
    ins = Instr.__new__(Instr)
    ins.op = op
    ins.a = a
    ins.b = b
    ins.cond = cond
    ins.size = size
    ins.comment = comment
    ins.addr = addr
    ins.enc_size = enc_size
    if tags:
        for name, value in tags.items():
            setattr(ins, name, value)
    return ins


def fmt_listing(instrs, with_addr: bool = False) -> str:
    """Format an instruction sequence as an assembly listing."""
    lines = []
    for ins in instrs:
        if ins.op == "label":
            lines.append(f"{ins.a}:")
        else:
            prefix = f"{ins.addr:#08x}:  " if with_addr else "  "
            lines.append(prefix + repr(ins))
    return "\n".join(lines)
