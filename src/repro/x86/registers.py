"""x86-64 register model.

General-purpose registers are numbered 0-15 with their hardware encodings;
XMM registers are 16-31.  The register allocators hand out these numbers,
and the engine configs (§6.1.1 of the paper) reserve specific ones:
V8 reserves r10/r13 (plus rbx as the wasm heap base), SpiderMonkey reserves
r11 (scratch) and r15 (heap base).
"""

from __future__ import annotations

RAX, RCX, RDX, RBX, RSP, RBP, RSI, RDI = range(8)
R8, R9, R10, R11, R12, R13, R14, R15 = range(8, 16)

XMM0 = 16
XMM_COUNT = 16

GPR_NAMES = [
    "rax", "rcx", "rdx", "rbx", "rsp", "rbp", "rsi", "rdi",
    "r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15",
]

GPR_NAMES_32 = [
    "eax", "ecx", "edx", "ebx", "esp", "ebp", "esi", "edi",
    "r8d", "r9d", "r10d", "r11d", "r12d", "r13d", "r14d", "r15d",
]


def xmm(index: int) -> int:
    return XMM0 + index


def reg_name(reg: int, size: int = 8) -> str:
    if reg >= XMM0:
        return f"xmm{reg - XMM0}"
    if size == 4:
        return GPR_NAMES_32[reg]
    return GPR_NAMES[reg]


#: System V AMD64 integer argument registers (the native ABI, §5 of the
#: paper / Fig. 7b).
SYSV_INT_ARGS = [RDI, RSI, RDX, RCX, R8, R9]

#: System V float argument registers.
SYSV_FLOAT_ARGS = [xmm(i) for i in range(8)]

#: System V callee-saved registers.
SYSV_CALLEE_SAVED = [RBX, RBP, R12, R13, R14, R15]

#: All allocatable GPRs (everything but the stack pointer).
ALL_GPRS = [r for r in range(16) if r != RSP]

#: All allocatable XMM registers.
ALL_XMMS = [xmm(i) for i in range(XMM_COUNT)]
