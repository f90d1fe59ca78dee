"""The native (Clang-like) compilation pipeline.

Source -> IR -> full middle-end optimization -> memory-operand folding ->
graph-coloring allocation -> x86.  Loop unrolling covers small
innermost loops only (the constant-trip full/partial unrolling Clang
performs at ``-O2``); the unrolling ablation benchmark isolates its
effect on the 429.mcf i-cache anomaly.  This models the ahead-of-time compiler the paper benchmarks against:
it spends much more compilation time than the JIT pipelines (Table 2) and
produces the tighter code the paper's §5 disassembly shows.
"""

from __future__ import annotations

import time

from ..ir.module import Module
from ..ir.passes import optimize_module, unroll_module, verify_after_pass
from ..mcc import compile_source
from ..obs import span
from ..x86.program import X86Program
from .lower import lower_module
from .memfold import fold_module
from .target import NATIVE, TargetConfig


def compile_ir_native(module: Module, config: TargetConfig = None,
                      opt_level: int = 2, unroll: bool = True) -> X86Program:
    """Compile an IR module with the native pipeline (mutates ``module``)."""
    start = time.perf_counter()
    optimize_module(module, level=opt_level)
    # ``optimize_module`` skips its unroll tail at level 0, and so do we.
    program = compile_native_tail(module, config,
                                  unroll=unroll and opt_level > 0)
    program.compile_stats["compile_seconds"] = time.perf_counter() - start
    return program


def compile_native_tail(module: Module, config: TargetConfig = None,
                        unroll: bool = True) -> X86Program:
    """The native-only half of the pipeline, after the mid-end it
    shares with wasm: unrolling, memory-operand folding, and lowering
    (mutates ``module``)."""
    config = config or NATIVE
    if unroll:
        unroll_module(module)
    if config.fold_mem_ops:
        with span("codegen.memfold", module=module.name):
            fold_module(module)
            for func in module.functions.values():
                verify_after_pass("memfold", func, module)
    program = lower_module(module, config)
    program.compile_stats["pipeline"] = "native"
    return program


def compile_native(source: str, name: str = "program",
                   config: TargetConfig = None, opt_level: int = 2,
                   unroll: bool = True, memory_size: int = None,
                   stack_size: int = None):
    """Compile mcc source text natively; returns (program, ir_module)."""
    start = time.perf_counter()
    module = compile_source(source, name, memory_size=memory_size,
                            stack_size=stack_size)
    program = compile_ir_native(module, config, opt_level, unroll)
    program.compile_stats["compile_seconds"] = time.perf_counter() - start
    return program, module
