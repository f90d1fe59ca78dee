"""Shared test helpers: compile-and-run across every pipeline."""

from __future__ import annotations

import os

import pytest

# IR verification between optimization passes is on by default in the
# test suite (export REPRO_VERIFY_IR=0 to opt out, e.g. when timing).
if os.environ.get("REPRO_VERIFY_IR", "") == "":
    from repro.ir.verify import set_verify_ir
    set_verify_ir(True)

from repro.codegen import compile_native
from repro.codegen.emscripten import compile_emscripten
from repro.errors import TrapError
from repro.ir import CollectingHost, IRInterpreter
from repro.jit import CHROME_ENGINE, FIREFOX_ENGINE
from repro.mcc import compile_source
from repro.wasm import WasmInstance, encode_module
from repro.x86 import X86Machine


class GuestHost(CollectingHost):
    """CollectingHost that also serves sys_heap_base."""

    def __init__(self, heap_base: int):
        super().__init__()
        self.heap_base = heap_base

    def call(self, env, name, args):
        if name == "sys_heap_base":
            return self.heap_base
        return super().call(env, name, args)


def run_ir(source: str, entry: str = "main"):
    """Compile + interpret the IR; returns (return value, stdout bytes)."""
    module = compile_source(source, "test")
    host = GuestHost(module.heap_base)
    value = IRInterpreter(module, host).run(entry)
    return value, bytes(host.output)


def run_native(source: str, entry: str = "main",
               max_instructions: int = 50_000_000, tier: str = None):
    program, module = compile_native(source, "test")
    host = GuestHost(module.heap_base)
    machine = X86Machine(program, host=host,
                         max_instructions=max_instructions, tier=tier)
    rax, xmm0 = machine.call(entry)
    return rax & 0xFFFFFFFF, bytes(host.output), machine


def compile_wasm_bytes(source: str):
    wasm, ir = compile_emscripten(source, "test")
    return encode_module(wasm), wasm, ir


def run_wasm_interp(source: str, entry: str = "main"):
    wasm, ir = compile_emscripten(source, "test")
    host = GuestHost(ir.heap_base)
    instance = WasmInstance(wasm, host=host)
    value = instance.invoke(entry)
    return value, bytes(host.output)


def run_engine(source: str, engine, entry: str = "main",
               max_instructions: int = 50_000_000, tier: str = None):
    data, wasm, ir = compile_wasm_bytes(source)
    program = engine.compile_bytes(data)
    host = GuestHost(program.heap_base)
    machine = X86Machine(program, host=host,
                         max_instructions=max_instructions, tier=tier)
    rax, xmm0 = machine.call(entry)
    return rax & 0xFFFFFFFF, bytes(host.output), machine


def run_everywhere(source: str, entry: str = "main"):
    """Run through all five pipelines; assert identical observable
    behaviour; returns (return code, stdout)."""
    from repro.asmjs import ASMJS_CHROME, ASMJS_FIREFOX

    ref_value, ref_out = run_ir(source, entry)
    ref_rc = (ref_value or 0) & 0xFFFFFFFF

    rc, out, _ = run_native(source, entry)
    assert (rc, out) == (ref_rc, ref_out), "native mismatch"

    value, out = run_wasm_interp(source, entry)
    assert ((value or 0) & 0xFFFFFFFF, out) == (ref_rc, ref_out), \
        "wasm interpreter mismatch"

    for engine in (CHROME_ENGINE, FIREFOX_ENGINE, ASMJS_CHROME,
                   ASMJS_FIREFOX):
        rc, out, _ = run_engine(source, engine, entry)
        assert (rc, out) == (ref_rc, ref_out), f"{engine.name} mismatch"
    return ref_rc, ref_out


@pytest.fixture
def everywhere():
    return run_everywhere
