"""Per-layer self-time ledger wrapped around the toolchain from outside.

Nothing in ``src/`` is instrumented for the benchmark.  Instead
:func:`install` replaces each layer's public entry point (a module
function or a class method) with a timing wrapper, everywhere the
original object is bound: in its defining module and in every ``repro``
module that imported it by name.

Every wrapper pushes a frame on one shared stack.  When it returns it
charges its layer the elapsed time minus the time of wrappers nested
inside it (its *self* time) and hands its elapsed time to the enclosing
frame.  The self times of all layers therefore add up exactly to the
time spent inside any wrapper, and ``other.s`` (traced sweep time minus
that sum) is the time no layer covers: harness glue, cache-key hashing,
runtime construction.  Times are read from the run's
:class:`~clock.SpeedClock`, so they add up to the sweep's time.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from collections import defaultdict

#: (layer's self-time metric, defining module, attribute path) for each
#: wrapped entry point.
ENTRY_POINTS = [
    ("parallel.s", "repro.harness.parallel", "run_suite"),
    ("mcc.s", "repro.mcc.compiler", "compile_source"),
    ("ir.passes.s", "repro.ir.passes", "optimize_module"),
    ("codegen.native.s", "repro.codegen.native", "compile_ir_native"),
    ("codegen.memfold.s", "repro.codegen.memfold", "fold_module"),
    ("codegen.lower.s", "repro.codegen.lower", "lower_module"),
    ("regalloc.s", "repro.regalloc.linear_scan", "linear_scan"),
    ("regalloc.s", "repro.regalloc.graph_coloring", "graph_coloring"),
    ("codegen.emscripten.s", "repro.codegen.emscripten", "compile_ir_to_wasm"),
    ("wasm.codec.s", "repro.wasm.binary", "encode_module"),
    ("wasm.codec.s", "repro.wasm.binary", "decode_module"),
    ("wasm.codec.s", "repro.wasm.validate", "validate_module"),
    ("jit.s", "repro.jit.engine", "Engine.compile_bytes"),
    ("cache.get_s", "repro.harness.compilecache", "CompileCache.get"),
    ("cache.put_s", "repro.harness.compilecache", "CompileCache.put"),
    ("kernel.boot_s", "repro.kernel.kernel", "Kernel.__init__"),
    ("kernel.boot_s", "repro.kernel.kernel", "Kernel.spawn"),
    ("kernel.boot_s", "repro.harness.spec", "BenchmarkSpec.setup_kernel"),
    ("x86.execute_s", "repro.browser.browser", "execute_program"),
]

#: Every layer's self-time metric, in report order.
LAYERS = list(dict.fromkeys(layer for layer, _, _ in ENTRY_POINTS))


class Ledger:
    """Self time and call count per layer, plus the bytes that cross
    two boundaries: wasm binaries encoded and cache entries read from
    disk (``CompileCache.stats`` counts everything else)."""

    def __init__(self, clock):
        self.clock = clock
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.wasm_bytes = 0
        self.cache_bytes_read = 0
        self._children = []     # nested-wrapper seconds, one per open frame

    def wrap(self, layer: str, fn, hooks=(None, None)):
        """``fn`` timed as ``layer``.  ``after(args, token, result)`` sees
        each call's result, with ``token = before(args)`` taken before
        ``fn`` ran."""
        before, after = hooks
        children, now = self._children, self.clock.now
        self_s, calls = self.self_s, self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = before(args) if before is not None else None
            children.append(0.0)
            start = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = now() - start
                self_s[layer] += elapsed - children.pop()
                calls[layer] += 1
                if children:
                    children[-1] += elapsed
            if after is not None:
                after(args, token, result)
            return result

        return wrapper

    def hooks(self, attr: str):
        """The (before, after) pair counting bytes at ``attr``."""
        if attr == "encode_module":
            return None, self._after_encode
        if attr == "CompileCache.get":
            return (lambda args: args[0].stats.disk_hits), self._after_get
        return None, None

    def _after_encode(self, _args, _token, result):
        self.wasm_bytes += len(result)

    def _after_get(self, args, disk_hits, _result):
        cache, key = args[0], args[1]
        if cache.stats.disk_hits > disk_hits:
            self.cache_bytes_read += os.path.getsize(
                os.path.join(cache.directory, key[:2], key + ".pkl"))


def install(ledger: Ledger) -> None:
    """Wrap every entry point of :data:`ENTRY_POINTS` into ``ledger``."""
    for layer, module_name, attr in ENTRY_POINTS:
        module = importlib.import_module(module_name)
        hooks = ledger.hooks(attr)
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, method, ledger.wrap(layer, getattr(cls, method),
                                             hooks))
            continue
        original = getattr(module, attr)
        wrapped = ledger.wrap(layer, original, hooks)
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
