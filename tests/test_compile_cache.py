"""The content-addressed compile cache: hits, misses, invalidation, and
the compile-once path that fills it."""

import gc
import hashlib
import os
import pickle

import pytest

from repro import obs
from repro.benchsuite import polybench_benchmark, spec_benchmark
from repro.cli import _cache_line
from repro.codegen.emscripten import compile_ir_to_wasm
from repro.codegen.native import compile_ir_native
from repro.harness import compilecache, runner
from repro.harness.compilecache import CompileCache
from repro.harness.runner import compile_benchmark, run_compiled
from repro.ir import verify
from repro.ir.passes import optimize_module
from repro.ir.verify import check_ranges_enabled, set_check_ranges
from repro.mcc import compile_source
from repro.wasm import encode_module
from repro.x86.isa import Imm, Instr, Label, Mem, Reg
from repro.x86.program import X86Program

TARGETS = ("native", "chrome")


@pytest.fixture
def cache(tmp_path):
    return CompileCache(directory=str(tmp_path))


def test_miss_then_memory_hit(cache):
    spec = polybench_benchmark("trisolv", "test")
    compile_benchmark(spec, TARGETS, cache=cache)
    assert cache.stats.hits == 0
    assert cache.stats.misses > 0
    assert cache.stats.stores == cache.stats.misses
    first_misses = cache.stats.misses

    compile_benchmark(spec, TARGETS, cache=cache)
    assert cache.stats.memory_hits == first_misses
    assert cache.stats.misses == first_misses  # no new misses


def test_disk_hit_across_cache_instances(tmp_path):
    spec = polybench_benchmark("trisolv", "test")
    warm = CompileCache(directory=str(tmp_path))
    compile_benchmark(spec, TARGETS, cache=warm)

    # A fresh instance has an empty memory tier: all hits come from disk,
    # and they read back every byte the first instance stored.
    cold = CompileCache(directory=str(tmp_path))
    registry = obs.enable_metrics()
    try:
        compile_benchmark(spec, TARGETS, cache=cold)
    finally:
        obs.disable_metrics()
    assert cold.stats.misses == 0
    assert cold.stats.disk_hits == warm.stats.misses
    assert cold.stats.bytes_read == warm.stats.bytes_stored > 0
    assert registry.as_dict()["counters"]["cache.bytes_read"] == \
        cold.stats.bytes_read
    assert cold.stats.as_dict()["bytes_read"] == cold.stats.bytes_read
    assert f"{cold.stats.bytes_read} bytes read" in _cache_line(registry)


def test_cached_artifacts_equal_fresh(cache):
    spec = polybench_benchmark("trisolv", "test")
    fresh = compile_benchmark(spec, TARGETS, cache=False)
    compile_benchmark(spec, TARGETS, cache=cache)     # populate
    cached = compile_benchmark(spec, TARGETS, cache=cache)
    assert cache.stats.hits > 0

    # The wasm module must be byte-identical, not just equivalent.
    assert hashlib.sha256(cached.wasm_bytes).hexdigest() == \
        hashlib.sha256(fresh.wasm_bytes).hexdigest()
    for target in TARGETS:
        a = fresh.programs[target]
        b = cached.programs[target]
        assert [f.listing() for f in a.functions.values()] == \
            [f.listing() for f in b.functions.values()]


def test_key_invalidates_on_flags(cache):
    spec = polybench_benchmark("trisolv", "test")
    base = cache.key("native", spec.source, spec.name, spec.memory_size,
                     ("opt", 2), ("unroll", True))
    other_opt = cache.key("native", spec.source, spec.name,
                          spec.memory_size, ("opt", 1), ("unroll", True))
    other_pipe = cache.key("emscripten", spec.source, spec.name,
                           spec.memory_size, ("opt", 2), ("unroll", True))
    assert base != other_opt
    assert base != other_pipe
    # Same inputs, same key (content addressing is deterministic).
    assert base == cache.key("native", spec.source, spec.name,
                             spec.memory_size, ("opt", 2),
                             ("unroll", True))


def test_key_invalidates_on_toolchain_version(cache, monkeypatch):
    spec = polybench_benchmark("trisolv", "test")
    parts = ("native", spec.source, spec.name, spec.memory_size,
             ("opt", 2), ("unroll", True))
    before = cache.key(*parts)
    # Simulate a compiler edit: the fingerprint changes, so every key
    # changes and the old artifacts can never be served.
    monkeypatch.setattr(compilecache, "_FINGERPRINT", "deadbeef" * 8)
    after = cache.key(*parts)
    assert before != after


def test_typed_keys_distinguish_types(cache):
    assert cache.key(1) != cache.key("1")
    assert cache.key(1) != cache.key(1.0)
    assert cache.key(None) != cache.key("")
    assert cache.key(("a", "b")) != cache.key("ab")


def test_cache_never_serves_stale_ssa_config(tmp_path, monkeypatch):
    """REPRO_SSA=0 after a cached compile recompiles every artifact;
    flipping it back serves the first compile's artifacts again."""
    spec = polybench_benchmark("gemm", "test")
    monkeypatch.setenv("REPRO_SSA", "1")
    cache = CompileCache(directory=str(tmp_path))
    first = compile_benchmark(spec, TARGETS, cache=cache)
    lookups = cache.stats.lookups

    monkeypatch.setenv("REPRO_SSA", "0")
    off = compile_benchmark(spec, TARGETS, cache=cache)
    assert cache.stats.misses == 2 * lookups
    assert cache.stats.hits == 0
    assert _artifacts(off) != _artifacts(first)

    monkeypatch.setenv("REPRO_SSA", "1")
    warm = CompileCache(directory=str(tmp_path))
    again = compile_benchmark(spec, TARGETS, cache=warm)
    assert warm.stats.disk_hits == lookups
    assert warm.stats.misses == 0
    assert _artifacts(again) == _artifacts(first)


def test_cache_false_disables(cache):
    spec = polybench_benchmark("trisolv", "test")
    compiled = compile_benchmark(spec, ("native",), cache=False)
    assert "native" in compiled.programs
    assert cache.stats.lookups == 0


def test_repro_no_cache_env(monkeypatch):
    monkeypatch.setattr(compilecache, "_ENABLED", None)
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    assert not compilecache.is_enabled()
    assert compilecache.resolve_cache(None) is None
    monkeypatch.delenv("REPRO_NO_CACHE")
    assert compilecache.is_enabled()


# -- compile once: one frontend + mid-end feeds both backends ----------------
#
# The harness optimizes each benchmark once, emits wasm from that IR, then
# runs the native-only tail (unroll, memfold, lower) on the same module.
# These tests pin that the shared path builds exactly what the two
# independent pipelines build.  429.mcf is where unrolling matters.

EQUIVALENCE = [(spec_benchmark, "429.mcf"), (spec_benchmark, "401.bzip2"),
               (polybench_benchmark, "gemm")]


def _frontend(spec):
    return compile_source(spec.source, spec.name,
                          memory_size=spec.memory_size)


def _image(program):
    """Everything a compiled program puts in front of the machine."""
    return ([f.listing() for f in program.functions.values()],
            program.data_segments, program.rodata_image())


def _artifacts(compiled):
    return dict({target: _image(program)
                 for target, program in compiled.programs.items()},
                wasm=compiled.wasm_bytes)


@pytest.fixture(scope="module", params=EQUIVALENCE,
                ids=[name for _, name in EQUIVALENCE])
def shared(request):
    make, name = request.param
    spec = make(name, "test")
    return spec, compile_benchmark(spec, TARGETS, cache=False)


@pytest.fixture
def oracle_config(monkeypatch):
    """Lets a test toggle ``--check-ranges``; restored afterwards."""
    monkeypatch.setattr(verify, "_CHECK_RANGES", check_ranges_enabled())
    monkeypatch.setenv("REPRO_CHECK_RANGES",
                       "1" if check_ranges_enabled() else "0")


def test_shared_native_equals_independent_pipeline(shared):
    spec, compiled = shared
    independent = compile_ir_native(_frontend(spec))
    assert _image(compiled.programs["native"]) == _image(independent)


def test_shared_wasm_equals_independent_pipeline(shared):
    spec, compiled = shared
    ir = optimize_module(_frontend(spec), level=2)
    assert compiled.wasm_bytes == encode_module(compile_ir_to_wasm(ir))


def test_unrolling_changes_mcf():
    """Keeps the 429.mcf case meaningful: its native tail must unroll."""
    spec = spec_benchmark("429.mcf", "test")
    unrolled = compile_ir_native(_frontend(spec))
    plain = compile_ir_native(_frontend(spec), unroll=False)
    assert _image(unrolled)[0] != _image(plain)[0]


@pytest.mark.parametrize("first", [("native",), ("chrome",)],
                         ids=["native-hit", "wasm-hit"])
def test_partial_hit_compiles_only_the_missing_half(shared, first, tmp_path,
                                                    monkeypatch):
    spec, fresh = shared
    cache = CompileCache(directory=str(tmp_path))
    compile_benchmark(spec, first, cache=cache)

    calls = {}
    for name in ("compile_source", "optimize_module", "compile_ir_to_wasm",
                 "compile_native_tail"):
        real = getattr(runner, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(runner, name, counted)
    again = compile_benchmark(spec, TARGETS, cache=cache)

    missing = "compile_ir_to_wasm" if first == ("native",) \
        else "compile_native_tail"
    assert calls == {"compile_source": 1, "optimize_module": 1, missing: 1}
    assert _artifacts(again) == _artifacts(fresh)


@pytest.mark.parametrize("oracle", [False, True],
                         ids=["plain", "check-ranges"])
def test_wasm_backend_leaves_its_ir_untouched(shared, oracle, oracle_config):
    spec, _compiled = shared
    set_check_ranges(oracle)
    ir = optimize_module(_frontend(spec), level=2)
    before = pickle.dumps(ir)
    compile_ir_to_wasm(ir)
    assert pickle.dumps(ir) == before


# -- one JIT front half per binary --------------------------------------------
#
# Engines whose front halves agree (decode, validate, translate, cleanup,
# SSA mid-end, range annotation) share one translated IR per binary and
# differ only in lowering, which must therefore only read that IR.

WASM_TARGETS = ("chrome", "firefox", "asmjs-chrome", "asmjs-firefox",
                "chrome-tiered", "firefox-tiered")
ENGINES = dict(runner._ENGINES, **runner._tiered_engines())


@pytest.fixture(scope="module")
def front_halves():
    """Pickled front halves, one per (benchmark, front identity)."""
    return {}


@pytest.mark.parametrize("oracle", [False, True],
                         ids=["plain", "check-ranges"])
@pytest.mark.parametrize("target", WASM_TARGETS)
def test_lowering_leaves_its_ir_untouched(shared, target, oracle,
                                          oracle_config, front_halves):
    spec, compiled = shared
    set_check_ranges(oracle)
    engine = ENGINES[target]
    key = (spec.name, engine.front_identity())
    if key not in front_halves:
        front_halves[key] = pickle.dumps(
            engine.front_half(compiled.wasm_bytes))
    front = pickle.loads(front_halves[key])
    before = pickle.dumps(front.ir)
    engine.lower(front)
    assert pickle.dumps(front.ir) == before


@pytest.mark.parametrize("oracle", [False, True],
                         ids=["plain", "check-ranges"])
def test_shared_front_half_equals_each_engines_own(shared, oracle,
                                                   oracle_config,
                                                   monkeypatch):
    spec, _compiled = shared
    set_check_ranges(oracle)
    from repro.jit import engine as jit_engine
    translations = []
    real = jit_engine.wasm_to_ir

    def counted(module):
        translations.append(module)
        return real(module)

    monkeypatch.setattr(jit_engine, "wasm_to_ir", counted)
    compiled = compile_benchmark(spec, WASM_TARGETS, cache=False)
    assert len(translations) == 2     # one per front identity
    for target in WASM_TARGETS:
        own = ENGINES[target].compile_bytes(compiled.wasm_bytes)
        program = compiled.programs[target]
        assert _image(program) == _image(own), target
        assert program.compile_stats.get("ranges") == \
            own.compile_stats.get("ranges"), target


# -- compact artifacts: shared operands, one tuple per instruction --------------
#
# ``X86Program.layout`` gives equal operands one object per program, an
# instruction pickles as one flat tuple, and the cache unpickles with the
# cyclic GC paused.  None of it may change what a program is or does.

def _fields(value):
    """``value`` as comparable data: a slotted object (operand, ``Ival``,
    instruction) becomes its class plus the (slot, value) pairs it has
    set, each value typed, so ``Imm(1)`` differs from ``Imm(True)``."""
    if isinstance(value, (tuple, list)):
        return tuple(_fields(item) for item in value)
    slots = getattr(type(value), "__slots__", None)
    if slots is None:
        return type(value), value
    return type(value), tuple((slot, _fields(getattr(value, slot)))
                              for slot in slots if hasattr(value, slot))


def _operand_objects(program):
    """Every operand object of ``program``'s instructions, grouped by
    class and typed fields."""
    groups = {}
    for func in program.functions.values():
        for ins in func.raw:
            for operand in (ins.a, ins.b):
                if isinstance(operand, (Reg, Mem, Imm, Label)):
                    groups.setdefault(_fields(operand), set()).add(
                        id(operand))
    return groups


@pytest.fixture(scope="module")
def stored_and_reloaded(tmp_path_factory):
    """trisolv x TARGETS compiled into a fresh cache, then read back
    from disk by a second instance."""
    directory = str(tmp_path_factory.mktemp("compact"))
    spec = polybench_benchmark("trisolv", "test")
    compiled = compile_benchmark(spec, TARGETS,
                                 cache=CompileCache(directory=directory))
    reader = CompileCache(directory=directory)
    reloaded = compile_benchmark(spec, TARGETS, cache=reader)
    assert reader.stats.disk_hits > 0 and reader.stats.misses == 0
    return compiled, reloaded


def test_layout_shares_only_operands_of_equal_type_and_fields():
    program = X86Program("t", 1 << 16)
    func = program.new_function("f")
    pairs = [(Reg(0), Reg(0)), (Mem(base=5, disp=8), Mem(base=5, disp=8)),
             (Imm(7), Imm(7)), (Label("top"), Label("top")),
             (Imm(1), Imm(True)), (Mem(disp=16), Mem(disp=16, spill=True)),
             (Imm(0.0), Imm(-0.0)), (Imm(2.5), Imm(2.5))]
    func.label("top")
    for a, b in pairs:
        func.emit(Instr("mov", a, Reg(1)))
        func.emit(Instr("mov", b, Reg(1)))
    func.emit(Instr("ret"))
    program.layout()
    movs = func.instrs[:-1]
    shared = [movs[i].a is movs[i + 1].a for i in range(0, len(movs), 2)]
    assert shared == [True, True, True, True, False, False, False, False]
    assert len({id(ins.b) for ins in movs}) == 1


@pytest.mark.parametrize("when", ["laid-out", "disk-hit"])
@pytest.mark.parametrize("target", TARGETS)
def test_each_distinct_operand_is_one_object(stored_and_reloaded, when,
                                             target):
    compiled, reloaded = stored_and_reloaded
    program = (reloaded if when == "disk-hit" else compiled).programs[target]
    groups = _operand_objects(program)
    assert len(groups) > 10
    duplicated = {key: ids for key, ids in groups.items() if len(ids) > 1}
    assert not duplicated


def test_program_round_trips_exactly(tmp_path, oracle_config):
    set_check_ranges(True)
    spec = polybench_benchmark("trisolv", "test")
    fresh = compile_benchmark(spec, ("chrome",),
                              cache=CompileCache(directory=str(tmp_path)))
    reader = CompileCache(directory=str(tmp_path))
    cached = compile_benchmark(spec, ("chrome",), cache=reader)
    assert reader.stats.disk_hits > 0 and reader.stats.misses == 0

    raw = [ins for func in fresh.programs["chrome"].functions.values()
           for ins in func.raw]
    back = [ins for func in cached.programs["chrome"].functions.values()
            for ins in func.raw]
    assert [_fields(ins) for ins in back] == [_fields(ins) for ins in raw]
    # The optional slots come back set exactly where they were set.
    for slot in ("check", "assert_range"):
        tagged = [hasattr(ins, slot) for ins in raw]
        assert any(tagged) and not all(tagged), slot
        assert [hasattr(ins, slot) for ins in back] == tagged, slot

    runs = [run_compiled(compiled, "chrome", runs=1).run
            for compiled in (fresh, cached)]
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].perf.as_dict() == runs[1].perf.as_dict()
    assert (runs[0].icache_accesses, runs[0].icache_misses) == \
        (runs[1].icache_accesses, runs[1].icache_misses)


_GC_DURING_LOADS = []


def _note_gc_state():
    _GC_DURING_LOADS.append(gc.isenabled())
    return "noted"


class _NotesGcState:
    """Unpickles by recording whether the cyclic GC was running."""

    def __reduce__(self):
        return _note_gc_state, ()


@pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
def gc_state(request):
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


def test_disk_hit_pauses_gc_and_restores_it(tmp_path, gc_state):
    CompileCache(directory=str(tmp_path)).put("k", [_NotesGcState()])
    _GC_DURING_LOADS.clear()
    assert CompileCache(directory=str(tmp_path)).get("k") == ["noted"]
    assert _GC_DURING_LOADS == [False]
    assert gc.isenabled() == gc_state


@pytest.mark.parametrize("damage", ["bit-flip", "bad-payload"])
def test_corrupt_entry_restores_gc_and_is_evicted(tmp_path, gc_state,
                                                  damage):
    writer = CompileCache(directory=str(tmp_path))
    writer.put("k", [1, 2, 3])
    path = writer._path("k")
    with open(path, "rb") as fh:
        blob = bytearray(fh.read())
    if damage == "bit-flip":        # fails the checksum before unpickling
        blob[-1] ^= 0xFF
    else:                           # a valid frame pickle cannot read
        blob = compilecache.encode_entry(b"not a pickle")
    with open(path, "wb") as fh:
        fh.write(blob)
    reader = CompileCache(directory=str(tmp_path))
    assert reader.get("k") is None
    assert gc.isenabled() == gc_state
    assert reader.stats.misses == 1 and reader.stats.disk_hits == 0
    assert reader.stats.corruptions == 1 and reader.stats.bytes_read == 0
    assert not os.path.exists(path)
