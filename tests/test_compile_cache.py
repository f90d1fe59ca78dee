"""The content-addressed compile cache: hits, misses, invalidation, and
the compile-once path that fills it."""

import hashlib
import pickle

import pytest

from repro.benchsuite import polybench_benchmark, spec_benchmark
from repro.codegen.emscripten import compile_ir_to_wasm
from repro.codegen.native import compile_ir_native
from repro.harness import compilecache, runner
from repro.harness.compilecache import CompileCache
from repro.harness.runner import compile_benchmark
from repro.ir import verify
from repro.ir.passes import optimize_module
from repro.ir.verify import check_ranges_enabled, set_check_ranges
from repro.mcc import compile_source
from repro.wasm import encode_module

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

    # A fresh instance has an empty memory tier: all hits come from disk.
    cold = CompileCache(directory=str(tmp_path))
    compile_benchmark(spec, TARGETS, cache=cold)
    assert cold.stats.misses == 0
    assert cold.stats.disk_hits == warm.stats.misses


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
