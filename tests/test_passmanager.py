"""The caching pass manager: analysis cache hits/misses, selective
invalidation driven by ``preserves`` sets, the FixedPoint driver, and
the compile-cache key that stands in for a pipeline fingerprint."""

import pytest

from repro import obs
from repro.benchsuite import matmul_source
from repro.harness import compilecache
from repro.harness.compilecache import CompileCache
from repro.harness.runner import _engine_signature
from repro.ir.passmanager import (
    ANALYSES, CFG_ANALYSES, FixedPoint, FunctionAnalysisManager,
    FunctionPass, _run_pass,
)
from repro.jit import CHROME_2018, CHROME_ENGINE
from repro.mcc import compile_source


def _func():
    module = compile_source(matmul_source(4, 4, 4), "matmul")
    return module.functions["matmul"], module


# -- the analysis cache ------------------------------------------------------------

def test_analysis_cache_hits_and_misses():
    func, _ = _func()
    registry = obs.enable_metrics()
    fam = FunctionAnalysisManager()
    first = fam.get(func, "domtree")
    second = fam.get(func, "domtree")
    assert second is first, "a hit returns the cached object"
    counters = registry.as_dict()["counters"]
    assert counters.get("opt.analysis.misses") == 1
    assert counters.get("opt.analysis.hits") == 1


def test_analysis_cache_disabled_always_recomputes():
    func, _ = _func()
    registry = obs.enable_metrics()
    fam = FunctionAnalysisManager(enabled=False)
    first = fam.get(func, "loops")
    second = fam.get(func, "loops")
    assert second is not first
    counters = registry.as_dict()["counters"]
    assert counters.get("opt.analysis.misses") == 2
    assert not counters.get("opt.analysis.hits")


def test_invalidation_respects_preserved_set():
    func, _ = _func()
    fam = FunctionAnalysisManager()
    for name in ("domtree", "loops", "liveness"):
        fam.get(func, name)
    dropped = fam.invalidate(func, preserved=CFG_ANALYSES)
    assert dropped == 1          # liveness only
    registry = obs.enable_metrics()
    fam.get(func, "domtree")     # still cached
    fam.get(func, "liveness")    # recomputed
    counters = registry.as_dict()["counters"]
    assert counters.get("opt.analysis.hits") == 1
    assert counters.get("opt.analysis.misses") == 1


def test_all_registered_analyses_compute():
    func, _ = _func()
    fam = FunctionAnalysisManager()
    for name in ANALYSES:
        assert fam.get(func, name) is not None


# -- pass running and invalidation -------------------------------------------------

class _CountingPass(FunctionPass):
    """Reports a change exactly ``changes`` times, then settles."""

    def __init__(self, name, preserves=frozenset(), changes=1):
        self.name = name
        self.preserves = frozenset(preserves)
        self._left = changes
        self.runs = 0

    def run(self, func, module, fam):
        self.runs += 1
        if self._left > 0:
            self._left -= 1
            return True
        return False


def test_changing_pass_invalidates_unpreserved_analyses():
    func, module = _func()
    fam = FunctionAnalysisManager()
    fam.get(func, "domtree")
    fam.get(func, "liveness")
    churn = _CountingPass("churn", preserves=CFG_ANALYSES)
    registry = obs.enable_metrics()
    assert _run_pass(churn, func, module, fam)
    fam.get(func, "domtree")     # preserved -> hit
    fam.get(func, "liveness")    # dropped -> miss
    counters = registry.as_dict()["counters"]
    assert counters.get("opt.analysis.hits") == 1
    assert counters.get("opt.analysis.misses") == 1
    assert counters.get("opt.analysis.invalidations") == 1


def test_no_change_preserves_everything():
    func, module = _func()
    fam = FunctionAnalysisManager()
    fam.get(func, "liveness")
    registry = obs.enable_metrics()
    assert not _run_pass(_CountingPass("noop", changes=0), func, module,
                         fam)
    fam.get(func, "liveness")
    counters = registry.as_dict()["counters"]
    assert counters.get("opt.analysis.hits") == 1
    assert not counters.get("opt.analysis.invalidations")


def test_pass_timing_lands_in_metrics():
    func, module = _func()
    registry = obs.enable_metrics()
    _run_pass(_CountingPass("tick", changes=0), func, module,
              FunctionAnalysisManager())
    hist = registry.as_dict()["histograms"]["opt.pass_seconds.tick"]
    assert hist["count"] == 1


def test_fixed_point_runs_until_quiescent():
    func, module = _func()
    inner = _CountingPass("settle", preserves=CFG_ANALYSES, changes=3)
    fp = FixedPoint([inner], max_rounds=8)
    assert fp.run(func, module, FunctionAnalysisManager())
    # 3 changing rounds + 1 quiet round to detect the fixpoint.
    assert inner.runs == 4


def test_fixed_point_respects_round_bound():
    func, module = _func()
    inner = _CountingPass("restless", changes=99)
    fp = FixedPoint([inner], max_rounds=3)
    fp.run(func, module, FunctionAnalysisManager())
    assert inner.runs == 3


# -- artifact identity -------------------------------------------------------------
#
# Passes carry no version and pipelines no fingerprint: the compile-cache
# key hashes every repro source file (a pass edit misses) plus the three
# settings that change output without a source edit.

PARTS = ("native", matmul_source(4, 4, 4), "matmul", 1 << 16)


@pytest.fixture
def cache():
    return CompileCache(use_disk=False)


def test_fingerprint_is_stable(tmp_path):
    assert CompileCache(str(tmp_path / "a")).key(*PARTS) == \
        CompileCache(str(tmp_path / "b")).key(*PARTS)


def test_fingerprint_sees_order_name_version_and_config(cache, monkeypatch):
    monkeypatch.setenv("REPRO_RANGES", "1")
    base = cache.key(*PARTS)
    # A source edit anywhere in repro (a pass reordered, renamed or
    # retuned) changes the toolchain fingerprint.
    with monkeypatch.context() as patch:
        patch.setattr(compilecache, "_FINGERPRINT", "0" * 64)
        assert cache.key(*PARTS) != base
    assert cache.key(*PARTS) == base
    monkeypatch.setenv("REPRO_RANGES", "0")
    assert ("ranges", False) in compilecache.compile_config()
    assert cache.key(*PARTS) != base


def test_fingerprint_folds_fixpoint_structure(cache):
    assert cache.key("a", "b") != cache.key(("a", "b"))
    assert cache.key(("a", "b"), "c") != cache.key("a", ("b", "c"))


def test_opt_fingerprint_distinguishes_ssa_toggle(cache, monkeypatch):
    monkeypatch.setenv("REPRO_SSA", "1")
    on = cache.key(*PARTS)
    monkeypatch.setenv("REPRO_SSA", "0")
    assert cache.key(*PARTS) != on
    monkeypatch.setenv("REPRO_SSA", "1")
    assert cache.key(*PARTS) == on


def test_opt_fingerprint_distinguishes_unroll_config(cache):
    # Only the native half unrolls; its key names its pipeline.
    assert cache.key(*PARTS) != cache.key("emscripten", *PARTS[1:])


def test_jit_fingerprint_tracks_optimizing_tier(cache):
    # 2018 engines have no optimizing tier (no SSA mid-end).
    assert not CHROME_2018.optimizing_tier
    assert CHROME_ENGINE.optimizing_tier
    old, new = (_engine_signature(e) for e in (CHROME_2018, CHROME_ENGINE))
    assert old != new
    assert cache.key("jit", old, "wasm") != cache.key("jit", new, "wasm")
