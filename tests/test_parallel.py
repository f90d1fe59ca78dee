"""Parallel suite runner: bit-identical to serial, stable ordering, a
warm worker pool, and one compile per benchmark in a serial sweep.
Skewed suites, crash re-queue and the hang watchdog are tested in
``test_shard.py``."""

import pytest

from repro.benchsuite import matmul_spec, polybench_benchmark
from repro.harness.parallel import (
    MAX_JOBS, default_jobs, normalize_jobs, resolve_ref, run_suite,
    shutdown_warm_pool, spec_ref,
)
from repro.harness import parallel as parallel_mod
from repro.harness import runner
from repro.harness import shard as shard_mod
from repro.harness.spec import BenchmarkSpec
from repro.jit import engine as jit_engine
from repro.obs import metrics as obs_metrics

SUBSET = ["trisolv", "bicg", "mvt", "gesummv"]
TARGETS = ["native", "chrome", "firefox"]


@pytest.fixture
def force_jobs(monkeypatch):
    """Exercise the real worker pool even on a single-CPU box."""
    monkeypatch.setenv("REPRO_FORCE_JOBS", "1")
    yield
    shutdown_warm_pool()


def _suite():
    return [polybench_benchmark(name, "test") for name in SUBSET]


def _pids():
    return [w["proc"].pid for w in shard_mod._SHARDS.workers]


def test_parallel_matches_serial_bit_for_bit(force_jobs):
    serial, _ = run_suite(_suite(), TARGETS, runs=3, jobs=1, cache=False)
    parallel, _ = run_suite(_suite(), TARGETS, runs=3, jobs=4,
                            cache=False)
    assert list(serial) == SUBSET          # suite order preserved
    assert list(parallel) == SUBSET
    for name in SUBSET:
        assert list(parallel[name]) == TARGETS
        for target in TARGETS:
            s = serial[name][target]
            p = parallel[name][target]
            assert p.times == s.times      # bit-identical, not approx
            assert p.perf.as_dict() == s.perf.as_dict()
            assert p.run.stdout == s.run.stdout


def test_parallel_compile_seconds_reported(force_jobs):
    _, compile_seconds = run_suite(_suite()[:2], ["native"], runs=1,
                                   jobs=2, cache=False)
    for name in SUBSET[:2]:
        assert compile_seconds[name]["native"] > 0


def test_warm_pool_reused_across_sweeps(force_jobs):
    """A second sweep at the same width reuses the live workers."""
    run_suite(_suite()[:2], ["native"], runs=1, jobs=2, cache=False)
    pool = shard_mod._SHARDS
    assert pool.width == 2
    assert pool.alive()
    pids = _pids()
    run_suite(_suite()[2:], ["native"], runs=1, jobs=2, cache=False)
    assert shard_mod._SHARDS is pool
    assert _pids() == pids


def test_warm_pool_rebuilt_on_width_change(force_jobs):
    run_suite(_suite()[:2], ["native"], runs=1, jobs=2, cache=False)
    first = shard_mod._SHARDS
    run_suite(_suite()[:2], ["native"], runs=1, jobs=3, cache=False)
    assert shard_mod._SHARDS is not first
    assert shard_mod._SHARDS.width == 3


def test_warm_pool_follows_the_environment(force_jobs, monkeypatch):
    """Workers read their configuration from the state they were forked
    with, so a ``REPRO_*`` change after the fork rebuilds the pool."""
    def sweep():
        results, _ = run_suite(_suite()[:2], ["native"], runs=1, jobs=2,
                               cache=False)
        return [cell.run.hwc for by_target in results.values()
                for cell in by_target.values()]

    assert sweep() == [None, None]
    pids = _pids()
    monkeypatch.setenv("REPRO_HWC", "1")
    assert all(report is not None for report in sweep())
    fresh = _pids()
    assert not set(fresh) & set(pids)
    assert all(report is not None for report in sweep())
    assert _pids() == fresh


def test_warm_pool_cell_error_propagates(force_jobs):
    bad = polybench_benchmark("trisolv", "test")
    with pytest.raises(Exception):
        run_suite([bad], ["no-such-target", "native"], runs=1, jobs=2,
                  cache=False)
    # a *cell* error leaves every worker healthy: the pool is recovered
    # (in-flight cells drained), not discarded, so the next sweep
    # reuses the very same warm workers
    pool = shard_mod._SHARDS
    assert pool.alive()
    pids = _pids()
    results, _ = run_suite(_suite()[:2], ["native"], runs=1, jobs=2,
                           cache=False)
    assert set(results) == set(SUBSET[:2])
    assert shard_mod._SHARDS is pool
    assert _pids() == pids


def test_warm_pool_survives_ctrl_c(force_jobs):
    """Ctrl-C mid-sweep routes through the drain path: in-flight cells
    finish, the warm pool survives, and the next sweep reuses the very
    same workers instead of re-paying the fork cost."""
    run_suite(_suite()[:2], ["native"], runs=1, jobs=2, cache=False)
    pool = shard_mod._SHARDS
    pids = _pids()

    def interrupt(name):
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        run_suite(_suite(), ["native"], runs=1, jobs=2, cache=False,
                  progress=interrupt)
    assert shard_mod._SHARDS is pool
    assert pool.alive()
    assert _pids() == pids
    # and the recovered pool is immediately usable
    results, _ = run_suite(_suite()[:2], ["native"], runs=1, jobs=2,
                           cache=False)
    assert set(results) == set(SUBSET[:2])
    assert _pids() == pids


def test_run_suite_accepts_only_one_pool(force_jobs):
    """``shards`` survives only as perfbench's ``shards=1``."""
    with pytest.raises(ValueError):
        run_suite(_suite()[:1], ["native"], runs=1, jobs=2, shards=2,
                  cache=False)
    results, _ = run_suite(_suite()[:2], ["native"], runs=1, jobs=2,
                           shards=1, cache=False)
    assert set(results) == set(SUBSET[:2])


# -- one cell runner: the serial sweep -------------------------------------------

def test_serial_sweep_compiles_each_benchmark_once(monkeypatch):
    """Fast or tolerant, the serial sweep runs the frontend and the JIT
    front half once per benchmark, not once per cell."""
    calls = {}
    for module, name in ((runner, "compile_source"),
                         (jit_engine, "wasm_to_ir")):
        real = getattr(module, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    for tolerant in (True, False):
        calls.clear()
        run_suite(_suite()[:2], TARGETS, runs=1, jobs=1, cache=False,
                  tolerant=tolerant)
        assert calls == {"compile_source": 2, "wasm_to_ir": 2}, tolerant


def test_tolerant_serial_sweep_counts_its_cells():
    registry = obs_metrics.enable()
    try:
        run_suite(_suite()[:2], TARGETS, runs=1, jobs=1, cache=False,
                  tolerant=True)
    finally:
        obs_metrics.disable()
    assert registry.counters["runner.cells"].value == 6
    assert registry.histograms["runner.cell_seconds"].count == 6


def test_spec_ref_round_trip():
    spec = polybench_benchmark("trisolv", "test")
    ref = spec_ref(spec)
    assert ref == ("polybench", "trisolv", "test")
    rebuilt = resolve_ref(ref)
    assert rebuilt.name == spec.name
    assert rebuilt.source == spec.source


def test_spec_ref_matmul():
    spec = matmul_spec(10, 11, 12)
    rebuilt = resolve_ref(spec_ref(spec))
    assert rebuilt.source == spec.source


def test_spec_ref_unreferencable():
    adhoc = BenchmarkSpec("adhoc", "none",
                          "int main(void){return 0;}")
    assert spec_ref(adhoc) is None


def test_adhoc_specs_run_serially_in_suite(force_jobs):
    adhoc = BenchmarkSpec(
        "adhoc", "none",
        "int main(void){ print_i32(7); return 0; }")
    results, _ = run_suite([adhoc], ["native"], runs=2, jobs=4,
                           cache=False)
    assert results["adhoc"]["native"].run.stdout == b"7\n"


def test_normalize_jobs_multi_cpu(monkeypatch):
    monkeypatch.delenv("REPRO_FORCE_JOBS", raising=False)
    monkeypatch.setattr("os.cpu_count", lambda: 8)
    assert normalize_jobs(1) == 1
    assert normalize_jobs(0) == 1
    assert normalize_jobs(6) == 6
    assert 1 <= normalize_jobs(None) <= MAX_JOBS
    assert normalize_jobs(None) == default_jobs()


def test_normalize_jobs_degrades_on_one_cpu(monkeypatch, capsys):
    """--jobs N on a 1-CPU box runs serially (with a notice) rather
    than paying fork/pickle overhead for no parallelism."""
    monkeypatch.delenv("REPRO_FORCE_JOBS", raising=False)
    monkeypatch.setattr("os.cpu_count", lambda: 1)
    monkeypatch.setattr(parallel_mod, "_DEGRADE_NOTICED", False)
    assert normalize_jobs(4, quiet=True) == 1
    assert normalize_jobs(None) == 1       # auto-select: no notice
    assert capsys.readouterr().err == ""
    assert normalize_jobs(4) == 1
    assert "running serially" in capsys.readouterr().err


def test_degrade_notice_printed_once_per_process(monkeypatch, capsys):
    """Drivers re-enter normalize_jobs once per sweep; the degrade
    notice must not repeat for every sweep of a compare/report run."""
    monkeypatch.delenv("REPRO_FORCE_JOBS", raising=False)
    monkeypatch.setattr("os.cpu_count", lambda: 1)
    monkeypatch.setattr(parallel_mod, "_DEGRADE_NOTICED", False)
    assert normalize_jobs(4) == 1
    assert "running serially" in capsys.readouterr().err
    assert normalize_jobs(4) == 1          # second sweep: silent
    assert normalize_jobs(8) == 1
    assert capsys.readouterr().err == ""


def test_normalize_jobs_force_override(monkeypatch):
    monkeypatch.setattr("os.cpu_count", lambda: 1)
    monkeypatch.setenv("REPRO_FORCE_JOBS", "1")
    assert normalize_jobs(4) == 4
