"""The sweep scheduler: determinism under adversarial schedules.

The contract under test is the one the engine documents: the merged
suite results are bit-identical to a serial run no matter the pool
width, a skewed matrix, or killed workers, and the pool stays warm
across sweeps, errors and Ctrl-C.  Chaos manifests (which cells fail,
with how many attempts) are checked against the fault plan's own
``worker`` draws.
"""

import multiprocessing
import os
import signal
import time

import pytest

from repro.benchsuite import matmul_spec, polybench_benchmark
from repro.harness import runner
from repro.harness.parallel import run_suite
from repro.harness.shard import (
    ShardScheduler, get_shard_pool, shutdown_warm_pool,
)
from repro.harness import shard as shard_mod
from repro.obs import metrics as obs_metrics
from repro.resilience import FaultInjector, FaultPlan, RetryPolicy, is_failure

SUBSET = ["trisolv", "bicg", "mvt", "gesummv"]
TARGETS = ["native", "chrome", "firefox"]


@pytest.fixture
def force_jobs(monkeypatch):
    """Exercise the real pool even on a single-CPU box."""
    monkeypatch.setenv("REPRO_FORCE_JOBS", "1")
    yield
    shutdown_warm_pool()


@pytest.fixture
def metrics():
    registry = obs_metrics.enable()
    yield registry
    obs_metrics.disable()


def _suite():
    return [polybench_benchmark(name, "test") for name in SUBSET]


def _skewed_suite():
    """One heavy cell at the head of the queue."""
    return [matmul_spec(40, 40, 40)] + _suite()


def _counter(registry, name):
    counter = registry.counters.get(name)
    return counter.value if counter is not None else 0


def _pids():
    return [w["proc"].pid for w in shard_mod._SHARDS.workers]


def _patch_workers(monkeypatch, replacement):
    """Wrap ``run_compiled`` in the workers: tear the pool down so the
    next sweep forks fresh workers that inherit the patched module."""
    shutdown_warm_pool()
    original = runner.run_compiled

    def patched(compiled, target, *args, **kwargs):
        replacement(compiled.spec.name, target)
        return original(compiled, target, *args, **kwargs)

    monkeypatch.setattr(runner, "run_compiled", patched)


def _assert_identical(pooled, serial, suite):
    for spec in suite:
        for target in TARGETS:
            got = pooled[spec.name][target]
            want = serial[spec.name][target]
            assert got.times == want.times, (spec.name, target)
            assert got.perf.as_dict() == want.perf.as_dict()
            assert got.run.stdout == want.run.stdout


# -- determinism across pool widths ------------------------------------------------

def test_sharded_matches_serial_bit_for_bit(force_jobs):
    serial, _ = run_suite(_suite(), TARGETS, runs=3, jobs=1, cache=False)
    for jobs in (2, 8):
        pooled, _ = run_suite(_suite(), TARGETS, runs=3, jobs=jobs,
                              cache=False)
        assert list(pooled) == SUBSET        # suite order preserved
        _assert_identical(pooled, serial, _suite())


def test_sharded_compile_seconds_reported(force_jobs):
    _, compile_seconds = run_suite(_suite(), ["native"], runs=1, jobs=4,
                                   cache=False)
    for name in SUBSET:
        assert compile_seconds[name]["native"] > 0


def test_steals_under_skew(force_jobs, metrics):
    """A skewed matrix: while one worker runs the heavy head cell, the
    idle workers drain the rest of the queue; results still match."""
    serial, _ = run_suite(_skewed_suite(), TARGETS, runs=2, jobs=1,
                          cache=False)
    pooled, _ = run_suite(_skewed_suite(), TARGETS, runs=2, jobs=4,
                          cache=False)
    assert list(pooled) == [spec.name for spec in _skewed_suite()]
    _assert_identical(pooled, serial, _skewed_suite())
    # runner.cells counts every measured cell, serial and pooled
    assert _counter(metrics, "runner.cells") == 2 * len(_skewed_suite()) \
        * len(TARGETS)


# -- the warm pool: reuse, rebuild, errors, Ctrl-C ---------------------------------
# The two-worker legs are the warm-pool tests in test_parallel.py.

def test_shard_pools_warm_across_sweeps(force_jobs):
    """A second sweep of the same width reuses the live workers."""
    run_suite(_suite()[:2], ["native"], runs=1, jobs=4, cache=False)
    pool = shard_mod._SHARDS
    assert pool.width == 4
    pids = _pids()
    run_suite(_suite()[2:], ["native"], runs=1, jobs=4, cache=False)
    assert shard_mod._SHARDS is pool
    assert _pids() == pids


def test_shard_pools_rebuilt_on_shape_change(force_jobs):
    first = get_shard_pool(4)
    assert get_shard_pool(4) is first
    second = get_shard_pool(6)
    assert second is not first
    assert second.width == 6


def test_shard_pools_survive_ctrl_c(force_jobs):
    """Ctrl-C mid-sweep drains in-flight cells and keeps the pool
    warm: the next sweep reuses the very same workers."""
    run_suite(_suite()[:2], ["native"], runs=1, jobs=4, cache=False)
    pool = shard_mod._SHARDS
    pids = _pids()

    def interrupt(name):
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        run_suite(_suite(), ["native"], runs=1, jobs=4, cache=False,
                  progress=interrupt)
    assert shard_mod._SHARDS is pool
    assert pool.alive()
    assert _pids() == pids
    results, _ = run_suite(_suite()[:2], ["native"], runs=1, jobs=4,
                           cache=False)
    assert set(results) == set(SUBSET[:2])
    assert _pids() == pids


def test_shard_cell_error_keeps_pools_warm(force_jobs):
    """A cell *error* leaves every worker healthy: in-flight cells are
    drained, and the next sweep reuses the very same workers."""
    bad = polybench_benchmark("trisolv", "test")
    with pytest.raises(Exception):
        run_suite([bad] + _suite()[:1], ["no-such-target", "native"],
                  runs=1, jobs=4, cache=False)
    pool = shard_mod._SHARDS
    pids = _pids()
    results, _ = run_suite(_suite()[:2], ["native"], runs=1, jobs=4,
                           cache=False)
    assert set(results) == set(SUBSET[:2])
    assert shard_mod._SHARDS is pool
    assert _pids() == pids


# -- chaos: injected worker crashes ------------------------------------------------

def _doomed_cells(plan, names, retries):
    """The cells whose every incarnation 0..retries draws a ``worker``
    crash in its own scope ``"{name}:{target}:w{k}"``."""
    return {(name, target) for name in names for target in TARGETS
            if all(FaultInjector(plan, f"{name}:{target}:w{k}")
                   .should("worker") for k in range(retries + 1))}


def test_worker_crashes_requeue_deterministically(force_jobs, metrics):
    """Injected worker deaths re-queue cells.  The failure manifest is
    exactly what the plan's own ``worker`` draws predict, and every
    surviving cell is bit-identical with serial."""
    suite = _skewed_suite() + [polybench_benchmark("durbin", "test")]
    names = [spec.name for spec in suite]
    plan = FaultPlan.parse("worker:0.5", seed=11)
    retries = RetryPolicy().retries
    doomed = _doomed_cells(plan, names, retries)
    assert 0 < len(doomed) < len(names) * len(TARGETS)
    serial, _ = run_suite(suite, TARGETS, runs=2, jobs=1, cache=False)
    pooled, _ = run_suite(suite, TARGETS, runs=2, jobs=4, cache=False,
                          tolerant=True, plan=plan, timeout=None)
    for name in names:
        for target in TARGETS:
            cell = pooled[name][target]
            if (name, target) in doomed:
                assert is_failure(cell), (name, target)
                assert (cell.phase, cell.attempts, cell.injected) \
                    == ("worker", retries + 1, True), (name, target)
            else:
                assert cell.times == serial[name][target].times, \
                    (name, target)
    assert _counter(metrics, "pool.worker_respawns") > 0
    assert _counter(metrics, "pool.requeues") > 0


def test_killed_workers_requeue_fast_sweep(force_jobs, metrics,
                                           monkeypatch, tmp_path):
    """Workers killed mid-cell in a fast (non-tolerant) sweep are
    respawned and their cells re-queued: the sweep completes, equal to
    serial, on the same (repaired) pool."""
    suite = _suite()[1:3]
    serial, _ = run_suite(suite, TARGETS, runs=2, jobs=1, cache=False)
    doomed = {("bicg", "chrome"), ("mvt", "native")}

    def die_once(name, target):
        marker = tmp_path / f"{name}@{target}"
        if (name, target) in doomed and not marker.exists():
            marker.touch()
            os.kill(os.getpid(), signal.SIGKILL)

    _patch_workers(monkeypatch, die_once)
    pool = get_shard_pool(2)
    pids = _pids()
    results, _ = run_suite(suite, TARGETS, runs=2, jobs=2, cache=False)
    _assert_identical(results, serial, suite)
    assert _counter(metrics, "pool.requeues") == len(doomed)
    assert _counter(metrics, "pool.worker_respawns") == len(doomed)
    assert shard_mod._SHARDS is pool
    assert pool.alive() and _pids() != pids


def test_worker_dead_while_idle_is_replaced_at_dispatch(force_jobs):
    """A worker that died between cells is replaced when the scheduler
    next sends it work; no cell is charged for it."""
    pool = get_shard_pool(2)
    victim = pool.workers[0]["proc"]
    victim.kill()
    victim.join(timeout=10.0)
    assert not victim.is_alive()
    jobs_list = [{
        "ref": ("polybench", "trisolv", "test"), "name": "trisolv",
        "target": target, "runs": 1, "noise": 0.004,
        "max_instructions": 2_000_000_000, "use_cache": False,
    } for target in ("native", "chrome")]
    done = []
    scheduler = ShardScheduler(pool, jobs_list)
    scheduler.run(lambda job, kind, value, timing: done.append(kind))
    assert done == ["ok", "ok"]
    assert scheduler.incarnation == [0, 0]
    assert victim.pid not in _pids() and pool.alive()


def test_hung_cell_terminated_by_watchdog(force_jobs, monkeypatch):
    """A tolerant cell that hangs outside the instrumented loop, where
    the in-machine deadline cannot fire, is terminated at 2 x timeout
    + 1 s and recorded as an execute-phase TIMEOUT; every other cell
    matches serial."""
    suite = _suite()[:2]
    serial, _ = run_suite(suite, TARGETS, runs=1, jobs=1, cache=False)

    def hang_on_firefox(_name, target):
        if target == "firefox":
            time.sleep(60)

    _patch_workers(monkeypatch, hang_on_firefox)
    results, _ = run_suite(suite, TARGETS, runs=1, jobs=2, cache=False,
                           tolerant=True, timeout=1.0)
    for spec in suite:
        for target in TARGETS:
            cell = results[spec.name][target]
            if target == "firefox":
                assert is_failure(cell), spec.name
                assert (cell.phase, cell.status, cell.attempts) \
                    == ("execute", "TIMEOUT", 1)
                assert "hung past 1s" in cell.message
            else:
                assert cell.times == serial[spec.name][target].times


class _Captured(Exception):
    pass


def test_pooled_cells_keep_the_callers_retry_policy(force_jobs,
                                                    monkeypatch):
    """Every field of the caller's RetryPolicy, not just ``retries``,
    reaches the cell a pool worker measures."""
    from repro import resilience
    from repro.harness import compilecache, parallel
    captured = []

    def capture(pool, jobs_list, *args, **kwargs):
        captured.extend(jobs_list)
        raise _Captured

    monkeypatch.setattr(parallel, "ShardScheduler", capture)
    policy = RetryPolicy(retries=1, base_delay=0.3, max_delay=0.3,
                         jitter=0.5, seed=4)
    with pytest.raises(_Captured):
        run_suite(_suite()[:1], TARGETS[:2], runs=1, jobs=2, cache=False,
                  policy=policy)

    seen = []

    def measure_cell(spec, target, **kwargs):
        seen.append(kwargs["policy"])
        return None, None, {}, 1

    monkeypatch.setattr(resilience, "measure_cell", measure_cell)
    monkeypatch.setattr(compilecache, "_ENABLED", compilecache._ENABLED)
    ours, worker = multiprocessing.Pipe()
    ours.send(dict(captured[0], incarnation=1))
    ours.send(None)                   # then the worker exits its loop
    shard_mod._shard_worker_main(worker)
    assert ours.recv()[0] == "ok"
    assert [p.as_dict() for p in seen] == [policy.as_dict()]


def test_worker_crash_fast_mode_raises_after_retries(force_jobs):
    """Without the tolerant flag an exhausted crash budget aborts the
    sweep, and the next sweep still works on a rebuilt pool."""
    from repro.errors import WorkerCrashError
    plan = FaultPlan.parse("worker:1.0", seed=1)
    jobs_list = [{
        "ref": ("polybench", "trisolv", "test"), "name": "trisolv",
        "target": "native", "runs": 1, "noise": 0.004,
        "max_instructions": 2_000_000_000, "use_cache": False,
        "plan": plan,
    }]
    scheduler = ShardScheduler(get_shard_pool(4), jobs_list, retries=1,
                               plan=plan)
    with pytest.raises(WorkerCrashError):
        scheduler.run(lambda *a: None)
    results, _ = run_suite(_suite()[:1], ["native"], runs=1, jobs=4,
                           cache=False)
    assert "trisolv" in results
