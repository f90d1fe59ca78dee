"""Harness tests: stats, runner orchestration, Browsix-SPEC session."""

import time

import pytest

from repro.benchsuite import spec_benchmark
from repro.browser import chrome
from repro.harness import (
    BenchmarkSpec, BrowsixSpecSession, ValidationError, compile_benchmark,
    geomean, mean, median, run_benchmark, run_compiled, stderr,
)


class TestStats:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0
        assert mean([]) == 0.0

    def test_stderr_of_constant_is_zero(self):
        assert stderr([5.0, 5.0, 5.0]) == 0.0
        assert stderr([5.0]) == 0.0

    def test_stderr_scales_with_spread(self):
        tight = stderr([1.0, 1.01, 0.99])
        wide = stderr([1.0, 2.0, 0.5])
        assert wide > tight > 0

    def test_geomean(self):
        assert abs(geomean([2.0, 8.0]) - 4.0) < 1e-12
        assert geomean([]) == 0.0

    def test_median(self):
        assert median([3.0, 1.0, 2.0]) == 2.0
        assert median([4.0, 1.0, 2.0, 3.0]) == 2.5


class TestRunner:
    @pytest.fixture(scope="class")
    def spec(self):
        return spec_benchmark("462.libquantum", "test")

    def test_compile_produces_all_targets(self, spec):
        compiled = compile_benchmark(spec, ("native", "chrome",
                                            "firefox"))
        assert set(compiled.programs) == {"native", "chrome", "firefox"}
        assert compiled.wasm_bytes[:4] == b"\x00asm"
        assert compiled.compile_seconds["native"] > 0

    def test_compile_seconds_charge_the_shared_midend(self, spec,
                                                      monkeypatch):
        """Table 2: the mid-end runs once but counts toward both the
        Clang column (mid-end + native tail) and the Emscripten column
        (frontend + mid-end + wasm backend); the JIT front half runs
        once per binary but counts toward every engine sharing it."""
        from repro.harness import runner
        from repro.jit import engine as jit_engine
        seconds = {}

        def timed(name, delay=0.0):
            real = getattr(runner, name)

            def wrapper(*args, **kwargs):
                start = time.perf_counter()
                time.sleep(delay)
                try:
                    return real(*args, **kwargs)
                finally:
                    seconds[name] = time.perf_counter() - start

            monkeypatch.setattr(runner, name, wrapper)

        timed("compile_source")
        timed("optimize_module", delay=0.05)
        timed("compile_native_tail")
        translate = jit_engine.wasm_to_ir

        def slow_translate(module):
            time.sleep(0.05)
            return translate(module)

        monkeypatch.setattr(jit_engine, "wasm_to_ir", slow_translate)
        compiled = compile_benchmark(spec, ("native", "chrome", "firefox"),
                                     cache=False)
        clang = compiled.compile_seconds["native"]
        emscripten = compiled.compile_seconds["emscripten"]
        assert clang >= 0.05 and emscripten >= 0.05
        assert clang >= seconds["optimize_module"] + \
            seconds["compile_native_tail"]
        assert emscripten >= seconds["compile_source"] + \
            seconds["optimize_module"]
        assert compiled.compile_seconds["chrome"] >= 0.05
        assert compiled.compile_seconds["firefox"] >= 0.05

    def test_run_compiled_reports_times_and_counters(self, spec):
        compiled = compile_benchmark(spec, ("native",))
        result = run_compiled(compiled, "native", runs=5)
        assert len(result.times) == 5
        assert result.mean_seconds > 0
        assert result.stderr_seconds >= 0
        assert result.perf.instructions > 100

    def test_measurement_noise_is_deterministic_per_benchmark(self, spec):
        compiled = compile_benchmark(spec, ("native",))
        a = run_compiled(compiled, "native", runs=5)
        b = run_compiled(compiled, "native", runs=5)
        assert a.times == b.times  # seeded by (benchmark, target)

    def test_run_benchmark_validates_outputs(self, spec):
        results = run_benchmark(spec, targets=("native", "chrome"),
                                runs=1)
        assert results["native"].run.stdout == \
            results["chrome"].run.stdout

    def test_validation_error_on_mismatch(self, monkeypatch, spec):
        results = run_benchmark(spec, targets=("native", "chrome"),
                                runs=1)
        # Force a mismatch through the private check to prove it bites.
        results["chrome"].run.stdout = b"corrupted"
        from repro.harness.runner import _validate_strict
        with pytest.raises(ValidationError):
            _validate_strict(spec.name, results)

    def test_serial_run_benchmark_counts_its_cells(self, spec):
        """``--jobs 1`` runs the same sweep as every other width, so its
        cells are counted like a pooled sweep's."""
        from repro.obs import metrics as obs_metrics
        registry = obs_metrics.enable()
        try:
            run_benchmark(spec, targets=("native", "chrome"), runs=1,
                          jobs=1)
        finally:
            obs_metrics.disable()
        assert registry.counters["runner.cells"].value == 2


class TestBrowsixSpecSession:
    def test_full_session_lifecycle(self):
        spec = spec_benchmark("401.bzip2", "test")
        compiled = compile_benchmark(spec, ("native", "chrome"))

        session = BrowsixSpecSession(chrome(), spec).launch()
        result = session.run(compiled.wasm_bytes)
        assert result.exit_code == 0

        native = run_compiled(compiled, "native", runs=1)
        assert session.validate(native.run.stdout)

        archive = session.collect()
        assert archive["stdout"] == native.run.stdout
        assert "out.bz" in archive["files"]
        assert archive["perf"].instructions > 0
        session.kill()
        assert session.kernel is None
