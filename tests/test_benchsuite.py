"""Benchmark suite integration tests (test-size workloads).

Every benchmark must compile through all pipelines, run, and produce
byte-identical output everywhere — the harness's ``cmp`` validation.
"""

import pytest

from repro.benchsuite import (
    FIG8_SIZES, POLYBENCH_NAMES, SPEC_NAMES, all_factories, matmul_spec,
    polybench_benchmark, spec_benchmark,
)
from repro.harness import TARGETS, run_benchmark

ALL_TARGETS = ("native", "chrome", "firefox", "asmjs-chrome",
               "asmjs-firefox")


def test_suite_inventory_matches_paper():
    assert len(POLYBENCH_NAMES) == 23
    assert len(SPEC_NAMES) == 15
    assert "429.mcf" in SPEC_NAMES and "644.nab_s" in SPEC_NAMES
    assert {f.name for f in all_factories()} == \
        set(POLYBENCH_NAMES) | set(SPEC_NAMES)


@pytest.mark.parametrize("name", SPEC_NAMES)
def test_spec_benchmark_all_pipelines_agree(name):
    spec = spec_benchmark(name, "test")
    results = run_benchmark(spec, targets=ALL_TARGETS, runs=1)
    native = results["native"]
    assert native.run.stdout, f"{name} produced no output"
    assert native.run.exit_code == 0
    for target in ALL_TARGETS:
        assert results[target].run.exit_code == 0


@pytest.mark.parametrize("name", POLYBENCH_NAMES)
def test_polybench_kernel_all_pipelines_agree(name):
    spec = polybench_benchmark(name, "test")
    results = run_benchmark(spec, targets=TARGETS, runs=1)
    assert results["native"].run.stdout


def test_matmul_spec_agrees():
    spec = matmul_spec(8, 9, 10)
    results = run_benchmark(spec, targets=TARGETS, runs=1)
    assert results["native"].run.exit_code == 0


def test_fig8_sizes_shape():
    for ni, nk, nj in FIG8_SIZES:
        assert nk == ni + ni // 10 and nj == ni + ni // 5


def test_spec_sizes_scale():
    small = spec_benchmark("401.bzip2", "test")
    big = spec_benchmark("401.bzip2", "ref")
    assert len(big.source) >= len(small.source)
    assert "1600" in big.source and "256" in small.source


def test_syscall_benchmarks_touch_the_kernel():
    from repro.harness.runner import compile_benchmark, run_compiled

    for name in ("401.bzip2", "464.h264ref"):
        spec = spec_benchmark(name, "test")
        assert spec.uses_syscalls
        compiled = compile_benchmark(spec, ("native",))
        result = run_compiled(compiled, "native", runs=1)
        assert result.run.syscalls > 3


def test_indirect_call_benchmarks_use_tables():
    for name in ("450.soplex", "453.povray", "482.sphinx3"):
        spec = spec_benchmark(name, "test")
        assert "(*" in spec.source  # function-pointer tables
