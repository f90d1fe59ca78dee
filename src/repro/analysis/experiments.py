"""Experiment drivers: one function per table/figure of the paper.

Each function consumes collected run data (``SpecData`` /
``PolybenchData``) and returns a structured result plus a plain-text
rendering.  The benchmark files under ``benchmarks/`` are thin wrappers
over these drivers; the experiment index in DESIGN.md maps each paper
artifact to the function here that regenerates it.
"""

from __future__ import annotations

from ..benchsuite import (
    FIG8_SIZES, POLYBENCH_NAMES, matmul_source,
    all_polybench_benchmarks, all_spec_benchmarks, matmul_spec,
    polybench_benchmark,
)
from ..harness.parallel import run_suite
from ..harness.runner import (
    ASMJS_TARGETS, TARGETS, CompiledBenchmark, compile_benchmark,
    run_compiled,
)
from ..harness.stats import geomean, median
from ..jit.engine import ENGINES_BY_YEAR
from ..x86.perf import EVENT_TABLE
from .relative import (
    COUNTER_FIELDS, geomean_relative_counter, geomean_relative_time,
    relative_counter, relative_time,
)
from .tables import fmt_ratio, fmt_time, render_table


class SuiteData:
    """Runs a set of benchmarks over a set of targets, once each.

    Every sweep goes through :func:`repro.harness.parallel.run_suite`:
    ``jobs`` > 1 fans the (benchmark, target) cells out over worker
    processes, ``jobs=1`` runs them in-process; results are
    bit-identical either way (deterministic machine + per-cell seeded
    noise) and are stored in suite order.

    ``tolerant`` (implied by a fault-injection ``plan``) collects
    through the fault-tolerant sweep: failed cells land in
    ``self.failures`` (as :class:`~repro.resilience.CellFailure`
    records), benchmarks with any failed cell are pruned from
    ``self.results`` so every figure/table consumes only complete rows,
    and the sweep itself never raises.
    """

    def __init__(self, benchmarks, targets, runs: int = 5,
                 max_instructions: int = 2_000_000_000, jobs: int = 1,
                 tolerant: bool = False, plan=None, retries: int = None,
                 timeout: float = None):
        self.benchmarks = list(benchmarks)
        self.targets = list(targets)
        self.runs = runs
        self.max_instructions = max_instructions
        self.jobs = jobs
        self.tolerant = tolerant or plan is not None
        self.plan = plan
        self.retries = retries
        self.timeout = timeout
        self.results = {}
        self.compiled = {}
        self.failures = []

    def collect(self, progress=None) -> "SuiteData":
        from ..harness.runner import _validate_strict, _validate_tolerant
        from ..resilience import RetryPolicy, is_failure

        policy = None
        if self.retries is not None:
            policy = RetryPolicy(retries=self.retries)
        self.results, compile_seconds = run_suite(
            self.benchmarks, self.targets, runs=self.runs,
            max_instructions=self.max_instructions, jobs=self.jobs,
            progress=progress, tolerant=self.tolerant, plan=self.plan,
            policy=policy, timeout=self.timeout)
        for spec in self.benchmarks:
            compiled = CompiledBenchmark(spec)
            compiled.compile_seconds = compile_seconds[spec.name]
            self.compiled[spec.name] = compiled
        if not self.tolerant:
            for name, by_target in self.results.items():
                _validate_strict(name, by_target)
            return self
        for name, by_target in self.results.items():
            _validate_tolerant(name, by_target, self.plan)
        self.failures = [cell
                         for by_target in self.results.values()
                         for cell in by_target.values() if is_failure(cell)]
        self.results = {
            name: by_target for name, by_target in self.results.items()
            if not any(is_failure(cell) for cell in by_target.values())
        }
        return self


def spec_data(size: str = "ref", include_asmjs: bool = False,
              runs: int = 5, benchmarks=None, progress=None,
              jobs: int = 1, tolerant: bool = False, plan=None,
              retries: int = None, timeout: float = None) -> SuiteData:
    targets = list(TARGETS) + (list(ASMJS_TARGETS) if include_asmjs else [])
    specs = benchmarks or all_spec_benchmarks(size)
    return SuiteData(specs, targets, runs, jobs=jobs, tolerant=tolerant,
                     plan=plan, retries=retries,
                     timeout=timeout).collect(progress)


def polybench_data(size: str = "ref", runs: int = 5,
                   progress=None, jobs: int = 1, tolerant: bool = False,
                   plan=None, retries: int = None,
                   timeout: float = None) -> SuiteData:
    return SuiteData(all_polybench_benchmarks(size),
                     TARGETS, runs, jobs=jobs, tolerant=tolerant,
                     plan=plan, retries=retries,
                     timeout=timeout).collect(progress)


# ---------------------------------------------------------------------------
# Table 1 — SPEC execution times, native vs Chrome vs Firefox.
# ---------------------------------------------------------------------------

def table1(data: SuiteData):
    rows = []
    for name in data.results:
        by_target = data.results[name]
        rows.append([
            name,
            fmt_time(by_target["native"].mean_seconds,
                     by_target["native"].stderr_seconds),
            fmt_time(by_target["chrome"].mean_seconds,
                     by_target["chrome"].stderr_seconds),
            fmt_time(by_target["firefox"].mean_seconds,
                     by_target["firefox"].stderr_seconds),
        ])
    chrome_rel = [relative_time(data.results, b, "chrome")
                  for b in data.results]
    firefox_rel = [relative_time(data.results, b, "firefox")
                   for b in data.results]
    summary = {
        "chrome_geomean": geomean(chrome_rel),
        "chrome_median": median(chrome_rel),
        "firefox_geomean": geomean(firefox_rel),
        "firefox_median": median(firefox_rel),
    }
    rows.append(["Slowdown: geomean", "-",
                 fmt_ratio(summary["chrome_geomean"]),
                 fmt_ratio(summary["firefox_geomean"])])
    rows.append(["Slowdown: median", "-",
                 fmt_ratio(summary["chrome_median"]),
                 fmt_ratio(summary["firefox_median"])])
    text = render_table(
        ["Benchmark", "Native (s)", "Chrome (s)", "Firefox (s)"], rows,
        "Table 1: SPEC CPU execution times (simulated seconds)")
    return summary, text


# ---------------------------------------------------------------------------
# Table 2 — compilation times, Clang vs Chrome.
# ---------------------------------------------------------------------------

def table2(data: SuiteData):
    rows = []
    ratios = []
    for name, compiled in data.compiled.items():
        clang = compiled.compile_seconds.get("native", 0.0)
        chrome = compiled.compile_seconds.get("chrome", 0.0)
        if chrome > 0:
            ratios.append(clang / chrome)
        rows.append([name, f"{clang:.3f}", f"{chrome:.3f}"])
    summary = {"clang_vs_chrome_geomean": geomean(ratios)}
    rows.append(["Clang/Chrome geomean", "-",
                 fmt_ratio(summary["clang_vs_chrome_geomean"])])
    text = render_table(["Benchmark", "Clang (s)", "Chrome (s)"], rows,
                        "Table 2: compilation times (wall-clock seconds "
                        "of this toolchain)")
    return summary, text


# ---------------------------------------------------------------------------
# Table 3 — the perf events used for the analysis (static).
# ---------------------------------------------------------------------------

def table3():
    rows = [[name, raw, summary] for name, raw, summary in EVENT_TABLE]
    text = render_table(["perf event", "raw PMU", "Wasm summary"], rows,
                        "Table 3: performance counters")
    return EVENT_TABLE, text


# ---------------------------------------------------------------------------
# Table 4 — geomean counter increases (also the summary of Fig. 9/10).
# ---------------------------------------------------------------------------

def table4(data: SuiteData):
    summary = {}
    rows = []
    for event, field in COUNTER_FIELDS:
        chrome = geomean_relative_counter(data.results, "chrome", field)
        firefox = geomean_relative_counter(data.results, "firefox", field)
        summary[event] = {"chrome": chrome, "firefox": firefox}
        rows.append([event, fmt_ratio(chrome), fmt_ratio(firefox)])
    text = render_table(["Performance counter", "Chrome", "Firefox"], rows,
                        "Table 4: geomean counter increase vs native")
    return summary, text


# ---------------------------------------------------------------------------
# Figure 1 — PolyBenchC performance across engine vintages.
# ---------------------------------------------------------------------------

FIG1_THRESHOLDS = (1.1, 1.5, 2.0, 2.5)


def fig1(size: str = "ref", runs: int = 3, kernels=None):
    """Counts of PolyBench kernels within each threshold of native, per
    engine year (2017 / 2018 / 2019)."""
    names = kernels or POLYBENCH_NAMES
    counts = {}
    details = {}
    for year, (chrome_engine, firefox_engine) in ENGINES_BY_YEAR.items():
        engines = {"chrome": chrome_engine, "firefox": firefox_engine}
        ratios = []
        for name in names:
            spec = polybench_benchmark(name, size)
            compiled = compile_benchmark(spec, ("native", "chrome",
                                                "firefox"), engines=engines)
            native = run_compiled(compiled, "native", runs=runs)
            best = min(
                run_compiled(compiled, target, runs=runs).run.total_seconds
                for target in ("chrome", "firefox"))
            ratios.append(best / native.run.total_seconds)
        details[year] = dict(zip(names, ratios))
        counts[year] = {
            t: sum(1 for r in ratios if r < t) for t in FIG1_THRESHOLDS
        }
    rows = [[f"< {t}x of native"] + [counts[y][t] for y in sorted(counts)]
            for t in FIG1_THRESHOLDS]
    text = render_table(
        ["Threshold"] + [str(y) for y in sorted(counts)], rows,
        "Figure 1: # PolyBenchC kernels within Nx of native, by engine "
        "vintage")
    return counts, details, text


# ---------------------------------------------------------------------------
# Figures 3a/3b — relative execution time per benchmark.
# ---------------------------------------------------------------------------

def relative_time_figure(data: SuiteData, title: str):
    rows = []
    per_bench = {}
    for name in data.results:
        chrome = relative_time(data.results, name, "chrome")
        firefox = relative_time(data.results, name, "firefox")
        per_bench[name] = {"chrome": chrome, "firefox": firefox}
        rows.append([name, fmt_ratio(chrome), fmt_ratio(firefox)])
    summary = {
        "chrome_geomean": geomean_relative_time(data.results, "chrome"),
        "firefox_geomean": geomean_relative_time(data.results, "firefox"),
    }
    rows.append(["geomean", fmt_ratio(summary["chrome_geomean"]),
                 fmt_ratio(summary["firefox_geomean"])])
    text = render_table(["Benchmark", "Chrome", "Firefox"], rows, title)
    return per_bench, summary, text


def fig3a(data: SuiteData):
    return relative_time_figure(
        data, "Figure 3a: PolyBenchC relative execution time (native=1.0)")


def fig3b(data: SuiteData):
    return relative_time_figure(
        data, "Figure 3b: SPEC CPU relative execution time (native=1.0)")


# ---------------------------------------------------------------------------
# Figure 4 — time spent in Browsix-Wasm (Firefox), per benchmark.
# ---------------------------------------------------------------------------

def fig4(data: SuiteData, target: str = "firefox"):
    per_bench = {}
    rows = []
    for name in data.results:
        frac = data.results[name][target].run.overhead_fraction
        per_bench[name] = frac
        rows.append([name, f"{100 * frac:.3f}%"])
    mean_frac = sum(per_bench.values()) / len(per_bench) if per_bench else 0
    rows.append(["average", f"{100 * mean_frac:.3f}%"])
    text = render_table(["Benchmark", "% time in Browsix"], rows,
                        "Figure 4: time spent in BROWSIX-WASM calls "
                        f"({target})")
    return per_bench, mean_frac, text


# ---------------------------------------------------------------------------
# Figures 5/6 — asm.js vs WebAssembly.
# ---------------------------------------------------------------------------

def fig5(data: SuiteData):
    """Relative time of asm.js to wasm, per browser (asm.js / wasm)."""
    per_bench = {}
    rows = []
    for name in data.results:
        by_target = data.results[name]
        chrome = (by_target["asmjs-chrome"].run.total_seconds
                  / by_target["chrome"].run.total_seconds)
        firefox = (by_target["asmjs-firefox"].run.total_seconds
                   / by_target["firefox"].run.total_seconds)
        per_bench[name] = {"chrome": chrome, "firefox": firefox}
        rows.append([name, fmt_ratio(chrome), fmt_ratio(firefox)])
    summary = {
        "chrome_geomean": geomean(
            [v["chrome"] for v in per_bench.values()]),
        "firefox_geomean": geomean(
            [v["firefox"] for v in per_bench.values()]),
    }
    rows.append(["geomean", fmt_ratio(summary["chrome_geomean"]),
                 fmt_ratio(summary["firefox_geomean"])])
    text = render_table(["Benchmark", "Chrome", "Firefox"], rows,
                        "Figure 5: asm.js time relative to WebAssembly "
                        "(wasm=1.0)")
    return per_bench, summary, text


def fig6(data: SuiteData):
    """Best-browser asm.js relative to best-browser wasm."""
    per_bench = {}
    rows = []
    for name in data.results:
        by_target = data.results[name]
        best_wasm = min(by_target["chrome"].run.total_seconds,
                        by_target["firefox"].run.total_seconds)
        best_asmjs = min(by_target["asmjs-chrome"].run.total_seconds,
                         by_target["asmjs-firefox"].run.total_seconds)
        per_bench[name] = best_asmjs / best_wasm
        rows.append([name, fmt_ratio(per_bench[name])])
    summary = geomean(list(per_bench.values()))
    rows.append(["geomean", fmt_ratio(summary)])
    text = render_table(["Benchmark", "best asm.js / best wasm"], rows,
                        "Figure 6: best asm.js vs best WebAssembly")
    return per_bench, summary, text


# ---------------------------------------------------------------------------
# Figure 7 — matmul code generation comparison.
# ---------------------------------------------------------------------------

def fig7(ni: int = 20, nk: int = 20, nj: int = 20):
    """Assembly listings of matmul: Clang vs the Chrome JIT."""
    from ..codegen.emscripten import compile_emscripten
    from ..codegen.native import compile_native
    from ..jit.engine import CHROME_ENGINE
    from ..wasm.binary import encode_module

    source = matmul_source(ni, nk, nj)
    # The paper's Fig. 7b shows the plain (not unrolled) Clang loop, so
    # the listing comparison disables unrolling for a like-for-like view.
    native_prog, _ = compile_native(source, "matmul", unroll=False)
    wasm, _ = compile_emscripten(source, "matmul")
    chrome_prog = CHROME_ENGINE.compile_bytes(encode_module(wasm))
    native_listing = native_prog.functions["matmul"].listing()
    chrome_listing = chrome_prog.functions["matmul"].listing()
    text = (
        "Figure 7: matmul code generation\n"
        "--- (b) native x86-64 generated by the Clang pipeline ---\n"
        f"{native_listing}\n\n"
        "--- (c) x86-64 JITed by the Chrome pipeline from WebAssembly ---\n"
        f"{chrome_listing}\n"
    )
    stats = {
        "native_instrs": len(native_prog.functions["matmul"].instrs),
        "chrome_instrs": len(chrome_prog.functions["matmul"].instrs),
    }
    return stats, text


# ---------------------------------------------------------------------------
# Figure 8 — matmul slowdown across matrix sizes.
# ---------------------------------------------------------------------------

def fig8(sizes=None, runs: int = 3):
    sizes = sizes or FIG8_SIZES
    per_size = {}
    rows = []
    for ni, nk, nj in sizes:
        spec = matmul_spec(ni, nk, nj)
        compiled = compile_benchmark(spec, TARGETS)
        native = run_compiled(compiled, "native", runs=runs)
        chrome = run_compiled(compiled, "chrome", runs=runs)
        firefox = run_compiled(compiled, "firefox", runs=runs)
        key = f"{ni}x{nk}x{nj}"
        per_size[key] = {
            "chrome": chrome.run.total_seconds / native.run.total_seconds,
            "firefox": firefox.run.total_seconds / native.run.total_seconds,
        }
        rows.append([key, fmt_ratio(per_size[key]["chrome"]),
                     fmt_ratio(per_size[key]["firefox"])])
    text = render_table(["Size (NIxNKxNJ)", "Chrome", "Firefox"], rows,
                        "Figure 8: matmul relative execution time "
                        "(native=1.0)")
    return per_size, text


# ---------------------------------------------------------------------------
# Figures 9a-9f and 10 — counters relative to native.
# ---------------------------------------------------------------------------

FIG9_PANELS = [
    ("9a", "all-loads-retired"),
    ("9b", "all-stores-retired"),
    ("9c", "branch-instructions-retired"),
    ("9d", "conditional-branches"),
    ("9e", "instructions-retired"),
    ("9f", "cpu-cycles"),
]


def fig9(data: SuiteData):
    field_by_event = dict((e, f) for e, f in COUNTER_FIELDS)
    panels = {}
    texts = []
    for panel, event in FIG9_PANELS:
        field = field_by_event[event]
        rows = []
        per_bench = {}
        for name in data.results:
            chrome = relative_counter(data.results, name, "chrome", field)
            firefox = relative_counter(data.results, name, "firefox",
                                       field)
            per_bench[name] = {"chrome": chrome, "firefox": firefox}
            rows.append([name, fmt_ratio(chrome), fmt_ratio(firefox)])
        summary = {
            "chrome": geomean_relative_counter(data.results, "chrome",
                                               field),
            "firefox": geomean_relative_counter(data.results, "firefox",
                                                field),
        }
        rows.append(["geomean", fmt_ratio(summary["chrome"]),
                     fmt_ratio(summary["firefox"])])
        panels[panel] = {"event": event, "per_bench": per_bench,
                         "summary": summary}
        texts.append(render_table(["Benchmark", "Chrome", "Firefox"], rows,
                                  f"Figure {panel}: {event} relative to "
                                  "native"))
    return panels, "\n\n".join(texts)


def fig10(data: SuiteData):
    rows = []
    per_bench = {}
    for name in data.results:
        chrome = relative_counter(data.results, name, "chrome",
                                  "icache_misses")
        firefox = relative_counter(data.results, name, "firefox",
                                   "icache_misses")
        per_bench[name] = {"chrome": chrome, "firefox": firefox}
        rows.append([name, fmt_ratio(chrome), fmt_ratio(firefox)])
    summary = {
        "chrome": geomean_relative_counter(data.results, "chrome",
                                           "icache_misses"),
        "firefox": geomean_relative_counter(data.results, "firefox",
                                            "icache_misses"),
    }
    rows.append(["geomean", fmt_ratio(summary["chrome"]),
                 fmt_ratio(summary["firefox"])])
    text = render_table(["Benchmark", "Chrome", "Firefox"], rows,
                        "Figure 10: L1 i-cache load misses relative to "
                        "native")
    return per_bench, summary, text
