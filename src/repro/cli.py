"""Command-line interface: compile, run, and measure mcc programs.

Usage (also via ``python -m repro``):

    repro run prog.c --target chrome        # run one pipeline
    repro compare prog.c                    # all pipelines side by side
    repro disasm prog.c --target native     # x86 listing
    repro wat prog.c                        # WebAssembly text format
    repro lint prog.c --json                # static analysis findings
    repro bench 453.povray --size test      # one suite benchmark
    repro report fig3b --size test          # regenerate a paper artifact
    repro trace matmul --target chrome      # Chrome trace-event JSON
    repro profile matmul --annotate         # simulated perf annotate
    repro stat matmul --target chrome       # perf-stat-style hwc table
    repro explain matmul                    # wasm-vs-native gap, explained
    repro serve --port 8923                 # benchmark-as-a-service
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .asmjs import ASMJS_CHROME, ASMJS_FIREFOX
from .browser.browser import execute_program
from .codegen import compile_native
from .codegen.emscripten import compile_emscripten
from .jit import (
    CHROME_ENGINE, CHROME_TIERED, FIREFOX_ENGINE, FIREFOX_TIERED,
)
from .kernel import BrowsixRuntime, Kernel, NativeRuntime
from .tier import DEFAULT_TIER, TIERS
from .wasm import encode_module, format_module
from .x86.perf import EVENT_TABLE

_ENGINES = {
    "chrome": CHROME_ENGINE,
    "firefox": FIREFOX_ENGINE,
    "chrome-tiered": CHROME_TIERED,
    "firefox-tiered": FIREFOX_TIERED,
    "asmjs-chrome": ASMJS_CHROME,
    "asmjs-firefox": ASMJS_FIREFOX,
}

TARGETS = ("native", "chrome", "firefox", "chrome-tiered",
           "firefox-tiered", "asmjs-chrome", "asmjs-firefox")


def _compile_target(source: str, target: str):
    if target == "native":
        program, _ = compile_native(source, "cli")
        return program
    wasm, _ = compile_emscripten(source, "cli")
    return _ENGINES[target].compile_bytes(encode_module(wasm))


def _execute(program, target: str, stage=None, hwc=None):
    from .obs import span
    with span("kernel.boot", target=target):
        kernel = Kernel()
        if stage is not None:
            stage(kernel)
        process = kernel.spawn("cli")
        runtime_cls = NativeRuntime if target == "native" \
            else BrowsixRuntime
        runtime = runtime_cls(kernel, process, program.heap_base)
    return execute_program(program, runtime, f"cli@{target}", hwc=hwc)


def _resolve_spec(name: str, size: str):
    """Map a benchmark name to a spec; None if unknown."""
    from .benchsuite import (POLYBENCH_NAMES, SPEC_NAMES, matmul_spec,
                             polybench_benchmark, spec_benchmark)
    if name in SPEC_NAMES:
        return spec_benchmark(name, size)
    if name in POLYBENCH_NAMES:
        return polybench_benchmark(name, size)
    if name == "matmul":
        return matmul_spec()
    if name.startswith("matmul-"):
        # The expanded form failure records print: matmul-NIxNKxNJ.
        try:
            ni, nk, nj = (int(d) for d in name[len("matmul-"):].split("x"))
        except ValueError:
            return None
        return matmul_spec(ni, nk, nj)
    return None


def _unknown_benchmark(name: str) -> int:
    from .benchsuite import POLYBENCH_NAMES, SPEC_NAMES
    print(f"unknown benchmark {name}; choose from:", file=sys.stderr)
    print(" ", ", ".join(("matmul",) + tuple(SPEC_NAMES) +
                         tuple(POLYBENCH_NAMES)), file=sys.stderr)
    return 2


def _parse_inject(args):
    """``--inject``/``--inject-seed`` -> FaultPlan (None when absent).

    A grammar error (unknown point, bad rate) is a usage error: print it
    and exit 2, like argparse would.
    """
    if not getattr(args, "inject", None):
        return None
    from .resilience import FaultPlan
    try:
        return FaultPlan.parse(args.inject, seed=args.inject_seed)
    except ValueError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _print_failures(failures, size) -> None:
    """One stderr line per failed cell, plus its exact repro command."""
    for failure in failures:
        injected = " [injected]" if failure.injected else ""
        print(f"FAILED {failure.benchmark}@{failure.target}: "
              f"{failure.status} in {failure.phase}{injected} "
              f"({failure.error_type}: {failure.message}) "
              f"after {failure.attempts} attempt(s)", file=sys.stderr)
        print(f"  repro: {failure.repro_command(size)}", file=sys.stderr)


def _sweep_exit_code(failures, total_cells=None) -> int:
    """0 = clean, 3 = partial success, 1 = nothing usable, 130 = ^C."""
    if any(f.phase == "interrupted" for f in failures):
        return 130
    if not failures:
        return 0
    if total_cells is not None and len(failures) >= total_cells:
        return 1
    return 3


def _print_observability_summary() -> None:
    """The post-run cache one-liner plus any enabled metrics."""
    from .harness import compilecache
    from .obs import get_registry
    if compilecache.is_enabled():
        print(compilecache.get_cache().stats.summary_line(),
              file=sys.stderr)
    registry = get_registry()
    if registry.enabled:
        for line in registry.summary_lines():
            print(f"  {line}", file=sys.stderr)


def _fmt_seconds(value: float) -> str:
    if value >= 1.0:
        return f"{value:.3f}s"
    if value >= 1e-3:
        return f"{value * 1e3:.2f}ms"
    return f"{value * 1e6:.2f}us"


def _jsonify(value):
    """Best-effort conversion of artifact data to JSON-safe values."""
    if isinstance(value, dict):
        return {str(key): _jsonify(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    as_dict = getattr(value, "as_dict", None)
    if callable(as_dict):
        return _jsonify(as_dict())
    if isinstance(value, bytes):
        return value.decode("utf-8", "replace")
    if hasattr(value, "__dict__"):
        return _jsonify(vars(value))
    slots = getattr(type(value), "__slots__", None)
    if slots:
        return _jsonify({s: getattr(value, s, None) for s in slots})
    return repr(value)


def _stage_files(paths):
    def stage(kernel):
        for path in paths or ():
            with open(path, "rb") as fh:
                kernel.fs.create(path.split("/")[-1], fh.read())
    return stage


def cmd_run(args) -> int:
    source = open(args.program).read()
    program = _compile_target(source, args.target)
    result = _execute(program, args.target, _stage_files(args.file),
                      hwc=True if args.hwc else None)
    sys.stdout.write(result.stdout.decode("utf-8", "replace"))
    if args.stats or args.hwc:
        perf = result.perf
        print(f"--- {args.target}: {perf.instructions} instrs, "
              f"{result.cycles:.0f} cycles "
              f"({result.total_seconds * 1e6:.1f} simulated us)",
              file=sys.stderr)
        # The full Table 3 event set, for every target (asm.js included).
        for event, raw, _summary in EVENT_TABLE:
            value = result.event(event)
            text = f"{value:.0f}" if isinstance(value, float) else str(value)
            print(f"    {event:22s} ({raw}): {text}", file=sys.stderr)
        # The microarchitectural rows ride along only under --hwc so the
        # default --stats output stays byte-identical.
        if result.hwc is not None:
            from .obs.hwc import hwc_cycles
            totals = result.hwc.totals
            for name, value in totals.as_dict().items():
                print(f"    hwc.{name:18s} (model): {value}",
                      file=sys.stderr)
            print(f"    hwc.cycles             (model): "
                  f"{hwc_cycles(perf, totals):.0f}", file=sys.stderr)
    return result.exit_code


def cmd_compare(args) -> int:
    source = open(args.program).read()
    rows = []
    baseline = None
    for target in TARGETS:
        program = _compile_target(source, target)
        result = _execute(program, target, _stage_files(args.file))
        if baseline is None:
            baseline = result
        elif result.stdout != baseline.stdout:
            print(f"OUTPUT MISMATCH in {target}!", file=sys.stderr)
            return 1
        perf = result.perf
        rows.append([target, perf.instructions, perf.loads, perf.stores,
                     result.icache_misses,
                     f"{result.total_seconds / baseline.total_seconds:.2f}x"])
    from .analysis import render_table
    print(render_table(
        ["target", "instrs", "loads", "stores", "L1I miss", "rel time"],
        rows, f"{args.program}: all pipelines "
              f"(stdout {len(baseline.stdout)} bytes, identical)"))
    return 0


def cmd_disasm(args) -> int:
    source = open(args.program).read()
    program = _compile_target(source, args.target)
    names = args.function or [f for f in program.functions]
    for name in names:
        func = program.functions.get(name)
        if func is None:
            print(f"; no function {name}", file=sys.stderr)
            continue
        print(f"; ---- {name} ({args.target}) ----")
        print(func.listing())
        print()
    return 0


def cmd_wat(args) -> int:
    source = open(args.program).read()
    wasm, _ = compile_emscripten(source, "cli")
    print(format_module(wasm))
    return 0


def cmd_bench(args) -> int:
    from .harness import compilecache, run_benchmark

    if args.no_cache:
        compilecache.set_enabled(False)
    if args.stats:
        from .obs import enable_metrics
        enable_metrics()
    plan = _parse_inject(args)
    tolerant = plan is not None or args.tolerant or args.timeout is not None
    spec = _resolve_spec(args.benchmark, args.size)
    if spec is None:
        return _unknown_benchmark(args.benchmark)
    targets = args.target or ["native", "chrome", "firefox"]
    policy = None
    if tolerant:
        from .resilience import RetryPolicy
        policy = RetryPolicy(retries=args.retries)
    try:
        results = run_benchmark(spec, targets=targets, runs=args.runs,
                                jobs=args.jobs, tolerant=tolerant,
                                plan=plan, policy=policy,
                                timeout=args.timeout, shards=args.shards)
    except KeyboardInterrupt:
        print(f"\ninterrupted: {spec.name} sweep cancelled "
              "(use --tolerant to keep partial results)", file=sys.stderr)
        return 130
    from .analysis import fmt_time, render_table
    from .resilience import is_failure
    ok = {t: r for t, r in results.items() if not is_failure(r)}
    failures = [r for r in results.values() if is_failure(r)]
    native = ok.get("native") or (next(iter(ok.values())) if ok else None)
    rows = []
    for target, res in results.items():
        if is_failure(res):
            rows.append([target, res.status, "-", "-", "-", "-", "-"])
            continue
        rel = "-"
        if native is not None and native.mean_seconds:
            rel = f"{res.mean_seconds / native.mean_seconds:.2f}x"
        rows.append([target, fmt_time(res.mean_seconds,
                                      res.stderr_seconds),
                     _fmt_seconds(res.p50_seconds),
                     _fmt_seconds(res.p95_seconds), rel,
                     res.perf.instructions, res.run.icache_misses])
    print(render_table(["target", "time", "p50", "p95", "rel",
                        "instrs", "L1I miss"],
                       rows, f"{spec.name} ({args.size})"))
    _print_failures(failures, args.size)
    _print_observability_summary()
    return _sweep_exit_code(failures, total_cells=len(results))


def _hwc_block(data) -> dict:
    """The ``hwc`` payload of ``repro report --json``: per-cell
    microarchitectural totals for every run that carried the model."""
    block = {"enabled": False, "benchmarks": {}}
    if data is None:
        return block
    from .resilience import is_failure
    for name, by_target in data.results.items():
        entry = {}
        for target, res in by_target.items():
            if is_failure(res) or res.run.hwc is None:
                continue
            from .obs.hwc import hwc_cycles
            entry[target] = {
                "totals": res.run.hwc.totals.as_dict(),
                "hwc_cycles": hwc_cycles(res.perf, res.run.hwc.totals),
            }
        if entry:
            block["benchmarks"][name] = entry
    block["enabled"] = bool(block["benchmarks"])
    return block


def cmd_report(args) -> int:
    from .analysis import (fig1, fig3a, fig3b, fig4, fig5, fig6, fig7,
                           fig8, fig9, fig10, polybench_data, spec_data,
                           table1, table2, table3, table4)
    from .harness import compilecache
    from .obs import enable_metrics, get_registry, metrics_enabled

    if args.no_cache:
        compilecache.set_enabled(False)
    if args.hwc:
        # The env gate reaches forked sweep workers too, so every cell's
        # run comes back with an HwcReport attached.
        os.environ["REPRO_HWC"] = "1"
    if (args.stats or args.json) and not metrics_enabled():
        # Keep an already-enabled registry: a serving process reporting
        # in-process must not wipe its serve.* counters.
        enable_metrics()
    artifact = args.artifact
    plan = _parse_inject(args)
    tolerant = plan is not None or args.tolerant or args.timeout is not None

    # Every artifact function returns a tuple whose LAST element is the
    # rendered text; the leading elements are the underlying data, which
    # --json serializes alongside the metrics block.  The standalone
    # artifacts drive the pipelines directly (no suite sweep), so the
    # fault-tolerant path does not apply to them.
    standalone = {
        "table3": lambda: table3(),
        "fig7": lambda: fig7(),
        "fig8": lambda: fig8(runs=args.runs),
        "fig1": lambda: fig1(size=args.size, runs=args.runs),
    }
    spec_figures = {
        "table1": table1, "table2": table2, "table4": table4,
        "fig3b": fig3b, "fig4": fig4, "fig9": fig9, "fig10": fig10,
        "fig5": fig5, "fig6": fig6,
    }
    data = None
    if artifact == "fig3a":
        data = polybench_data(args.size, runs=args.runs, jobs=args.jobs,
                              tolerant=tolerant, plan=plan,
                              retries=args.retries, timeout=args.timeout,
                              shards=args.shards)
    elif artifact in spec_figures:
        include_asmjs = artifact in ("fig5", "fig6")
        data = spec_data(args.size, include_asmjs=include_asmjs,
                         runs=args.runs, jobs=args.jobs,
                         tolerant=tolerant, plan=plan,
                         retries=args.retries, timeout=args.timeout,
                         shards=args.shards)
    elif artifact not in standalone:
        print(f"unknown artifact {artifact}; choose from: table1 table2 "
              "table3 table4 fig1 fig3a fig3b fig4 fig5 fig6 fig7 fig8 "
              "fig9 fig10", file=sys.stderr)
        return 2
    failures = list(data.failures) if data is not None else []
    if data is not None and failures and not data.results:
        _print_failures(failures, args.size)
        print("every benchmark had a failed cell; nothing to render",
              file=sys.stderr)
        return _sweep_exit_code(failures, total_cells=len(failures))
    if artifact == "fig3a":
        ret = fig3a(data)
    elif artifact in spec_figures:
        ret = spec_figures[artifact](data)
    else:
        ret = standalone[artifact]()
    print(ret[-1])
    if args.json:
        from .tier import get_tier
        registry_dict = get_registry().as_dict()
        counters = registry_dict["counters"]
        gauges = registry_dict.get("gauges", {})
        payload = {
            "artifact": artifact,
            "data": _jsonify(list(ret[:-1])),
            "text": ret[-1],
            "metrics": get_registry().as_dict(),
            "tier": {"tier": get_tier()},
            "analysis": {
                "verifier_runs": counters.get("analysis.verifier_runs", 0),
                "lints_emitted": counters.get("analysis.lints_emitted", 0),
                "regalloc_checks":
                    counters.get("analysis.regalloc_checks", 0),
            },
            "opt": _opt_block(registry_dict),
            "serve": _serve_block(registry_dict),
            "shard": {
                "shards": gauges.get("shard.count", 0),
                "cells": counters.get("runner.cells", 0),
                "steals": counters.get("shard.steals", 0),
                "requeues": counters.get("shard.requeues", 0),
                "worker_respawns":
                    counters.get("shard.worker_respawns", 0),
                "merge_seconds": gauges.get("shard.merge_seconds", 0.0),
            },
            "failures": [_jsonify(f.as_dict(args.size)) for f in failures],
            "partial": bool(failures),
            "hwc": _hwc_block(data),
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"wrote {args.json}", file=sys.stderr)
    _print_failures(failures, args.size)
    _print_observability_summary()
    return _sweep_exit_code(failures)


def _opt_block(registry_dict: dict) -> dict:
    """The ``opt`` payload of ``repro report --json``: SSA mid-end
    activity, analysis-cache effectiveness, and per-pass wall time and
    instruction deletions (all zero when compiles were cache hits)."""
    from .ir.passes import ssa_enabled
    counters = registry_dict.get("counters", {})
    histograms = registry_dict.get("histograms", {})
    prefix = "opt.pass_seconds."
    passes = {}
    for name, hist in histograms.items():
        if not name.startswith(prefix):
            continue
        pass_name = name[len(prefix):]
        passes[pass_name] = {
            "runs": hist.get("count", 0),
            "seconds": hist.get("sum", 0.0),
            "mean_seconds": hist.get("mean", 0.0),
            "instrs_deleted": counters.get(f"opt.deleted.{pass_name}", 0),
        }
    return {
        "ssa": ssa_enabled(),
        "phis_placed": counters.get("opt.ssa.phis", 0),
        "parallel_copies": counters.get("opt.ssa.copies", 0),
        "instrs_deleted": counters.get("opt.instrs_deleted", 0),
        "analysis_cache": {
            "hits": counters.get("opt.analysis.hits", 0),
            "misses": counters.get("opt.analysis.misses", 0),
            "invalidations": counters.get("opt.analysis.invalidations", 0),
        },
        "ranges": _ranges_block(counters),
        "passes": passes,
    }


def _ranges_block(counters: dict) -> dict:
    """Interval-analysis activity and safety-check elision counts (the
    §6.4 knob): solver work from the `ranges` pass and how many
    stack/indirect-call checks the eliding targets dropped."""
    from .ir.passes import ranges_enabled
    from .ir.verify import check_ranges_enabled
    return {
        "enabled": ranges_enabled(),
        "check_ranges": check_ranges_enabled(),
        "analysis_runs": counters.get("opt.ranges.analysis_runs", 0),
        "solver_iterations":
            counters.get("opt.ranges.solver_iterations", 0),
        "comparisons_folded": counters.get("opt.ranges.folded", 0),
        "branches_decided":
            counters.get("opt.ranges.branches_decided", 0),
        "annotated_defs": counters.get("opt.ranges.annotated_defs", 0),
        "stack_checks": {
            "total": counters.get("codegen.checks.stack_total", 0),
            "elided": counters.get("codegen.checks.stack_elided", 0),
        },
        "indirect_checks": {
            "total": counters.get("codegen.checks.indirect_total", 0),
            "elided": counters.get("codegen.checks.indirect_elided", 0),
        },
    }


def _serve_block(registry_dict: dict) -> dict:
    """The ``serve`` payload of ``repro report --json``: admission,
    shedding, breaker, eviction, and queue-wait counters from the
    metrics registry (all zero outside a serving process)."""
    counters = registry_dict.get("counters", {})
    histograms = registry_dict.get("histograms", {})
    queue_wait = histograms.get("serve.queue_wait_seconds", {})
    return {
        "submitted": counters.get("serve.submitted", 0),
        "accepted": counters.get("serve.accepted", 0),
        "done": counters.get("serve.done", 0),
        "failed": counters.get("serve.failed", 0),
        "sheds": counters.get("serve.shed", 0),
        "rejections": {
            "overloaded": counters.get("serve.rejected.overloaded", 0),
            "rate_limited": counters.get("serve.rejected.rate_limited", 0),
            "circuit_open": counters.get("serve.rejected.circuit_open", 0),
            "draining": counters.get("serve.rejected.draining", 0),
        },
        "breaker_trips": counters.get("serve.breaker_trips", 0),
        "evictions": counters.get("serve.evictions", 0),
        "memo_hits": counters.get("serve.memo_hits", 0),
        "worker_respawns": counters.get("serve.worker_respawns", 0),
        "queue_wait": {
            "p50": queue_wait.get("p50", 0.0),
            "p95": queue_wait.get("p95", 0.0),
            "p99": queue_wait.get("p99", 0.0),
        },
    }


def cmd_serve(args) -> int:
    """``repro serve``: the long-running benchmark service."""
    import threading

    from .obs import enable_metrics
    from .serve import BenchService, ServeConfig, make_server
    from .serve.drain import DrainController, run_until_drained

    enable_metrics()
    if args.no_cache:
        from .harness import compilecache
        compilecache.set_enabled(False)
    plan = _parse_inject(args)
    config = ServeConfig(
        workers=args.workers, queue_depth=args.queue_depth,
        max_wait=args.max_wait, max_age=args.max_age, rate=args.rate,
        burst=args.burst, breaker_threshold=args.breaker_threshold,
        breaker_reset=args.breaker_reset, retries=args.retries,
        timeout=args.timeout, runs=args.runs, grace=args.grace)
    service = BenchService(config, plan=plan)
    httpd = make_server(service, args.host, args.port,
                        quiet=not args.verbose)
    port = httpd.server_address[1]
    print(f"repro serve listening on http://{args.host}:{port} "
          f"({config.workers} workers, queue depth "
          f"{config.queue_depth})", flush=True)
    drainer = DrainController()
    drainer.install()
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        summary = run_until_drained(service, httpd, drainer)
    finally:
        drainer.restore()
    thread.join(2.0)
    print(f"repro serve: drained ({summary['reason']}); "
          f"jobs {json.dumps(summary['jobs'], sort_keys=True)}; "
          f"{summary['orphan_workers']} orphan workers", flush=True)
    _print_observability_summary()
    if summary["non_terminal"]:
        print(f"repro serve: {len(summary['non_terminal'])} jobs left "
              f"non-terminal: {summary['non_terminal']}", file=sys.stderr)
        return 1
    return 0


def cmd_trace(args) -> int:
    from .obs import trace as obs_trace

    tracer = obs_trace.enable()
    exit_code = 0
    try:
        if os.path.exists(args.program):
            source = open(args.program).read()
            program = _compile_target(source, args.target)
            result = _execute(program, args.target,
                              _stage_files(args.file))
            exit_code = result.exit_code
        else:
            spec = _resolve_spec(args.program, args.size)
            if spec is None:
                return _unknown_benchmark(args.program)
            from .harness.runner import compile_benchmark, run_compiled
            # cache=False: a cache hit would skip the compile phases the
            # trace exists to show.
            compiled = compile_benchmark(spec, (args.target,),
                                         cache=False)
            result = run_compiled(compiled, args.target, runs=1)
            exit_code = result.run.exit_code
    finally:
        obs_trace.disable()
    tracer.write(args.output)
    phases = tracer.phases()
    print(f"wrote {args.output}: {len(tracer.events)} spans, "
          f"{len(phases)} phases, {tracer.total_seconds():.3f}s wall",
          file=sys.stderr)
    print("phases:", " ".join(phases), file=sys.stderr)
    return exit_code


def cmd_profile(args) -> int:
    from .analysis import render_table
    from .harness import compilecache
    from .obs.profile import profile_benchmark

    if args.no_cache:
        compilecache.set_enabled(False)
    spec = _resolve_spec(args.benchmark, args.size)
    if spec is None:
        return _unknown_benchmark(args.benchmark)
    comparison = profile_benchmark(spec, target=args.target)
    print(comparison.render_table())
    print()
    print(comparison.render_events())
    hot = comparison.target_profile.hot_opcodes(8)
    if hot:
        print()
        print(render_table(
            ["x86 opcode", "instrs retired"],
            [[op, count] for op, count in hot],
            f"{spec.name}@{args.target}: hottest opcodes"))
    if args.annotate:
        print()
        print(comparison.annotate())
    if args.json:
        def row(counters):
            return None if counters is None else dict(
                counters.as_dict(), icache_misses=counters.icache_misses)
        rows = {name: {"native": row(native), args.target: row(target)}
                for name, native, target in comparison.function_rows()}
        payload = {
            "benchmark": spec.name,
            "target": args.target,
            "functions": rows,
            "events": {event: {"native":
                               comparison.native_run.event(event),
                               args.target:
                               comparison.target_run.event(event)}
                       for event, _raw, _s in EVENT_TABLE},
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"wrote {args.json}", file=sys.stderr)
    return 0


def cmd_stat(args) -> int:
    """``repro stat``: the perf-stat view of one (benchmark, target)."""
    from .harness import compilecache
    from .harness.runner import compile_benchmark, run_compiled
    from .obs.hwc import HwcModel, STAT_EVENTS, hwc_cycles
    from .x86.perf import CLOCK_HZ

    if args.no_cache:
        compilecache.set_enabled(False)
    spec = _resolve_spec(args.benchmark, args.size)
    if spec is None:
        return _unknown_benchmark(args.benchmark)
    model = HwcModel.from_env(sample_every=args.sample)
    compiled = compile_benchmark(spec, (args.target,))
    result = run_compiled(compiled, args.target, runs=1, hwc=model)
    run = result.run
    totals = run.hwc.totals
    cycles = hwc_cycles(run.perf, totals)
    if args.json:
        payload = {
            "benchmark": spec.name,
            "target": args.target,
            "events": {label: read(run) for label, read in STAT_EVENTS},
            "hwc_cycles": cycles,
            "ipc": run.perf.instructions / cycles if cycles else 0.0,
            "seconds": cycles / CLOCK_HZ,
            "hwc": run.hwc.as_dict(),
        }
        print(json.dumps(_jsonify(payload), indent=2))
        return run.exit_code
    print(f" Performance counter stats for "
          f"'{spec.name}@{args.target}' ({args.size}):\n")
    notes = {
        "branch-misses": lambda: _pct(totals.branch_misses,
                                      run.perf.branches, "of all branches"),
        "btb-misses": lambda: _pct(totals.btb_misses,
                                   totals.indirect_branches,
                                   "of indirect branches"),
        "L1-icache-load-misses": lambda: _pct(run.icache_misses,
                                              run.icache_accesses,
                                              "of all icache accesses"),
        "L1-dcache-load-misses": lambda: _pct(totals.dcache_misses,
                                              totals.dcache_accesses,
                                              "of all dcache accesses"),
        "spill-loads": lambda: _pct(totals.spill_loads, run.perf.loads,
                                    "of all loads"),
        "spill-stores": lambda: _pct(totals.spill_stores, run.perf.stores,
                                     "of all stores"),
    }
    for label, read in STAT_EVENTS:
        note = notes.get(label)
        note = f"   # {note()}" if note else ""
        print(f"    {read(run):>15,}   {label}{note}")
    ipc = run.perf.instructions / cycles if cycles else 0.0
    print(f"    {cycles:>15,.0f}   cpu-cycles (hwc model)"
          f"   # {ipc:.2f} insn per cycle")
    if run.hwc.samples:
        print(f"\n samples (every {model.sample_every} retired):")
        ranked = sorted(run.hwc.samples.items(), key=lambda kv: -kv[1])
        for name, count in ranked:
            print(f"    {count:>15,}   {name}")
    print(f"\n    {cycles / CLOCK_HZ:.6f} seconds time elapsed "
          f"(simulated)")
    return run.exit_code


def _pct(part: int, whole: int, label: str) -> str:
    return f"{100.0 * part / whole:.2f}% {label}" if whole else "-"


def cmd_explain(args) -> int:
    """``repro explain``: attribute the wasm-vs-native gap to event
    classes and functions (the Figure 6-8 / Table 4 analog)."""
    from .harness import compilecache
    from .obs.hwc import explain_benchmark

    if args.no_cache:
        compilecache.set_enabled(False)
    spec = _resolve_spec(args.benchmark, args.size)
    if spec is None:
        return _unknown_benchmark(args.benchmark)
    explanation = explain_benchmark(spec, target=args.target)
    print(explanation.render(limit=args.functions))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(_jsonify(explanation.as_dict()), fh, indent=2)
        print(f"wrote {args.json}", file=sys.stderr)
    return 0


def cmd_lint(args) -> int:
    from .mcc.lint import format_findings, lint_file

    findings = []
    for path in args.files:
        findings.extend(lint_file(path))
    if args.json:
        print(json.dumps([f.as_dict() for f in findings], indent=2))
    else:
        print(format_findings(findings))
    return 1 if any(f.severity == "error" for f in findings) else 0


def _add_verify_arg(p) -> None:
    p.add_argument("--verify-ir", action="store_true",
                   help="verify IR invariants between every optimization "
                        "pass and check register allocations (pass-blame "
                        "diagnostics on failure)")
    p.add_argument("--check-ranges", action="store_true",
                   help="runtime soundness oracle for the interval "
                        "analysis: assert every observed def value lies "
                        "inside its statically proved interval (x86 "
                        "machine and wasm interpreter); failures blame "
                        "the ranges pass")


def _add_tier_arg(p) -> None:
    p.add_argument("--tier", choices=TIERS, default=None,
                   help="x86 simulator tier: off runs the "
                        "per-instruction reference loop, fuse runs "
                        "straight-line blocks as closures (default "
                        f"{DEFAULT_TIER}); results are bit-identical "
                        "at both")


def _add_shards_arg(p) -> None:
    p.add_argument("--shards", type=int, default=None, metavar="N",
                   help="partition the --jobs workers into N "
                        "work-stealing warm pools (default: auto from "
                        "the worker count; 1 = a single pool); results "
                        "are bit-identical to serial at any shard count")


def _add_resilience_args(p) -> None:
    """The fault-injection / fault-tolerance knobs (bench + report)."""
    p.add_argument("--inject", metavar="SPEC",
                   help="fault-injection mix 'point:rate,...' — points: "
                        "trap, fuel, syscall, cache, worker "
                        "(e.g. 'trap:0.05,syscall:0.1'); implies "
                        "--tolerant")
    p.add_argument("--inject-seed", type=int, default=0, metavar="N",
                   help="seed for the deterministic fault injector "
                        "(default: 0)")
    p.add_argument("--tolerant", action="store_true",
                   help="never abort the sweep: failed cells become "
                        "ERROR/TIMEOUT rows and exit code 3 marks a "
                        "partial result")
    p.add_argument("--retries", type=int, default=2, metavar="N",
                   help="retries per cell for transient failures and "
                        "worker crashes (default: 2)")
    p.add_argument("--timeout", type=float, default=None, metavar="SEC",
                   help="per-cell wall-clock deadline in seconds; "
                        "implies --tolerant")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction toolchain for 'Not So Fast' "
                    "(USENIX ATC 2019)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="compile and run a program")
    p.add_argument("program")
    p.add_argument("--target", choices=TARGETS, default="native")
    p.add_argument("--file", action="append",
                   help="stage a file into the kernel filesystem")
    p.add_argument("--stats", action="store_true")
    p.add_argument("--hwc", action="store_true",
                   help="attach the microarchitectural event model and "
                        "append its counters to the --stats table "
                        "(implies --stats; default output unchanged)")
    _add_tier_arg(p)
    _add_verify_arg(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compare", help="run a program on every pipeline")
    p.add_argument("program")
    p.add_argument("--file", action="append")
    _add_tier_arg(p)
    _add_verify_arg(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("disasm", help="dump generated x86")
    p.add_argument("program")
    p.add_argument("--target", choices=TARGETS, default="native")
    p.add_argument("--function", action="append")
    p.set_defaults(func=cmd_disasm)

    p = sub.add_parser("wat", help="dump the WebAssembly text format")
    p.add_argument("program")
    p.set_defaults(func=cmd_wat)

    p = sub.add_parser("lint", help="static analysis for mcc source "
                                    "(uninitialized use, dead stores, "
                                    "unreachable code, ...)")
    p.add_argument("files", nargs="+", metavar="FILE.mc")
    p.add_argument("--json", action="store_true",
                   help="print findings as JSON on stdout")
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser("bench", help="run one suite benchmark")
    p.add_argument("benchmark")
    p.add_argument("--size", choices=("test", "ref"), default="test")
    p.add_argument("--runs", type=int, default=3)
    p.add_argument("--target", action="append", choices=TARGETS)
    p.add_argument("--jobs", type=int, default=None, metavar="N",
                   help="worker processes for (benchmark, target) cells "
                        "(default: cpu count, capped at 8; 1 = serial)")
    _add_shards_arg(p)
    p.add_argument("--no-cache", action="store_true",
                   help="bypass the on-disk compile cache")
    p.add_argument("--stats", action="store_true",
                   help="collect and print harness metrics")
    _add_resilience_args(p)
    _add_tier_arg(p)
    _add_verify_arg(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser(
        "serve",
        help="run the benchmark service (JSON-RPC over HTTP) with "
             "admission control, rate limiting, circuit breakers, "
             "result memoization, and graceful drain on SIGTERM/^C")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8923,
                   help="listen port (0 = ephemeral; the chosen port "
                        "is printed on startup)")
    p.add_argument("--workers", type=int, default=None, metavar="N",
                   help="warm worker processes (default: "
                        "REPRO_SERVE_WORKERS or cpu count, capped at 4)")
    p.add_argument("--queue-depth", type=int, default=None, metavar="N",
                   help="pending-pool bound; beyond it submissions are "
                        "shed or preempt lower-priority work (default: "
                        "REPRO_SERVE_QUEUE_DEPTH or 64)")
    p.add_argument("--max-wait", type=float, default=None, metavar="SEC",
                   help="shed submissions once the estimated queue wait "
                        "exceeds this (default: REPRO_SERVE_MAX_WAIT or "
                        "30; 0 disables)")
    p.add_argument("--max-age", type=float, default=None, metavar="SEC",
                   help="evict queued low-priority (< 0) jobs older "
                        "than this (default: REPRO_SERVE_MAX_AGE or 60)")
    p.add_argument("--rate", type=float, default=None, metavar="R",
                   help="per-client token-bucket refill rate, jobs/sec "
                        "(default: REPRO_SERVE_RATE or 50; 0 disables)")
    p.add_argument("--burst", type=float, default=None, metavar="B",
                   help="per-client token-bucket burst capacity "
                        "(default: REPRO_SERVE_BURST or 20)")
    p.add_argument("--breaker-threshold", type=int, default=None,
                   metavar="N",
                   help="consecutive permanent failures that trip a "
                        "(benchmark, target, tier) circuit breaker "
                        "(default: REPRO_SERVE_BREAKER_THRESHOLD or 3)")
    p.add_argument("--breaker-reset", type=float, default=None,
                   metavar="SEC",
                   help="seconds an open breaker waits before letting "
                        "one half-open probe through (default: "
                        "REPRO_SERVE_BREAKER_RESET or 15)")
    p.add_argument("--retries", type=int, default=2, metavar="N",
                   help="retries per job for transient failures and "
                        "worker crashes (default: 2)")
    p.add_argument("--timeout", type=float, default=None, metavar="SEC",
                   help="per-job wall-clock deadline fed to the cell "
                        "watchdogs (job deadline_s tightens it further)")
    p.add_argument("--runs", type=int, default=3,
                   help="default measurement runs per job (default: 3)")
    p.add_argument("--grace", type=float, default=30.0, metavar="SEC",
                   help="drain grace period for in-flight jobs on "
                        "SIGTERM/^C (default: 30)")
    p.add_argument("--no-cache", action="store_true",
                   help="bypass the on-disk compile cache")
    p.add_argument("--verbose", action="store_true",
                   help="log every HTTP request to stderr")
    p.add_argument("--inject", metavar="SPEC",
                   help="chaos mode: fault-injection mix 'point:rate,"
                        "...' applied to every job (points: trap, fuel, "
                        "syscall, cache, worker)")
    p.add_argument("--inject-seed", type=int, default=0, metavar="N",
                   help="seed for the deterministic fault injector "
                        "(default: 0)")
    _add_tier_arg(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("report", help="regenerate a paper table/figure")
    p.add_argument("artifact")
    p.add_argument("--size", choices=("test", "ref"), default="test")
    p.add_argument("--runs", type=int, default=2)
    p.add_argument("--jobs", type=int, default=None, metavar="N",
                   help="worker processes for suite sweeps "
                        "(default: cpu count, capped at 8; 1 = serial)")
    _add_shards_arg(p)
    p.add_argument("--no-cache", action="store_true",
                   help="bypass the on-disk compile cache")
    p.add_argument("--stats", action="store_true",
                   help="collect and print harness metrics")
    p.add_argument("--json", metavar="PATH",
                   help="also write the artifact data + metrics as JSON")
    p.add_argument("--hwc", action="store_true",
                   help="attach the microarchitectural event model to "
                        "every cell and include an hwc block in --json")
    _add_resilience_args(p)
    _add_tier_arg(p)
    _add_verify_arg(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser(
        "trace", help="trace the pipeline as Chrome trace-event JSON")
    p.add_argument("program",
                   help="an mcc source file or a benchmark name")
    p.add_argument("--target", choices=TARGETS, default="chrome")
    p.add_argument("--size", choices=("test", "ref"), default="test")
    p.add_argument("--file", action="append",
                   help="stage a file into the kernel filesystem")
    p.add_argument("-o", "--output", default="trace.json",
                   help="output path (load via chrome://tracing)")
    _add_tier_arg(p)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "stat",
        help="perf-stat-style counter table for one benchmark "
             "(retired + microarchitectural hwc events)")
    p.add_argument("benchmark")
    p.add_argument("--target", choices=TARGETS, default="chrome")
    p.add_argument("--size", choices=("test", "ref"), default="test")
    p.add_argument("--sample", type=int, default=None, metavar="N",
                   help="event-based sampling: record one sample per N "
                        "retired instructions (default: REPRO_HWC_SAMPLE "
                        "or off)")
    p.add_argument("--json", action="store_true",
                   help="print the counters as JSON on stdout")
    p.add_argument("--no-cache", action="store_true",
                   help="bypass the on-disk compile cache")
    p.set_defaults(func=cmd_stat)

    p = sub.add_parser(
        "explain",
        help="decompose the wasm-vs-native gap per event class and per "
             "function (Figs. 6-8 / Table 4 analog)")
    p.add_argument("benchmark")
    p.add_argument("--target",
                   choices=[t for t in TARGETS if t != "native"],
                   default="chrome")
    p.add_argument("--size", choices=("test", "ref"), default="test")
    p.add_argument("--functions", type=int, default=10, metavar="N",
                   help="rows in the per-function table (default: 10)")
    p.add_argument("--json", metavar="PATH",
                   help="also write the decomposition as JSON")
    p.add_argument("--no-cache", action="store_true",
                   help="bypass the on-disk compile cache")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser(
        "profile",
        help="per-function native-vs-wasm counter attribution")
    p.add_argument("benchmark")
    p.add_argument("--target",
                   choices=[t for t in TARGETS if t != "native"],
                   default="chrome")
    p.add_argument("--size", choices=("test", "ref"), default="test")
    p.add_argument("--annotate", action="store_true",
                   help="render the source with per-function deltas")
    p.add_argument("--json", metavar="PATH",
                   help="also write the attribution as JSON")
    p.add_argument("--no-cache", action="store_true",
                   help="bypass the on-disk compile cache")
    p.set_defaults(func=cmd_profile)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    tier = getattr(args, "tier", None)
    if tier is not None:
        from .tier import set_tier
        set_tier(tier)
    if getattr(args, "verify_ir", False):
        from .ir.verify import set_verify_ir
        set_verify_ir(True)
    if getattr(args, "check_ranges", False):
        from .ir.verify import set_check_ranges
        set_check_ranges(True)
    try:
        return args.func(args)
    except KeyboardInterrupt:
        print("\ninterrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
