"""CLI tests (`python -m repro ...`)."""

import json

import pytest

from repro.cli import main
from repro.harness import compilecache

PROGRAM = """
int main(void) {
    int i; int s = 0;
    for (i = 0; i < 12; i++) { s += i * i; }
    print_i32(s);
    return 0;
}
"""

IO_PROGRAM = """
char buf[32];
int main(void) {
    int fd = sys_open("words.txt", 0);
    int n = sys_read(fd, buf, 32);
    sys_close(fd);
    print_i32(n);
    return 0;
}
"""


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "prog.c"
    path.write_text(PROGRAM)
    return str(path)


def test_run_native(program_file, capsys):
    assert main(["run", program_file]) == 0
    assert capsys.readouterr().out == "506\n"


def test_run_with_stats(program_file, capsys):
    assert main(["run", program_file, "--target", "firefox",
                 "--stats"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "506\n"
    assert "instrs" in captured.err


def test_run_stages_files(tmp_path, capsys):
    prog = tmp_path / "io.c"
    prog.write_text(IO_PROGRAM)
    data = tmp_path / "words.txt"
    data.write_bytes(b"hello cli")
    assert main(["run", str(prog), "--file", str(data)]) == 0
    assert capsys.readouterr().out == "9\n"


def test_compare_all_pipelines(program_file, capsys):
    assert main(["compare", program_file]) == 0
    out = capsys.readouterr().out
    for target in ("native", "chrome", "firefox", "asmjs-chrome",
                   "asmjs-firefox"):
        assert target in out
    assert "identical" in out


def test_disasm(program_file, capsys):
    assert main(["disasm", program_file, "--function", "main"]) == 0
    out = capsys.readouterr().out
    assert "---- main (native) ----" in out
    assert "ret" in out


def test_wat(program_file, capsys):
    assert main(["wat", program_file]) == 0
    out = capsys.readouterr().out
    assert out.startswith("(module")
    # The dumped WAT parses back.
    from repro.wasm import parse_wat, validate_module
    validate_module(parse_wat(out))


def test_bench_known_benchmark(capsys):
    assert main(["bench", "durbin", "--size", "test", "--runs", "2"]) == 0
    out = capsys.readouterr().out
    assert "durbin" in out and "native" in out


def test_bench_unknown_benchmark(capsys):
    assert main(["bench", "nonesuch"]) == 2
    assert "unknown benchmark" in capsys.readouterr().err


def test_report_static_artifacts(capsys):
    assert main(["report", "table3"]) == 0
    assert "perf event" in capsys.readouterr().out


def test_report_unknown(capsys):
    assert main(["report", "fig99"]) == 2


def test_report_spec_figure_at_test_size(capsys):
    assert main(["report", "fig4", "--size", "test", "--runs", "1"]) == 0
    assert "Browsix" in capsys.readouterr().out


#: Two SPEC proxies for the pooled report test; 464.h264ref makes file
#: syscalls, so every kernel.syscall.* kind is exercised.
POOLED_REPORT_SUITE = ("445.gobmk", "464.h264ref")
REPORT_KEYS = ["schema", "artifact", "data", "text", "config", "metrics",
               "failures", "partial", "hwc"]


@pytest.fixture
def table1_json(tmp_path, monkeypatch, capsys):
    """``report table1 --size ref --json`` over
    :data:`POOLED_REPORT_SUITE`, each call on an empty compile cache and
    a fresh metrics registry of its own; returns ``(payload, stderr)``."""
    from repro import obs
    from repro.analysis import experiments
    from repro.benchsuite import spec_benchmark
    from repro.harness.parallel import shutdown_warm_pool

    monkeypatch.setenv("REPRO_FORCE_JOBS", "1")
    monkeypatch.setattr(compilecache, "_ENABLED", True)
    monkeypatch.setattr(experiments, "all_spec_benchmarks", lambda size: [
        spec_benchmark(name, size) for name in POOLED_REPORT_SUITE])

    def report(jobs):
        cache_dir = str(tmp_path / f"cache-{jobs}")
        # A new REPRO_CACHE_DIR also re-forks the pool over this cache.
        monkeypatch.setenv("REPRO_CACHE_DIR", cache_dir)
        monkeypatch.setattr(compilecache, "_GLOBAL",
                            compilecache.CompileCache(cache_dir))
        obs.disable_metrics()
        out = tmp_path / f"table1-{jobs}.json"
        assert main(["report", "table1", "--size", "ref", "--runs", "1",
                     "--jobs", str(jobs), "--json", str(out)]) == 0
        return json.loads(out.read_text()), capsys.readouterr().err

    yield report
    obs.disable_metrics()
    shutdown_warm_pool()


def test_pooled_report_json_counts_what_serial_counts(table1_json):
    """A pooled report's workers feed its one metrics ledger: the
    kernel counts behind Fig. 4 and the x86 blocks generated equal the
    serial run's, and the workers' compile-cache and mid-end counters
    reach the report and its stderr cache line."""
    serial, _ = table1_json(1)
    pooled, err = table1_json(2)
    assert (pooled["data"], pooled["text"]) == \
        (serial["data"], serial["text"])
    assert list(pooled) == list(serial) == REPORT_KEYS
    assert pooled["schema"] == 2
    assert pooled["config"] == serial["config"] == \
        dict(compilecache.compile_config())

    def kernel(report):
        return {name: value
                for name, value in report["metrics"]["counters"].items()
                if name.startswith("kernel.")}

    assert kernel(pooled) == kernel(serial)
    assert kernel(serial)["kernel.syscall.sys_open"] > 0
    generated = [report["metrics"]["counters"]["x86.blocks_generated"]
                 for report in (serial, pooled)]
    assert generated[0] == generated[1] > 0
    assert pooled["metrics"]["histograms"]["x86.codegen_seconds"]["count"] \
        == generated[1]

    def syscall_cycles(report):
        return report["metrics"]["histograms"]["kernel.syscall.cycles"]

    assert syscall_cycles(pooled)["count"] == \
        syscall_cycles(serial)["count"] > 0
    counters = pooled["metrics"]["counters"]
    for name in ("cache.misses", "cache.stores", "opt.instrs_deleted",
                 "analysis.verifier_runs"):
        assert counters.get(name, 0) > 0, name
    assert f"{counters['cache.misses']} misses, " \
           f"{counters['cache.stores']} stores" in err
    names = [name for section in pooled["metrics"].values()
             for name in section]
    assert not [name for name in names if name.startswith("shard.")]


def test_profile_json_rows_sum_to_the_events(tmp_path, capsys):
    """Every per-function row carries the columns the text table
    prints, i-cache misses included, and each column sums to its
    whole-program event."""
    out = tmp_path / "profile.json"
    assert main(["profile", "matmul", "--json", str(out)]) == 0
    capsys.readouterr()
    data = json.loads(out.read_text())
    events = {"instructions": "instructions-retired",
              "loads": "all-loads-retired",
              "stores": "all-stores-retired",
              "branches": "branches-retired",
              "icache_misses": "L1-icache-load-misses"}
    for build in ("native", data["target"]):
        rows = [row[build] for row in data["functions"].values()
                if row[build] is not None]
        for field, event in events.items():
            assert sum(row[field] for row in rows) == \
                data["events"][event][build], (build, field)


def test_stat_sample_must_be_positive(capsys):
    """``--sample N`` samples every N retired instructions, so N < 1 is
    a usage error, not a sample at every instruction."""
    for sample in ("-5", "0"):
        with pytest.raises(SystemExit) as exc:
            main(["stat", "matmul", "--sample", sample])
        assert exc.value.code == 2
        assert "--sample" in capsys.readouterr().err
