"""CLI tests (`python -m repro ...`)."""

import json

import pytest

from repro.cli import main

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
