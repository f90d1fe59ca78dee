"""Register allocator tests: liveness, linear scan, graph coloring."""

from repro.dataflow import liveness
from repro.ir.passes import optimize_module
from repro.mcc import compile_source
from repro.regalloc.graph_coloring import graph_coloring
from repro.regalloc.linear_scan import linear_scan
from repro.regalloc.liveness import LivenessInfo

HIGH_PRESSURE = """
int spin(int a, int b) {
    int c = a + b;
    int d = a - b;
    int e = a * b;
    int f = c + d;
    int g = d + e;
    int h = e + c;
    int i = f * g;
    int j = g * h;
    int k = h * f;
    int l = i + j + k;
    return a + b + c + d + e + f + g + h + i + j + k + l;
}
int main(void) { return spin(3, 4); }
"""

WITH_CALLS = """
int leaf(int x);
int work(int a, int b) {
    int keep = a * 31 + b;
    int r1 = leaf(a);
    int r2 = leaf(b);
    return keep + r1 + r2;
}
// Too large to inline, so the calls in work() survive optimization.
int leaf(int x) {
    int acc = 17;
    int i;
    for (i = 0; i < 8; i++) {
        acc = acc * x + i;
        acc ^= acc >> 2;
        acc += (x + i) * (x - i);
        acc = acc % 100003;
        acc = (acc << 1) ^ (acc >> 3);
        acc += x * 7 - i * 5;
        acc &= 0x7fffffff;
    }
    return acc;
}
int main(void) { return work(2, 3); }
"""

LOOP = """
int main(void) {
    int i; int sum = 0;
    for (i = 0; i < 10; i++) { sum += i * i; }
    return sum;
}
"""


def _info(source, fname):
    module = compile_source(source, "t")
    optimize_module(module, level=2)
    return LivenessInfo(module.functions[fname])


def _check_assignment_consistency(info, assignment, pool):
    """No two simultaneously-live vregs share a register."""
    intervals = info.intervals
    assigned = [(vid, reg) for vid, reg in assignment.regs.items()]
    for i, (va, ra) in enumerate(assigned):
        for vb, rb in assigned[i + 1:]:
            if ra != rb:
                continue
            ia, ib = intervals[va], intervals[vb]
            if ia.ty.is_float != ib.ty.is_float:
                continue
            assert not ia.overlaps(ib), \
                f"v{va} and v{vb} share {ra} while live together"
    for reg in assignment.regs.values():
        assert reg in pool


def test_block_liveness_loop_variable_is_live_in_header():
    module = compile_source(LOOP, "t")
    func = module.functions["main"]
    live_in, live_out = liveness(func)
    # At least one block (the loop header) has live-in registers carrying
    # i and sum around the loop.
    assert any(len(s) >= 2 for s in live_in.values())


def test_intervals_cover_uses():
    info = _info(HIGH_PRESSURE, "spin")
    for iv in info.intervals.values():
        assert iv.start is not None
        for pos in iv.use_positions:
            assert iv.start <= pos <= iv.end


def test_call_crossing_detected():
    info = _info(WITH_CALLS, "work")
    assert info.call_positions
    assert any(iv.crosses_call for iv in info.intervals.values())


def test_linear_scan_no_overlapping_assignments():
    info = _info(HIGH_PRESSURE, "spin")
    pool = [1, 2, 3, 6, 7]
    assignment = linear_scan(info, pool, [16, 17])
    _check_assignment_consistency(info, assignment, pool + [16, 17])


def test_linear_scan_spills_under_pressure():
    info = _info(HIGH_PRESSURE, "spin")
    tight = linear_scan(info, [1, 2, 3], [16])
    roomy = linear_scan(info, list(range(1, 12)), [16])
    assert tight.spill_count() > roomy.spill_count()


def test_linear_scan_empty_callee_saved_spills_across_calls():
    info = _info(WITH_CALLS, "work")
    assignment = linear_scan(info, [1, 2, 3, 6, 7], [16], callee_saved=[])
    for vid, iv in info.intervals.items():
        if iv.crosses_call and not iv.ty.is_float:
            assert vid in assignment.spills, \
                "call-crossing value must be spilled without callee-saved"


def test_linear_scan_uses_callee_saved_across_calls():
    info = _info(WITH_CALLS, "work")
    assignment = linear_scan(info, [1, 2, 3, 6, 7], [16],
                             callee_saved=[6, 7])
    crossing_in_regs = [vid for vid, iv in info.intervals.items()
                        if iv.crosses_call and vid in assignment.regs]
    for vid in crossing_in_regs:
        assert assignment.regs[vid] in (6, 7)
    assert assignment.used_callee_saved <= {6, 7}


def test_graph_coloring_no_overlapping_assignments():
    info = _info(HIGH_PRESSURE, "spin")
    pool = [1, 2, 3, 6, 7]
    assignment = graph_coloring(info, pool, [16, 17])
    _check_assignment_consistency(info, assignment, pool + [16, 17])


def test_graph_coloring_spills_no_more_than_linear_scan():
    # The paper's §6.1.2 asymmetry: graph coloring makes better decisions
    # on the same liveness information.  Coalescing heuristics can cost a
    # slot on pathological inputs, so the property is checked in aggregate
    # over both test functions.
    total_lin = total_col = 0
    for source, fname in ((HIGH_PRESSURE, "spin"), (WITH_CALLS, "work")):
        info_a = _info(source, fname)
        info_b = _info(source, fname)
        pool = [1, 2, 3, 6]
        total_lin += linear_scan(info_a, pool, [16],
                                 callee_saved=[6]).spill_count()
        total_col += graph_coloring(info_b, pool, [16],
                                    callee_saved=[6]).spill_count()
    assert total_col <= total_lin


def test_graph_coloring_prefers_caller_saved_when_possible():
    info = _info(HIGH_PRESSURE, "spin")  # no calls
    assignment = graph_coloring(info, [1, 2, 3, 6, 7], [16],
                                callee_saved=[6, 7])
    # A call-free function should not need the callee-saved registers
    # unless pressure forces it; with 5 regs and heavy pressure some use
    # is allowed, but used_callee_saved must reflect actual assignments.
    for reg in assignment.used_callee_saved:
        assert reg in (6, 7)
        assert reg in assignment.regs.values()


def test_spill_slots_are_stable_per_vreg():
    info = _info(HIGH_PRESSURE, "spin")
    assignment = linear_scan(info, [1], [16])
    slots = list(assignment.spills.values())
    assert len(set(slots)) == len(slots)  # distinct slots per vreg
