"""Optimizer pass tests: specific transformations + semantics preservation."""

import pytest

from conftest import GuestHost, run_ir

from repro.ir import (
    BinOp, CondBr, Const, IRInterpreter, Jump, Move, Return, Type,
    verify_module,
)
from repro.ir.loops import dominators, loop_depths, natural_loops
from repro.ir.passes import (
    collapse_defs, eliminate_dead_code, fold_constants, hoist_invariants,
    inline_calls, localize_temps, optimize_module, propagate_copies,
    rotate_loops, simplify_cfg, unroll_loops, unroll_module,
)
from repro.mcc import compile_source

FIB = """
int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
int main(void) { print_i32(fib(15)); return 0; }
"""

LOOPY = """
int data[50];
int main(void) {
    int i; int j;
    for (i = 0; i < 50; i++) { data[i] = i * 3; }
    int sum = 0;
    for (i = 0; i < 10; i++)
        for (j = 0; j < 50; j++)
            sum += data[j] * (i + 1);
    print_i32(sum);
    return 0;
}
"""

PROGRAMS = [FIB, LOOPY]


def _run(module):
    host = GuestHost(module.heap_base)
    rc = IRInterpreter(module, host).run("main")
    return rc, bytes(host.output)


def _reference(source):
    return _run(compile_source(source, "ref"))


@pytest.mark.parametrize("source", PROGRAMS)
@pytest.mark.parametrize("level,unroll", [(1, False), (2, False), (2, True)])
def test_optimize_module_preserves_semantics(source, level, unroll):
    expected = _reference(source)
    module = compile_source(source, "opt")
    optimize_module(module, level=level)
    if unroll:
        unroll_module(module)
    verify_module(module)
    assert _run(module) == expected


def test_constant_folding_folds_arithmetic():
    module = compile_source(
        "int main(void) { return 2 * 3 + 4; }", "t")
    func = module.functions["main"]
    for _ in range(3):  # fold/propagate to a fixpoint
        fold_constants(func)
        propagate_copies(func)
    # After folding, main should return a constant 10.
    rets = [b.term for b in func.blocks.values()
            if isinstance(b.term, Return)]
    assert any(isinstance(r.value, Const) and r.value.value == 10
               for r in rets)


def test_constant_folding_resolves_constant_branches():
    module = compile_source(
        "int main(void) { if (1 < 2) { return 7; } return 8; }", "t")
    func = module.functions["main"]
    fold_constants(func)
    propagate_copies(func)
    fold_constants(func)
    terms = [b.term for b in func.blocks.values()]
    assert not any(isinstance(t, CondBr) for t in terms)


def test_dce_removes_unused_pure_code():
    module = compile_source("""
int main(void) {
    int unused = 5 * 7;
    int also_unused = unused + 2;
    return 3;
}
""", "t")
    func = module.functions["main"]
    propagate_copies(func)
    eliminate_dead_code(func)
    assert all(not isinstance(i, BinOp) for b in func.blocks.values()
               for i in b.instrs)


def test_dce_keeps_calls():
    module = compile_source("""
int g = 0;
int bump(void) { g++; return g; }
int main(void) { bump(); print_i32(g); return 0; }
""", "t")
    expected = _reference("""
int g = 0;
int bump(void) { g++; return g; }
int main(void) { bump(); print_i32(g); return 0; }
""")
    for func in module.functions.values():
        eliminate_dead_code(func)
    assert _run(module) == expected


def test_inline_small_function():
    source = """
int sq(int x) { return x * x; }
int main(void) { print_i32(sq(6) + sq(2)); return 0; }
"""
    expected = _reference(source)
    module = compile_source(source, "t")
    count = inline_calls(module, threshold=20)
    assert count >= 2
    from repro.ir.instructions import Call
    main = module.functions["main"]
    callees = [i.callee for b in main.blocks.values() for i in b.instrs
               if isinstance(i, Call)]
    assert "sq" not in callees
    verify_module(module)
    assert _run(module) == expected


def test_inline_skips_recursive():
    module = compile_source(FIB, "t")
    inline_calls(module, threshold=1000)
    from repro.ir.instructions import Call
    fib = module.functions["fib"]
    callees = [i.callee for b in fib.blocks.values() for i in b.instrs
               if isinstance(i, Call)]
    assert "fib" in callees


def test_rotation_reduces_loop_branches():
    source = """
int main(void) {
    int i; int s = 0;
    for (i = 0; i < 100; i++) { s += i; }
    print_i32(s);
    return 0;
}
"""
    expected = _reference(source)
    module = compile_source(source, "t")
    func = module.functions["main"]
    rotated = rotate_loops(func)
    assert rotated >= 1
    simplify_cfg(func)
    verify_module(module)
    assert _run(module) == expected


def test_unroll_duplicates_loop_and_preserves_behaviour():
    expected = _reference(LOOPY)
    module = compile_source(LOOPY, "t")
    optimize_module(module, level=2)
    before = module.instruction_count()
    for func in module.functions.values():
        if unroll_loops(func, factor=4):
            localize_temps(func)
        simplify_cfg(func)
    verify_module(module)
    assert module.instruction_count() > before
    assert _run(module) == expected


def test_licm_hoists_invariant_computation():
    source = """
int main(void) {
    int i; int s = 0;
    int a = 17; int b = 4;
    for (i = 0; i < 10; i++) {
        s += a * b + i;
    }
    print_i32(s);
    return 0;
}
"""
    expected = _reference(source)
    module = compile_source(source, "t")
    func = module.functions["main"]
    fold_constants(func)
    propagate_copies(func)
    collapse_defs(func)
    moved = hoist_invariants(func)
    verify_module(module)
    assert _run(module) == expected
    # a*b is constant-foldable here, so LICM may or may not find work;
    # the key property is preservation.  Use a non-foldable variant too:
    source2 = source.replace("int a = 17;", "int a = fetch();") \
        .replace("int main", "int fetch(void) { return 17; }\nint main")
    expected2 = _reference(source2)
    module2 = compile_source(source2, "t")
    func2 = module2.functions["main"]
    propagate_copies(func2)
    collapse_defs(func2)
    moved2 = hoist_invariants(func2)
    assert moved2 >= 1
    verify_module(module2)
    assert _run(module2) == expected2


def test_licm_does_not_hoist_loop_varying():
    # Regression for the def-blocks bug: a loop-carried variable must not
    # be treated as invariant.
    source = """
int main(void) {
    int i; int s = 0;
    for (i = 0; i < 5; i++) { s += i * 4; }
    print_i32(s);
    return 0;
}
"""
    expected = _reference(source)
    module = compile_source(source, "t")
    optimize_module(module, level=2)
    verify_module(module)
    assert _run(module) == expected


def test_simplifycfg_removes_unreachable_blocks():
    module = compile_source("""
int main(void) {
    return 1;
    print_i32(99);
    return 2;
}
""", "t")
    func = module.functions["main"]
    simplify_cfg(func)
    assert len(func.blocks) == len(func.reachable_blocks())


def test_collapse_defs_removes_move():
    module = compile_source(
        "int main(void) { int a = 3 + 4; int b = a; return b; }", "t")
    func = module.functions["main"]
    before = func.instruction_count()
    propagate_copies(func)
    collapse_defs(func)
    eliminate_dead_code(func)
    assert func.instruction_count() < before


def test_natural_loop_detection():
    module = compile_source(LOOPY, "t")
    func = module.functions["main"]
    loops = natural_loops(func)
    assert len(loops) == 3  # init loop + two nested sum loops
    depths = loop_depths(func)
    assert max(depths.values()) == 2


def test_dominators_entry_dominates_all():
    module = compile_source(LOOPY, "t")
    func = module.functions["main"]
    dom = dominators(func)
    for label, doms in dom.items():
        assert func.entry in doms
