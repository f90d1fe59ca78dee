"""Dataflow framework tests: solver behaviour, canned analyses, and
identity against the older per-module implementations."""

from repro.benchsuite import (POLYBENCH_NAMES, SPEC_NAMES, matmul_spec,
                              polybench_benchmark, spec_benchmark)
from repro.dataflow import (VARYING, constness, definite_assignment,
                            dominators, liveness, reaching_definitions)
from repro.ir import (BinOp, CondBr, Const, FuncType, Function, Jump,
                      Move, Return, Type)
from repro.ir.loops import dominators as loops_dominators
from repro.ir.passes import optimize_module
from repro.mcc import compile_source


def _diamond():
    """entry -> (left | right) -> join; %t defined only on the left."""
    func = Function("f", FuncType([Type.I32], [Type.I32]))
    func.params.append(func.new_vreg(Type.I32, "p"))
    entry = func.new_block("entry")
    left = func.new_block("left")
    right = func.new_block("right")
    join = func.new_block("join")
    t = func.new_vreg(Type.I32, "t")
    entry.terminate(CondBr(func.params[0], left.label, right.label))
    left.append(Move(t, Const(1, Type.I32)))
    left.terminate(Jump(join.label))
    right.terminate(Jump(join.label))
    join.terminate(Return(t))
    return func, t


def _loop():
    """entry -> head <-> body, head -> exit; %i is a loop counter."""
    func = Function("g", FuncType([Type.I32], [Type.I32]))
    func.params.append(func.new_vreg(Type.I32, "n"))
    entry = func.new_block("entry")
    head = func.new_block("head")
    body = func.new_block("body")
    exit_ = func.new_block("exit")
    i = func.new_vreg(Type.I32, "i")
    cond = func.new_vreg(Type.I32, "c")
    entry.append(Move(i, Const(0, Type.I32)))
    entry.terminate(Jump(head.label))
    head.append(BinOp(cond, "lt_s", i, func.params[0]))
    head.terminate(CondBr(cond, body.label, exit_.label))
    body.append(BinOp(i, "add", i, Const(1, Type.I32)))
    body.terminate(Jump(head.label))
    exit_.terminate(Return(i))
    return func, i


def _all_benchmark_modules():
    for name in SPEC_NAMES:
        yield name, compile_source(spec_benchmark(name, "test").source, name)
    for name in POLYBENCH_NAMES:
        yield name, compile_source(
            polybench_benchmark(name, "test").source, name)
    yield "matmul", compile_source(matmul_spec().source, "matmul")


def _reference_liveness(func):
    """Naive chaotic-iteration liveness, deliberately independent of the
    worklist solver (different traversal order, mutable sets)."""
    use, defs = {}, {}
    for block in func.blocks.values():
        u, d = set(), set()
        for instr in block.all_instrs():
            for reg in instr.uses():
                if reg.id not in d:
                    u.add(reg.id)
            for reg in instr.defs():
                d.add(reg.id)
        use[block.label], defs[block.label] = u, d
    live_in = {label: set() for label in func.blocks}
    live_out = {label: set() for label in func.blocks}
    changed = True
    while changed:
        changed = False
        for label, block in func.blocks.items():
            out = set()
            for succ in block.successors():
                out |= live_in[succ]
            inn = use[label] | (out - defs[label])
            if out != live_out[label] or inn != live_in[label]:
                live_out[label], live_in[label] = out, inn
                changed = True
    return live_in, live_out


# -- solver / canned analyses on hand-built CFGs ---------------------------

def test_liveness_diamond():
    func, t = _diamond()
    live_in, live_out = liveness(func)
    p = func.params[0].id
    # %t is read in join before any write along the right path, so it is
    # (may-)live all the way up through right into the entry.
    assert live_in["entry0"] == {p, t.id}
    assert t.id in live_in["right2"]      # used in join, not defined here
    assert t.id not in live_in["left1"]   # defined before any use
    assert live_in["join3"] == {t.id}
    assert live_out["join3"] == set()


def test_liveness_loop_counter_live_around_backedge():
    func, i = _loop()
    live_in, live_out = liveness(func)
    assert i.id in live_in["head1"]
    assert i.id in live_out["body2"]


def test_definite_assignment_join_is_intersection():
    func, t = _diamond()
    assigned = definite_assignment(func)
    assert t.id not in assigned["join3"]       # only one path defines it
    assert func.params[0].id in assigned["join3"]


def test_reaching_definitions_sites():
    func, i = _loop()
    reaching = reaching_definitions(func)
    sites = {site for site in reaching["head1"] if site[0] == i.id}
    # Both the entry init and the body increment reach the loop head.
    assert {s[1] for s in sites} == {"entry0", "body2"}
    # Parameters reach as (id, None, -1).
    assert (func.params[0].id, None, -1) in reaching["head1"]


def test_dominators_diamond():
    func, _ = _diamond()
    dom = dominators(func)
    assert dom["join3"] == {"entry0", "join3"}
    assert dom["left1"] == {"entry0", "left1"}


def test_constness_merges_conflicting_values_to_varying():
    func = Function("h", FuncType([Type.I32], [Type.I32]))
    func.params.append(func.new_vreg(Type.I32, "p"))
    entry = func.new_block("entry")
    left = func.new_block("left")
    right = func.new_block("right")
    join = func.new_block("join")
    a = func.new_vreg(Type.I32, "a")
    b = func.new_vreg(Type.I32, "b")
    entry.append(Move(b, Const(7, Type.I32)))
    entry.terminate(CondBr(func.params[0], left.label, right.label))
    left.append(Move(a, Const(1, Type.I32)))
    left.terminate(Jump(join.label))
    right.append(Move(a, Const(2, Type.I32)))
    right.terminate(Jump(join.label))
    join.terminate(Return(a))
    facts = constness(func)
    assert facts["join3"][a.id] == VARYING       # 1 vs 2
    assert facts["join3"][b.id] == (7, Type.I32)  # same on both paths
    assert facts["join3"][func.params[0].id] == VARYING


def test_unreachable_blocks_keep_optimistic_facts():
    func, t = _diamond()
    dead = func.new_block("dead")
    dead.terminate(Return(Const(0, Type.I32)))
    assigned = definite_assignment(func)
    # Unreachable block keeps the optimistic "everything assigned" fact.
    assert t.id in assigned["dead4"]
    assert "dead4" not in dominators(func)


# -- identity against the existing implementations -------------------------

def test_dominators_match_loops_module_on_benchmarks():
    checked = 0
    for _, module in _all_benchmark_modules():
        for func in module.functions.values():
            assert dominators(func) == loops_dominators(func), func.name
            checked += 1
    assert checked > 500


def test_block_liveness_identity_on_full_benchmark_suite():
    """The dataflow framework's liveness, which the register allocators
    and ``localize_temps`` use, agrees with an independent reference
    implementation on every function of every benchmark, before and
    after optimization."""
    checked = 0
    for name, module in _all_benchmark_modules():
        optimize_module(module)
        for func in module.functions.values():
            got_in, got_out = liveness(func)
            want_in, want_out = _reference_liveness(func)
            assert got_in == want_in, f"{name}:{func.name} live-in"
            assert got_out == want_out, f"{name}:{func.name} live-out"
            checked += 1
    assert checked > 500
