"""SSA mid-end: construction/destruction round trips, the new
optimization passes (GVN, SCCP, strength reduction), and end-to-end
equivalence of the SSA pipeline across targets and tiers."""

import copy

import pytest

from repro.benchsuite import matmul_source, polybench_spec
from repro.ir.function import Function
from repro.ir.instructions import (
    BinOp, CondBr, Jump, Move, Phi, Return,
)
from repro.ir.interp import IRInterpreter
from repro.ir.passes import (
    PassBlameError, eliminate_dead_code, global_value_numbering,
    optimize_module, reduce_strength, run_ssa_midend,
    sparse_conditional_constant_propagation,
)
from repro.ir.ssa import construct_ssa, destruct_ssa, split_critical_edges
from repro.ir.types import FuncType, Type
from repro.ir.values import Const
from repro.ir.verify import VerifyError, set_verify_ir, verify_function
from repro.mcc import compile_source
from repro.tier import TIERS, set_tier

from conftest import GuestHost, run_engine, run_ir, run_native


def _interp(module, entry="main"):
    host = GuestHost(module.heap_base)
    value = IRInterpreter(module, host).run(entry)
    return value, bytes(host.output)


def _icount(module):
    return sum(f.instruction_count() for f in module.functions.values())


# -- round trip --------------------------------------------------------------------

ROUNDTRIP_KERNELS = ["gemm", "durbin", "cholesky", "mvt", "trisolv"]


@pytest.mark.parametrize("name", ROUNDTRIP_KERNELS)
def test_roundtrip_preserves_semantics(name):
    """construct -> destruct with no optimization in between is
    observation-identical to never entering SSA, and both forms verify."""
    spec = polybench_spec(name, "test")
    module = compile_source(spec.source, name)
    reference = _interp(copy.deepcopy(module))

    phis = 0
    for func in module.functions.values():
        phis += construct_ssa(func)
        verify_function(func, module)
        assert func.ssa
        destruct_ssa(func)
        verify_function(func, module)
        assert not func.ssa
    assert phis > 0, "kernels with loops must need phis"
    assert _interp(module) == reference


def test_ssa_pipeline_is_deterministic():
    """Two fresh compiles of the same source through the SSA pipeline
    produce structurally identical IR — the property the compile cache
    and bit-identical reports rest on."""
    def build():
        module = compile_source(matmul_source(6, 5, 4), "matmul")
        optimize_module(module, level=2, ssa=True)
        lines = []
        for name, func in module.functions.items():
            for block in func.block_order():
                lines.append(f"{name}/{block.label}:")
                lines.extend(repr(i) for i in block.all_instrs())
        return lines

    assert build() == build()


def test_trivial_phis_are_removed():
    """A phi whose incomings all carry the same value disappears during
    destruction instead of materializing copies."""
    from repro.ir.ssa import remove_trivial_phis

    func = Function("f", FuncType([Type.I32], [Type.I32]))
    p = func.new_vreg(Type.I32, "p")
    func.params.append(p)
    entry = func.new_block("entry")
    left = func.new_block("left")
    right = func.new_block("right")
    join = func.new_block("join")
    entry.terminate(CondBr(p, left.label, right.label))
    left.terminate(Jump(join.label))
    right.terminate(Jump(join.label))
    x = func.new_vreg(Type.I32, "x")
    join.instrs.append(Phi(x, {left.label: p, right.label: p}))
    join.terminate(Return(x))
    func.ssa = True
    assert remove_trivial_phis(func) == 1
    assert func.blocks[join.label].instrs == []
    assert func.blocks[join.label].term.value == p


def test_construct_places_phis_at_merges():
    module = compile_source(matmul_source(4, 4, 4), "matmul")
    func = module.functions["matmul"]
    construct_ssa(func)
    phis = [i for b in func.blocks.values() for i in b.instrs
            if isinstance(i, Phi)]
    assert phis, "matmul's loop nests need phis"
    preds = func.predecessors()
    for block in func.blocks.values():
        seen_nonphi = False
        for instr in block.instrs:
            if isinstance(instr, Phi):
                assert not seen_nonphi, "phis must form a block prefix"
                assert set(instr.incoming) == set(preds[block.label])
            else:
                seen_nonphi = True


def test_ssa_form_is_single_assignment():
    module = compile_source(matmul_source(4, 4, 4), "matmul")
    for func in module.functions.values():
        construct_ssa(func)
        seen = set()
        for block in func.blocks.values():
            for instr in block.all_instrs():
                for reg in instr.defs():
                    assert reg.id not in seen
                    seen.add(reg.id)


def test_split_critical_edges():
    """A CondBr into a multi-pred block is a critical edge; after
    splitting none remain."""
    func = Function("f", FuncType([Type.I32], [Type.I32]))
    func.params.append(func.new_vreg(Type.I32, "p"))
    entry = func.new_block("entry")
    side = func.new_block("side")
    join = func.new_block("join")
    entry.terminate(CondBr(func.params[0], side.label, join.label))
    side.terminate(Jump(join.label))
    join.terminate(Return(Const(0, Type.I32)))
    assert split_critical_edges(func) == 1
    preds = func.predecessors()
    for label, block in func.blocks.items():
        succs = block.successors()
        if len(set(succs)) > 1:
            for succ in succs:
                assert len(preds[succ]) == 1, \
                    f"critical edge {label}->{succ} survived"


def test_loc_survives_the_round_trip():
    """Source locations drive `repro lint`; renaming must not lose
    them.  Every non-synthetic loc present before SSA is still present
    after the round trip."""
    spec = polybench_spec("gemm", "test")
    module = compile_source(spec.source, "gemm")
    func = module.functions["main"]

    def locs(f):
        out = set()
        for block in f.blocks.values():
            for instr in block.all_instrs():
                loc = getattr(instr, "loc", None)
                if loc is not None and not getattr(instr, "synthetic",
                                                   False):
                    out.add(loc)
        return out

    before = locs(func)
    assert before, "frontend must annotate source lines"
    construct_ssa(func)
    destruct_ssa(func)
    assert locs(func) >= before


# -- the verifier's SSA mode -------------------------------------------------------

def test_verifier_rejects_double_assignment_in_ssa():
    module = compile_source(matmul_source(4, 4, 4), "matmul")
    func = module.functions["matmul"]
    construct_ssa(func)
    # Re-assign an already-defined register.
    block = func.blocks[func.entry]
    target = None
    for b in func.blocks.values():
        for instr in b.instrs:
            if instr.defs():
                target = instr.defs()[0]
                break
        if target:
            break
    block.instrs.append(Move(target, Const(0, target.ty)))
    with pytest.raises(VerifyError, match="second assignment|single"):
        verify_function(func, module)


def test_verifier_rejects_phi_outside_ssa():
    func = Function("f", FuncType([], [Type.I32]))
    entry = func.new_block("entry")
    dst = func.new_vreg(Type.I32, "x")
    entry.append(Phi(dst, {"entry": Const(0, Type.I32)}))
    entry.terminate(Return(dst))
    with pytest.raises(VerifyError, match="phi outside SSA"):
        verify_function(func)


def test_verifier_rejects_phi_pred_mismatch():
    module = compile_source(matmul_source(4, 4, 4), "matmul")
    func = module.functions["matmul"]
    construct_ssa(func)
    phi = next(i for b in func.blocks.values() for i in b.instrs
               if isinstance(i, Phi))
    label, value = next(iter(phi.incoming.items()))
    phi.incoming["bogus_pred"] = value
    with pytest.raises(VerifyError, match="phi"):
        verify_function(func, module)


def test_broken_ssa_pass_is_blamed_by_name():
    """--verify-ir pass blaming: a deliberately broken SSA pass is
    named in the diagnostic."""
    from repro.ir.passmanager import (
        FunctionAnalysisManager, FunctionPass, _run_pass,
    )

    class BreakSSAPass(FunctionPass):
        name = "break-ssa"

        def run(self, func, module, fam):
            for block in func.blocks.values():
                for instr in block.instrs:
                    if instr.defs() and not isinstance(instr, Phi):
                        dup = Move(instr.defs()[0],
                                   Const(0, instr.defs()[0].ty))
                        block.instrs.append(dup)
                        return True
            return False

    module = compile_source(matmul_source(4, 4, 4), "matmul")
    func = module.functions["matmul"]
    construct_ssa(func)
    set_verify_ir(True)
    with pytest.raises(PassBlameError, match="break-ssa"):
        _run_pass(BreakSSAPass(), func, module, FunctionAnalysisManager())


# -- the new passes ----------------------------------------------------------------

def _binop_func(make_body):
    func = Function("f", FuncType([Type.I32, Type.I32], [Type.I32]))
    a = func.new_vreg(Type.I32, "a")
    b = func.new_vreg(Type.I32, "b")
    func.params.extend([a, b])
    entry = func.new_block("entry")
    ret = make_body(func, entry, a, b)
    entry.terminate(Return(ret))
    return func


def test_gvn_removes_redundant_expression():
    def body(func, entry, a, b):
        x = func.new_vreg(Type.I32, "x")
        y = func.new_vreg(Type.I32, "y")
        z = func.new_vreg(Type.I32, "z")
        entry.append(BinOp(x, "add", a, b))
        entry.append(BinOp(y, "add", b, a))      # commutes with x
        entry.append(BinOp(z, "xor", x, y))      # becomes xor x, x
        return z

    func = _binop_func(body)
    func.ssa = True
    assert global_value_numbering(func)
    verify_function(func)
    adds = [i for i in func.blocks["entry0"].instrs
            if isinstance(i, BinOp) and i.op == "add"]
    assert len(adds) == 1


def test_gvn_scopes_to_the_dominator_tree():
    """The same expression in two sibling branches is NOT redundant —
    neither occurrence dominates the other."""
    func = Function("f", FuncType([Type.I32], [Type.I32]))
    p = func.new_vreg(Type.I32, "p")
    func.params.append(p)
    entry = func.new_block("entry")
    left = func.new_block("left")
    right = func.new_block("right")
    x = func.new_vreg(Type.I32, "x")
    y = func.new_vreg(Type.I32, "y")
    left.append(BinOp(x, "mul", p, p))
    right.append(BinOp(y, "mul", p, p))
    entry.terminate(CondBr(p, left.label, right.label))
    left.terminate(Return(x))
    right.terminate(Return(y))
    func.ssa = True
    assert not global_value_numbering(func)
    verify_function(func)


def test_sccp_beats_pessimistic_folding():
    """x enters a loop as 0 and is only ever reassigned x (identity
    through a phi); SCCP proves the branch on x is never taken."""
    source = """
    int main(void) {
      int x;
      int acc;
      int i;
      x = 0;
      acc = 0;
      for (i = 0; i < 10; i++) {
        if (x != 0) { acc = acc + 100; }
        x = x * 2;          /* 0 * 2 == 0: stays 0 through the phi */
        acc = acc + 1;
      }
      return acc;
    }
    """
    module = compile_source(source, "t")
    func = module.functions["main"]
    construct_ssa(func)
    sparse_conditional_constant_propagation(func)
    verify_function(func, module)
    destruct_ssa(func)
    verify_function(func, module)
    value, _ = _interp(module)
    assert value == 10


def test_sccp_prunes_constant_branches():
    source = """
    int main(void) {
      int flag;
      flag = 1;
      if (flag) { return 42; }
      return 7;
    }
    """
    module = compile_source(source, "t")
    func = module.functions["main"]
    construct_ssa(func)
    assert sparse_conditional_constant_propagation(func)
    verify_function(func, module)
    condbrs = [b for b in func.blocks.values()
               if isinstance(b.term, CondBr)]
    assert not condbrs
    destruct_ssa(func)
    assert _interp(module)[0] == 42


def test_sccp_unmodeled_def_is_overdefined():
    # Regression: an instruction SCCP does not model (here a ``lea``
    # from the JIT cleanup) must lower its def to overdefined.  Left at
    # TOP, the branch condition derived from it stays unknown, no flow
    # edge is added, and the live successor blocks get deleted as
    # unreachable.
    from repro.ir.instructions import Lea
    from repro.ir.interp import Host
    from repro.ir.module import Module

    func = Function("f", FuncType([Type.I32], [Type.I32]))
    a = func.new_vreg(Type.I32, "a")
    func.params.append(a)
    addr = func.new_vreg(Type.I32, "addr")
    cond = func.new_vreg(Type.I32, "cond")
    out = func.new_vreg(Type.I32, "out")
    entry = func.new_block("entry")
    yes = func.new_block("yes")
    no = func.new_block("no")
    join = func.new_block("join")
    entry.append(Lea(addr, a, index=a, scale=4))
    entry.append(BinOp(cond, "lt_s", addr, Const(100, Type.I32)))
    entry.terminate(CondBr(cond, yes.label, no.label))
    yes.terminate(Jump(join.label))
    no.terminate(Jump(join.label))
    join.append(Phi(out, {yes.label: Const(1, Type.I32),
                          no.label: Const(2, Type.I32)}))
    join.terminate(Return(out))
    module = Module("t")
    module.add_function(func)
    construct_ssa(func)
    sparse_conditional_constant_propagation(func)
    verify_function(func, module)
    assert set(func.blocks) >= {yes.label, no.label, join.label}, \
        "reachable blocks must survive SCCP"
    destruct_ssa(func)
    assert IRInterpreter(module, Host()).run("f", (10,)) == 1
    assert IRInterpreter(module, Host()).run("f", (1000,)) == 2


def test_strength_reduction_rewrites():
    def body(func, entry, a, b):
        m = func.new_vreg(Type.I32, "m")
        d = func.new_vreg(Type.I32, "d")
        r = func.new_vreg(Type.I32, "r")
        s = func.new_vreg(Type.I32, "s")
        out = func.new_vreg(Type.I32, "out")
        entry.append(BinOp(m, "mul", a, Const(8, Type.I32)))
        entry.append(BinOp(d, "div_u", m, Const(16, Type.I32)))
        entry.append(BinOp(r, "rem_u", d, Const(32, Type.I32)))
        entry.append(BinOp(s, "div_s", r, Const(4, Type.I32)))  # kept
        entry.append(BinOp(out, "or", s, b))
        return out

    func = _binop_func(body)
    before = func.instruction_count()
    assert reduce_strength(func)
    assert func.instruction_count() == before, "rewrites are 1-for-1"
    ops = [i.op for i in func.blocks["entry0"].instrs
           if isinstance(i, BinOp)]
    assert ops == ["shl", "shr_u", "and", "div_s", "or"]
    shl = func.blocks["entry0"].instrs[0]
    assert shl.rhs == Const(3, Type.I32)
    verify_function(func)


def test_strength_reduction_semantics():
    """mul/div_u/rem_u by powers of two compute the same values after
    reduction, including at type boundaries (a high-bit-set operand is
    a large unsigned value)."""
    from repro.ir.interp import Host
    from repro.ir.module import Module

    def build():
        func = _binop_func(lambda f, entry, a, b: _strength_body(
            f, entry, a, b))
        module = Module("t")
        module.add_function(func)
        return module

    def _strength_body(func, entry, a, b):
        m = func.new_vreg(Type.I32, "m")
        d = func.new_vreg(Type.I32, "d")
        r = func.new_vreg(Type.I32, "r")
        t = func.new_vreg(Type.I32, "t")
        out = func.new_vreg(Type.I32, "out")
        entry.append(BinOp(m, "mul", a, Const(16, Type.I32)))
        entry.append(BinOp(d, "div_u", b, Const(8, Type.I32)))
        entry.append(BinOp(r, "rem_u", b, Const(4, Type.I32)))
        entry.append(BinOp(t, "add", m, d))
        entry.append(BinOp(out, "add", t, r))
        return out

    plain, reduced = build(), build()
    assert reduce_strength(reduced.functions["f"])
    for a, b in [(0, 0), (1, 1), (7, 9), (-1, -1), (123456, 2**31),
                 (-5, 2**31 - 1), (2**31 - 1, -8)]:
        want = IRInterpreter(plain, Host()).run("f", (a, b))
        got = IRInterpreter(reduced, Host()).run("f", (a, b))
        assert got == want, f"a={a} b={b}: {got} != {want}"


def test_midend_keeps_dead_phi_free():
    """After the full SSA mid-end there are no unused phi results."""
    module = compile_source(matmul_source(6, 5, 4), "matmul")
    for func in module.functions.values():
        run_ssa_midend(func, module)
        eliminate_dead_code(func)
        verify_function(func, module)
        assert not func.ssa


# -- pipeline equivalence across targets and tiers ---------------------------------

PIPELINE_KERNELS = ["gemm", "bicg", "gesummv"]


@pytest.mark.parametrize("name", PIPELINE_KERNELS)
def test_ssa_pipeline_matches_reference_output(name):
    """optimize_module with the SSA mid-end produces bit-identical
    observable behaviour to the legacy pipeline."""
    spec = polybench_spec(name, "test")
    base = compile_source(spec.source, name)
    m_off = optimize_module(copy.deepcopy(base), level=2, ssa=False)
    m_on = optimize_module(copy.deepcopy(base), level=2, ssa=True)
    assert _interp(m_on) == _interp(m_off)
    assert _icount(m_on) <= _icount(m_off), \
        "the SSA mid-end must never grow the program"


@pytest.mark.parametrize("tier", TIERS)
def test_ssa_on_native_and_jit_tiers(tier, monkeypatch):
    """matmul runs bit-identically (return code, stdout, trap-free)
    under the SSA pipeline on native and both JIT engines at every
    execution tier."""
    from repro.jit.engine import CHROME_ENGINE, FIREFOX_ENGINE

    monkeypatch.delenv("REPRO_SSA", raising=False)
    source = matmul_source(8, 7, 6)
    set_tier(tier)
    try:
        ref, ref_out = run_ir(source)
        rc, out, _ = run_native(source)
        assert (rc, out) == ((ref or 0) & 0xFFFFFFFF, ref_out)
        for engine in (CHROME_ENGINE, FIREFOX_ENGINE):
            rc, out, _ = run_engine(source, engine)
            assert (rc, out) == ((ref or 0) & 0xFFFFFFFF, ref_out), \
                f"{engine.name} diverged at tier {tier}"
    finally:
        set_tier(None)


def test_trap_text_identical_with_ssa(monkeypatch):
    """A trapping program traps with the same message whether or not
    the SSA mid-end ran."""
    from repro.errors import TrapError

    source = """
    int main(void) {
      int d;
      int i;
      d = 0;
      /* opaque: keep SCCP from proving d == 0 and folding */
      for (i = 0; i < 3; i++) { d = d - i + i; }
      return 7 / d;
    }
    """
    messages = {}
    for flag, label in (("0", "off"), ("1", "on")):
        monkeypatch.setenv("REPRO_SSA", flag)
        module = optimize_module(compile_source(source, "t"), level=2)
        with pytest.raises(TrapError) as exc:
            _interp(module)
        messages[label] = str(exc.value)
    assert messages["on"] == messages["off"]


def test_perfcounters_deterministic_under_ssa():
    """Two identical SSA-pipeline compiles execute with identical
    retired-instruction counts (the determinism rail for reports)."""
    source = matmul_source(6, 6, 6)
    runs = []
    for _ in range(2):
        rc, out, machine = run_native(source)
        runs.append((rc, out, machine.perf.instructions))
    assert runs[0] == runs[1]
