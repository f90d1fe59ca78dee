"""Property-based differential testing: random programs, equal behaviour.

Hypothesis generates small integer programs (expression trees over locals
plus a loop) and the test requires the native x86 pipeline and the Chrome
wasm pipeline to match the IR reference interpreter exactly, and the x86
block engine to match the reference loop (``reference=True``) on stdout,
every counter and the i-cache.  Division is generated with guarded
denominators so programs are trap-free.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import (
    GuestHost, every_block_generated, run_engine, run_ir, run_native,
)

from repro.jit import CHROME_ENGINE
from repro.x86 import X86Machine
from repro.x86.registers import RAX


def assert_matches_reference_loop(machine):
    """``machine`` ran ``main`` on the block engine; a run of the same
    program on the reference loop (``reference=True``), and one on the
    block engine with every block generated, leave identical output,
    counters and i-cache state."""
    program = machine.program

    def observed(machine):
        return (machine.regs[RAX], bytes(machine.host.output),
                machine.perf.as_dict(), machine.icache.accesses,
                machine.icache.misses)

    def rerun(**kwargs):
        again = X86Machine(program, host=GuestHost(program.heap_base),
                           **kwargs)
        again.call("main")
        return again

    expected = observed(rerun(reference=True))
    assert observed(machine) == expected
    with every_block_generated() as check:
        generated = rerun()
        check(generated)
    assert observed(generated) == expected


@st.composite
def expressions(draw, depth=0):
    """A C expression over variables a, b, c — total and trap-free."""
    if depth >= 3 or draw(st.booleans()):
        return draw(st.sampled_from([
            "a", "b", "c",
            str(draw(st.integers(min_value=-100, max_value=100))),
        ]))
    op = draw(st.sampled_from(["+", "-", "*", "&", "|", "^", "%", "/",
                               "<<", ">>"]))
    lhs = draw(expressions(depth=depth + 1))
    rhs = draw(expressions(depth=depth + 1))
    if op in ("%", "/"):
        # Guarded denominator: never zero.
        return f"(({lhs}) {op} ((({rhs}) & 7) + 1))"
    if op in ("<<", ">>"):
        return f"(({lhs}) {op} ((({rhs})) & 7))"
    return f"(({lhs}) {op} ({rhs}))"


@st.composite
def programs(draw):
    exprs = [draw(expressions()) for _ in range(draw(
        st.integers(min_value=1, max_value=3)))]
    updates = "\n".join(
        f"        acc = acc * 5 + ({e});" for e in exprs)
    a0 = draw(st.integers(min_value=-50, max_value=50))
    b0 = draw(st.integers(min_value=-50, max_value=50))
    iters = draw(st.integers(min_value=1, max_value=8))
    return f"""
int main(void) {{
    int a = {a0};
    int b = {b0};
    int c = 1;
    int acc = 0;
    int i;
    for (i = 0; i < {iters}; i++) {{
{updates}
        a = a + 3;
        b = b ^ acc;
        c = (acc & 15) + 1;
    }}
    print_i32(acc);
    print_i32(a);
    print_i32(b);
    return 0;
}}
"""


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(programs())
def test_random_programs_native_matches_reference(source):
    ref_value, ref_out = run_ir(source)
    rc, out, machine = run_native(source)
    assert out == ref_out
    assert rc == (ref_value or 0) & 0xFFFFFFFF
    assert_matches_reference_loop(machine)


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(programs())
def test_random_programs_chrome_matches_reference(source):
    ref_value, ref_out = run_ir(source)
    rc, out, machine = run_engine(source, CHROME_ENGINE)
    assert out == ref_out
    assert rc == (ref_value or 0) & 0xFFFFFFFF
    assert_matches_reference_loop(machine)


@st.composite
def array_programs(draw):
    """Programs with a global array, a helper function, and guarded
    index arithmetic."""
    size = draw(st.integers(min_value=4, max_value=16))
    seed_exprs = [draw(expressions()) for _ in range(2)]
    helper_expr = draw(expressions())
    iters = draw(st.integers(min_value=2, max_value=10))
    stride = draw(st.integers(min_value=1, max_value=7))
    return f"""
int table[{size}];

int helper(int a, int b) {{
    int c = a ^ b;
    return ({helper_expr}) + table[((a & 0x7fffffff) %% {size})];
}}

int main(void) {{
    int i;
    int a = 3; int b = -7; int c = 2;
    for (i = 0; i < {size}; i++) {{
        table[i] = ({seed_exprs[0]}) + i * {stride};
        a = a + 1;
    }}
    int acc = 0;
    for (i = 0; i < {iters}; i++) {{
        acc = acc * 7 + helper(acc + i, {seed_exprs[1]});
        b = acc >> 2;
        c = (acc & 7) + 1;
        table[(acc & 0x7fffffff) %% {size}] = acc;
    }}
    for (i = 0; i < {size}; i++) {{
        print_i32(table[i]);
    }}
    print_i32(acc);
    return 0;
}}
""".replace("%%", "%")


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(array_programs())
def test_random_array_programs_native_matches_reference(source):
    ref_value, ref_out = run_ir(source)
    rc, out, machine = run_native(source)
    assert out == ref_out
    assert_matches_reference_loop(machine)


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(array_programs())
def test_random_array_programs_chrome_matches_reference(source):
    ref_value, ref_out = run_ir(source)
    rc, out, machine = run_engine(source, CHROME_ENGINE)
    assert out == ref_out
    assert_matches_reference_loop(machine)
