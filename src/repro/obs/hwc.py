"""repro.obs.hwc: a deterministic microarchitectural event model.

The paper's root-cause analysis (§5, Figs. 6-8, Table 4) is driven by
*hardware* performance counters — branch mispredictions, L1 cache
misses, and the extra spill traffic from register pressure — not just
retired-event totals.  This module layers those events on top of the
exact retired-instruction stream the executors already produce:

* a branch-predictor simulator: per-site 2-bit saturating counters
  (gshare-free bimodal PHT, with aliasing) for conditional branches,
  plus a direct-mapped BTB for indirect targets;
* a set-associative L1 **data**-cache simulator (the instruction side
  already lives in :mod:`repro.x86.icache`; both share
  :class:`~repro.x86.icache.SetAssocCache`);
* regalloc-tagged **spill accounting**: loads/stores whose memory
  operand is a register-allocator spill slot (tagged by the lowering,
  ``Mem.spill``) are counted separately from program memory traffic —
  the paper's register-pressure story (§6.1);
* deterministic event-based **sampling**: every N retired instructions
  a sample is charged to the executing function
  (``repro stat --sample N``).

The model is an :class:`~repro.obs.profile.Attribution`: it rides the
executor's one instrument hook, which reports calls and returns and
shows it each instruction *before* it executes (``HwcModel.retire``).
It never touches ``PerfCounters`` or any executor bookkeeping: retired
counters are bit-identical with the model on or off, and the model
itself is deterministic per (program, input, config).

Cost table
----------

The cycle model extends the retired-event model of
:mod:`repro.x86.perf` (BASE_CPI, LOAD_COST, ... ICACHE_MISS_PENALTY)
with three microarchitectural penalties:

=========================  ======  =========================================
event                      cycles  rationale
=========================  ======  =========================================
BRANCH_MISS_PENALTY          14.0  front-end re-steer + pipeline flush of a
                                   ~14-stage OoO core
BTB_MISS_PENALTY              8.0  indirect-target re-steer (no full flush:
                                   the direction was right, the target not)
DCACHE_MISS_PENALTY          10.0  L1D miss / L2 hit latency
=========================  ======  =========================================

``hwc_cycles`` = retired-model cycles (including the i-cache term)
plus these penalties; timing reported by the harness stays the
retired-model time, so enabling hwc never changes measured results.
The hwc cycle estimate is what ``repro stat`` and ``repro explain``
decompose.
"""

from __future__ import annotations

from ..x86.icache import SetAssocCache
from ..x86.isa import Mem
from ..x86.perf import (
    BASE_CPI, BRANCH_COST, CALL_COST, DIV_COST, FDIV_COST, FPU_COST,
    ICACHE_MISS_PENALTY, LOAD_COST, MUL_COST, STORE_COST, PerfCounters,
)
from ..x86.registers import RSP
from .profile import Attribution, AttributionReport, attribute_benchmark

#: hwc-only penalties (cycles); see the cost table in the module docstring.
BRANCH_MISS_PENALTY = 14.0
BTB_MISS_PENALTY = 8.0
DCACHE_MISS_PENALTY = 10.0

#: Scaled L1D geometry (same ~100x scaling argument as the i-cache: the
#: proxy working sets are far smaller than SPEC's, so a 32 KB L1D would
#: never miss; 4 KB/8-way preserves *whether a pipeline's hot data
#: fits* at the reproduced footprints).
DCACHE_SIZE = 4096
DCACHE_WAYS = 8
DCACHE_LINE = 64

#: Predictor table sizes (powers of two; small enough that aliasing —
#: a real phenomenon — occurs at the reproduced code sizes).
PHT_BITS = 9
BTB_BITS = 8

_M64 = (1 << 64) - 1


class BranchPredictor:
    """2-bit saturating counters + a direct-mapped BTB.

    The pattern history table (PHT) is bimodal: one 2-bit counter per
    (hashed) site, initialized weakly-not-taken; the BTB maps a site to
    its last indirect target.  Both tables are finite so distinct sites
    alias, exactly like hardware.
    """

    def __init__(self):
        self.pht = bytearray([1]) * (1 << PHT_BITS)
        self._pht_mask = (1 << PHT_BITS) - 1
        self.btb_tags = [-1] * (1 << BTB_BITS)
        self.btb_targets = [0] * (1 << BTB_BITS)
        self._btb_mask = (1 << BTB_BITS) - 1

    def cond(self, site: int, taken: bool) -> bool:
        """Predict + train one conditional branch; True if mispredicted."""
        idx = (site ^ (site >> 7)) & self._pht_mask
        c = self.pht[idx]
        if taken:
            if c < 3:
                self.pht[idx] = c + 1
            return c < 2
        if c:
            self.pht[idx] = c - 1
        return c >= 2

    def indirect(self, site: int, target: int) -> bool:
        """Predict + train one indirect transfer; True on a BTB miss."""
        idx = (site ^ (site >> 5)) & self._btb_mask
        if self.btb_tags[idx] == site and self.btb_targets[idx] == target:
            return False
        self.btb_tags[idx] = site
        self.btb_targets[idx] = target
        return True


class HwcCounters:
    """Microarchitectural event counts (whole-program or per-function)."""

    __slots__ = ("retired", "branches", "branch_misses",
                 "indirect_branches", "btb_misses",
                 "dcache_accesses", "dcache_misses",
                 "spill_loads", "spill_stores",
                 "icache_accesses", "icache_misses",
                 # Safety-check attribution (§6.2): instructions the
                 # lowering tagged as stack/indirect-call checks, split
                 # out so the cycle decomposition can show what bounds
                 # and stack checks cost.  Read with a default: reports
                 # pickled before these fields existed lack the slots.
                 "check_retired", "check_branches", "check_loads")

    def __init__(self):
        for field in HwcCounters.__slots__:
            setattr(self, field, 0)

    def merge(self, other: "HwcCounters") -> None:
        for field in HwcCounters.__slots__:
            setattr(self, field, getattr(self, field, 0)
                    + getattr(other, field, 0))

    def as_dict(self) -> dict:
        return {field: getattr(self, field, 0)
                for field in HwcCounters.__slots__}

    def __eq__(self, other):
        return isinstance(other, HwcCounters) and \
            all(getattr(self, f, 0) == getattr(other, f, 0)
                for f in HwcCounters.__slots__)

    def __repr__(self):
        return (f"<hwc retired={self.retired} "
                f"br_miss={self.branch_misses}/{self.branches} "
                f"dc_miss={self.dcache_misses}/{self.dcache_accesses} "
                f"spill={self.spill_loads}+{self.spill_stores} "
                f"ic_miss={self.icache_misses}>")


def hwc_cycles(perf, hwc: HwcCounters) -> float:
    """Cycle estimate including the microarchitectural penalties.

    ``perf`` is a :class:`~repro.x86.perf.PerfCounters` (whole-program
    or a per-function profile bucket); ``hwc`` the matching
    :class:`HwcCounters` (its i-cache attribution feeds the retired
    model's i-cache term).
    """
    return (perf.cycles(hwc.icache_misses)
            + hwc.branch_misses * BRANCH_MISS_PENALTY
            + hwc.btb_misses * BTB_MISS_PENALTY
            + hwc.dcache_misses * DCACHE_MISS_PENALTY)


def class_cycles(perf, hwc: HwcCounters) -> dict:
    """Decompose :func:`hwc_cycles` into per-event-class contributions.

    The model is linear, so the returned values sum exactly to
    ``hwc_cycles(perf, hwc)`` — the invariant ``repro explain`` asserts.
    """
    check_retired = getattr(hwc, "check_retired", 0)
    check_branches = getattr(hwc, "check_branches", 0)
    check_loads = getattr(hwc, "check_loads", 0)
    return {
        "base (retired instructions)":
            (perf.instructions - check_retired) * BASE_CPI,
        "program loads":
            (perf.loads - hwc.spill_loads - check_loads) * LOAD_COST,
        "spill loads": hwc.spill_loads * LOAD_COST,
        "program stores": (perf.stores - hwc.spill_stores) * STORE_COST,
        "spill stores": hwc.spill_stores * STORE_COST,
        "branches": (perf.branches - check_branches) * BRANCH_COST,
        "safety checks": (check_retired * BASE_CPI
                          + check_branches * BRANCH_COST
                          + check_loads * LOAD_COST),
        "branch mispredictions": hwc.branch_misses * BRANCH_MISS_PENALTY,
        "BTB misses (indirect)": hwc.btb_misses * BTB_MISS_PENALTY,
        "calls": perf.calls * CALL_COST,
        "mul/div/fpu": (perf.muls * MUL_COST + perf.divs * DIV_COST
                        + perf.fdivs * FDIV_COST
                        + perf.fpu_ops * FPU_COST),
        "icache misses": hwc.icache_misses * ICACHE_MISS_PENALTY,
        "dcache misses": hwc.dcache_misses * DCACHE_MISS_PENALTY,
    }


#: Rows of the ``repro stat`` table: (label, callable(run) -> value).
STAT_EVENTS = [
    ("instructions-retired", lambda r: r.perf.instructions),
    ("all-loads-retired", lambda r: r.perf.loads),
    ("all-stores-retired", lambda r: r.perf.stores),
    ("branches-retired", lambda r: r.perf.branches),
    ("conditional-branches", lambda r: r.perf.cond_branches),
    ("branch-misses", lambda r: r.hwc.totals.branch_misses),
    ("btb-misses", lambda r: r.hwc.totals.btb_misses),
    ("L1-icache-loads", lambda r: r.icache_accesses),
    ("L1-icache-load-misses", lambda r: r.icache_misses),
    ("L1-dcache-loads", lambda r: r.hwc.totals.dcache_accesses),
    ("L1-dcache-load-misses", lambda r: r.hwc.totals.dcache_misses),
    ("spill-loads", lambda r: r.hwc.totals.spill_loads),
    ("spill-stores", lambda r: r.hwc.totals.spill_stores),
    ("safety-check-retired",
     lambda r: getattr(r.hwc.totals, "check_retired", 0)),
    ("safety-check-branches",
     lambda r: getattr(r.hwc.totals, "check_branches", 0)),
    ("safety-check-loads",
     lambda r: getattr(r.hwc.totals, "check_loads", 0)),
]


class HwcReport(AttributionReport):
    """Picklable result snapshot of one :class:`HwcModel` run: its
    attribution plus the per-function microarchitectural events."""

    def __init__(self, functions: dict, opcodes: dict, program,
                 totals: HwcCounters, events: dict, samples: dict,
                 config: dict):
        super().__init__(functions, opcodes, program)
        self.totals = totals
        self.events = events                # name -> HwcCounters
        self.samples = samples              # name -> sample count
        self.config = config

    def verify(self) -> None:
        """Assert the attribution and the per-function events both sum
        to their whole-program totals, field by field."""
        super().verify()
        summed = HwcCounters()
        for counters in self.events.values():
            summed.merge(counters)
        for field in HwcCounters.__slots__:
            got = getattr(summed, field)
            want = getattr(self.totals, field)
            if got != want:
                raise AssertionError(
                    f"hwc per-function {field} sum {got} != "
                    f"whole-program {want}")

    def as_dict(self) -> dict:
        return {
            "totals": self.totals.as_dict(),
            "functions": {name: c.as_dict()
                          for name, c in sorted(self.events.items())},
            "samples": dict(sorted(self.samples.items())),
            "config": dict(self.config),
        }

    def __eq__(self, other):
        return (isinstance(other, HwcReport)
                and super().__eq__(other)
                and self.totals == other.totals
                and self.events == other.events
                and self.samples == other.samples
                and self.config == other.config)

    def __repr__(self):
        return f"<hwc-report {len(self.events)} functions {self.totals!r}>"


class HwcModel(Attribution):
    """The per-machine event model; attach via ``X86Machine(..., hwc=)``.

    Beyond the attribution it inherits, :meth:`retire` sees each
    instruction *before* it executes, so operand addresses and flags
    reflect the pre-execution state the instruction itself observes.
    Branch outcomes and effective addresses are derived here from the
    :class:`~repro.x86.isa.Instr` and the machine state, so the
    executors carry no event-specific instrumentation and their
    counters stay bit-identical.
    """

    def __init__(self, sample_every: int = 0):
        super().__init__()
        self.dcache = SetAssocCache(DCACHE_SIZE, DCACHE_LINE, DCACHE_WAYS)
        self.bp = BranchPredictor()
        self.totals = HwcCounters()
        self.events: dict[str, HwcCounters] = {}
        self.samples: dict[str, int] = {}
        self.sample_every = sample_every
        self._next_sample = sample_every if sample_every else None
        self._retired = 0
        self.config = {
            "dcache_size": DCACHE_SIZE, "dcache_ways": DCACHE_WAYS,
            "dcache_line": DCACHE_LINE,
            "pht_bits": PHT_BITS, "btb_bits": BTB_BITS,
            "sample_every": sample_every,
        }
        self._cur_c: HwcCounters = None
        self._dispatch = {
            "mov": self._h_mov, "movsd": self._h_mov,
            "movsx": self._h_load_b, "movzx": self._h_load_b,
            "add": self._h_alu, "sub": self._h_alu, "and": self._h_alu,
            "or": self._h_alu, "xor": self._h_alu, "imul": self._h_alu,
            "shl": self._h_rmw_a, "shr": self._h_rmw_a,
            "sar": self._h_rmw_a,
            "cmp": self._h_cmp, "test": self._h_load_a,
            "idiv": self._h_load_a, "div": self._h_load_a,
            "ucomisd": self._h_load_b, "addsd": self._h_load_b,
            "subsd": self._h_load_b, "mulsd": self._h_load_b,
            "divsd": self._h_load_b, "minsd": self._h_load_b,
            "maxsd": self._h_load_b, "sqrtsd": self._h_load_b,
            "xorpd": self._h_load_b, "andpd": self._h_load_b,
            "push": self._h_push, "pop": self._h_pop,
            "jcc": self._h_jcc, "call": self._h_push,
            "callr": self._h_callr, "ret": self._h_pop,
        }

    # -- executor interface ------------------------------------------------

    def retire(self, ins, m) -> None:
        """Observe one instruction about to retire on machine ``m``."""
        op = ins.op
        self._ops[op] += 1              # Attribution.retire, inlined
        if self._next_sample is not None:
            self._retired += 1
            if self._retired >= self._next_sample:
                self.samples[self.cur] = self.samples.get(self.cur, 0) + 1
                self._next_sample += self.sample_every
        if getattr(ins, "check", None) is not None:
            t = self.totals
            c = self._cur_c
            t.check_retired += 1
            c.check_retired += 1
            if op == "jcc":
                t.check_branches += 1
                c.check_branches += 1
            elif isinstance(ins.a, Mem) or isinstance(ins.b, Mem):
                t.check_loads += 1
                c.check_loads += 1
        handler = self._dispatch.get(op)
        if handler is not None:
            handler(ins, m)

    def report(self) -> HwcReport:
        # Retired instructions and i-cache traffic are the attribution's
        # counts; copy them in.
        for name, counters in self.functions.items():
            events = self.events[name]
            events.retired = sum(self.opcodes[name].values())
            events.icache_accesses = counters.icache_accesses
            events.icache_misses = counters.icache_misses
        program = self._program()
        self.totals.retired = sum(e.retired for e in self.events.values())
        self.totals.icache_accesses = program.icache_accesses
        self.totals.icache_misses = program.icache_misses
        return HwcReport(self.functions, self.opcodes, program,
                         self.totals, self.events, self.samples,
                         self.config)

    def _switch(self, name) -> None:
        super()._switch(name)
        counters = None
        if name is not None:
            counters = self.events.get(name)
            if counters is None:
                counters = self.events[name] = HwcCounters()
        self._cur_c = counters

    # -- event classification ---------------------------------------------
    #
    # Memory classification mirrors what each executor *counts* (not
    # what a real CPU might do): e.g. ``test`` only counts a load for
    # its first operand and ``hostcall`` counts none, so the dcache
    # sees exactly the accesses behind PerfCounters.loads/stores.

    def _dload(self, m, mem) -> None:
        missed = self.dcache.access(m._ea(mem), mem.size)
        t = self.totals
        c = self._cur_c
        t.dcache_accesses += 1
        c.dcache_accesses += 1
        if missed:
            t.dcache_misses += missed
            c.dcache_misses += missed
        if getattr(mem, "spill", False):
            t.spill_loads += 1
            c.spill_loads += 1

    def _dstore(self, m, mem) -> None:
        missed = self.dcache.access(m._ea(mem), mem.size)
        t = self.totals
        c = self._cur_c
        t.dcache_accesses += 1
        c.dcache_accesses += 1
        if missed:
            t.dcache_misses += missed
            c.dcache_misses += missed
        if getattr(mem, "spill", False):
            t.spill_stores += 1
            c.spill_stores += 1

    def _stack_access(self, addr: int) -> None:
        missed = self.dcache.access(addr & _M64, 8)
        t = self.totals
        c = self._cur_c
        t.dcache_accesses += 1
        c.dcache_accesses += 1
        if missed:
            t.dcache_misses += missed
            c.dcache_misses += missed

    def _h_mov(self, ins, m) -> None:
        if isinstance(ins.b, Mem):
            self._dload(m, ins.b)
        elif isinstance(ins.a, Mem):
            self._dstore(m, ins.a)

    def _h_load_b(self, ins, m) -> None:
        if isinstance(ins.b, Mem):
            self._dload(m, ins.b)

    def _h_load_a(self, ins, m) -> None:
        if isinstance(ins.a, Mem):
            self._dload(m, ins.a)

    def _h_cmp(self, ins, m) -> None:
        if isinstance(ins.a, Mem):
            self._dload(m, ins.a)
        if isinstance(ins.b, Mem):
            self._dload(m, ins.b)

    def _h_alu(self, ins, m) -> None:
        if isinstance(ins.a, Mem):
            self._dload(m, ins.a)
            self._dstore(m, ins.a)
        if isinstance(ins.b, Mem):
            self._dload(m, ins.b)

    def _h_rmw_a(self, ins, m) -> None:
        if isinstance(ins.a, Mem):
            self._dload(m, ins.a)
            self._dstore(m, ins.a)

    def _h_push(self, ins, m) -> None:
        self._stack_access(m.regs[RSP] - 8)

    def _h_pop(self, ins, m) -> None:
        self._stack_access(m.regs[RSP])

    def _h_jcc(self, ins, m) -> None:
        taken = m._cond(ins.cond)
        t = self.totals
        c = self._cur_c
        t.branches += 1
        c.branches += 1
        if self.bp.cond(ins.addr, taken):
            t.branch_misses += 1
            c.branch_misses += 1

    def _h_callr(self, ins, m) -> None:
        if isinstance(ins.a, Mem):
            self._dload(m, ins.a)
            addr = m._ea(ins.a)
            if 0 <= addr and addr + 8 <= len(m.memory):
                code_addr = int.from_bytes(m.memory[addr:addr + 8],
                                           "little")
            else:
                code_addr = -1  # the machine traps right after
        else:
            code_addr = m.regs[ins.a.reg]
        self._stack_access(m.regs[RSP] - 8)
        t = self.totals
        c = self._cur_c
        t.indirect_branches += 1
        c.indirect_branches += 1
        if self.bp.indirect(ins.addr, code_addr):
            t.btb_misses += 1
            c.btb_misses += 1


# -- the gap explainer (repro explain) ----------------------------------------------


class GapExplanation:
    """Per-event-class and per-function decomposition of the
    wasm-vs-native gap — the reproduction's Figure 6-8 / Table 4 analog.

    The ``repro explain`` rendering of two verified hwc reports.
    ``check()`` asserts the two exactness invariants: per-function
    buckets sum to the whole-program totals, and the event-class
    contributions sum exactly to the hwc cycle estimate.
    """

    def __init__(self, spec, target, native_run, target_run):
        self.spec = spec
        self.target = target
        self.native_run = native_run
        self.target_run = target_run

    # -- exactness --------------------------------------------------------

    def check(self) -> None:
        for run in (self.native_run, self.target_run):
            run.hwc.verify()
            total = hwc_cycles(run.perf, run.hwc.totals)
            summed = sum(class_cycles(run.perf, run.hwc.totals).values())
            if abs(summed - total) > 1e-6 * max(total, 1.0):
                raise AssertionError(
                    f"event-class cycles {summed} != hwc cycles {total}")

    # -- whole-program view -----------------------------------------------

    def class_rows(self):
        """(event class, native cycles, target cycles, delta) rows,
        ordered by descending contribution to the gap."""
        n = class_cycles(self.native_run.perf, self.native_run.hwc.totals)
        t = class_cycles(self.target_run.perf, self.target_run.hwc.totals)
        rows = [(name, n[name], t[name], t[name] - n[name]) for name in n]
        rows.sort(key=lambda row: -row[3])
        return rows

    # -- per-function view ------------------------------------------------

    def function_rows(self, limit: int = None):
        """(name, native cycles, target cycles, delta, per-class delta
        dict) per function, ordered by |delta| descending."""
        rows = []
        native, target = self.native_run.hwc, self.target_run.hwc
        names = dict.fromkeys(list(target.functions)
                              + list(native.functions))
        for name in names:
            entries = []
            for report in (native, target):
                perf = report.functions.get(name)
                hwc = report.events.get(name)
                if perf is None:
                    perf, hwc = PerfCounters(), HwcCounters()
                entries.append((hwc_cycles(perf, hwc),
                                class_cycles(perf, hwc)))
            (n_cycles, n_classes), (t_cycles, t_classes) = entries
            delta = {key: t_classes[key] - n_classes[key]
                     for key in t_classes}
            rows.append((name, n_cycles, t_cycles,
                         t_cycles - n_cycles, delta))
        rows.sort(key=lambda row: -abs(row[3]))
        return rows[:limit] if limit else rows

    # -- rendering --------------------------------------------------------

    def render(self, limit: int = 10) -> str:
        from ..analysis.tables import render_table
        n_total = hwc_cycles(self.native_run.perf,
                             self.native_run.hwc.totals)
        t_total = hwc_cycles(self.target_run.perf,
                             self.target_run.hwc.totals)
        gap = t_total - n_total
        out = []
        rows = []
        for name, n, t, delta in self.class_rows():
            share = f"{100 * delta / gap:.1f}%" if gap else "-"
            rows.append([name, f"{n:.0f}", f"{t:.0f}",
                         f"{delta:+.0f}", share])
        out.append(render_table(
            ["event class", "native cyc", f"{self.target} cyc",
             "delta", "share of gap"], rows,
            f"{self.spec.name}: wasm-vs-native gap by event class "
            f"(hwc cycles {n_total:.0f} -> {t_total:.0f}, "
            f"{t_total / n_total if n_total else 0:.2f}x)"))
        rows = []
        for name, n, t, delta, classes in self.function_rows(limit):
            top = sorted(classes.items(), key=lambda kv: -abs(kv[1]))
            top = [f"{key} {value:+.0f}" for key, value in top[:3]
                   if value]
            rows.append([name, f"{n:.0f}", f"{t:.0f}", f"{delta:+.0f}",
                         ", ".join(top) or "-"])
        out.append(render_table(
            ["function", "native cyc", f"{self.target} cyc", "delta",
             "top contributors"], rows,
            f"{self.spec.name}: gap attribution per function "
            f"(top {limit})"))
        return "\n\n".join(out)

    def as_dict(self) -> dict:
        return {
            "benchmark": self.spec.name,
            "target": self.target,
            "hwc_cycles": {
                "native": hwc_cycles(self.native_run.perf,
                                     self.native_run.hwc.totals),
                self.target: hwc_cycles(self.target_run.perf,
                                        self.target_run.hwc.totals),
            },
            "classes": [
                {"class": name, "native": n, "target": t, "delta": delta}
                for name, n, t, delta in self.class_rows()],
            "functions": [
                {"function": name, "native": n, "target": t,
                 "delta": delta, "classes": classes}
                for name, n, t, delta, classes in self.function_rows()],
            "hwc": {
                "native": self.native_run.hwc.as_dict(),
                self.target: self.target_run.hwc.as_dict(),
            },
        }


def explain_benchmark(spec, target: str = "chrome", cache=None,
                      max_instructions: int = 2_000_000_000) \
        -> GapExplanation:
    """Compile + run ``spec`` native and on ``target`` with the hwc
    model attached; returns a checked :class:`GapExplanation`."""
    explanation = GapExplanation(spec, target, *attribute_benchmark(
        spec, target, HwcModel, cache, max_instructions))
    explanation.check()
    return explanation
