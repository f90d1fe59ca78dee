"""Performance counters and the cycle model.

The counter set mirrors Table 3 of the paper (the `perf` events used for
the root-cause analysis):

    all-loads-retired, all-stores-retired, branch-instructions-retired,
    conditional-branches, instructions-retired, cpu-cycles,
    L1-icache-load-misses

Counters are incremented by the executor from real (simulated) retired
instructions.  Cycles come from a simple analytic model of a wide
out-of-order core: most instructions pipeline at several per cycle, memory
operations and divisions add latency, and every L1 i-cache miss stalls the
front end.  The same model is applied to every program — native and JIT
code pay identical per-event costs, exactly like real hardware.
"""

from __future__ import annotations

#: Nominal clock used to convert cycles to seconds (3.5 GHz Xeon).
CLOCK_HZ = 3.5e9

#: Cycle-model weights.  Calibrated once against the whole suite (see
#: EXPERIMENTS.md) and identical for every pipeline — the "hardware"
#: cannot tell native code from JIT code.  Memory operations carry most
#: of the cost (an OoO core hides much of the plain ALU work), which is
#: also why the paper's cycle inflation (1.54x) is *below* its
#: instruction inflation (1.80x): the JIT's extra instructions are
#: disproportionately cheap register moves.
BASE_CPI = 0.25            # throughput cost of any retired instruction
LOAD_COST = 0.50           # extra cost per retired load (L1-hit average)
STORE_COST = 0.40          # extra cost per retired store
BRANCH_COST = 0.10         # extra cost per retired branch
MUL_COST = 1.0             # extra cost of an integer multiply
DIV_COST = 20.0            # integer division latency
FDIV_COST = 12.0
FPU_COST = 0.35            # extra cost of an SSE arithmetic op
ICACHE_MISS_PENALTY = 18.0  # front-end stall per L1I miss
CALL_COST = 1.5            # call/ret pair overhead beyond their uops


#: Table 3 of the paper: counter -> (raw PMU event, summary).
EVENT_TABLE = [
    ("all-loads-retired", "r81d0", "Increased register pressure"),
    ("all-stores-retired", "r82d0", "Increased register pressure"),
    ("branches-retired", "r00c4", "More branch statements"),
    ("conditional-branches", "r01c4", "More branch statements"),
    ("instructions-retired", "r1c0", "Increased code size"),
    ("cpu-cycles", "cpu-cycles", "Increased code size"),
    ("L1-icache-load-misses", "L1-icache-load-misses",
     "Increased code size"),
]


class PerfCounters:
    """Retired-event counters for one program execution."""

    __slots__ = ("instructions", "loads", "stores", "branches",
                 "cond_branches", "calls", "muls", "divs", "fdivs",
                 "fpu_ops")

    def __init__(self):
        self.instructions = 0
        self.loads = 0
        self.stores = 0
        self.branches = 0
        self.cond_branches = 0
        self.calls = 0
        self.muls = 0
        self.divs = 0
        self.fdivs = 0
        self.fpu_ops = 0

    def cycles(self, icache_misses: int = 0) -> float:
        """Estimated core cycles for the counted instruction stream.

        I-cache misses live in the cache model (the hwc layer owns all
        cache state), so the front-end stall term is passed in; callers
        holding a run/profile use their accessors instead.
        """
        return (
            self.instructions * BASE_CPI
            + self.loads * LOAD_COST
            + self.stores * STORE_COST
            + self.branches * BRANCH_COST
            + self.muls * MUL_COST
            + self.divs * DIV_COST
            + self.fdivs * FDIV_COST
            + self.fpu_ops * FPU_COST
            + self.calls * CALL_COST
            + icache_misses * ICACHE_MISS_PENALTY
        )

    def seconds(self, icache_misses: int = 0) -> float:
        return self.cycles(icache_misses) / CLOCK_HZ

    def merge(self, other: "PerfCounters") -> None:
        for field in PerfCounters.__slots__:
            setattr(self, field, getattr(self, field) + getattr(other, field))

    def add(self, instructions, loads, stores, branches, cond_branches,
            calls, muls, divs, fdivs, fpu_ops) -> None:
        """Fold an executor's local counter mirrors in."""
        self.instructions += instructions
        self.loads += loads
        self.stores += stores
        self.branches += branches
        self.cond_branches += cond_branches
        self.calls += calls
        self.muls += muls
        self.divs += divs
        self.fdivs += fdivs
        self.fpu_ops += fpu_ops

    def as_dict(self, icache_misses: int = None) -> dict:
        data = {field: getattr(self, field) for field in PerfCounters.__slots__}
        if icache_misses is not None:
            data["icache_misses"] = icache_misses
            data["cycles"] = self.cycles(icache_misses)
            data["seconds"] = self.seconds(icache_misses)
        return data

    def event(self, name: str):
        """Read a retired counter by its paper (Table 3) event name.

        Cache-model events (cpu-cycles, L1-icache-load-misses) are not
        retired counters; read those through ``RunResult.event``.
        """
        mapping = {
            "all-loads-retired": self.loads,
            "all-stores-retired": self.stores,
            "branches-retired": self.branches,
            "conditional-branches": self.cond_branches,
            "instructions-retired": self.instructions,
        }
        return mapping[name]

    def __repr__(self):
        return (f"<perf instrs={self.instructions} loads={self.loads} "
                f"stores={self.stores} branches={self.branches} "
                f"calls={self.calls}>")
