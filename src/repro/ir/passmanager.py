"""A caching pass manager for the IR mid-end.

Before this module, every pass recomputed whatever facts it needed —
``licm`` and ``rotate`` each rebuilt the loop forest (and, inside it,
the dominator sets) on every invocation of the cleanup fixpoint.  The
:class:`FunctionAnalysisManager` caches analysis results per function
and invalidates them *selectively*: each pass declares the analyses it
``preserves``, and a pass that reports no change preserves everything.

Observability: every pass run is timed into the
``opt.pass_seconds.<name>`` histogram, instructions removed are counted
per pass (``opt.deleted.<name>`` and the ``opt.instrs_deleted`` total),
and the analysis cache reports ``opt.analysis.{hits,misses,
invalidations}``.  All of it surfaces through ``--stats`` and the
``opt`` block of ``repro report --json``.

Passes carry no version: the compile cache's toolchain fingerprint
hashes every ``repro`` source file into every key, so editing,
adding or reordering a pass already misses every cached artifact.
"""

from __future__ import annotations

import time

from ..obs import get_registry, span
from .function import Function
from .module import Module

#: Analyses that stay valid when a pass rewrites instructions but does
#: not add, remove, or retarget blocks or edges.
CFG_ANALYSES = frozenset({"preds", "domtree", "loops"})


def _compute_preds(func: Function):
    return func.predecessors()


def _compute_domtree(func: Function):
    from .ssa import domtree
    return domtree(func)


def _compute_loops(func: Function):
    from .loops import natural_loops
    return natural_loops(func)


def _compute_liveness(func: Function):
    from ..dataflow import liveness
    return liveness(func)


def _compute_defassign(func: Function):
    from ..dataflow import definite_assignment
    return definite_assignment(func)


#: Registered analyses, by cache key.
ANALYSES = {
    "preds": _compute_preds,
    "domtree": _compute_domtree,
    "loops": _compute_loops,
    "liveness": _compute_liveness,
    "defassign": _compute_defassign,
}


class FunctionAnalysisManager:
    """Per-function analysis cache with preserved-set invalidation.

    ``enabled=False`` degrades to recompute-on-every-request — the
    control arm of the caching gate in ``bench/opt_smoke.py``.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._cache: dict[Function, dict] = {}

    def get(self, func: Function, name: str):
        """The analysis result for ``func``, computing it on a miss."""
        compute = ANALYSES[name]
        if not self.enabled:
            get_registry().counter("opt.analysis.misses").inc()
            return compute(func)
        bucket = self._cache.setdefault(func, {})
        if name in bucket:
            get_registry().counter("opt.analysis.hits").inc()
            return bucket[name]
        get_registry().counter("opt.analysis.misses").inc()
        result = compute(func)
        bucket[name] = result
        return result

    def invalidate(self, func: Function, preserved=frozenset()) -> int:
        """Drop every cached analysis for ``func`` not in ``preserved``;
        returns the number dropped."""
        bucket = self._cache.get(func)
        if not bucket:
            return 0
        doomed = [name for name in bucket if name not in preserved]
        for name in doomed:
            del bucket[name]
        if doomed:
            get_registry().counter("opt.analysis.invalidations").inc(
                len(doomed))
        return len(doomed)

    def clear(self) -> None:
        self._cache.clear()


class FunctionPass:
    """Base class: a named transform over one function.

    ``preserves`` lists the analysis cache keys that remain valid when
    the pass *does* change the function; a run that reports no change
    implicitly preserves everything.
    """

    name = "?"
    preserves: frozenset = frozenset()

    def run(self, func: Function, module: Module,
            fam: FunctionAnalysisManager):
        """Transform ``func``; return truthy when anything changed."""
        raise NotImplementedError

    def __repr__(self):
        return f"<pass {self.name}>"


class SimplePass(FunctionPass):
    """Adapter for the plain ``fn(func) -> changed`` legacy passes."""

    def __init__(self, name: str, fn, preserves=frozenset()):
        self.name = name
        self._fn = fn
        self.preserves = frozenset(preserves)

    def run(self, func, module, fam):
        return self._fn(func)


class FixedPoint(FunctionPass):
    """Run a sub-pipeline repeatedly until a full round changes nothing
    (bounded by ``max_rounds``).  Mirrors the old ``_cleanup`` loop but
    under the manager, so every constituent is timed, verified, and
    invalidates the analysis cache individually."""

    def __init__(self, passes, max_rounds: int = 8, name: str = None):
        self.passes = list(passes)
        self.max_rounds = max_rounds
        self.name = name or ("fixpoint(" +
                             "+".join(p.name for p in self.passes) + ")")

    def run(self, func, module, fam):
        changed_any = False
        for _ in range(self.max_rounds):
            changed = False
            for p in self.passes:
                changed |= bool(_run_pass(p, func, module, fam))
            if not changed:
                break
            changed_any = True
        return changed_any


def _run_pass(p: FunctionPass, func: Function, module: Module,
              fam: FunctionAnalysisManager):
    """Run one pass over one function: time it, track instructions
    deleted, invalidate non-preserved analyses, and verify the result
    under the pass-blame rails."""
    from .passes import verify_after_pass

    registry = get_registry()
    before = func.instruction_count()
    start = time.perf_counter()
    with span(f"opt.pass.{p.name}", function=func.name):
        changed = p.run(func, module, fam)
    registry.histogram(f"opt.pass_seconds.{p.name}").observe(
        time.perf_counter() - start)
    if changed:
        fam.invalidate(func, p.preserves)
        after = func.instruction_count()
        if after < before:
            registry.counter(f"opt.deleted.{p.name}").inc(before - after)
            registry.counter("opt.instrs_deleted").inc(before - after)
    if not (isinstance(p, FixedPoint) and p.passes and p.max_rounds > 0):
        # A fixpoint's last constituent has just verified this IR.
        verify_after_pass(p.name, func, module)
    return changed
