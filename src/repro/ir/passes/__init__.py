"""Middle-end optimization passes.

The shared pipeline (``optimize_module``) mirrors what both Clang and
Emscripten's LLVM-based pipeline do at ``-O2``: folding, propagation, dead
code elimination, CFG cleanup, inlining, and loop rotation.  Loop unrolling
is native-only — the paper's WebAssembly JITs do not unroll, and native
unrolling is the mechanism behind the 429.mcf instruction-cache anomaly
(§6.3 of the paper).

Since the SSA mid-end landed, the pipeline runs under
:mod:`repro.ir.passmanager`: every pass is timed, verified under the
pass-blame rails, and invalidates only the analyses it does not
preserve.  The SSA region (construct → GVN/SCCP/strength/DCE → destruct)
sits between inlining and the loop passes, where inlining has already
widened its scope; it is on by default and gated by ``REPRO_SSA=0`` (or
the ``ssa=`` argument) for A/B runs.  ``simplify_cfg`` and the other
phi-unaware cleanups never run while a function is in SSA form — SCCP
does its own phi-aware CFG pruning inside the region.
"""

from __future__ import annotations

import os
import time

from ...obs import get_registry, span
from ..module import Module
from ..passmanager import (
    CFG_ANALYSES, FixedPoint, FunctionAnalysisManager, FunctionPass,
    PassManager, SimplePass, _run_pass, pipeline_fingerprint,
)
from ..verify import (
    VerifyError, check_ranges_enabled, verify_function, verify_ir_enabled,
)
from .collapse import collapse_defs
from .constfold import fold_constants
from .copyprop import propagate_copies
from .dce import eliminate_dead_code
from .gvn import GVNPass, global_value_numbering
from .inline import inline_calls
from .licm import hoist_invariants
from .localize import localize_temps
from .ranges import (
    RANGES_VERSION, RangeSimplifyPass, annotate_ranges, ranges_enabled,
    set_ranges,
)
from .rotate import rotate_loops
from .sccp import SCCPPass, sparse_conditional_constant_propagation
from .simplifycfg import simplify_cfg
from .strength import StrengthReducePass, reduce_strength
from .unroll import unroll_loops

__all__ = [
    "fold_constants", "propagate_copies", "eliminate_dead_code",
    "collapse_defs", "hoist_invariants", "localize_temps",
    "inline_calls", "rotate_loops", "simplify_cfg", "unroll_loops",
    "global_value_numbering", "sparse_conditional_constant_propagation",
    "reduce_strength", "run_ssa_midend", "ssa_enabled",
    "optimize_module", "unroll_module", "opt_pipeline_fingerprint",
    "jit_pipeline_fingerprint",
    "PassBlameError", "verify_after_pass",
    "RangeSimplifyPass", "annotate_ranges", "ranges_enabled", "set_ranges",
]


def ssa_enabled() -> bool:
    """The SSA mid-end runs unless ``REPRO_SSA`` is set to 0/off."""
    return os.environ.get("REPRO_SSA", "1").lower() not in ("0", "off", "")


class PassBlameError(VerifyError):
    """A verification failure attributed to the pass that introduced it."""

    def __init__(self, pass_name: str, cause: VerifyError):
        where = cause.function or "?"
        if cause.block:
            where += f"/{cause.block}"
        detail = cause.detail or "IR invariants"
        super().__init__(
            f"pass `{pass_name}` broke {detail} in `{where}`: {cause}",
            function=cause.function, block=cause.block, detail=detail)
        self.pass_name = pass_name


def verify_after_pass(pass_name: str, func, module=None) -> None:
    """Verify ``func`` if ``--verify-ir`` is on, blaming ``pass_name``
    for any failure.  One boolean check when verification is off."""
    if not verify_ir_enabled():
        return
    try:
        verify_function(func, module)
    except PassBlameError:
        raise
    except VerifyError as exc:
        raise PassBlameError(pass_name, exc) from exc


# ---------------------------------------------------------------------------
# Pass objects.  ``constfold`` and ``simplifycfg`` can rewrite terminators,
# so they preserve nothing; the straight-line cleanups keep the CFG (and
# with it preds/domtree/loops) intact.
# ---------------------------------------------------------------------------

class LICMPass(FunctionPass):
    name = "licm"
    preserves = frozenset()      # creates preheader blocks

    def run(self, func, module, fam):
        return bool(hoist_invariants(func, loops=fam.get(func, "loops")))


class RotatePass(FunctionPass):
    name = "rotate"
    preserves = frozenset()      # duplicates headers, retargets latches

    def run(self, func, module, fam):
        return bool(rotate_loops(func, loops=fam.get(func, "loops")))


class SSAConstructPass(FunctionPass):
    name = "ssa-construct"
    preserves = frozenset()      # may drop unreachable blocks, add entry

    def run(self, func, module, fam):
        if getattr(func, "ssa", False):
            return False
        from ..ssa import construct_ssa
        phis = construct_ssa(func, dt=fam.get(func, "domtree"))
        get_registry().counter("opt.ssa.phis").inc(phis)
        return True


class SSADestructPass(FunctionPass):
    name = "ssa-destruct"
    preserves = frozenset()      # splits critical edges

    def run(self, func, module, fam):
        if not getattr(func, "ssa", False):
            return False
        from ..ssa import destruct_ssa
        copies = destruct_ssa(func)
        get_registry().counter("opt.ssa.copies").inc(copies)
        return True


_CONSTFOLD = SimplePass("constfold", fold_constants)
_COPYPROP = SimplePass("copyprop", propagate_copies, preserves=CFG_ANALYSES)
_COLLAPSE = SimplePass("collapse", collapse_defs, preserves=CFG_ANALYSES)
_DCE = SimplePass("dce", eliminate_dead_code, preserves=CFG_ANALYSES)
_SIMPLIFYCFG = SimplePass("simplifycfg", simplify_cfg)

_CLEANUP = FixedPoint(
    [_CONSTFOLD, _COPYPROP, _COLLAPSE, _DCE, _SIMPLIFYCFG], name="cleanup")

#: The SSA-region optimizer: phi-aware passes only (``simplify_cfg`` and
#: ``constfold``'s branch folding would break phi/predecessor agreement).
_SSA_OPT = FixedPoint([GVNPass(), SCCPPass(), StrengthReducePass(), _DCE],
                      max_rounds=4, name="ssa-opt")
_SSA_PIPELINE = (SSAConstructPass(), _SSA_OPT, SSADestructPass())

#: The SSA-region optimizer for range-eliding engines: adds the interval
#: simplification pass between SCCP (which exposes constants it can
#: compare against) and DCE (which sweeps the folded comparisons).
_SSA_OPT_RANGES = FixedPoint(
    [GVNPass(), SCCPPass(), RangeSimplifyPass(), StrengthReducePass(),
     _DCE], max_rounds=4, name="ssa-opt")
_SSA_PIPELINE_RANGES = (SSAConstructPass(), _SSA_OPT_RANGES,
                        SSADestructPass())

_LICM = LICMPass()
_ROTATE = RotatePass()


def run_ssa_midend(func, module=None,
                   fam: FunctionAnalysisManager = None,
                   ranges: bool = False) -> bool:
    """Take ``func`` through the SSA region: construct, optimize to a
    fixpoint (GVN, SCCP, strength reduction, DCE), destruct.  With
    ``ranges`` the fixpoint additionally folds interval-decided
    comparisons and branches (eliding JIT tiers only — the shared
    ``optimize_module`` pipeline stays range-free so the 2019 baselines
    are untouched)."""
    if fam is None:
        fam = FunctionAnalysisManager()
    pipeline = _SSA_PIPELINE_RANGES if ranges else _SSA_PIPELINE
    changed = False
    for p in pipeline:
        changed |= bool(_run_pass(p, func, module, fam))
    return changed


def _pipeline_passes(level: int, licm: bool, rotate: bool, use_ssa: bool):
    """The ordered function-pass list ``optimize_module`` runs (the
    module-level inliner and the unroll tail are fingerprinted as config
    flags instead)."""
    passes = [_CLEANUP]
    if level >= 2:
        passes.append(_CLEANUP)          # post-inline cleanup
        if use_ssa:
            passes.extend(_SSA_PIPELINE)
            passes.append(_CLEANUP)
        if licm:
            passes.extend([_LICM, _CLEANUP])
        if rotate:
            passes.extend([_ROTATE, _CLEANUP])
    return passes


#: The native tail's unroll policy (``unroll_module``), fingerprinted
#: by ``opt_pipeline_fingerprint(unroll=True)``.
UNROLL_FACTOR = 4
UNROLL_MAX_INSTRS = 86


def opt_pipeline_fingerprint(level: int = 2, inline_threshold: int = 20,
                             rotate: bool = True, licm: bool = True,
                             unroll: bool = False,
                             unroll_factor: int = UNROLL_FACTOR,
                             unroll_max_instrs: int = UNROLL_MAX_INSTRS,
                             ssa: bool = None) -> str:
    """Fingerprint of the optimization pipeline these settings produce.

    Folded into compile-cache keys so that adding, reordering, or
    re-versioning passes — or toggling ``REPRO_SSA`` — can never serve a
    program compiled by a different pipeline.
    """
    use_ssa = ssa_enabled() if ssa is None else bool(ssa)
    return pipeline_fingerprint(
        _pipeline_passes(level, licm, rotate, use_ssa),
        ("level", level), ("inline", inline_threshold),
        ("unroll", unroll, unroll_factor, unroll_max_instrs),
        ("ssa", use_ssa),
        # Artifacts depend on the range configuration even though the
        # shared pipeline never folds ranges: the ``--check-ranges``
        # oracle annotates (and the wasm encoder embeds) range facts.
        ("ranges", ranges_enabled(), RANGES_VERSION,
         check_ranges_enabled()))


def jit_pipeline_fingerprint(optimizing_tier: bool, ssa: bool = None) -> str:
    """Fingerprint of the mid-end a JIT engine runs (the SSA region for
    2019 optimizing tiers, nothing extra for older vintages).  Folded
    into JIT compile-cache keys alongside the engine signature.

    The range configuration is part of the identity: toggling
    ``REPRO_RANGES``/``--check-ranges`` changes what an eliding engine
    emits (checks elided, oracle assertions attached), so it must never
    serve stale code.  The execution tier is not: it changes only how
    fast the simulator runs a program, never the program."""
    use_ssa = (ssa_enabled() if ssa is None else bool(ssa)) \
        and optimizing_tier
    return pipeline_fingerprint(
        list(_SSA_PIPELINE) if use_ssa else [], ("jit-ssa", use_ssa),
        ("jit-ranges", ranges_enabled(), RANGES_VERSION,
         check_ranges_enabled()))


def optimize_module(module: Module, level: int = 2,
                    inline_threshold: int = 20,
                    rotate: bool = True,
                    licm: bool = True,
                    ssa: bool = None) -> Module:
    """Run the middle-end pipeline over every function in ``module``.

    ``level`` 0 disables everything; 1 runs local cleanups; 2 adds
    inlining, the SSA mid-end, LICM, and loop rotation.  This is the
    half both backends share; native follows it with ``unroll_module``.
    ``ssa=None`` follows ``REPRO_SSA`` (default on).
    """
    if level <= 0:
        return module
    use_ssa = ssa_enabled() if ssa is None else bool(ssa)
    fam = FunctionAnalysisManager()
    if verify_ir_enabled():
        # Verify the pipeline *input* unblamed, so a frontend bug is
        # reported as such and never pinned on the first pass.
        for func in module.functions.values():
            verify_function(func, module)
    with span("opt.cleanup", module=module.name):
        for func in module.functions.values():
            _run_pass(_CLEANUP, func, module, fam)
    if level >= 2:
        with span("opt.inline", module=module.name):
            start = time.perf_counter()
            inline_calls(module, threshold=inline_threshold)
            get_registry().histogram("opt.pass_seconds.inline").observe(
                time.perf_counter() - start)
            fam.clear()    # the inliner runs outside the manager
            for func in module.functions.values():
                verify_after_pass("inline", func, module)
                _run_pass(_CLEANUP, func, module, fam)
        if use_ssa:
            with span("opt.ssa", module=module.name):
                for func in module.functions.values():
                    run_ssa_midend(func, module, fam)
                    _run_pass(_CLEANUP, func, module, fam)
        if licm:
            with span("opt.licm", module=module.name):
                for func in module.functions.values():
                    _run_pass(_LICM, func, module, fam)
                    _run_pass(_CLEANUP, func, module, fam)
        if rotate:
            with span("opt.rotate", module=module.name):
                for func in module.functions.values():
                    _run_pass(_ROTATE, func, module, fam)
                    _run_pass(_CLEANUP, func, module, fam)
    return module


def unroll_module(module: Module) -> Module:
    """The native-only tail after ``optimize_module``: unroll small
    innermost loops (the paper's JITs do not unroll, and this is the
    429.mcf i-cache mechanism, §6.3)."""
    with span("opt.unroll", module=module.name):
        for func in module.functions.values():
            if unroll_loops(func, factor=UNROLL_FACTOR,
                            max_instrs=UNROLL_MAX_INSTRS):
                verify_after_pass("unroll", func, module)
                localize_temps(func)
                verify_after_pass("localize", func, module)
            simplify_cfg(func)
            verify_after_pass("simplifycfg", func, module)
    return module
