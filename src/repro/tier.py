"""Execution-tier selection for the simulated execution stack.

The interpreters have three tiers, mirroring the quickening/superinstruction
design Titzer describes for baseline wasm compilers:

- ``off``     — plain pre-decoded table dispatch; no re-decoding ever happens.
  This is the reference the other tiers must match exactly.
- ``quicken`` — hot functions are re-decoded with per-opcode specializations
  (e.g. trap-free numeric ops skip the guest-trap guard).
- ``fuse``    — quickening plus superinstruction fusion: hot adjacent
  pairs/triples are collapsed into single handlers with pre-bound operands.

The simulated x86 machine runs its block engine (:mod:`repro.x86.blocks`)
at every tier but ``off``.

All tiers produce bit-identical results (times, perf counters, profiles,
stdout); the tier only changes how fast the simulator itself runs.  In the
interpreters hotness is per function: a function is promoted after
``HOT_CALLS`` entries, or immediately if it contains a loop, so cold startup
code keeps the cheap plain-dispatch decode.

The active tier comes from, in priority order: an explicit per-instance
argument, ``set_tier()`` (the ``--tier`` CLI knob), the ``REPRO_TIER``
environment variable, then the default (``fuse``).
"""

from __future__ import annotations

import os

TIERS = ("off", "quicken", "fuse")
TIER_LEVELS = {"off": 0, "quicken": 1, "fuse": 2}
DEFAULT_TIER = "fuse"

# Entries before a loop-free function is promoted off plain dispatch.
HOT_CALLS = 4

_tier: str | None = None


def get_tier() -> str:
    """Return the active tier name."""
    if _tier is not None:
        return _tier
    env = os.environ.get("REPRO_TIER")
    if env in TIER_LEVELS:
        return env
    return DEFAULT_TIER


def set_tier(name: str | None) -> None:
    """Set the process-wide tier (``None`` resets to env/default)."""
    global _tier
    if name is not None and name not in TIER_LEVELS:
        raise ValueError(f"unknown tier {name!r}; expected one of {TIERS}")
    _tier = name


def tier_level(name: str | None = None) -> int:
    """Resolve a tier name (or the active tier) to its numeric level."""
    if name is None:
        return TIER_LEVELS[get_tier()]
    if name not in TIER_LEVELS:
        raise ValueError(f"unknown tier {name!r}; expected one of {TIERS}")
    return TIER_LEVELS[name]


def note_promotion(fused_sites: int) -> None:
    """Record a function promotion in the metrics registry.

    Called once per promoted function (rare), so the registry lookup cost
    never touches the dispatch hot path.
    """
    from .obs.metrics import get_registry

    registry = get_registry()
    registry.counter("tier.promotions").inc()
    if fused_sites:
        registry.counter("tier.fused_ops").inc(fused_sites)
