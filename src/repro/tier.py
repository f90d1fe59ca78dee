"""Execution-tier selection for the simulated x86 machine.

Two tiers:

- ``off``  — the per-instruction reference loop
  (:meth:`repro.x86.machine.X86Machine._execute`), the oracle the block
  engine is checked against.
- ``fuse`` — the block engine (:mod:`repro.x86.blocks`): straight-line
  blocks run as closures with their operands pre-bound.

Runs with an instrument attached (profile attribution, the hwc model)
or with ``--check-ranges`` take the reference loop at either tier.  The
tier is a pure speed knob: times, perf counters, i-cache, trap text and
stdout are bit-identical at both.

The active tier comes from, in priority order: an explicit per-machine
argument, ``set_tier()`` (the ``--tier`` CLI knob), the ``REPRO_TIER``
environment variable, then the default (``fuse``).  An unknown
``REPRO_TIER`` value falls back to the default.
"""

from __future__ import annotations

import os

TIERS = ("off", "fuse")
TIER_LEVELS = {name: level for level, name in enumerate(TIERS)}
DEFAULT_TIER = "fuse"

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
