"""The execution-tier name that ``perfbench/run.py`` records.

The x86 machine chooses its loop per machine (see
:class:`repro.x86.machine.X86Machine`), so there is no tier to select.
This module is kept only for the benchmark's ``pinned_knobs`` import,
until a benchmark-only change drops that import; nothing in the
toolchain reads it.
"""


def get_tier() -> str:
    """The block engine's name, as the benchmark has always recorded it."""
    return "fuse"
