"""The README's environment-variable table must match the code."""

import os
import re

from repro.obs.hwc import HwcModel
from repro.serve.server import ServeConfig

README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def _dcache():
    config = HwcModel.from_env().config
    return config["dcache_size"], config["dcache_ways"]


#: What the code falls back to for each knob with a numeric default,
#: read with the variable unset.
CODE_DEFAULTS = {
    "REPRO_HWC_DCACHE": _dcache,
    "REPRO_SERVE_QUEUE_DEPTH": lambda: ServeConfig().queue_depth,
    "REPRO_SERVE_MAX_WAIT": lambda: ServeConfig().max_wait,
    "REPRO_SERVE_MAX_AGE": lambda: ServeConfig().max_age,
    "REPRO_SERVE_RATE": lambda: ServeConfig().rate,
    "REPRO_SERVE_BURST": lambda: ServeConfig().burst,
    "REPRO_SERVE_BREAKER_THRESHOLD": lambda: ServeConfig().breaker_threshold,
    "REPRO_SERVE_BREAKER_RESET": lambda: ServeConfig().breaker_reset,
}


def documented_numeric_defaults() -> dict:
    """{variable: (numbers...)} for every row of the README env table
    whose default is a number or a comma-separated list of numbers."""
    with open(README) as fh:
        text = fh.read()
    table = text.split("## Environment variables", 1)[1].split("\n## ", 1)[0]
    defaults = {}
    for var, effect in re.findall(r"^\| `(REPRO_\w+)` \| (.*) \|$", table,
                                  re.M):
        match = re.search(r"default `([\d.,]+)`", effect)
        if match:
            defaults[var] = tuple(float(x) for x in match.group(1).split(","))
    return defaults


def test_env_table_numeric_defaults_match_code(monkeypatch):
    documented = documented_numeric_defaults()
    assert set(documented) == set(CODE_DEFAULTS)
    for var in CODE_DEFAULTS:
        monkeypatch.delenv(var, raising=False)
    for var, resolve in CODE_DEFAULTS.items():
        value = resolve()
        numbers = value if isinstance(value, tuple) else (value,)
        assert tuple(float(x) for x in numbers) == documented[var], var
