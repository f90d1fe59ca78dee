"""The README's environment-variable table must match the code."""

import os
import re

ROOT = os.path.join(os.path.dirname(__file__), "..")
README = os.path.join(ROOT, "README.md")

#: What the code falls back to for each knob with a numeric default,
#: read with the variable unset.
CODE_DEFAULTS = {}


def env_table() -> dict:
    """{variable: effect} for every row of the README env table."""
    with open(README) as fh:
        text = fh.read()
    table = text.split("## Environment variables", 1)[1].split("\n## ", 1)[0]
    return dict(re.findall(r"^\| `(REPRO_\w+)` \| (.*) \|$", table, re.M))


def documented_numeric_defaults() -> dict:
    """{variable: (numbers...)} for every row of the README env table
    whose default is a number or a comma-separated list of numbers."""
    defaults = {}
    for var, effect in env_table().items():
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


def test_env_table_lists_every_variable_the_code_reads():
    """Every ``REPRO_*`` name in ``src/`` has a row, and every row names
    a variable the code still reads."""
    named = set()
    for dirpath, _dirs, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name)) as fh:
                    named |= set(re.findall(r"REPRO_[A-Z_]+", fh.read()))
    assert named == set(env_table())
