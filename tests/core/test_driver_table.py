"""The static driver table and the drivers' ``@register`` calls agree."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.core import registry
from repro.experiments import DRIVERS

SRC = str(pathlib.Path(__file__).resolve().parents[2] / "src")

#: Records every ``@register`` call of a fresh interpreter, then imports
#: every driver module.
_RECORD = """
import json
from repro.core import registry
from repro.experiments import DRIVERS

seen = {}
original = registry.register

def recording(exp_id, title=""):
    def record(fn):
        seen[exp_id] = [fn.__module__, title]
        return original(exp_id, title)(fn)
    return record

registry.register = recording
registry._ensure_loaded()
print(json.dumps({"seen": seen, "registered": sorted(registry._REGISTRY)}))
"""


def test_register_calls_yield_exactly_the_table():
    proc = subprocess.run(
        [sys.executable, "-c", _RECORD], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=SRC), check=True,
    )
    got = json.loads(proc.stdout)
    assert got["seen"] == {e: list(row) for e, row in DRIVERS.items()}
    assert got["registered"] == sorted(DRIVERS)


def test_register_rejects_an_id_missing_from_the_table(monkeypatch):
    monkeypatch.setattr(registry, "_REGISTRY", {})

    def run():
        pass

    with pytest.raises(ValueError, match="DRIVERS"):
        registry.register("fig99", title="Not a figure")(run)


def test_register_rejects_a_title_or_module_that_disagrees(monkeypatch):
    monkeypatch.setattr(registry, "_REGISTRY", {})
    module, title = DRIVERS["table1"]

    def run():
        pass

    run.__module__ = module
    with pytest.raises(ValueError, match="disagrees"):
        registry.register("table1", title=title + " (edited)")(run)
    run.__module__ = "repro.experiments.fig05_dgemm"
    with pytest.raises(ValueError, match="disagrees"):
        registry.register("table1", title=title)(run)
    run.__module__ = module
    assert registry.register("table1", title=title)(run) is run
