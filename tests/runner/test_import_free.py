"""``repro list`` and an all-hit ``repro all`` import no model.

Both run as child processes under ``PYTHONPROFILEIMPORTTIME=1``, whose
stderr then names every module the interpreter imported.
"""

import os
import pathlib
import re
import subprocess
import sys

from repro.core.experiment import ExperimentResult
from repro.core.registry import all_experiments
from repro.runner import CacheEntry, ExperimentRunner, ResultCache

SRC = str(pathlib.Path(__file__).resolve().parents[2] / "src")

#: Driver modules, numpy and scipy (and their submodules).
MODEL_IMPORT = re.compile(
    r"import time:.*\|\s+("
    r"repro\.experiments\.(fig|ext_|table1)\S*|numpy(\.\S+)?|scipy(\.\S+)?"
    r")$"
)


def _imports(argv, cwd):
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *argv], cwd=cwd,
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=SRC, PYTHONPROFILEIMPORTTIME="1"),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr[-2000:]
    assert "import time:" in proc.stderr
    return proc.stdout, [
        m.group(1) for m in map(MODEL_IMPORT.match, proc.stderr.splitlines())
        if m
    ]


def test_list_imports_no_model(tmp_path):
    stdout, imported = _imports(["list"], tmp_path)
    assert len(stdout.splitlines()) == len(all_experiments())
    assert imported == []


def test_all_hit_run_imports_no_model(tmp_path):
    # Every id's real key, with a placeholder result: this test is about
    # what a hit imports, not what it holds.
    cache = ResultCache(tmp_path / "cache")
    runner = ExperimentRunner(cache)
    for exp_id in all_experiments():
        result = ExperimentResult(
            exp_id=exp_id, title="t", xlabel="x", ylabel="y"
        )
        result.add("s", [1], [1.0])
        cache.put(CacheEntry(
            key=runner.key_for(exp_id), exp_id=exp_id, version="1.0.0",
            wall_s=0.0, result=result, failures=[],
        ))
    stdout, imported = _imports(
        ["all", "--out", "out", "--cache-dir", "cache"], tmp_path
    )
    n = len(all_experiments())
    assert f"cache: {n} hits, 0 misses" in stdout
    assert imported == []
