"""The result cache must miss after any edit to the model tree.

Each case copies ``src/`` into a temporary directory and runs ``python
-m repro all`` against the copy, so edits never touch the checkout.
"""

import os
import pathlib
import re
import shutil
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"


def _copy_src(tmp_path):
    copy = tmp_path / "src"
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
    return copy


def _edit(path, old, new):
    text = path.read_text()
    assert old in text, f"{old!r} not in {path}"
    path.write_text(text.replace(old, new, 1))


def _repro_all(src, cwd, out, exp_id):
    """``(status, hits, misses)`` of ``repro all --only exp_id``."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "all", "--only", exp_id,
         "--out", out, "--cache-dir", "cache"],
        cwd=cwd, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    # Exit 1 is a failed shape check, which an edited model may cause.
    assert proc.returncode in (0, 1), proc.stdout + proc.stderr
    status = re.search(r"^\[(PASS|FAIL)\] " + exp_id, proc.stdout, re.M)
    counts = re.search(r"cache: (\d+) hits, (\d+) misses", proc.stdout)
    assert status is not None and counts is not None, proc.stdout
    return status.group(1), int(counts.group(1)), int(counts.group(2))


def test_model_edit_misses_and_tooling_edit_hits(tmp_path):
    src = _copy_src(tmp_path)
    assert _repro_all(src, tmp_path, "cold", "fig17") == ("PASS", 0, 1)
    cold = (tmp_path / "cold" / "fig17.csv").read_bytes()

    # Control: the lint package is tooling, outside the model tree.
    (src / "repro" / "lint" / "core.py").write_text(
        (src / "repro" / "lint" / "core.py").read_text() + "\n# edited\n"
    )
    assert _repro_all(src, tmp_path, "lint", "fig17") == ("PASS", 1, 0)
    assert (tmp_path / "lint" / "fig17.csv").read_bytes() == cold

    # A model constant the fig17 driver does not mention by name.
    _edit(src / "repro" / "apps" / "pop" / "model.py",
          "CG_ITERS_PER_STEP = 150", "CG_ITERS_PER_STEP = 300")
    _, hits, misses = _repro_all(src, tmp_path, "pop", "fig17")
    assert (hits, misses) == (0, 1)
    assert (tmp_path / "pop" / "fig17.csv").read_bytes() != cold
