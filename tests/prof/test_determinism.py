"""Determinism guarantees of the profiling subsystem.

Three properties, all required by the PR acceptance bar:

1. The deterministic artifacts — ``*.metrics.json`` and the profile's
   ``deterministic`` section — are byte-identical across repeated
   recordings of the same experiment (wall-clock ``*_ns`` fields vary;
   nothing else may).
2. ``repro all --profile DIR`` writes the same deterministic artifacts
   under ``--jobs 4`` as under serial execution.
3. Profiling is observationally free: running a driver under an
   installed profiler leaves its result rows, counters and companion
   report bit-identical to an unprofiled run.
"""

import importlib
import json
import pathlib
import subprocess
import sys

from repro.prof import installed_profiler
from repro.prof.record import record_experiment
from repro.simrace.certify import _clear_module_memoization, _execution_blob

EXP = "fig22"
ALL_EXPS = "fig02,fig22,fig12_13"


def _deterministic_bytes(profile_path):
    """The repeat-stable slice of a profile file, canonically encoded."""
    doc = json.loads(pathlib.Path(profile_path).read_text())
    return json.dumps(doc["deterministic"], sort_keys=True).encode()


def _record_twice(tmp_path):
    outcomes = []
    for i in (1, 2):
        out = record_experiment(EXP, str(tmp_path / f"run{i}"))
        # Defeat the drivers' module-level @lru_cache memoization, which
        # would otherwise make the second recording an empty no-op sim.
        from repro.core import get_experiment

        driver = get_experiment(EXP)
        _clear_module_memoization(importlib.import_module(driver.__module__))
        outcomes.append(out)
    return outcomes


def test_repeat_recordings_are_deterministic(tmp_path):
    run1, run2 = _record_twice(tmp_path)
    assert run1.events == run2.events > 0
    profile1, _, metrics1 = run1.paths
    profile2, _, metrics2 = run2.paths
    # Sim-time metrics: byte-identical files.
    assert pathlib.Path(metrics1).read_bytes() == \
        pathlib.Path(metrics2).read_bytes()
    # Profile: the deterministic section matches byte for byte...
    assert _deterministic_bytes(profile1) == _deterministic_bytes(profile2)
    # ...while the wall-clock section genuinely measured something.
    doc = json.loads(pathlib.Path(profile1).read_text())
    assert doc["engine"]["run_wall_ns"] > 0


def _repro_all(out_dir, jobs):
    proc = subprocess.run(
        [
            sys.executable, "-m", "repro", "all",
            "--only", ALL_EXPS,
            "--profile", str(out_dir),
            "--no-cache",
            "--jobs", str(jobs),
            "--out", str(out_dir / "results"),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_repro_all_parallel_profiles_match_serial(tmp_path):
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    _repro_all(serial, jobs=1)
    _repro_all(parallel, jobs=4)
    exp_ids = sorted(ALL_EXPS.split(","))
    assert sorted(p.stem for p in serial.glob("*.folded")) == exp_ids
    for exp_id in exp_ids:
        # Every id profiles real engine work — fig02 and fig22 through
        # their DES companions — not two empty profiles.
        doc = json.loads((serial / f"{exp_id}.profile.json").read_text())
        assert doc["engine"]["events"] > 0, exp_id
        assert (serial / f"{exp_id}.metrics.json").read_bytes() == \
            (parallel / f"{exp_id}.metrics.json").read_bytes()
        assert _deterministic_bytes(serial / f"{exp_id}.profile.json") == \
            _deterministic_bytes(parallel / f"{exp_id}.profile.json")


def test_profiling_leaves_results_bit_identical():
    baseline = _execution_blob("fig12_13")
    with installed_profiler() as prof:
        profiled = _execution_blob("fig12_13")
    assert prof.events > 0  # the profiler really saw the run
    assert json.dumps(baseline, sort_keys=True) == \
        json.dumps(profiled, sort_keys=True)
