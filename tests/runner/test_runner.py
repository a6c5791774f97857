"""ExperimentRunner: caching, invalidation, parallel/serial equivalence."""

import pathlib
import shutil

import pytest

from repro.core import registry
from repro.core.report import render_csv, render_result
from repro.faults import FaultPlan
from repro.obs import Tracer
from repro.runner import ExperimentRunner, ResultCache, model_tree_hash

CHEAP = ["fig05", "table1"]
SRC_PACKAGE = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"


def _bomb_all_drivers(monkeypatch):
    """Replace every registered driver with one that fails the test."""
    registry._ensure_loaded()
    for exp_id, original in list(registry._REGISTRY.items()):
        def bomb(exp_id=exp_id):
            raise AssertionError(f"driver {exp_id} executed")
        # Keep the original module, as a real driver would have: only
        # execution must differ.
        bomb.__module__ = original.__module__
        monkeypatch.setitem(registry._REGISTRY, exp_id, bomb)


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


def test_cold_run_executes_and_caches(cache):
    runner = ExperimentRunner(cache)
    outcomes = runner.run(CHEAP)
    assert [o.exp_id for o in outcomes] == sorted(CHEAP)
    assert all(not o.from_cache for o in outcomes)
    assert (runner.hits, runner.misses) == (0, 2)
    assert cache.entries() == 2


def test_warm_run_executes_no_driver(cache, monkeypatch):
    cold = ExperimentRunner(cache).run(CHEAP)
    _bomb_all_drivers(monkeypatch)
    warm = ExperimentRunner(cache).run(CHEAP)
    assert all(o.from_cache for o in warm)
    for a, b in zip(cold, warm):
        assert render_csv(a.result) == render_csv(b.result)
        assert render_result(a.result) == render_result(b.result)


def test_force_re_executes(cache):
    ExperimentRunner(cache).run(CHEAP)
    runner = ExperimentRunner(cache, force=True)
    outcomes = runner.run(CHEAP)
    assert all(not o.from_cache for o in outcomes)
    assert (runner.hits, runner.misses) == (0, 2)


def test_no_cache_never_stores(tmp_path):
    runner = ExperimentRunner(None)
    outcomes = runner.run(CHEAP)
    assert all(not o.from_cache for o in outcomes)
    assert all(o.key is None for o in outcomes)
    again = ExperimentRunner(None).run(CHEAP)
    assert all(not o.from_cache for o in again)


def _key_on_edited_copy(monkeypatch, tmp_path, rel, old, new):
    """Key the runner on a copy of the model tree with one file edited."""
    copy = tmp_path / "repro"
    shutil.copytree(
        SRC_PACKAGE, copy, ignore=shutil.ignore_patterns("__pycache__")
    )
    path = copy / rel
    text = path.read_text()
    assert old in text, f"{old!r} not in {rel}"
    path.write_text(text.replace(old, new, 1))
    tree = model_tree_hash(str(copy))
    monkeypatch.setattr("repro.runner.runner.model_tree_hash", lambda: tree)


def test_driver_source_edit_invalidates(cache, monkeypatch, tmp_path):
    ExperimentRunner(cache).run(["fig05"])
    _key_on_edited_copy(monkeypatch, tmp_path, "experiments/fig05_dgemm.py",
                        "def shape_checks", "# edited\ndef shape_checks")
    runner = ExperimentRunner(cache)
    outcomes = runner.run(["fig05"])
    assert not outcomes[0].from_cache
    assert runner.misses == 1


def test_machine_config_swap_invalidates(cache, monkeypatch, tmp_path):
    ExperimentRunner(cache).run(["fig05"])
    _key_on_edited_copy(monkeypatch, tmp_path, "machine/configs.py",
                        "def xt4", "# recalibrated\ndef xt4")
    outcomes = ExperimentRunner(cache).run(["fig05"])
    assert not outcomes[0].from_cache


def test_sweep_change_invalidates(cache, monkeypatch, tmp_path):
    ExperimentRunner(cache).run(["fig05"])
    _key_on_edited_copy(monkeypatch, tmp_path, "experiments/common.py",
                        "(128, 256, 512, 1024)", "(64, 128, 256, 512, 1024)")
    outcomes = ExperimentRunner(cache).run(["fig05"])
    assert not outcomes[0].from_cache


def test_model_edit_outside_driver_invalidates(cache, monkeypatch, tmp_path):
    ExperimentRunner(cache).run(["fig05"])
    _key_on_edited_copy(monkeypatch, tmp_path, "hpcc/dgemm_bench.py",
                        "HPCC SP/EP DGEMM", "Edited HPCC SP/EP DGEMM")
    outcomes = ExperimentRunner(cache).run(["fig05"])
    assert not outcomes[0].from_cache


def test_fault_plan_invalidates_and_never_aliases(cache, tmp_path):
    plan = tmp_path / "plan.json"
    plan.write_text('{"version": 1, "events": []}')
    plan = FaultPlan.load(str(plan)).to_dict()
    fault_free = ExperimentRunner(cache).run(["table1"])
    faulted = ExperimentRunner(cache, fault_plan=plan).run(["table1"])
    assert not faulted[0].from_cache  # distinct key, no aliasing
    assert fault_free[0].key != faulted[0].key
    # Each variant warms its own entry.
    assert ExperimentRunner(cache).run(["table1"])[0].from_cache
    warm = ExperimentRunner(cache, fault_plan=plan).run(["table1"])
    assert warm[0].from_cache


def test_identical_inputs_hit_with_identical_bytes(cache):
    cold = ExperimentRunner(cache).run(["fig05"])
    warm = ExperimentRunner(cache).run(["fig05"])
    assert warm[0].from_cache
    assert warm[0].key == cold[0].key
    assert render_csv(warm[0].result) == render_csv(cold[0].result)
    assert render_result(warm[0].result) == render_result(cold[0].result)


def test_parallel_matches_serial(cache, tmp_path):
    ids = ["fig02", "fig05", "table1"]
    serial = ExperimentRunner(None).run(ids, jobs=1)
    parallel = ExperimentRunner(ResultCache(tmp_path / "p")).run(ids, jobs=2)
    assert [o.exp_id for o in parallel] == [o.exp_id for o in serial]
    for a, b in zip(serial, parallel):
        assert a.result.to_dict() == b.result.to_dict()


def test_runner_counters_reach_tracer(cache):
    tracer = Tracer()
    ExperimentRunner(cache, tracer=tracer).run(CHEAP)
    totals = tracer.counter_totals("runner.")
    assert totals["runner.cache.misses"] == 2.0
    assert "runner.cache.hits" not in totals
    assert totals["runner.exp[fig05].wall_s"] > 0.0
    warm_tracer = Tracer()
    ExperimentRunner(cache, tracer=warm_tracer).run(CHEAP)
    assert warm_tracer.counter_totals()["runner.cache.hits"] == 2.0


def test_trace_dir_bypasses_cache_and_writes_traces(cache, tmp_path):
    ExperimentRunner(cache).run(["fig02"])
    trace_dir = tmp_path / "traces"
    trace_dir.mkdir()
    runner = ExperimentRunner(cache, trace_dir=str(trace_dir))
    outcomes = runner.run(["fig02"])
    assert not outcomes[0].from_cache  # executed despite warm cache
    assert (trace_dir / "fig02.trace.json").is_file()
    assert cache.entries() == 1  # and nothing new was stored


def _raise_in_driver(monkeypatch, exp_id):
    """Make ``exp_id``'s driver raise — in this process and (via fork)
    in pool workers."""
    registry._ensure_loaded()
    original = registry._REGISTRY[exp_id]

    def broken():
        raise RuntimeError(f"driver {exp_id} is broken")

    broken.__module__ = original.__module__
    monkeypatch.setitem(registry._REGISTRY, exp_id, broken)


@pytest.mark.parametrize("jobs", [1, 2])
def test_raising_driver_is_a_per_experiment_failure(cache, monkeypatch, jobs):
    _raise_in_driver(monkeypatch, "fig05")
    runner = ExperimentRunner(cache)
    outcomes = runner.run(CHEAP, jobs=jobs)  # does NOT raise
    by_id = {o.exp_id: o for o in outcomes}
    assert [o.exp_id for o in outcomes] == sorted(CHEAP)
    assert by_id["fig05"].failed and by_id["fig05"].result is None
    assert by_id["fig05"].error == "RuntimeError: driver fig05 is broken"
    assert not by_id["table1"].failed and by_id["table1"].result is not None
    assert (runner.hits, runner.misses) == (0, 2)
    assert cache.entries() == 1  # the failure is never cached


def test_cli_all_counts_only_the_files_it_wrote(monkeypatch, tmp_path, capsys):
    from repro.__main__ import main

    _raise_in_driver(monkeypatch, "fig05")
    out = tmp_path / "out"
    assert main(["all", "--only", "fig05,table1", "--no-cache",
                 "--out", str(out)]) == 1
    printed = capsys.readouterr().out
    assert "[FAIL] fig05" in printed
    assert sorted(p.name for p in out.iterdir()) == ["table1.csv", "table1.txt"]
    assert f"wrote 2 files (2 experiments) to {out}/" in printed


def test_unknown_id_raises_with_known_list(cache):
    with pytest.raises(registry.UnknownExperimentError, match="known:"):
        ExperimentRunner(cache).run(["fig99"])
