"""Cache-key derivation: every ingredient must invalidate independently."""

import json

from repro.faults import FaultPlan
from repro.runner import (
    NO_FAULTS,
    ExperimentRunner,
    cache_key,
    driver_source,
    fault_hash,
    machine_blob,
    sweep_blob,
)
from repro.runner.fingerprint import canonical_json, sha256_text

BASE = dict(
    driver_src="def run(): return 1\n",
    machines='{"xt4/SN":{}}',
    sweeps='{"GLOBAL_SWEEP":[128]}',
    version="1.0.0",
    fault_hash=NO_FAULTS,
)


def test_identical_inputs_identical_key():
    assert cache_key("fig05", **BASE) == cache_key("fig05", **BASE)


def test_exp_id_in_key():
    assert cache_key("fig05", **BASE) != cache_key("fig06", **BASE)


def test_driver_source_edit_misses():
    edited = dict(BASE, driver_src="def run(): return 2\n")
    assert cache_key("fig05", **BASE) != cache_key("fig05", **edited)


def test_machine_config_swap_misses():
    edited = dict(BASE, machines='{"xt4/SN":{"clock_ghz":2.8}}')
    assert cache_key("fig05", **BASE) != cache_key("fig05", **edited)


def test_sweep_change_misses():
    edited = dict(BASE, sweeps='{"GLOBAL_SWEEP":[128,256]}')
    assert cache_key("fig05", **BASE) != cache_key("fig05", **edited)


def test_version_bump_misses():
    edited = dict(BASE, version="1.0.1")
    assert cache_key("fig05", **BASE) != cache_key("fig05", **edited)


def test_fault_plan_attach_misses():
    edited = dict(BASE, fault_hash="ab" * 32)
    assert cache_key("fig05", **BASE) != cache_key("fig05", **edited)


def test_driver_source_is_module_source():
    src = driver_source("fig05")
    assert '@register("fig05"' in src and "def shape_checks" in src


def test_machine_blob_covers_both_modes():
    blob = json.loads(machine_blob())
    assert "xt4/SN" in blob and "xt4/VN" in blob
    assert blob["xt4/SN"]["node"]["processor"]


def test_sweep_blob_matches_common_constants():
    from repro.experiments.common import GLOBAL_SWEEP

    blob = json.loads(sweep_blob())
    assert blob["GLOBAL_SWEEP"] == list(GLOBAL_SWEEP)


def _plan_hash(path):
    return fault_hash(FaultPlan.load(str(path)).to_dict())


def test_empty_fault_plan_differs_from_no_faults(tmp_path):
    plan = tmp_path / "plan.json"
    plan.write_text('{"version": 1, "events": []}')
    h = _plan_hash(plan)
    assert h != NO_FAULTS
    assert fault_hash(None) == NO_FAULTS
    # Cosmetic JSON reformatting must not change the hash...
    plan.write_text('{"events":[],"version":1}')
    assert _plan_hash(plan) == h


def test_semantic_fault_plan_change_changes_hash(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps({"version": 1, "events": []}))
    b.write_text(json.dumps({
        "version": 1,
        "events": [{"t_s": 10.0, "kind": "node_crash", "node": 3}],
    }))
    assert _plan_hash(a) != _plan_hash(b)


def test_key_for_is_stable_and_fault_sensitive(tmp_path):
    key = ExperimentRunner().key_for("fig05")
    assert key == ExperimentRunner().key_for("fig05")
    plan = tmp_path / "plan.json"
    plan.write_text('{"version": 1, "events": []}')
    faulted = ExperimentRunner(fault_plan=FaultPlan.load(str(plan)).to_dict())
    assert key != faulted.key_for("fig05")


def test_canonical_json_is_order_insensitive():
    assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})
    assert sha256_text("x") == sha256_text("x")
