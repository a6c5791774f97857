"""Cache-key derivation: every ingredient must invalidate independently."""

import json
import pathlib
import shutil

import pytest

from repro.faults import FaultPlan
from repro.runner import (
    NO_FAULTS,
    ExperimentRunner,
    cache_key,
    fault_hash,
    model_tree_hash,
)
from repro.runner.fingerprint import canonical_json, sha256_text

PACKAGE = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"

BASE = dict(tree="ab" * 32, fault_hash=NO_FAULTS)


@pytest.fixture
def tree_copy(tmp_path):
    """An editable copy of the ``repro`` package; hash it after editing
    (the hash is memoized per root)."""
    copy = tmp_path / "repro"
    shutil.copytree(
        PACKAGE, copy, ignore=shutil.ignore_patterns("__pycache__")
    )
    return copy


def _edit(path, old, new):
    text = path.read_text()
    assert old in text, f"{old!r} not in {path}"
    path.write_text(text.replace(old, new, 1))


def _key_of(tree):
    return cache_key("fig05", tree=tree, fault_hash=NO_FAULTS)


def test_identical_inputs_identical_key():
    assert cache_key("fig05", **BASE) == cache_key("fig05", **BASE)


def test_exp_id_in_key():
    assert cache_key("fig05", **BASE) != cache_key("fig06", **BASE)


def test_fault_plan_attach_misses():
    edited = dict(BASE, fault_hash="ab" * 32)
    assert cache_key("fig05", **BASE) != cache_key("fig05", **edited)


def test_unedited_copy_hashes_like_the_checkout(tree_copy):
    assert model_tree_hash(str(tree_copy)) == model_tree_hash()


def test_driver_source_edit_misses(tree_copy):
    _edit(tree_copy / "experiments" / "fig05_dgemm.py",
          "def shape_checks", "# edited\ndef shape_checks")
    edited = model_tree_hash(str(tree_copy))
    assert _key_of(edited) != _key_of(model_tree_hash())


def test_machine_config_swap_misses(tree_copy):
    path = tree_copy / "machine" / "configs.py"
    path.write_text(path.read_text() + "\n# recalibrated\n")
    edited = model_tree_hash(str(tree_copy))
    assert _key_of(edited) != _key_of(model_tree_hash())


def test_sweep_change_misses(tree_copy):
    _edit(tree_copy / "experiments" / "common.py",
          "GLOBAL_SWEEP: Tuple[int, ...] = (128, ",
          "GLOBAL_SWEEP: Tuple[int, ...] = (64, 128, ")
    edited = model_tree_hash(str(tree_copy))
    assert _key_of(edited) != _key_of(model_tree_hash())


def test_model_edit_outside_driver_misses(tree_copy):
    # What the old package-version guard was for: a model module that
    # no driver's own source names.
    _edit(tree_copy / "apps" / "pop" / "model.py",
          "CG_ITERS_PER_STEP = 150", "CG_ITERS_PER_STEP = 300")
    assert model_tree_hash(str(tree_copy)) != model_tree_hash()


def test_new_model_file_misses(tree_copy):
    (tree_copy / "kernels" / "extra.py").write_text("X = 1\n")
    assert model_tree_hash(str(tree_copy)) != model_tree_hash()


def test_tooling_edit_keeps_the_hash(tree_copy):
    for package in ("lint", "campaign", "runner", "obs", "prof", "simrace"):
        path = tree_copy / package / "__init__.py"
        path.write_text(path.read_text() + "\n# edited\n")
    (tree_copy / "version.py").write_text('__version__ = "9.9.9"\n')
    assert model_tree_hash(str(tree_copy)) == model_tree_hash()


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
