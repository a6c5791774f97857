"""Campaign lifecycle: manifest, inline drain, resume, merge, telemetry."""
# Small budgets below are test fixtures, not model constants.
# simlint: ignore-file[SL201,SL302,SL303]

import fcntl
import json
import os
import pathlib
import re
import signal
import subprocess
import sys
import time

import pytest

from repro.campaign import (
    Campaign,
    CampaignError,
    CampaignExistsError,
    WorkerConfig,
    build_cells,
)
from repro.__main__ import main as repro_main
from repro.campaign.cells import plan_tag
from repro.campaign.journal import Journal
from repro.core import registry
from repro.core.report import render_csv, render_result
from repro.faults import FaultPlan
from repro.obs import Tracer
from repro.runner import ExperimentRunner, ResultCache
from repro.runner.cache import SCHEMA

CHEAP = ["fig05", "table1"]
EMPTY_PLAN = {"version": 1, "events": []}
SRC = str(pathlib.Path(__file__).resolve().parents[2] / "src")


def _bomb_all_drivers(monkeypatch):
    registry._ensure_loaded()
    for exp_id, original in list(registry._REGISTRY.items()):
        def bomb(exp_id=exp_id):
            raise AssertionError(f"driver {exp_id} executed")
        bomb.__module__ = original.__module__
        monkeypatch.setitem(registry._REGISTRY, exp_id, bomb)


def _config(tmp_path, **kwargs):
    defaults = dict(
        cache_dir=str(tmp_path / "cache"),
        heartbeat_s=0.05,
        stale_after_s=0.25,
        base_backoff_s=0.01,
        seed=7,
    )
    defaults.update(kwargs)
    return WorkerConfig(**defaults)


def _create(tmp_path, cells=None, campaign_id="c1", **cfg):
    cells = cells if cells is not None else build_cells(CHEAP)
    return Campaign.create(
        campaign_id, cells, _config(tmp_path, **cfg), root=tmp_path / "root"
    )


def test_create_writes_self_contained_manifest(tmp_path):
    cells = build_cells(CHEAP, [("none", None), ("empty", EMPTY_PLAN)])
    campaign = _create(tmp_path, cells)
    manifest = json.loads(campaign.manifest_path.read_text())
    assert manifest["id"] == "c1"
    assert len(manifest["cells"]) == 4
    # The plan rides inline: resume never needs the original file.
    planned = [c for c in manifest["cells"] if "plan" in c]
    assert len(planned) == 2
    assert planned[0]["plan"] == EMPTY_PLAN
    assert manifest["config"]["max_attempts"] == 3


def test_create_is_idempotent_for_identical_spec(tmp_path):
    _create(tmp_path)
    again = _create(tmp_path)  # run twice == resume
    assert again.exists


def test_create_rejects_spec_drift_under_same_id(tmp_path):
    _create(tmp_path)
    with pytest.raises(CampaignExistsError, match="different cell spec"):
        _create(tmp_path, build_cells(["fig05"]))


def test_invalid_ids_are_rejected(tmp_path):
    for bad in ("", "a/b", ".hidden"):
        with pytest.raises(CampaignError):
            Campaign(bad, root=tmp_path)


def test_load_missing_campaign_names_known_ids(tmp_path):
    _create(tmp_path)
    with pytest.raises(CampaignError, match="c1"):
        Campaign.load("nope", root=tmp_path / "root")


def test_inline_drain_completes_and_merges(tmp_path):
    campaign = _create(tmp_path)
    stats = campaign.drain_inline(name="w0")
    assert stats.done == 2
    assert campaign.finished()
    summary = campaign.summary()
    assert summary["done"] == summary["total"] == 2
    assert summary["quarantined"] == 0
    written, problems = campaign.merge(tmp_path / "out")
    assert problems == []
    assert sorted(p.name for p in written) == [
        "fig05.csv", "fig05.txt", "table1.csv", "table1.txt",
    ]


def test_merged_artifacts_match_direct_execution(tmp_path):
    campaign = _create(tmp_path)
    campaign.drain_inline(name="w0")
    campaign.merge(tmp_path / "out")
    for exp_id in CHEAP:
        result = registry.get_experiment(exp_id)()
        assert (tmp_path / "out" / f"{exp_id}.csv").read_text() == \
            render_csv(result)
        assert (tmp_path / "out" / f"{exp_id}.txt").read_text() == \
            render_result(result)


def test_resume_serves_done_cells_warm_across_campaigns(
    tmp_path, monkeypatch
):
    _create(tmp_path, campaign_id="first").drain_inline(name="w0")
    _bomb_all_drivers(monkeypatch)
    # A second campaign over the same cells shares the result store:
    # zero driver executions.
    second = _create(tmp_path, campaign_id="second")
    stats = second.drain_inline(name="w0")
    assert stats.done == 2
    assert stats.cache_hits == 2
    assert second.summary()["warm"] == 2


def test_cache_write_before_journal_append_dedupes(tmp_path, monkeypatch):
    # The SIGKILL-between-cache-write-and-journal-append window: the
    # cell's result is in the store but the journal never saw "done".
    campaign = _create(tmp_path)
    cache = ResultCache(campaign.config().cache_dir)
    for cell in campaign.cells():  # what the worker's cell child runs
        ExperimentRunner(cache, fault_plan=cell.plan).run([cell.exp_id])
    campaign.journal.append(
        {"cell": "fig05", "state": "leased", "worker": "dead", "attempt": 1}
    )
    _bomb_all_drivers(monkeypatch)
    stats = campaign.drain_inline(name="w0")
    # Every cell re-runs warm — including the orphaned lease, which is
    # stolen and then deduped by fingerprint.
    assert stats.done == 2 and stats.cache_hits == 2
    assert stats.stolen == 1
    assert campaign.summary()["stolen"] == 1


def test_partial_drain_then_resume_completes(tmp_path):
    campaign = _create(tmp_path)
    first = campaign.drain_inline(name="w0", max_cells=1)
    assert first.outcome == "sliced"
    assert not campaign.finished()
    reloaded = Campaign.load("c1", root=tmp_path / "root")
    second = reloaded.drain_inline(name="w1")
    assert second.ran == 1
    assert reloaded.finished()


def test_merge_reports_unfinished_and_evicted_cells(tmp_path):
    campaign = _create(tmp_path)
    campaign.drain_inline(name="w0", max_cells=1)
    written, problems = campaign.merge(tmp_path / "out")
    assert len(written) == 2  # the one done cell
    assert len(problems) == 1 and "pending" in problems[0]
    # Evict the store: merge flags the vanished result instead of dying.
    cache_dir = tmp_path / "cache"
    for entry in (cache_dir / SCHEMA).glob("*/*.json"):
        entry.unlink()
    written, problems = campaign.merge(tmp_path / "out2")
    assert written == []
    assert any("missing from cache" in p for p in problems)


def test_report_is_json_safe_and_ordered(tmp_path):
    campaign = _create(tmp_path)
    campaign.drain_inline(name="w0")
    report = json.loads(json.dumps(campaign.report()))
    assert [r["cell_id"] for r in report["cells"]] == CHEAP
    assert all(r["state"] == "done" for r in report["cells"])
    assert report["summary"]["done"] == 2
    assert report["journal_records_skipped"] == 0


def test_publish_exports_deterministic_counters(tmp_path):
    campaign = _create(tmp_path)
    campaign.drain_inline(name="w0")
    a, b = Tracer(), Tracer()
    campaign.publish(a)
    campaign.publish(b)
    totals = a.counter_totals("campaign.")
    assert totals["campaign.cells.done"] == 2.0
    assert "campaign.cells.quarantined" not in totals
    assert totals["campaign.cell[fig05].wall_s"] >= 0.0
    assert a.counter_totals() == b.counter_totals()  # replay-stable


def test_quarantined_campaign_publishes_quarantine(tmp_path, monkeypatch):
    _bomb_all_drivers(monkeypatch)
    campaign = _create(
        tmp_path, build_cells(["fig05"]), campaign_id="poison",
        max_attempts=1,
    )
    campaign.drain_inline(name="w0")
    assert campaign.finished()  # quarantine is terminal
    tracer = Tracer()
    campaign.publish(tracer)
    assert tracer.counter_totals()["campaign.cells.quarantined"] == 1.0
    assert campaign.summary()["quarantined"] == 1


def test_list_ids_sees_only_real_campaigns(tmp_path):
    _create(tmp_path, campaign_id="b")
    _create(tmp_path, campaign_id="a", cells=build_cells(["fig05"]))
    (tmp_path / "root" / "debris").mkdir()
    assert Campaign.list_ids(tmp_path / "root") == ["a", "b"]


@pytest.mark.parametrize("faulted", [False, True], ids=["no-faults", "sampled"])
def test_front_ends_share_keys_and_bytes(tmp_path, monkeypatch, faulted):
    """serial == --jobs 2 == inline campaign == 2-worker campaign.

    All four front ends execute through ``ExperimentRunner``, each into
    its own cache, so agreement here means equal cache keys and
    byte-identical artifacts, not one front end reading another's
    entries.
    """
    ids = ",".join(["fig04", "fig12_13", "table1"])
    monkeypatch.setenv("PYTHONPATH", SRC)  # spawned campaign workers
    monkeypatch.chdir(tmp_path)
    all_faults, campaign_faults, tag = [], "none", ""
    if faulted:
        plan = FaultPlan.sample(
            10.0, 2, node_mtbf_s=2.0, nic_mtbf_s=2.0, seed=7
        )
        plan.save("plan.json")
        all_faults, campaign_faults = ["--faults", "plan.json"], "plan.json"
        tag = "@" + plan_tag(plan.to_dict())
    regen = ["all", "--only", ids, *all_faults]
    campaign = [
        "campaign", "run", "--root", "campaigns", "--cells", ids,
        "--faults", campaign_faults,
    ]
    runs = {  # name -> (argv, artifact name suffix)
        "serial": (regen + ["--jobs", "1"], ""),
        "jobs2": (regen + ["--jobs", "2"], ""),
        "inline": (campaign + ["--id", "inline", "--workers", "0"], tag),
        "workers2": (campaign + ["--id", "w2", "--workers", "2"], tag),
    }
    keys, artifacts = {}, {}
    for name, (argv, suffix) in runs.items():
        argv = argv + [
            "--cache-dir", f"{name}-cache", "--out", name,
            "--report", f"{name}.json",
        ]
        assert repro_main(argv) == 0, name
        report = json.loads(pathlib.Path(f"{name}.json").read_text())
        rows = report.get("experiments") or report["cells"]
        keys[name] = {r["exp_id"]: r["key"] for r in rows}
        artifacts[name] = {
            f"{exp_id}.{ext}": (tmp_path / name / f"{exp_id}{suffix}.{ext}")
            .read_bytes()
            for exp_id in ids.split(",")
            for ext in ("csv", "txt")
        }
    assert sorted(keys["serial"]) == ids.split(",")
    assert keys["serial"] == keys["jobs2"] == keys["inline"] == keys["workers2"]
    assert artifacts["serial"] == artifacts["jobs2"] == artifacts["inline"]
    assert artifacts["serial"] == artifacts["workers2"]


def _repro_process(argv, cwd, stdout, **env):
    """``python -m repro <argv>`` as a child process of the test."""
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *argv], cwd=cwd, stdout=stdout,
        stderr=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=SRC, **env),
    )


def test_one_registry_import_per_campaign_process_tree(tmp_path):
    """Workers and cells are forks of the coordinator's warm process.

    ``PYTHONPROFILEIMPORTTIME`` reaches every interpreter of the tree
    (forks inherit it), so the ``repro.experiments`` package line shows
    up once per process that imports the registry: it must be only the
    coordinator. Its stdout, redirected to a file, must hold each of its
    lines once: a forked worker does not re-flush the parent's buffer.
    """
    with open(tmp_path / "stdout.txt", "w") as out:
        proc = _repro_process(
            ["campaign", "run", "--cells", "table1,fig04,fig05",
             "--workers", "2", "--root", "camp", "--cache-dir", "cache",
             "--out", "out"],
            tmp_path, out, PYTHONPROFILEIMPORTTIME="1",
        )
        _, stderr = proc.communicate(timeout=120)
    assert proc.returncode == 0, stderr[-2000:]
    imports = [
        line for line in stderr.splitlines()
        if re.fullmatch(r"import time:.*\|\s+repro\.experiments", line)
    ]
    assert len(imports) == 1, imports
    lines = (tmp_path / "stdout.txt").read_text().splitlines()
    assert len(lines) == 4, lines  # header, forked, summary, wrote
    assert len(set(lines)) == len(lines), lines
    assert lines[1].startswith("forked 2 worker(s)")


def _children(pid):
    """Pids whose parent is ``pid``."""
    found = []
    for stat in pathlib.Path("/proc").glob("[0-9]*/stat"):
        try:
            ppid = int(stat.read_text().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        if ppid == pid:
            found.append(int(stat.parent.name))
    return found


def _tree_bytes(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.slow
def test_ctrl_c_at_coordinator_stops_workers_and_resume_matches(tmp_path):
    cells = "table1,fig04,fig05,fig06"
    root, cache = str(tmp_path / "root"), str(tmp_path / "cache")
    gold = tmp_path / "gold"
    assert repro_main([
        "campaign", "run", "--id", "gold", "--cells", cells,
        "--workers", "0", "--root", root, "--cache-dir",
        str(tmp_path / "gold-cache"), "--out", str(gold),
    ]) == 0

    coordinator = _repro_process(
        ["campaign", "run", "--id", "cc", "--cells", cells, "--workers", "2",
         "--heartbeat", "0.1", "--root", root, "--cache-dir", cache],
        tmp_path, subprocess.DEVNULL, REPRO_CAMPAIGN_CELL_DELAY_S="0.5",
    )
    journal = Journal(tmp_path / "root" / "cc")
    try:
        deadline = time.monotonic() + 60
        leased = set()
        while leased != {"w0", "w1"}:  # both forked and mid-cell
            assert time.monotonic() < deadline, "workers never leased"
            time.sleep(0.05)
            leased = {
                r.get("worker") for r in journal.records()
                if r.get("state") == "leased"
            }
        workers = _children(coordinator.pid)
        assert len(workers) == 2
        coordinator.send_signal(signal.SIGINT)  # the coordinator only
        _, stderr = coordinator.communicate(timeout=60)
        assert coordinator.returncode == 130, stderr[-2000:]
    finally:
        if coordinator.poll() is None:
            for pid in [coordinator.pid, *_children(coordinator.pid)]:
                os.kill(pid, signal.SIGKILL)
            coordinator.wait()

    # Both workers were stopped mid-cell, leaving their cells leased
    # without burning an attempt, and reaped before the coordinator left...
    campaign = Campaign.load("cc", root=root)
    assert not campaign.finished()
    assert all(st.failures == 0 for st in campaign.states().values())
    for pid in workers:
        assert not pathlib.Path(f"/proc/{pid}").exists(), pid
    # ...and no cell child outlived them holding a lease.
    leases = sorted((tmp_path / "root" / "cc" / "leases").glob("*.lease"))
    assert leases
    for lease in leases:
        fd = os.open(lease, os.O_RDWR)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        finally:
            os.close(fd)

    out = tmp_path / "resumed"
    assert repro_main([
        "campaign", "resume", "cc", "--workers", "2", "--root", root,
        "--out", str(out),
    ]) == 0
    assert campaign.summary()["stolen"] >= 1
    assert _tree_bytes(out) == _tree_bytes(gold)
