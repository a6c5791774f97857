"""Chaos harness: SIGKILL workers mid-cell and mid-journal, then resume.

The crash contract under test: a campaign whose workers die by SIGKILL
— mid-cell, between cache write and journal append, or mid-journal-write
(modelled by a torn tail) — resumes to completion with the *same merged
bytes* as an uninterrupted serial run, with dead workers' leases stolen
rather than wedging the queue.

When ``CAMPAIGN_CHAOS_ARTIFACTS`` is set (the CI smoke job does), the
kill-test's journal and report are copied there for upload.
"""
# Host wall-clock/sleep use is the point of a chaos harness.
# simlint: ignore-file[SL201,SL302,SL303]

import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import time

import pytest

from repro.campaign import Campaign, WorkerConfig, build_cells
from repro.campaign.journal import Journal

CHEAP6 = ["table1", "fig07", "fig06", "ext_multicore", "fig05", "fig04"]
EMPTY_PLAN = {"version": 1, "events": []}


def _twelve_cells():
    return build_cells(CHEAP6, [("none", None), ("empty", EMPTY_PLAN)])


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


def _spawn_worker(campaign, name, env=None):
    cmd = [
        sys.executable, "-m", "repro", "campaign", "worker", campaign.id,
        "--root", str(campaign.root), "--name", name,
    ]
    full_env = dict(os.environ)
    full_env["PYTHONPATH"] = str(
        pathlib.Path(__file__).resolve().parents[2] / "src"
    )
    full_env.update(env or {})
    return subprocess.Popen(
        cmd, start_new_session=True, env=full_env,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )


def _wait_for_lease_by(campaign, worker_name, timeout=30.0):
    """Block until ``worker_name`` has journaled a lease."""
    deadline = time.monotonic() + timeout
    journal = Journal(campaign.dir)
    while time.monotonic() < deadline:
        for record in journal.records():
            if (
                record.get("state") == "leased"
                and record.get("worker") == worker_name
            ):
                return record["cell"]
        time.sleep(0.05)
    raise AssertionError(f"{worker_name} never leased a cell")


def _merge_bytes(campaign, out_dir):
    written, problems = campaign.merge(out_dir)
    assert problems == []
    return {p.name: p.read_bytes() for p in written}


@pytest.mark.slow
def test_sigkill_mid_cell_steal_resume_and_identical_bytes(tmp_path):
    # Clean serial baseline first, in its own store: the gold bytes.
    baseline = Campaign.create(
        "gold", _twelve_cells(),
        _config(tmp_path / "gold"), root=tmp_path / "root",
    )
    stats = baseline.drain_inline(name="serial")
    assert stats.done == 12
    gold = _merge_bytes(baseline, tmp_path / "gold-out")
    assert len(gold) == 24

    chaos = Campaign.create(
        "chaos", _twelve_cells(),
        _config(tmp_path / "chaos"), root=tmp_path / "root",
    )
    # Two CLI workers; every cell dawdles so the kill lands mid-cell.
    slow = {"REPRO_CAMPAIGN_CELL_DELAY_S": "0.4"}
    victim = _spawn_worker(chaos, "victim", env=slow)
    survivor = _spawn_worker(chaos, "survivor", env=slow)
    try:
        _wait_for_lease_by(chaos, "victim")
        # SIGKILL the victim's whole session (worker + its cell child):
        # no handlers run, the flock evaporates with the fds.
        os.killpg(victim.pid, signal.SIGKILL)
        victim.wait()
        assert survivor.wait(timeout=120) == 0
    finally:
        for proc in (victim, survivor):
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()

    # The survivor alone may have drained everything already; a resume
    # must finish whatever is left either way.
    resumed = Campaign.load("chaos", root=tmp_path / "root")
    resumed.drain_inline(name="resumer")
    summary = resumed.summary()
    assert summary["done"] == summary["total"] == 12
    assert summary["quarantined"] == 0
    assert summary["stolen"] >= 1  # the victim's cell was stolen
    # Crash + steal + resume produced byte-identical merged artifacts.
    assert _merge_bytes(resumed, tmp_path / "chaos-out") == gold

    artifacts = os.environ.get("CAMPAIGN_CHAOS_ARTIFACTS")
    if artifacts:  # pragma: no cover - CI only
        dest = pathlib.Path(artifacts)
        dest.mkdir(parents=True, exist_ok=True)
        shutil.copy(resumed.journal.path, dest / "chaos-journal.jsonl")
        (dest / "chaos-report.json").write_text(
            json.dumps(resumed.report(), indent=2, sort_keys=True)
        )


@pytest.mark.slow
def test_sigterm_stops_cleanly_and_resume_finishes(tmp_path):
    campaign = Campaign.create(
        "interrupted", _twelve_cells(),
        _config(tmp_path), root=tmp_path / "root",
    )
    worker = _spawn_worker(
        campaign, "w0", env={"REPRO_CAMPAIGN_CELL_DELAY_S": "0.3"}
    )
    try:
        _wait_for_lease_by(campaign, "w0")
        worker.terminate()  # what `campaign.wait` forwards on Ctrl-C
        assert worker.wait(timeout=60) == 130
    finally:
        if worker.poll() is None:
            os.killpg(worker.pid, signal.SIGKILL)
            worker.wait()
    # The interrupted cell was left leased without burning an attempt...
    states = campaign.states()
    assert all(st.failures == 0 for st in states.values())
    assert not campaign.finished()
    # ...and a resume steals it and drains the rest.
    campaign.drain_inline(name="resumer")
    summary = campaign.summary()
    assert summary["done"] == 12
    assert summary["stolen"] >= 1


def test_torn_journal_tail_resumes(tmp_path):
    campaign = Campaign.create(
        "torn", build_cells(["fig05", "table1"]),
        _config(tmp_path), root=tmp_path / "root",
    )
    campaign.drain_inline(name="w0", max_cells=1)
    # A worker SIGKILLed inside its journal append leaves a torn line.
    with open(campaign.journal.path, "ab") as fh:
        fh.write(b'{"cell": "table1", "state": "don')
    campaign.drain_inline(name="w1")
    assert campaign.finished()
    report = campaign.report()
    assert report["journal_records_skipped"] == 1
    assert report["summary"]["done"] == 2
