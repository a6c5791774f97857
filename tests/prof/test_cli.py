"""End-to-end tests of engine profiles and the ``repro perf`` CLI."""

import importlib
import json
import signal
import subprocess
import sys

import pytest

from repro.__main__ import main as repro_main
from repro.core.registry import driver_module
from repro.prof import EngineProfiler, installed_profiler, write_artifacts
from repro.prof.cli import main
from repro.prof.export import load_profile
from repro.runner import ExperimentRunner
from repro.simengine import Delay, Simulator
from repro.simrace.certify import _clear_module_memoization


def _synthetic_profile(tmp_path, stem, delays):
    """Record a tiny real sim into ``tmp_path`` and return its paths."""
    prof = EngineProfiler()
    with installed_profiler(prof):
        sim = Simulator()

        def proc(sim):
            for d in delays:
                yield Delay(d)

        sim.spawn(proc(sim), name="rank0")
        sim.run()
    prof.finalize(None)
    return write_artifacts(prof, str(tmp_path), stem, meta={"exp_id": stem})


def _profile_fig22(out, trace_dir=None):
    """Profile fig22 the way ``repro all --only fig22 --profile`` does."""
    outcome = ExperimentRunner(
        profile_dir=str(out), trace_dir=trace_dir
    ).run(["fig22"])[0]
    assert not outcome.failed, outcome.error
    # Defeat the driver's module-level memoization, which would make the
    # next in-process profile of fig22 an empty no-op sim.
    _clear_module_memoization(importlib.import_module(driver_module("fig22")))


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """One real profiled run (fig22) shared by the read-only commands."""
    out = tmp_path_factory.mktemp("profiles")
    _profile_fig22(out)
    return out


def test_record_writes_all_three_artifacts(recorded):
    names = sorted(p.name for p in recorded.iterdir())
    assert names == [
        "fig22.folded",
        "fig22.metrics.json",
        "fig22.profile.json",
    ]
    profile = load_profile(str(recorded / "fig22.profile.json"))
    assert profile["engine"]["events"] > 0
    assert profile["meta"]["exp_id"] == "fig22"


def test_flame_emits_folded_stacks(recorded):
    # The flamegraph input written next to every profile: sorted
    # flamegraph.pl lines, "path;seg <int>", one per collapsed stack.
    profile = load_profile(str(recorded / "fig22.profile.json"))
    lines = (recorded / "fig22.folded").read_text().splitlines()
    assert lines and lines == sorted(lines)
    for line in lines:
        path, _, value = line.rpartition(" ")
        assert path and int(value) >= 0
    assert len(lines) == len(profile["stacks"])


def test_record_unknown_experiment_is_exit_2(tmp_path, capsys):
    argv = ["all", "--only", "nope", "--profile", str(tmp_path / "p"),
            "--out", str(tmp_path / "out")]
    assert repro_main(argv) == 2
    assert "unknown experiment 'nope'" in capsys.readouterr().out
    # The id is checked before anything is profiled or written.
    assert not (tmp_path / "p").exists()


def test_link_utilization_gauges_need_a_trace(recorded, tmp_path):
    """Link-utilization gauges come from the tracer's busy-time counters,
    so a profile carries them only when ``--trace`` rides along."""

    def link_gauges(profile_dir):
        doc = json.loads((profile_dir / "fig22.metrics.json").read_text())
        return [name for name in doc["gauges"]
                if name.startswith("net.link[")
                and name.endswith("].utilization")]

    assert link_gauges(recorded) == []
    traced = tmp_path / "traced"
    (tmp_path / "traces").mkdir()
    _profile_fig22(traced, trace_dir=str(tmp_path / "traces"))
    assert link_gauges(traced)


def test_summary_reports_hotspots_and_attribution(recorded, capsys):
    assert main(
        ["summary", str(recorded / "fig22.profile.json"), "--top", "5"]
    ) == 0
    out = capsys.readouterr().out
    assert "engine profile" in out
    assert "engine phases by self time" in out
    assert "top 5 callsites by inclusive time" in out
    assert "scheduling edges" in out
    # Acceptance: the hotspot table attributes >=95% of wall time.
    attributed = float(out.split("attributed: ")[1].split("%")[0])
    assert attributed >= 95.0


def test_summary_defaults_to_profiles_dir(recorded, tmp_path,
                                          monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["summary"]) == 2
    assert "no profiles" in capsys.readouterr().err
    _synthetic_profile(tmp_path / "profiles", "mini", [0.1, 0.2])
    assert main(["summary"]) == 0
    assert "mini.profile.json" in capsys.readouterr().out


def test_diff_shows_signed_deltas_and_fail_over_gate(tmp_path, capsys):
    a = _synthetic_profile(tmp_path / "a", "run", [0.1] * 3)[0]
    b = _synthetic_profile(tmp_path / "b", "run", [0.1] * 3)[0]
    assert main(["diff", a, b]) == 0
    out = capsys.readouterr().out
    assert "profile diff (A -> B)" in out
    assert "delta_ms" in out and "delta_%" in out
    # Inflate one phase in B far beyond the floor and the threshold.
    doc = json.loads(open(b).read())
    doc["phases"]["proc.delay"]["self_ns"] = int(200e6)
    doc["phases"].setdefault(
        "engine.queue", {"self_ns": 0}
    )["self_ns"] += int(100e6)
    open(b, "w").write(json.dumps(doc))
    assert main(["diff", a, b, "--fail-over", "50"]) == 1
    out = capsys.readouterr().out
    assert "FAIL:" in out and "proc.delay" in out
    # The same drift passes an absurdly loose gate.
    assert main(["diff", a, b, "--fail-over", "1e9"]) == 0
    assert "ok: no phase slowed" in capsys.readouterr().out


def test_fail_over_floor_exempts_tiny_phases(tmp_path, capsys):
    a = _synthetic_profile(tmp_path / "a", "run", [0.1])[0]
    b = _synthetic_profile(tmp_path / "b", "run", [0.1])[0]
    # Triple every phase in B, but keep all under the 5 ms floor.
    doc = json.loads(open(b).read())
    for entry in doc["phases"].values():
        entry["self_ns"] = min(entry["self_ns"] * 3, int(4e6))
    open(b, "w").write(json.dumps(doc))
    assert main(["diff", a, b, "--fail-over", "10"]) == 0
    assert "ok: no phase slowed" in capsys.readouterr().out


def test_bad_schema_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.profile.json"
    bad.write_text('{"schema": 99}')
    assert main(["summary", str(bad)]) == 2
    assert "schema" in capsys.readouterr().err


def test_closed_pipe_ends_summary_quietly(recorded):
    """``repro perf summary ... | head -1`` is not bad input: when the
    reader goes away the tool prints no error and does not exit 2."""
    # ~0.7 MB of summaries overruns a 64 KiB pipe buffer many times
    # over, so the tool is still writing when the reader closes its end.
    profile = str(recorded / "fig22.profile.json")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "perf", "summary", *[profile] * 400],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait() == 128 + signal.SIGPIPE
    assert first.startswith(b"== engine profile")
    assert err == b""


def test_module_alias_and_repro_perf_passthrough():
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "perf", "--", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "usage: repro perf" in proc.stdout
