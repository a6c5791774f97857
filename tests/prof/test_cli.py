"""End-to-end tests of the ``repro perf`` CLI."""

import json
import subprocess
import sys

import pytest

from repro.prof import EngineProfiler, installed_profiler, write_artifacts
from repro.prof.cli import main
from repro.prof.export import load_profile
from repro.simengine import Delay, Simulator


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


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """One real ``record`` run (fig22) shared by the read-only commands."""
    out = tmp_path_factory.mktemp("profiles")
    assert main(["record", "--exp", "fig22", "--out", str(out)]) == 0
    return out


def test_record_writes_all_three_artifacts(recorded, capsys):
    names = sorted(p.name for p in recorded.iterdir())
    assert names == [
        "fig22.folded",
        "fig22.metrics.json",
        "fig22.profile.json",
    ]
    profile = load_profile(str(recorded / "fig22.profile.json"))
    assert profile["engine"]["events"] > 0
    assert profile["meta"]["exp_id"] == "fig22"


def test_record_unknown_experiment_is_exit_2(tmp_path, capsys):
    assert main(["record", "--exp", "nope", "--out", str(tmp_path)]) == 2
    assert "repro perf:" in capsys.readouterr().err


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


def test_flame_emits_folded_stacks(recorded, tmp_path, capsys):
    profile = str(recorded / "fig22.profile.json")
    assert main(["flame", profile]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l]
    assert lines == sorted(lines)
    # flamegraph.pl format: "path;seg;seg <integer>".
    for line in lines:
        path, _, value = line.rpartition(" ")
        assert path and int(value) >= 0
    target = tmp_path / "out.folded"
    assert main(["flame", profile, "-o", str(target)]) == 0
    assert target.read_text() == out


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


def test_module_alias_and_repro_perf_passthrough():
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "perf", "--", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "usage: repro perf" in proc.stdout
