"""`repro faults` and the `--faults` flag: a bad plan file is a usage error."""

import json
import subprocess
import sys

import pytest

from repro.__main__ import main

BAD_PLANS = {
    "future_version": {"version": 99},
    "typo_events": {
        "version": 1,
        "evnts": [{"t_s": 1.0, "kind": "node_crash", "node": 0}],
    },
}


@pytest.fixture(params=[*BAD_PLANS, "missing", "not_json"])
def bad_plan(request, tmp_path):
    path = tmp_path / "plan.json"
    if request.param == "not_json":
        path.write_text("{version: 1")
    elif request.param != "missing":
        path.write_text(json.dumps(BAD_PLANS[request.param]))
    return str(path)


@pytest.mark.parametrize("argv", [
    ["faults", "show", "{plan}"],
    ["run", "table1", "--faults", "{plan}"],
    ["all", "--only", "table1", "--no-cache", "--out", "{out}",
     "--faults", "{plan}"],
], ids=["faults-show", "run", "all"])
def test_bad_plan_is_one_line_and_exit_2(argv, bad_plan, tmp_path, capsys):
    out = tmp_path / "out"
    argv = [a.format(plan=bad_plan, out=out) for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "plan" in err
    assert not out.exists()  # nothing ran, nothing was written


def test_bad_plan_prints_no_traceback(tmp_path):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(BAD_PLANS["typo_events"]))
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "all", "--only", "table1",
         "--no-cache", "--out", str(tmp_path / "out"), "--faults", str(plan)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "no 'events' list" in proc.stderr


def test_show_prints_a_sampled_plan(tmp_path, capsys):
    plan = tmp_path / "plan.json"
    assert main([
        "faults", "sample", "--horizon", "1.0", "--nodes", "8",
        "--node-mtbf", "0.5", "--seed", "7", "--out", str(plan),
    ]) == 0
    assert main(["faults", "show", str(plan)]) == 0
    out = capsys.readouterr().out
    assert f"{plan}: " in out and "node_crash" in out
