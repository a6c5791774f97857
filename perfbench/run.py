"""End-to-end benchmark of the ``repro`` command line, with a layer split.

Run from the root of a checkout::

    python3 perfbench/run.py --workload regen_cold --seed 1 --seconds 25 --trace 0

Each iteration runs one user-facing command (``repro all`` or ``repro
campaign run``) as a fresh process, in a fresh directory under
``.perfbench_work/``, and checks its output tree byte for byte against
the checked-in ``results/``. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` reports the per-layer metrics from a traced run (see
``layers.py`` and ``agent/``). The last line of standard output is one
JSON object; the lines before it name every metric with its unit and
sample count. Workloads and metrics are described in ``README.md``.
"""
# Wall-clock reads are the point of this file: it measures host time.

from __future__ import annotations

import argparse
import json
import os
import pathlib
import random
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from layers import (  # noqa: E402
    EXACT_COUNTS,
    load_dumps,
    parse_importtime,
    trace_metrics,
)
from stats import describe, summarize  # noqa: E402

ROOT = pathlib.Path.cwd()
SPEC = ROOT / "BENCHMARK.json"
SRC = ROOT / "src"
RESULTS = ROOT / "results"
WORK = ROOT / ".perfbench_work"
AGENT = pathlib.Path(__file__).resolve().parent / "agent"
PYTHON = sys.executable

#: ``repro list`` start-ups timed per run for ``setup_s``, spread evenly
#: over the run: the host's speed drifts over seconds, so samples taken
#: back to back would all see the same moment.
SETUP_RUNS = 6
#: Iterations measured per run at the least, whatever ``--seconds`` says.
MIN_ITERATIONS = 2
#: A single command taking longer than this is killed and fails.
COMMAND_TIMEOUT_S = 150.0
CAMPAIGN_WORKERS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str            # "regen" (repro all) or "campaign"
    jobs: int = 1
    warm: bool = False

    def argv(self, d: pathlib.Path, ids: List[str], seed: int) -> List[str]:
        """The ``repro`` arguments of one iteration in directory ``d``."""
        if self.kind == "campaign":
            order = list(ids)
            random.Random(seed).shuffle(order)
            return [
                "campaign", "run", "--id", "bench", "--cells", ",".join(order),
                "--workers", str(CAMPAIGN_WORKERS), "--root", str(d / "camp"),
                "--cache-dir", str(d / "cache"), "--out", str(d / "out"),
                "--report", str(d / "report.json"),
            ]
        return [
            "all", "--out", str(d / "out"), "--cache-dir", str(d / "cache"),
            "--report", str(d / "report.json"), "--jobs", str(self.jobs),
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("regen_cold", "regen"),
        Workload("regen_warm", "regen", warm=True),
        Workload("regen_jobs2", "regen", jobs=2),
        Workload("campaign_w2", "campaign"),
    )
}


@dataclass
class Process:
    """One finished command: host cost and what it printed."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    returncode: int
    stdout: str
    stderr: str


@dataclass
class Tally:
    """Correctness across every command a run checks."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def problem(self, text: str) -> None:
        self.problems.append(text)
        print(f"FAIL: {text}", file=sys.stderr, flush=True)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def _descendants(pid: int) -> List[int]:
    children: Dict[int, List[int]] = {}
    for stat in pathlib.Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        children.setdefault(int(fields[1]), []).append(int(stat.parent.name))
    found, todo = [], [pid]
    while todo:
        for child in children.get(todo.pop(), []):
            found.append(child)
            todo.append(child)
    return found


def _kill_tree(pid: int) -> None:
    for p in [pid, *_descendants(pid)]:
        try:
            os.kill(p, signal.SIGKILL)
        except ProcessLookupError:
            pass


def execute(
    cmd: List[str], d: pathlib.Path, trace_dir: Optional[pathlib.Path] = None
) -> Process:
    """Run ``cmd`` from the checkout root and wait for it.

    Wall time is taken around start and reap; CPU time and peak RSS come
    from ``wait4``, so they cover the process and every descendant it
    reaped.
    """
    env = {
        k: v for k, v in os.environ.items()
        if k not in ("PYTHONPATH", "PERFBENCH_TRACE_DIR",
                     "PYTHONPROFILEIMPORTTIME")
    }
    env["PYTHONPATH"] = str(SRC)
    if trace_dir is not None:
        env["PYTHONPATH"] = os.pathsep.join([str(AGENT), str(SRC)])
        env["PERFBENCH_TRACE_DIR"] = str(trace_dir)
    d.mkdir(parents=True, exist_ok=True)
    with open(d / "stdout.txt", "wb") as out, open(d / "stderr.txt", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out, stderr=err)
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, _kill_tree, [proc.pid])
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: stop the command, then re-raise
            _kill_tree(proc.pid)
            os.wait4(proc.pid, 0)
            raise
        finally:
            watchdog.cancel()
        wall_s = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Process(
        wall_s=wall_s,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        returncode=proc.returncode,
        stdout=(d / "stdout.txt").read_text(errors="replace"),
        stderr=(d / "stderr.txt").read_text(errors="replace"),
    )


def repro_cmd(args: List[str], traced: bool = False,
              importtime: bool = False) -> List[str]:
    if traced:
        return [PYTHON, str(AGENT / "pb_cli.py"), *args]
    return [PYTHON, *(["-X", "importtime"] if importtime else []),
            "-m", "repro", *args]


def expected_tree() -> Dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(RESULTS.iterdir())
            if p.is_file()}


def check(
    wl: Workload, label: str, d: pathlib.Path, proc: Process,
    expected: Dict[str, bytes], ids: List[str], tally: Tally,
) -> None:
    """The correctness oracle of one iteration. Every experiment or cell
    that failed counts once; nothing is retried."""
    failed = set()

    def fail(exp_id: str, why: str) -> None:
        failed.add(exp_id)
        tally.problem(f"{label}: {exp_id}: {why}")

    out = d / "out"
    got = {p.name: p for p in out.iterdir()} if out.is_dir() else {}
    for name, data in expected.items():
        exp_id = name.rsplit(".", 1)[0]
        if name not in got:
            fail(exp_id, f"{name} missing")
        elif got[name].read_bytes() != data:
            fail(exp_id, f"{name} differs from results/{name}")
    for name in sorted(set(got) - set(expected)):
        fail(name.rsplit(".", 1)[0], f"unexpected artifact {name}")

    if wl.kind == "regen":
        status = dict(
            (m.group(2), m.group(1))
            for m in re.finditer(r"^\[(PASS|FAIL)\] (\S+)", proc.stdout, re.M)
        )
        for exp_id in ids:
            if status.get(exp_id) != "PASS":
                fail(exp_id, f"shape check {status.get(exp_id, 'missing')}")
        hits = len(ids) if wl.warm else 0
        want = f"cache: {hits} hits, {len(ids) - hits} misses"
        if proc.returncode == 0 and want not in proc.stdout:
            tally.problem(f"{label}: expected '{want}' (cache leaked?)")
    else:
        try:
            report = json.loads((d / "report.json").read_text())
            cells = {r["cell_id"]: r["state"] for r in report["cells"]}
        except (OSError, ValueError, KeyError) as exc:
            cells = {}
            tally.problem(f"{label}: unreadable campaign report: {exc}")
        for exp_id in ids:
            if cells.get(exp_id) != "done":
                fail(exp_id, f"cell {cells.get(exp_id, 'missing')}")
        if f"{len(ids)}/{len(ids)} done (0 warm)" not in proc.stdout:
            tally.problem(f"{label}: campaign summary is not all-cold done")

    if proc.returncode != 0:
        tally.problem(f"{label}: exit status {proc.returncode}")
        if not failed:  # crashed before naming what failed
            failed.update(ids)
    tally.attempted += len(ids)
    tally.failed += len(failed)


class Bench:
    def __init__(self, wl: Workload, seed: int, seconds: float,
                 units: Dict[str, str]) -> None:
        self.wl = wl
        self.units = units
        self.seed = seed
        self.seconds = seconds
        self.expected = expected_tree()
        self.ids = sorted({n.rsplit(".", 1)[0] for n in self.expected})
        self.tally = Tally()
        self.dir = WORK / f"{wl.name}-{os.getpid()}"
        self.count = 0
        self.prefill: Optional[pathlib.Path] = None

    def fresh_dir(self, prefilled: bool = False) -> pathlib.Path:
        self.count += 1
        d = self.dir / f"it{self.count}"
        d.mkdir(parents=True)
        if prefilled:
            shutil.copytree(self.prefill, d / "cache")
        return d

    def setup(self) -> None:
        subprocess.run([PYTHON, "-m", "compileall", "-q", str(SRC)],
                       check=True, stdout=subprocess.DEVNULL)
        if self.wl.warm:
            d = self.fresh_dir()
            cold = Workload("prefill", "regen")
            proc = execute(repro_cmd(cold.argv(d, self.ids, self.seed)), d)
            check(cold, "prefill", d, proc, self.expected, self.ids, self.tally)
            self.prefill = d / "cache"

    def iteration(self, traced: bool = False, importtime: bool = False):
        """One checked command; returns ``(process, directory)``."""
        d = self.fresh_dir(prefilled=self.wl.warm)
        trace_dir = d / "trace" if traced else None
        if trace_dir is not None:
            trace_dir.mkdir()
        argv = self.wl.argv(d, self.ids, self.seed)
        proc = execute(repro_cmd(argv, traced, importtime), d, trace_dir)
        label = f"{self.wl.name} iteration {self.count}"
        check(self.wl, label, d, proc, self.expected, self.ids, self.tally)
        return proc, d

    def setup_sample(self) -> float:
        """Fresh-interpreter start-up to a populated registry."""
        d = self.fresh_dir()
        proc = execute(repro_cmd(["list"]), d)
        listed = [line.split()[0] for line in proc.stdout.splitlines()
                  if line.strip()]
        if proc.returncode != 0 or listed != self.ids:
            self.tally.problem(
                f"repro list: exit {proc.returncode}, listed "
                f"{len(listed)} of {len(self.ids)} experiments"
            )
        shutil.rmtree(d)
        return proc.wall_s

    def measure(self) -> Dict[str, Dict[str, float]]:
        """End-to-end metrics, tracing off."""
        setup: List[float] = []
        procs: List[Process] = []
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            if elapsed >= len(setup) * self.seconds / SETUP_RUNS:
                setup.append(self.setup_sample())
            proc, d = self.iteration()
            procs.append(proc)
            shutil.rmtree(d)
            elapsed = time.perf_counter() - start
            typical = summarize([p.wall_s for p in procs]).median
            if len(procs) >= MIN_ITERATIONS and elapsed + typical > self.seconds:
                break
        while len(setup) < SETUP_RUNS:
            setup.append(self.setup_sample())
        samples = {
            "wall_s": [p.wall_s for p in procs],
            "cpu_s": [p.cpu_s for p in procs],
            "setup_s": setup,
            "peak_rss_mb": [p.rss_mb for p in procs],
        }
        metrics = {}
        for name, values in samples.items():
            self.report(metrics, name, values)
        fails = self.tally.failed / max(1, self.tally.attempted)
        print(f"{'failed_frac':<14} {fails:.6g} "
              f"({self.tally.failed} of {self.tally.attempted} experiments)")
        return metrics

    def traced_iteration(self) -> Optional[Dict[str, float]]:
        """Layer metrics of one traced iteration; ``None`` if the command
        failed, which the oracle has already counted."""
        proc, d = self.iteration(traced=True)
        if proc.returncode != 0:
            return None
        report = records = None
        if self.wl.kind == "regen":
            report = json.loads((d / "report.json").read_text())
        else:
            records = _journal(d / "camp" / "bench" / "journal.jsonl")
        metrics = trace_metrics(load_dumps(d / "trace"), report, records)
        metrics["_outside_wall_s"] = proc.wall_s
        shutil.rmtree(d)
        return metrics

    def trace(self) -> Dict[str, Dict[str, float]]:
        """Per-layer metrics: traced iterations alternating with untraced
        ones (for the tracing overhead), then one ``-X importtime`` run."""
        traced: List[Dict[str, float]] = []
        untraced: List[float] = []
        start = time.perf_counter()
        while True:
            if len(traced) <= len(untraced):
                metrics = self.traced_iteration()
                if metrics is None:
                    return {}
                traced.append(metrics)
            else:
                proc, d = self.iteration()
                untraced.append(proc.wall_s)
                shutil.rmtree(d)
            elapsed = time.perf_counter() - start
            pair = traced[-1]["_outside_wall_s"] + (untraced or [0.0])[-1]
            if (len(traced) >= MIN_ITERATIONS and untraced
                    and elapsed + pair > self.seconds):
                break
        for name in EXACT_COUNTS:
            values = {m[name] for m in traced}
            if len(values) != 1:
                self.tally.problem(
                    f"{name} differs between traced iterations: "
                    f"{sorted(values)} (a memo or cache leaked)"
                )
        proc, d = self.iteration(importtime=True)
        imports = parse_importtime(proc.stderr)
        shutil.rmtree(d)

        metrics: Dict[str, Dict[str, float]] = {}
        for name, value in imports.items():
            self.report(metrics, name, [value])
        for name in traced[0]:
            if not name.startswith("_"):
                self.report(metrics, name, [m[name] for m in traced])
        outside = summarize([m["_outside_wall_s"] for m in traced]).median
        self.report(metrics, "trace.overhead_frac",
                    [outside / summarize(untraced).median - 1])
        return metrics

    def report(self, metrics: Dict[str, Dict[str, float]], name: str,
               values: List[float]) -> None:
        """Print one metric with its unit and sample count; keep its median."""
        s = summarize(values)
        unit = self.units[name]  # every metric must be declared
        print(describe(name, unit, s))
        metrics[name] = {"value": s.median, "unit": unit}

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def _journal(path: pathlib.Path) -> List[dict]:
    """The campaign journal's intact records, in file order."""
    records = []
    for line in path.read_text().splitlines():
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if isinstance(record, dict) and "cell" in record:
            records.append(record)
    return records


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__main__.py").is_file() or not RESULTS.is_dir():
        print(f"error: {ROOT} is not the root of a repro checkout "
              "(needs src/repro and results/)", file=sys.stderr)
        return 2

    spec = json.loads(SPEC.read_text())
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    bench = Bench(WORKLOADS[args.workload], args.seed, args.seconds, units)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        bench.setup()
        metrics = bench.trace() if args.trace else bench.measure()
    finally:
        bench.close()
    tally = bench.tally
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
