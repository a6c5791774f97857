"""Per-layer metrics of one traced iteration.

Sources, outside-in:

* ``-X importtime`` output of the workload's command (``import.*``);
* the trace agent's per-process dumps (``runner.*``, ``mpi.*``,
  ``simengine.*``, ``network.*``, ``report.*``, ``self.*``, ``trace.*``,
  ``campaign.merge_s`` and ``campaign.cell_import_s``);
* artifacts the program writes itself: the ``--report`` rows of
  ``repro all`` and the campaign journal (``experiments.*``, the other
  ``campaign.*`` metrics).

Named ``_s`` metrics are summed over the iteration's processes and calls.
Entry-point metrics (``runner.run_s``, ``mpi.job_run_s``, ...) are
inclusive; the ``self.<layer>_s`` family is exclusive and, with
``trace.unattributed_s``, adds up to ``trace.wall_s`` for the root
process.
"""

from __future__ import annotations

import json
import pathlib
import re
from typing import Any, Dict, Iterable, List, Optional, Tuple

from spans import ProcessTimes, SpanError, fold

LAYERS = (
    "import", "cli", "runner", "experiments", "mpi", "simengine",
    "report", "campaign",
)
#: Drivers named on their own; the others are summed in ``rest_s``.
NAMED_DRIVERS = ("ext_resilience", "fig01", "fig12_13")
#: ``-X importtime`` modules reported by cumulative time.
IMPORTS = {
    "import.repro.experiments_s": "repro.experiments",
    "import.repro.kernels_s": "repro.kernels",
    "import.scipy_s": "scipy",
    "import.numpy_s": "numpy",
}
#: Counts that must repeat exactly between runs of the same code.
EXACT_COUNTS = (
    "runner.cache.hits", "runner.cache.misses", "mpi.jobs",
    "mpi.faults_injected", "mpi.restarts", "mpi.net_retransmits",
    "simengine.runs", "network.transfers", "network.fast_transfers",
    "report.files", "campaign.cells",
)

_IMPORTTIME = re.compile(
    r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)\s*$"
)


def parse_importtime(stderr: str) -> Dict[str, float]:
    """``import.*`` seconds from ``python -X importtime`` output.

    ``import.total_s`` sums the cumulative time of the top-level imports.
    A package is reported by the cumulative time of its modules' imports
    that are not nested inside another import of the same package, so
    ``scipy`` counts ``scipy.linalg`` imported later on its own.
    """
    # Lines come children first, each indented two more than its parent.
    rows: List[Tuple[str, int, Optional[int]]] = []  # name, us, parent
    pending: Dict[int, List[int]] = {}
    for line in stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if m is None:
            continue
        depth = (len(m.group(3)) - 1) // 2
        index = len(rows)
        rows.append((m.group(4), int(m.group(2)), None))
        for child in pending.pop(depth + 1, []):
            rows[child] = rows[child][:2] + (index,)
        pending.setdefault(depth, []).append(index)
    if not rows:
        raise SpanError("no -X importtime lines in the command's stderr")

    def seconds(package: Optional[str]) -> float:
        def inside(name: str) -> bool:
            return name == package or name.startswith(package + ".")

        total_us = 0
        for name, cumulative, parent in rows:
            if package is None:
                total_us += cumulative if parent is None else 0
                continue
            if not inside(name):
                continue
            while parent is not None and not inside(rows[parent][0]):
                parent = rows[parent][2]
            if parent is None:
                total_us += cumulative
        return total_us / 1e6

    metrics = {"import.total_s": seconds(None)}
    for metric, package in IMPORTS.items():
        metrics[metric] = seconds(package)
    return metrics


def load_dumps(trace_dir: pathlib.Path) -> List[Dict[str, Any]]:
    return [json.loads(p.read_text()) for p in sorted(trace_dir.glob("*.json"))]


def campaign_metrics(
    records: Iterable[Dict[str, Any]], spawn_t: Optional[float]
) -> Dict[str, float]:
    """``campaign.*`` from journal records (in file order).

    Latency is lease to settle (``done`` or ``failed``); overhead is the
    latency minus the driver's own ``wall_s``; a worker's start is spawn
    to its first lease; idle is settle to the same worker's next lease.
    """
    lease: Dict[str, Dict[str, Any]] = {}
    timeline: Dict[str, List[List[float]]] = {}
    m = {
        "campaign.cells": 0, "campaign.cell_latency_s": 0.0,
        "campaign.cell_overhead_s": 0.0, "campaign.worker_start_s": 0.0,
        "campaign.idle_s": 0.0, "campaign.retries": 0, "campaign.stolen": 0,
    }
    for r in records:
        state = r.get("state")
        if state == "leased":
            lease[r["cell"]] = r
            timeline.setdefault(r.get("worker", "?"), []).append([r["t"]])
            m["campaign.retries"] += int(r.get("attempt", 1)) > 1
            m["campaign.stolen"] += bool(r.get("stolen"))
        elif state in ("done", "failed") and r["cell"] in lease:
            leased = lease.pop(r["cell"])
            latency = r["t"] - leased["t"]
            m["campaign.cell_latency_s"] += latency
            m["campaign.cell_overhead_s"] += latency - float(
                r.get("wall_s") or 0.0
            )
            m["campaign.cells"] += state == "done"
            timeline[leased.get("worker", "?")][-1].append(r["t"])
    for spans in timeline.values():
        if spawn_t is not None:
            m["campaign.worker_start_s"] += spans[0][0] - spawn_t
        for prev, nxt in zip(spans, spans[1:]):
            if len(prev) == 2:
                m["campaign.idle_s"] += nxt[0] - prev[1]
    return m


def executed_drivers(
    report: Optional[Dict[str, Any]], records: Iterable[Dict[str, Any]]
) -> Dict[str, float]:
    """Driver wall seconds of experiments that ran (not cache hits), as
    the program measured them: ``repro all --report`` rows or campaign
    ``done`` records."""
    walls: Dict[str, float] = {}
    if report is not None:
        for row in report.get("experiments", []):
            if not row.get("cached"):
                walls[row["exp_id"]] = float(row["wall_s"])
    for r in records:
        if r.get("state") == "done" and not r.get("from_cache"):
            exp_id = r["cell"].split("@")[0]
            walls[exp_id] = walls.get(exp_id, 0.0) + float(r["wall_s"])
    return walls


def trace_metrics(
    dumps: List[Dict[str, Any]],
    report: Optional[Dict[str, Any]] = None,
    records: Optional[List[Dict[str, Any]]] = None,
) -> Dict[str, float]:
    """Every agent- and artifact-derived per-layer metric of one traced
    iteration (all but ``import.*`` and ``trace.overhead_frac``)."""
    records = records or []
    times: Dict[int, ProcessTimes] = {}
    for d in dumps:
        times[d["pid"]] = fold(d["spans"], d["t0"], d["t1"])
    roots = [d for d in dumps if d["role"] == "root"]
    if len(roots) != 1:
        raise SpanError(f"expected one root process dump, got {len(roots)}")
    root = roots[0]

    inclusive: Dict[tuple, float] = {}
    calls: Dict[tuple, int] = {}
    counts: Dict[str, int] = {}
    fast = total = 0
    for d in dumps:
        t = times[d["pid"]]
        for key, v in t.inclusive.items():
            inclusive[key] = inclusive.get(key, 0.0) + v
        for key, n in t.calls.items():
            calls[key] = calls.get(key, 0) + n
        for key, n in d["counts"].items():
            counts[key] = counts.get(key, 0) + n
        fast += d["net"][0]
        total += d["net"][1]

    walls = executed_drivers(report, records)
    driver_calls = sum(n for key, n in calls.items() if key[0] == "experiments")
    if driver_calls != len(walls):
        raise SpanError(
            f"{driver_calls} driver calls traced but the program reports "
            f"{len(walls)} executed: a process exited without its dump"
        )

    def incl(layer: str, name: str) -> float:
        return inclusive.get((layer, name), 0.0)

    m: Dict[str, float] = {
        "runner.run_s": incl("runner", "run"),
        "runner.key_for_s": incl("runner", "key_for"),
        "runner.cache_get_s": incl("runner", "cache_get"),
        "runner.cache_put_s": incl("runner", "cache_put"),
        "runner.cache.hits": counts.get("runner.cache.hits", 0),
        "runner.cache.misses": counts.get("runner.cache.misses", 0),
        "experiments.driver_s": sum(walls.values()),
    }
    for exp_id in NAMED_DRIVERS:
        m[f"experiments.{exp_id}_s"] = walls.get(exp_id, 0.0)
    m["experiments.rest_s"] = m["experiments.driver_s"] - sum(
        m[f"experiments.{e}_s"] for e in NAMED_DRIVERS
    )
    for name in ("jobs", "faults_injected", "restarts", "net_retransmits"):
        m[f"mpi.{name}"] = counts.get(f"mpi.{name}", 0)
    m["mpi.job_run_s"] = incl("mpi", "job_run")
    m["simengine.runs"] = counts.get("simengine.runs", 0)
    m["simengine.run_s"] = incl("simengine", "run")
    m["network.transfers"] = total
    m["network.fast_transfers"] = fast
    m["network.fast_ratio"] = fast / total if total else 0.0
    m["network.host_us_per_transfer"] = (
        m["simengine.run_s"] * 1e6 / total if total else 0.0
    )
    m["report.write_s"] = incl("report", "write")
    m["report.files"] = counts.get("report.files", 0)

    spawn_t = root["spawn_t"][0] if root["spawn_t"] else None
    m.update(campaign_metrics(records, spawn_t))
    m["campaign.merge_s"] = incl("campaign", "merge")
    # Cell children are forks of a spawned campaign worker interpreter.
    workers = {d["pid"] for d in dumps if d["role"] == "main"}
    m["campaign.cell_import_s"] = sum(
        times[d["pid"]].self_by_layer.get("import", 0.0)
        for d in dumps
        if d["role"] == "fork" and d["ppid"] in workers
    )

    root_times = times[root["pid"]]
    for layer in LAYERS:
        m[f"self.{layer}_s"] = root_times.self_by_layer.get(layer, 0.0)
    unknown = set(root_times.self_by_layer) - set(LAYERS)
    if unknown:
        raise SpanError(f"spans of unknown layers {sorted(unknown)}")
    m["trace.wall_s"] = root_times.wall_s
    m["trace.unattributed_s"] = root_times.unattributed_s
    return m
