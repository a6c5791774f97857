import json
import pathlib

import pytest

from layers import (
    IMPORTS,
    campaign_metrics,
    parse_importtime,
    trace_metrics,
)
from spans import SpanError

SPEC = json.loads(
    (pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)


def _journal():
    # Two workers; w0 fails "b" once and retries it, w1 has its lease on
    # "c" stolen by w0.
    return [
        {"cell": "a", "state": "leased", "worker": "w0", "attempt": 1, "t": 10.5},
        {"cell": "b", "state": "leased", "worker": "w1", "attempt": 1, "t": 10.7},
        {"cell": "a", "state": "done", "wall_s": 0.1, "t": 11.0},
        {"cell": "b", "state": "failed", "error": "x", "t": 11.2},
        {"cell": "b", "state": "leased", "worker": "w0", "attempt": 2, "t": 11.5},
        {"cell": "b", "state": "done", "wall_s": 0.2, "t": 12.0},
        {"cell": "c", "state": "leased", "worker": "w0", "attempt": 1,
         "stolen": True, "t": 12.25},
        {"cell": "c", "state": "done", "wall_s": 0.25, "from_cache": False,
         "t": 13.0},
    ]


def test_campaign_metrics_on_a_synthetic_journal():
    m = campaign_metrics(_journal(), spawn_t=10.0)
    assert m["campaign.cells"] == 3
    # latencies: a 0.5, b 0.5 (failed) + 0.5, c 0.75
    assert m["campaign.cell_latency_s"] == pytest.approx(2.25)
    assert m["campaign.cell_overhead_s"] == pytest.approx(2.25 - 0.55)
    # w0 first leases at 10.5, w1 at 10.7
    assert m["campaign.worker_start_s"] == pytest.approx(1.2)
    # w0: a settles 11.0 -> b leased 11.5; b settles 12.0 -> c 12.25
    assert m["campaign.idle_s"] == pytest.approx(0.75)
    assert m["campaign.retries"] == 1
    assert m["campaign.stolen"] == 1


def test_campaign_metrics_without_spawn_have_no_worker_start():
    assert campaign_metrics(_journal(), None)["campaign.worker_start_s"] == 0


IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       100 |        100 |   _io
import time:       500 |       1000 | _frozen_importlib_external
import time:       300 |        300 |         numpy.core
import time:       200 |        500 |       numpy
import time:       100 |        100 |       scipy
import time:        50 |        650 |     repro.kernels
import time:       250 |        900 |   repro.experiments
import time:       100 |       1000 | repro
import time:       400 |        400 |   scipy.linalg
import time:        10 |        410 | repro.late
"""


def test_importtime_sums_top_level_and_unnested_package_imports():
    m = parse_importtime(IMPORTTIME)
    assert m["import.total_s"] == pytest.approx(2410e-6)
    assert m["import.repro.experiments_s"] == pytest.approx(900e-6)
    assert m["import.repro.kernels_s"] == pytest.approx(650e-6)
    assert m["import.numpy_s"] == pytest.approx(500e-6)
    # scipy at depth 3, plus scipy.linalg imported later under repro.late
    assert m["import.scipy_s"] == pytest.approx(500e-6)
    assert set(m) == {"import.total_s", *IMPORTS}


def test_importtime_without_lines_is_an_error():
    with pytest.raises(SpanError):
        parse_importtime("no imports here\n")


def _dumps():
    root = {
        "pid": 1, "ppid": 0, "role": "root", "t0": 0.0, "t1": 10.0,
        "spans": [
            ["import", "repro.__main__", 0.0, 1.0],
            ["cli", "main", 1.0, 9.5],
            ["campaign", "spawn_workers", 1.0, 1.5],
            ["campaign", "wait", 1.5, 9.0],
            ["campaign", "merge", 9.0, 9.25],
            ["runner", "cache_get", 9.1, 9.2],
        ],
        "counts": {"runner.cache.hits": 1}, "spawn_t": [100.0], "net": [0, 0],
    }
    worker = {
        "pid": 2, "ppid": 1, "role": "main", "t0": 1.2, "t1": 8.9,
        "spans": [["import", "repro.campaign", 1.2, 1.7],
                  ["campaign", "drain", 1.7, 8.8]],
        "counts": {}, "spawn_t": [], "net": [0, 0],
    }
    cell = {
        "pid": 3, "ppid": 2, "role": "fork", "t0": 2.0, "t1": 4.0,
        "spans": [
            ["import", "repro.experiments", 2.0, 2.5],
            ["runner", "cache_get", 2.5, 2.55],
            ["experiments", "ext_resilience", 2.6, 3.9],
            ["mpi", "job_run", 2.7, 3.8],
            ["simengine", "run", 2.75, 3.75],
        ],
        "counts": {"runner.cache.misses": 1, "mpi.jobs": 1,
                   "simengine.runs": 1},
        "spawn_t": [], "net": [3, 12],
    }
    return [root, worker, cell]


def test_trace_metrics_names_every_per_layer_metric():
    records = [
        {"cell": "ext_resilience", "state": "leased", "worker": "w0", "t": 101.0},
        {"cell": "ext_resilience", "state": "done", "wall_s": 1.3, "t": 103.0},
    ]
    m = trace_metrics(_dumps(), records=records)
    names = set(m) | set(parse_importtime(IMPORTTIME)) | {"trace.overhead_frac"}
    assert names == {metric["name"] for metric in SPEC["per_layer"]}
    assert m["experiments.ext_resilience_s"] == pytest.approx(1.3)
    assert m["experiments.rest_s"] == pytest.approx(0.0)
    assert m["mpi.job_run_s"] == pytest.approx(1.1)
    assert m["network.fast_ratio"] == pytest.approx(0.25)
    assert m["network.host_us_per_transfer"] == pytest.approx(1e6 / 12)
    assert m["campaign.cell_import_s"] == pytest.approx(0.5)
    assert m["campaign.worker_start_s"] == pytest.approx(1.0)
    assert m["runner.cache.hits"] == 1 and m["runner.cache.misses"] == 1
    # The root's layers and the remainder add up to its wall.
    layer_sum = sum(v for k, v in m.items() if k.startswith("self."))
    assert layer_sum + m["trace.unattributed_s"] == pytest.approx(10.0)
    assert m["self.campaign_s"] == pytest.approx(8.15)


def test_missing_dump_is_detected():
    records = [
        {"cell": "fig01", "state": "leased", "worker": "w0", "t": 101.0},
        {"cell": "fig01", "state": "done", "wall_s": 0.1, "t": 102.0},
    ]
    dumps = _dumps()
    with pytest.raises(SpanError, match="without its dump"):
        trace_metrics(dumps[:2], records=records)
