"""Importing the project installs nothing process-wide.

A tracer, fault plan or profiler installed at import time would silently
disarm the hybrid network fast path for every later run in the process.
A fresh interpreter imports every module under ``src/repro``; afterwards
no observer is installed, the hybrid default and the tie-break order are
untouched, and a small job still completes its transfers on the fast
path.
"""

import json
import subprocess
import sys

PROBE = """
import importlib, json, pkgutil
import repro
names = [info.name for info in pkgutil.walk_packages(
    repro.__path__, prefix="repro.")]
for name in names:
    importlib.import_module(name)

from repro.faults import current_plan
from repro.machine import xt4
from repro.mpi import MPIJob
from repro.network import simnet
from repro.obs import current_tracer
from repro.prof import current_profiler
from repro.simengine.queue import tie_break_seed

def main(comm):
    if comm.rank == 0:
        yield from comm.send(b"x" * 4096, dest=1)
    elif comm.rank == 1:
        yield from comm.recv(source=0)

job = MPIJob(xt4("SN"), 2)
job.run(main)
print(json.dumps({
    "modules": len(names),
    "tracer": current_tracer() is None,
    "plan": current_plan() is None,
    "profiler": current_profiler() is None,
    "hybrid_default": simnet._HYBRID_DEFAULT,
    "tie_break_seed": tie_break_seed(),
    "fast_transfers": job.network.fast_transfers,
}))
"""


def test_importing_every_module_leaves_the_fast_path_armed():
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    state = json.loads(proc.stdout.strip().splitlines()[-1])
    assert state.pop("modules") > 100
    assert state.pop("fast_transfers") > 0
    assert state == {
        "tracer": True,
        "plan": True,
        "profiler": True,
        "hybrid_default": True,
        "tie_break_seed": None,
    }
