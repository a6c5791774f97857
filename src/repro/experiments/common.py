"""Shared sweeps and helpers for the experiment drivers.

The command line imports this module for its flags and context
managers, so it imports no model at the top: a warm ``repro all`` and
``repro list`` stay free of numpy.
"""

from __future__ import annotations

import argparse
import importlib
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional, Tuple

from repro.core.experiment import ExperimentResult
from repro.obs import Tracer, installed, write_chrome_trace

#: Processor-count sweep for the global HPCC figures (paper x-axis to ~1200).
GLOBAL_SWEEP: Tuple[int, ...] = (128, 256, 512, 1024)

#: MPI task sweep for CAM (decomposition-legal counts up to the 960 limit).
CAM_SWEEP: Tuple[int, ...] = (64, 128, 256, 504, 672, 960)

#: Task sweep for POP on a single system.
POP_SWEEP: Tuple[int, ...] = (500, 1000, 2500, 5000)

#: Task sweep for POP on the combined XT3/XT4 system.
POP_COMBINED_SWEEP: Tuple[int, ...] = (10000, 16000, 22000)

#: NAMD task sweep (paper Figs 20-21 x-axis).
NAMD_SWEEP: Tuple[int, ...] = (64, 128, 256, 512, 1024, 2048, 4096, 8192, 12000)

#: S3D weak-scaling core counts (paper Fig. 22, log axis 1..10000).
S3D_SWEEP: Tuple[int, ...] = (1, 8, 64, 512, 4096, 12000)


def add_trace_flag(parser: argparse.ArgumentParser) -> None:
    """Attach the standard ``--trace PATH`` option to a driver's parser.

    Drivers pass ``args.trace`` to :func:`tracing_to`; the installed
    tracer then reaches every :class:`~repro.simengine.Simulator` the
    experiment (or its ``des_companion``) creates.
    """
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write a Perfetto (Chrome trace-event JSON) trace of the "
        "experiment's discrete-event companion runs to PATH",
    )


def add_faults_flag(parser: argparse.ArgumentParser) -> None:
    """Attach the standard ``--faults PLAN.json`` option to a parser.

    Drivers pass ``args.faults`` to :func:`faults_from`; the installed
    :class:`~repro.faults.FaultPlan` then reaches every
    :class:`~repro.mpi.job.MPIJob` the experiment (or its
    ``des_companion``) creates that does not name its own plan.
    """
    parser.add_argument(
        "--faults",
        metavar="PLAN",
        default=None,
        help="inject faults from a JSON fault plan (see docs/RESILIENCE.md; "
        "author one with `python -m repro faults sample`)",
    )


@contextmanager
def faults_from(path: Optional[str]) -> Iterator[Optional[Any]]:
    """Install the fault plan at ``path`` for the duration of the block.

    With ``path=None`` the block runs fault-free and ``None`` is yielded,
    so drivers can pass ``args.faults`` through unconditionally.
    """
    if path is None:
        yield None
        return
    from repro.faults import FaultPlan, installed_plan

    plan = FaultPlan.load(str(path))
    with installed_plan(plan):
        yield plan


def run_companion(exp_id: str) -> Optional[str]:
    """Run the ``des_companion`` of ``exp_id``'s driver module, if it has
    one, and return its report (``None`` when it has none).

    Several figure drivers are analytic closed-form sweeps whose DES
    activity lives in the companion, so whatever traces, profiles or
    certifies a driver runs its companion right after it.
    """
    from repro.core.registry import driver_module

    module = importlib.import_module(driver_module(exp_id))
    companion = getattr(module, "des_companion", None)
    return None if companion is None else companion()


@contextmanager
def profiling_to(
    out_dir: Optional[str], exp_id: str
) -> Iterator[Optional[Any]]:
    """Install a fresh engine profiler for the block; write the profile,
    folded-stack and metrics artifacts into ``out_dir`` on exit.

    With ``out_dir=None`` the block runs unprofiled and ``None`` is
    yielded, so callers (the runner's worker, driver ``main``\\ s) can
    pass a ``--profile`` flag through unconditionally. Link-utilization
    gauges are derived from the tracer installed at exit time, if any —
    combine with :func:`tracing_to` and the metrics ride the same run.
    """
    if out_dir is None:
        yield None
        return
    from repro.obs.tracer import current_tracer
    from repro.prof import EngineProfiler, installed_profiler, write_artifacts

    prof = EngineProfiler()
    with installed_profiler(prof):
        yield prof
    prof.finalize(current_tracer())
    write_artifacts(prof, str(out_dir), exp_id, meta={"exp_id": exp_id})


@contextmanager
def tracing_to(path: Optional[str], **meta: Any) -> Iterator[Optional[Tracer]]:
    """Install a fresh tracer for the block; write Perfetto JSON on exit.

    ``meta`` (experiment id, machine, seed, ...) is embedded in the
    trace's ``otherData``. With ``path=None`` the block runs untraced and
    ``None`` is yielded, so drivers can pass ``args.trace`` through
    unconditionally.
    """
    if path is None:
        yield None
        return
    tracer = Tracer(meta=dict(meta))
    with installed(tracer):
        yield tracer
    write_chrome_trace(tracer, str(path))


def global_hpcc_series(
    result: ExperimentResult,
    metric: Callable[[object, int], float],
    sweep: Tuple[int, ...] = GLOBAL_SWEEP,
) -> ExperimentResult:
    """Populate the four standard series of Figures 8-11.

    ``metric(machine, ntasks)`` returns the benchmark value for a job of
    ``ntasks`` tasks. Series follow the paper's legend: XT3 and XT4-SN
    indexed by sockets (= cores = tasks), XT4-VN plotted both per core
    (tasks = x) and per socket (tasks = 2x).
    """
    from repro.machine.configs import xt3, xt4

    result.add("XT3 (5/06)", list(sweep), [metric(xt3(), p) for p in sweep])
    result.add(
        "XT4-SN (2/07)", list(sweep), [metric(xt4("SN"), p) for p in sweep]
    )
    result.add(
        "XT4-VN (cores)", list(sweep), [metric(xt4("VN"), p) for p in sweep]
    )
    result.add(
        "XT4-VN (sockets)",
        list(sweep),
        [metric(xt4("VN"), 2 * p) for p in sweep],
    )
    return result
