"""Run a registered experiment under the engine profiler.

``record_experiment`` is the library form of ``repro perf record``: it
executes a driver (and its ``des_companion``, where one exists — several
figure drivers are analytic closed-form sweeps whose DES activity lives
in the companion) under a fresh :class:`~repro.prof.profiler.EngineProfiler`
— sampling the wall clock, counting every event — and a fresh tracer,
then writes the three profile artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional

from repro.core import get_experiment
from repro.obs import Tracer, installed
from repro.prof.export import write_artifacts
from repro.prof.profiler import EngineProfiler, installed_profiler

__all__ = ["RecordOutcome", "record_experiment"]


@dataclass
class RecordOutcome:
    """What one profiled experiment run produced."""

    exp_id: str
    #: written artifact paths: profile.json, folded, metrics.json.
    paths: List[str] = field(default_factory=list)
    events: int = 0
    samples: int = 0
    run_wall_ns: int = 0
    had_companion: bool = False
    result: Any = None


def record_experiment(
    exp_id: str,
    out_dir: str = "profiles",
    faults: Optional[str] = None,
) -> RecordOutcome:
    """Profile one registered experiment; write artifacts into ``out_dir``.

    The driver runs exactly as ``repro run --trace`` would — same
    companion behaviour, same installed-tracer plumbing — with the engine
    profiler installed process-wide so every simulator the driver builds
    is profiled.
    """
    from repro.experiments.common import faults_from, run_companion

    driver = get_experiment(exp_id)
    prof = EngineProfiler()
    tracer = Tracer(meta={"exp_id": exp_id, "profiled": "1"})
    with faults_from(faults), installed(tracer), installed_profiler(prof):
        result = driver()
        report = run_companion(exp_id)
    prof.finalize(tracer)
    paths = write_artifacts(prof, out_dir, exp_id, meta={"exp_id": exp_id})
    return RecordOutcome(
        exp_id=exp_id,
        paths=paths,
        events=prof.events,
        samples=prof.samples,
        run_wall_ns=prof.run_wall_ns,
        had_companion=report is not None,
        result=result,
    )
