"""Self-profiling for the simulator: engine-time attribution + metrics.

Where :mod:`repro.obs` answers "where does *simulated* time go?", this
package answers "where does the *host's wall-clock* time go while the
engine runs?" — the instrument the ROADMAP hot-path rewrite is judged
against. Two coordinated halves:

* :class:`EngineProfiler` — sampled wall-clock attribution per engine
  phase (queue, wait/wake, resource arbitration, store traffic), event
  kind, callsite and scheduling edge, plus exact per-event counts.
  :func:`installed_profiler` is the only way in: it installs the
  profiler that new simulators pick up and arms the wall-clock sampler
  for a ``with`` block. Off by default: unprofiled runs pay one
  ``is None`` check per event.
* a sim-time :class:`~repro.prof.metrics.MetricsRegistry` — fixed-bucket
  histograms (event-queue depth, ready-set size), gauges (link
  utilization) and sampled series riding the obs counter plumbing; its
  artifacts are byte-deterministic.

Artifacts (``repro all --only ID --profile DIR``, or
``ExperimentRunner(profile_dir=DIR).run([ID])``): a JSON profile, a
``flamegraph.pl``-compatible collapsed-stack file and a metrics JSON per
experiment. ``repro perf summary|diff`` analyse them;
``benchmarks/compare.py`` ingests per-phase timings for the schema-2
regression baseline. See docs/OBSERVABILITY.md ("Profiling the engine").
"""

from repro.prof.export import (
    PROFILE_SCHEMA,
    load_profile,
    profile_dict,
    write_artifacts,
)
from repro.prof.metrics import POW2_BUCKETS, Gauge, Histogram, MetricsRegistry
from repro.prof.profiler import (
    EngineProfiler,
    current_profiler,
    installed_profiler,
)

__all__ = [
    "EngineProfiler",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "POW2_BUCKETS",
    "PROFILE_SCHEMA",
    "current_profiler",
    "installed_profiler",
    "load_profile",
    "profile_dict",
    "write_artifacts",
]
