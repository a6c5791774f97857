"""Unified simulation observability: spans, counters, trace export.

The paper's whole method is attribution — explaining application
behaviour by where simulated time goes and which shared resource (memory
controller, NIC, torus link) saturates. This package makes that data a
first-class output of every simulation:

* :class:`Tracer` — zero-dependency span + counter collection, attached
  via ``Simulator(tracer=...)`` / ``MPIJob(..., tracer=...)`` (or
  process-wide for a ``with`` block with :func:`installed`). Off by
  default: untraced runs pay nothing.
* :mod:`repro.obs.export` — Chrome trace-event JSON (loadable in
  `Perfetto <https://ui.perfetto.dev>`_; one track per rank, link,
  resource and controller), the one trace format, plus its loader.
* :mod:`repro.obs.analyze` — span self-time rankings, counter
  statistics, link hotspots, trace-vs-trace diffs, and the per-rank
  MPI views (:func:`~repro.obs.analyze.mpi_op_rows`,
  :func:`~repro.obs.analyze.render_timeline`) over the ``mpi.<op>``
  spans every traced :class:`~repro.mpi.comm.Comm` records.
* ``repro trace`` (:mod:`repro.obs.cli`) — the analysis front-end over
  exported traces.

See docs/OBSERVABILITY.md for the counter naming scheme
(``layer.object.metric``) and a Perfetto walkthrough.
"""

from repro.obs.export import (
    TraceData,
    dumps_chrome_trace,
    load_trace,
    write_chrome_trace,
)
from repro.obs.tracer import (
    Counter,
    Span,
    Tracer,
    current_tracer,
    installed,
)

__all__ = [
    "Counter",
    "Span",
    "TraceData",
    "Tracer",
    "current_tracer",
    "dumps_chrome_trace",
    "installed",
    "load_trace",
    "write_chrome_trace",
]
