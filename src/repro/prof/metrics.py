"""Sim-time metrics registry: histograms, gauges, sampled time series.

Every value recorded here is a function of the *simulation* alone
(simulated timestamps, queue depths, event counts), never of the host
clock — so a metrics artifact is byte-identical across repeated runs,
across ``--jobs N`` fan-outs, and across machines. Wall-clock cost lives
in :mod:`repro.prof.profiler`; the two are exported side by side but
never mixed in one file.

Three instrument kinds:

* :class:`Histogram` — counts over **fixed, deterministic** bucket edges
  declared at creation time (no adaptive resizing: two runs always bin
  identically). Used for event-queue depth and ready-set size.
* :class:`Gauge` — a single last-write-wins value (e.g. a link's final
  utilization fraction).
* sampled **time series** — ``(sim_time, value)`` samples riding the
  existing :class:`repro.obs.tracer.Counter` plumbing, so the series
  semantics (sampled vs accumulating, tie-stable ordering) match traces
  exactly.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.tracer import Counter

__all__ = ["Gauge", "Histogram", "MetricsRegistry", "POW2_BUCKETS"]

#: Default bucket edges for occupancy-style histograms (queue depth,
#: ready-set size): powers of two up to ~1M. Fixed forever — bucket
#: layout is part of the metrics-file contract.
POW2_BUCKETS: Tuple[float, ...] = tuple(float(2 ** i) for i in range(21))

METRICS_SCHEMA = 1


class Histogram:
    """Counts over fixed bucket edges.

    A value ``v`` lands in the bucket of the first edge ``>= v``; values
    above the last edge land in the overflow bucket. ``sum`` and ``n``
    let consumers recover the mean without a separate counter.
    """

    __slots__ = ("name", "edges", "counts", "n", "sum")

    def __init__(self, name: str, edges: Sequence[float]) -> None:
        if not edges or list(edges) != sorted(edges):
            raise ValueError(f"histogram {name!r} needs sorted, non-empty edges")
        self.name = name
        self.edges: Tuple[float, ...] = tuple(float(e) for e in edges)
        self.counts: List[int] = [0] * (len(self.edges) + 1)
        self.n = 0
        self.sum = 0.0

    def observe(self, value: float, times: int = 1) -> None:
        """Count ``times`` observations of ``value``.

        Bucket ``i`` collects values in ``(edges[i-1], edges[i]]``; the
        final bucket is the overflow above the last edge.
        """
        idx = bisect_left(self.edges, float(value))
        self.counts[idx] += times
        self.n += times
        self.sum += float(value) * times

    def to_dict(self) -> dict:
        return {
            "edges": list(self.edges),
            "counts": list(self.counts),
            "n": self.n,
            "sum": self.sum,
        }


class Gauge:
    """A last-write-wins scalar."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def to_dict(self) -> dict:
        return {"value": self.value}


class MetricsRegistry:
    """Create-on-first-use registry of histograms, gauges and series."""

    def __init__(self) -> None:
        self.histograms: Dict[str, Histogram] = {}
        self.gauges: Dict[str, Gauge] = {}
        #: name → sampled time series (an obs :class:`Counter`).
        self.series: Dict[str, Counter] = {}

    def histogram(
        self, name: str, edges: Sequence[float] = POW2_BUCKETS
    ) -> Histogram:
        h = self.histograms.get(name)
        if h is None:
            h = self.histograms[name] = Histogram(name, edges)
        elif h.edges != tuple(float(e) for e in edges):
            raise ValueError(f"histogram {name!r} re-declared with new edges")
        return h

    def gauge(self, name: str) -> Gauge:
        g = self.gauges.get(name)
        if g is None:
            g = self.gauges[name] = Gauge(name)
        return g

    def time_series(self, name: str) -> Counter:
        """A ``(sim_time, value)`` series on the obs counter plumbing."""
        c = self.series.get(name)
        if c is None:
            c = self.series[name] = Counter(name)
        return c

    # -- export -----------------------------------------------------------
    def to_dict(self) -> dict:
        """Deterministic dict form (sorted names, schema-tagged)."""
        return {
            "schema": METRICS_SCHEMA,
            "histograms": {
                name: self.histograms[name].to_dict()
                for name in sorted(self.histograms)
            },
            "gauges": {
                name: self.gauges[name].to_dict()
                for name in sorted(self.gauges)
            },
            "series": {
                name: {
                    "mode": self.series[name].mode,
                    "t": [t for t, _v in self.series[name].series()],
                    "v": [v for _t, v in self.series[name].series()],
                }
                for name in sorted(self.series)
            },
        }

    def to_json(self) -> str:
        """Byte-deterministic JSON (identical runs serialize identically)."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=1) + "\n"

    def fill_link_utilization(self, tracer: Optional[object]) -> int:
        """Derive per-link utilization gauges from an obs tracer's
        ``net.link[...].busy_s`` counters; returns how many were set.

        This is how network metrics ride the existing trace plumbing: the
        tracer already accounts busy seconds per directed link, so the
        registry only divides by the trace's end time.
        """
        if tracer is None:
            return 0
        end = tracer.end_time
        if end <= 0:
            return 0
        n = 0
        for name in sorted(tracer.counters):
            if name.startswith("net.link[") and name.endswith("].busy_s"):
                label = name[len("net.link["):-len("].busy_s")]
                busy = tracer.counters[name].total
                self.gauge(f"net.link[{label}].utilization").set(busy / end)
                n += 1
        return n
