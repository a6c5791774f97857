"""Trace analysis: span self-time, counter statistics, hotspots, diffs,
and the per-rank MPI views.

Everything here consumes the neutral :class:`~repro.obs.export.TraceData`
form (or a live :class:`~repro.obs.tracer.Tracer`'s spans) and returns
plain row dicts, ready for :func:`repro.core.report.render_table` — the
same rendering path the experiment reports use, so ``repro trace``
output reads like the rest of the repository.
"""

from __future__ import annotations

import math
import re
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.obs.export import TraceData
from repro.obs.tracer import Span

__all__ = [
    "counter_stats",
    "counter_summary_rows",
    "diff_counter_rows",
    "diff_span_rows",
    "link_hotspot_rows",
    "mpi_op_rows",
    "render_timeline",
    "span_aggregate",
    "span_self_times",
    "span_summary_rows",
]

#: Counters written by :class:`repro.network.simnet.SimNetwork` when tracing.
_LINK_BYTES_RE = re.compile(r"^net\.link\[(?P<link>.+)\]\.bytes$")


def span_self_times(spans: List[Span]) -> List[Tuple[Span, float]]:
    """Each span paired with its *self time* (seconds).

    Self time is the span's duration minus the duration of spans nested
    directly inside it *on the same track* — the Perfetto notion, so a
    ``mpi.allreduce`` containing a ``net.xfer`` on its rank track is
    charged only for the time not explained by the transfer.
    """
    def _end(s: Span) -> float:
        return s.t1 if s.t1 is not None else s.t0

    results: List[Tuple[Span, float]] = []
    by_track: Dict[str, List[Span]] = {}
    for span in spans:
        by_track.setdefault(span.track, []).append(span)
    for track in sorted(by_track):
        # Sorted by start (longest first on ties), a span nests inside the
        # top of the stack iff the top has not ended when it starts.
        ordered = sorted(by_track[track], key=lambda s: (s.t0, -_end(s)))
        stack: List[List] = []  # [span, accumulated direct-child time]

        def _pop() -> None:
            done, child_time = stack.pop()
            results.append((done, max(0.0, done.duration_s - child_time)))
            if stack:
                stack[-1][1] += done.duration_s
        for span in ordered:
            while stack and _end(stack[-1][0]) <= span.t0:
                _pop()
            stack.append([span, 0.0])
        while stack:
            _pop()
    return results


def span_aggregate(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Aggregate spans by name: count, total/self/max duration (seconds)."""
    agg: Dict[str, Dict[str, float]] = {}
    for span, self_s in span_self_times(spans):
        entry = agg.setdefault(
            span.name,
            {"count": 0, "total_s": 0.0, "self_s": 0.0, "max_s": 0.0},
        )
        entry["count"] += 1
        entry["total_s"] += span.duration_s
        entry["self_s"] += self_s
        entry["max_s"] = max(entry["max_s"], span.duration_s)
    return agg


def span_summary_rows(trace: TraceData, top: Optional[int] = None) -> List[dict]:
    """Top-``top`` span names by self time, as table rows."""
    agg = span_aggregate(trace.spans)
    ranked = sorted(agg.items(), key=lambda kv: (-kv[1]["self_s"], kv[0]))
    if top is not None:
        ranked = ranked[:top]
    return [
        {
            "span": name,
            "count": int(entry["count"]),
            "total_ms": round(entry["total_s"] * 1e3, 4),
            "self_ms": round(entry["self_s"] * 1e3, 4),
            "max_ms": round(entry["max_s"] * 1e3, 4),
        }
        for name, entry in ranked
    ]


def counter_stats(series: List[Tuple[float, float]]) -> Dict[str, float]:
    """min/mean/max/p99/last over a counter's sample values.

    The percentile is over the recorded samples (not time-weighted): for
    occupancy-style counters sampled on every change this is the
    distribution of observed levels.
    """
    values = [v for _t, v in series]
    if not values:
        return {"n": 0, "min": 0.0, "mean": 0.0, "max": 0.0,
                "p99": 0.0, "last": 0.0}
    ordered = sorted(values)
    p99_idx = max(0, math.ceil(0.99 * len(ordered)) - 1)
    return {
        "n": len(values),
        "min": ordered[0],
        "mean": sum(values) / len(values),
        "max": ordered[-1],
        "p99": ordered[p99_idx],
        "last": values[-1],
    }


def counter_summary_rows(
    trace: TraceData, prefix: str = ""
) -> List[dict]:
    """One row of statistics per counter (optionally prefix-filtered)."""
    rows = []
    for name in sorted(trace.counters):
        if prefix and not name.startswith(prefix):
            continue
        s = counter_stats(trace.counters[name])
        rows.append(
            {
                "counter": name,
                "n": int(s["n"]),
                "min": round(s["min"], 6),
                "mean": round(s["mean"], 6),
                "max": round(s["max"], 6),
                "p99": round(s["p99"], 6),
                "last": round(s["last"], 6),
            }
        )
    return rows


def link_hotspot_rows(trace: TraceData, top: int = 5) -> List[dict]:
    """The ``top`` busiest links by carried bytes (tracer-counter based).

    Mirrors :meth:`repro.network.simnet.SimNetwork.hotspot_report`, but
    computed from an exported trace: the ``net.link[...].bytes`` counter
    totals, joined with the matching busy-time counters for a
    utilization column.
    """
    totals: List[Tuple[str, float, float]] = []  # (link, bytes, busy_s)
    for name in sorted(trace.counters):
        m = _LINK_BYTES_RE.match(name)
        if not m:
            continue
        series = trace.counters[name]
        nbytes = series[-1][1] if series else 0.0
        busy_name = f"net.link[{m.group('link')}].busy_s"
        busy_series = trace.counters.get(busy_name, [])
        busy_s = busy_series[-1][1] if busy_series else 0.0
        totals.append((m.group("link"), nbytes, busy_s))
    totals.sort(key=lambda row: (-row[1], row[0]))
    elapsed_s = trace.end_time
    return [
        {
            "link": link,
            "MB": round(nbytes / 1e6, 4),
            "busy_ms": round(busy_s * 1e3, 4),
            "util_%": round(100.0 * busy_s / elapsed_s, 2) if elapsed_s else 0.0,
        }
        for link, nbytes, busy_s in totals[:top]
    ]


def _ratio(a: float, b: float) -> float:
    if a == 0.0:
        return math.inf if b else 1.0
    return b / a


def diff_span_rows(
    a: TraceData, b: TraceData, top: Optional[int] = None
) -> List[dict]:
    """Per-span-name comparison of two traces, largest |delta| first.

    This is the paper's SN-vs-VN attribution workflow ("70% of the
    difference ... is due to ... the MPI_Alltoallv calls") applied to two
    trace files.
    """
    agg_a = span_aggregate(a.spans)
    agg_b = span_aggregate(b.spans)
    names = sorted(set(agg_a) | set(agg_b))
    rows = []
    for name in names:
        ta = agg_a.get(name, {}).get("total_s", 0.0)
        tb = agg_b.get(name, {}).get("total_s", 0.0)
        rows.append(
            {
                "span": name,
                "a_ms": round(ta * 1e3, 4),
                "b_ms": round(tb * 1e3, 4),
                "delta_ms": round((tb - ta) * 1e3, 4),
                "b/a": round(_ratio(ta, tb), 3) if ta else "-",
            }
        )
    rows.sort(key=lambda r: (-abs(r["delta_ms"]), r["span"]))
    if top is not None:
        rows = rows[:top]
    return rows


def diff_counter_rows(
    a: TraceData, b: TraceData, top: Optional[int] = None
) -> List[dict]:
    """Per-counter comparison (final values) of two traces."""
    names = sorted(set(a.counters) | set(b.counters))
    rows = []
    for name in names:
        sa = a.counters.get(name, [])
        sb = b.counters.get(name, [])
        va = sa[-1][1] if sa else 0.0
        vb = sb[-1][1] if sb else 0.0
        rows.append(
            {
                "counter": name,
                "a_last": round(va, 6),
                "b_last": round(vb, 6),
                "delta": round(vb - va, 6),
            }
        )
    rows.sort(key=lambda r: (-abs(r["delta"]), r["counter"]))
    if top is not None:
        rows = rows[:top]
    return rows


def _mpi_spans(spans: Iterable[Span]) -> Iterator[Tuple[int, str, Span]]:
    """``(rank, op, span)`` for every ``mpi.<op>`` span on a ``rank<r>``
    track — the spans :class:`~repro.mpi.comm.Comm` records."""
    for span in spans:
        if span.name.startswith("mpi.") and span.track.startswith("rank"):
            yield int(span.track[4:]), span.name[4:], span


def mpi_op_rows(spans: Iterable[Span]) -> List[dict]:
    """Per-rank, per-operation MPI ``calls``/``time_s``/``bytes`` rows,
    sorted by ``(rank, op)`` — the mpiP-style breakdown behind the
    paper's "70% ... is due to ... the MPI_Alltoallv calls".

    ``isend``/``irecv`` are zero-length spans, so they add calls and
    bytes but no time: a nonblocking operation's time accrues on
    whatever waits for it.
    """
    stats: Dict[Tuple[int, str], List[float]] = {}
    for rank, op, span in _mpi_spans(spans):
        entry = stats.setdefault((rank, op), [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += span.duration_s
        entry[2] += span.args.get("bytes", 0)
    return [
        {"rank": rank, "op": op, "calls": calls, "time_s": time_s,
         "bytes": nbytes}
        for (rank, op), (calls, time_s, nbytes) in sorted(stats.items())
    ]


#: Gantt marker per operation; ``isend``/``irecv`` (instants) have none.
_OP_CHARS = {
    "send": "s", "recv": "r", "sendrecv": "x", "barrier": "|",
    "bcast": "b", "reduce": "+", "allreduce": "A", "gather": "g",
    "allgather": "G", "scatter": "c", "alltoall": "t", "alltoallv": "T",
    "reduce_scatter": "R", "scan": "n", "exscan": "n", "split": "S",
}


def render_timeline(
    spans: Iterable[Span],
    total_s: float,
    width: int = 72,
    ranks: Optional[Iterable[int]] = None,
) -> str:
    """Text Gantt chart of each rank's MPI activity ('.' = outside MPI).

    Each column spans ``total_s / width`` simulated seconds and shows the
    marker of the operation drawn last over it. ``ranks`` selects the
    rows (default: every rank with an ``mpi.*`` span).
    """
    if total_s <= 0:
        raise ValueError("total_s must be positive")
    by_rank: Dict[int, List[Tuple[str, Span]]] = {}
    for rank, op, span in _mpi_spans(spans):
        if op in _OP_CHARS:
            by_rank.setdefault(rank, []).append((_OP_CHARS[op], span))
    lines = [f"MPI timeline: {width} cols x {total_s * 1e3:.3f} ms"]
    for rank in sorted(by_rank) if ranks is None else ranks:
        row = ["."] * width
        for mark, span in by_rank.get(rank, ()):
            c0 = int(span.t0 / total_s * width)
            c1 = max(c0 + 1, int(span.t1 / total_s * width) + 1)
            for col in range(c0, min(c1, width)):
                row[col] = mark
        lines.append(f"rank {rank:4d} {''.join(row)}")
    lines.append("  ".join(
        f"{v}={k}" for k, v in sorted(_OP_CHARS.items(), key=lambda kv: kv[1])
    ))
    return "\n".join(lines)
