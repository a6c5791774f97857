"""Self time of nested spans, and the layer-sum check.

A span is ``(layer, name, start, end)`` recorded in one process. Spans of
one process nest: each lies inside the span that was open when it
started. A span's self time is its duration minus the durations of the
spans directly inside it. The process span (start-up to exit) is the
root; its self time is the time no layer's entry point was running, the
``unattributed`` remainder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

ROOT_LAYER = "process"


class SpanError(Exception):
    """Spans that do not nest, or layers that do not add up: a benchmark
    bug, never a property of the program measured."""


@dataclass
class Span:
    layer: str
    name: str
    t0: float
    t1: float
    parent: Optional["Span"] = None
    self_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    @property
    def key(self) -> Tuple[str, str]:
        return (self.layer, self.name)


@dataclass
class ProcessTimes:
    """One process's spans folded into per-layer numbers."""

    wall_s: float
    unattributed_s: float
    self_by_layer: Dict[str, float] = field(default_factory=dict)
    #: Inclusive seconds per (layer, name).
    inclusive: Dict[Tuple[str, str], float] = field(default_factory=dict)
    calls: Dict[Tuple[str, str], int] = field(default_factory=dict)


def nest(raw: Iterable[Sequence], t0: float, t1: float) -> List[Span]:
    """Attach each span to its parent and compute self times.

    Returns ``[root, *spans]``. Raises :class:`SpanError` when a span
    starts inside another but ends after it, or lies outside the root.
    """
    root = Span(ROOT_LAYER, "", t0, t1)
    spans = [Span(str(r[0]), str(r[1]), float(r[2]), float(r[3])) for r in raw]
    spans.sort(key=lambda s: (s.t0, -s.t1))
    for s in [root, *spans]:
        s.self_s = s.duration
    stack = [root]
    for s in spans:
        if s.t1 < s.t0:
            raise SpanError(f"span {s.key} ends before it starts")
        while len(stack) > 1 and stack[-1].t1 <= s.t0:
            stack.pop()
        parent = stack[-1]
        if s.t0 < parent.t0 or s.t1 > parent.t1:
            raise SpanError(
                f"span {s.key} [{s.t0:.6f}, {s.t1:.6f}] is not inside "
                f"{parent.key} [{parent.t0:.6f}, {parent.t1:.6f}]"
            )
        s.parent = parent
        parent.self_s -= s.duration
        stack.append(s)
    return [root, *spans]


def fold(raw: Iterable[Sequence], t0: float, t1: float) -> ProcessTimes:
    """Per-layer self times of one process, checked to add up to its wall.

    The check is the reconciliation the benchmark promises: the layers'
    self times plus the unattributed remainder equal the process wall
    time, and no self time is negative.
    """
    root, *spans = nest(raw, t0, t1)
    times = ProcessTimes(wall_s=root.duration, unattributed_s=root.self_s)
    for s in spans:
        times.self_by_layer[s.layer] = (
            times.self_by_layer.get(s.layer, 0.0) + s.self_s
        )
        times.calls[s.key] = times.calls.get(s.key, 0) + 1
        times.inclusive[s.key] = times.inclusive.get(s.key, 0.0) + s.duration
    check_layer_sum(times)
    return times


def check_layer_sum(times: ProcessTimes) -> None:
    tolerance = 1e-9 * max(1.0, times.wall_s) * (1 + len(times.calls))
    negative = {
        layer: v for layer, v in times.self_by_layer.items() if v < -tolerance
    }
    if negative or times.unattributed_s < -tolerance:
        raise SpanError(
            f"negative self time: {negative}, unattributed "
            f"{times.unattributed_s:.9f}s"
        )
    total = sum(times.self_by_layer.values()) + times.unattributed_s
    if abs(total - times.wall_s) > tolerance:
        raise SpanError(
            f"layers sum to {total:.9f}s, traced wall is {times.wall_s:.9f}s"
        )
