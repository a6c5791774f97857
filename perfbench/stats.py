"""Medians, quartiles and tail percentiles, each with its sample count."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple


@dataclass(frozen=True)
class Summary:
    median: float
    q1: float
    q3: float
    n: int
    #: ``(p, value)``: the highest whole percentile with at least ten
    #: samples above it, or ``None`` below 11 samples.
    tail: Optional[Tuple[int, float]]

    @property
    def spread(self) -> float:
        """Interquartile distance as a share of the median."""
        return (self.q3 - self.q1) / self.median if self.median else 0.0


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``
    gives them; a single value is its own quartiles."""
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail_percentile(values: Sequence[float]) -> Optional[Tuple[int, float]]:
    n = len(values)
    if n < 11:
        return None
    p = math.floor(100 * (n - 10) / n)
    return p, statistics.quantiles(values, n=100)[p - 1]


def summarize(values: Sequence[float]) -> Summary:
    q1, median, q3 = quartiles(values)
    return Summary(median, q1, q3, len(values), tail_percentile(values))


def describe(name: str, unit: str, s: Summary) -> str:
    """One line naming the metric, its unit and its sample count."""
    line = (
        f"{name:<14} median {s.median:.6g} {unit}  "
        f"q1 {s.q1:.6g}  q3 {s.q3:.6g}  n={s.n}"
    )
    if s.tail is not None:
        line += f"  p{s.tail[0]} {s.tail[1]:.6g}"
    return line
