"""Profile analysis: hotspot tables, attribution coverage, per-phase diffs.

Consumes loaded ``.profile.json`` dicts (see :mod:`repro.prof.export`)
and returns plain row dicts for :func:`repro.core.report.render_table` —
the same rendering path ``repro trace`` and the experiment reports use.
"""

from __future__ import annotations

from typing import List, Optional

__all__ = [
    "attribution_coverage",
    "diff_phase_rows",
    "edge_rows",
    "phase_rows",
    "site_rows",
]


def attribution_coverage(profile: dict) -> float:
    """Fraction of the profiled wall time that samples attributed.

    Engine plus host samples over the wall time the sampler was armed;
    the rest is the sampler's own cost. A profile with no samples
    attributed nothing: 0.0.
    """
    eng = profile["engine"]
    if eng["samples"] <= 0 or eng["wall_ns"] <= 0:
        return 0.0
    return min(1.0, (eng["run_wall_ns"] + eng["host_ns"]) / eng["wall_ns"])


def phase_rows(profile: dict, top: Optional[int] = None) -> List[dict]:
    """Engine phases by sampled self time, with percent of engine time."""
    wall = profile["engine"]["run_wall_ns"] or 1
    rows = [
        {
            "phase": name,
            "self_ms": round(entry["self_ns"] / 1e6, 4),
            "pct": round(100.0 * entry["self_ns"] / wall, 2),
        }
        for name, entry in profile["phases"].items()
    ]
    rows.sort(key=lambda r: (-r["self_ms"], r["phase"]))
    if top is not None:
        rows = rows[:top]
    return rows


def _ns_count_rows(
    table: dict, key: str, wall: int, top: Optional[int]
) -> List[dict]:
    rows = []
    for name, entry in table.items():
        count = entry["count"] or 1
        rows.append(
            {
                key: name,
                "count": entry["count"],
                "total_ms": round(entry["ns"] / 1e6, 4),
                "avg_us": round(entry["ns"] / count / 1e3, 3),
                "pct": round(100.0 * entry["ns"] / wall, 2),
            }
        )
    rows.sort(key=lambda r: (-r["total_ms"], r[key]))
    if top is not None:
        rows = rows[:top]
    return rows


def site_rows(profile: dict, top: Optional[int] = None) -> List[dict]:
    """Callsites (``kind:owner``, owners digit-normalized) by inclusive
    time — the per-process/per-callsite hotspot table."""
    wall = profile["engine"]["run_wall_ns"] or 1
    return _ns_count_rows(profile["sites"], "site", wall, top)


def edge_rows(profile: dict, top: Optional[int] = None) -> List[dict]:
    """Scheduling edges (``parent -> child`` sites) by downstream time.

    The parent comes from the simrace scheduled-by bookkeeping: this
    table answers "which site *causes* the expensive events?".
    """
    wall = profile["engine"]["run_wall_ns"] or 1
    return _ns_count_rows(profile["edges"], "edge", wall, top)


def diff_phase_rows(
    a: dict, b: dict, top: Optional[int] = None
) -> List[dict]:
    """Signed per-phase deltas between two profiles (A → B).

    ``delta_pct`` is relative to A's phase time (blank for phases new in
    B). Sorted by |delta|, so the first row names the phase that moved
    the most — the ``repro perf diff`` regression-triage view.
    """
    pa = {k: v["self_ns"] for k, v in a["phases"].items()}
    pb = {k: v["self_ns"] for k, v in b["phases"].items()}
    rows = []
    for name in sorted(set(pa) | set(pb)):
        na, nb = pa.get(name, 0), pb.get(name, 0)
        rows.append(
            {
                "phase": name,
                "a_ms": round(na / 1e6, 4),
                "b_ms": round(nb / 1e6, 4),
                "delta_ms": round((nb - na) / 1e6, 4),
                "delta_%": round(100.0 * (nb - na) / na, 2) if na else "-",
            }
        )
    rows.sort(key=lambda r: (-abs(r["delta_ms"]), r["phase"]))
    if top is not None:
        rows = rows[:top]
    return rows
