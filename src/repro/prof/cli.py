"""``repro perf``: record, summarise and compare engine profiles.

Usage::

    python -m repro perf record --exp fig22 [--out profiles/] [--faults PLAN]
    python -m repro perf summary [PROFILE ...] [--top K]
    python -m repro perf flame PROFILE [-o OUT.folded]
    python -m repro perf diff A.profile.json B.profile.json [--top K] \\
        [--fail-over PCT]

``summary`` with no arguments summarises every ``*.profile.json`` under
``profiles/`` (where ``record`` writes by default), so the two-step
``repro perf record --exp fig22 && repro perf summary`` just works.
``diff --fail-over PCT`` exits nonzero when any engine phase slowed by
more than PCT percent — the CI regression gate.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import List, Optional

from repro.core.report import render_table
from repro.prof.analyze import (
    attribution_coverage,
    diff_phase_rows,
    edge_rows,
    phase_rows,
    site_rows,
)
from repro.prof.export import folded_lines, load_profile

__all__ = ["main", "render_diff", "render_summary"]

#: Phases below this self time are exempt from --fail-over: percentage
#: gates on sub-millisecond phases amplify scheduler jitter into noise.
FAIL_OVER_FLOOR_MS = 5.0


def render_summary(profile: dict, top: int = 10, label: str = "") -> str:
    """The full text summary of one profile."""
    eng = profile["engine"]
    coverage = attribution_coverage(profile)
    meta = ", ".join(f"{k}={v}" for k, v in sorted(profile["meta"].items()))
    out = [
        f"== engine profile{': ' + label if label else ''} ==\n"
        f"engine wall: {eng['run_wall_ns'] / 1e6:.3f} ms   "
        f"events: {eng['events']}   sims: {eng['sims']}   "
        f"samples: {eng['samples']}   "
        f"attributed: {100.0 * coverage:.1f}%"
        + (f"   [{meta}]" if meta else "")
    ]
    rows = phase_rows(profile, top=top)
    if rows:
        out.append(render_table(rows, title="engine phases by self time"))
    rows = site_rows(profile, top=top)
    if rows:
        out.append(
            render_table(rows, title=f"top {top} callsites by inclusive time")
        )
    rows = edge_rows(profile, top=top)
    if rows:
        out.append(
            render_table(rows, title=f"top {top} scheduling edges")
        )
    return "\n".join(out)


def render_diff(a: dict, b: dict, top: int = 10) -> str:
    """Signed per-phase comparison of two profiles (A → B)."""
    ea, eb = a["engine"], b["engine"]
    out = [
        "== profile diff (A -> B) ==\n"
        f"A: {ea['run_wall_ns'] / 1e6:.3f} ms, {ea['events']} events    "
        f"B: {eb['run_wall_ns'] / 1e6:.3f} ms, {eb['events']} events"
    ]
    rows = diff_phase_rows(a, b, top=top)
    if rows:
        out.append(render_table(rows, title="engine phases by |delta|"))
    return "\n".join(out)


def _failing_phases(a: dict, b: dict, fail_over_pct: float) -> List[str]:
    """Phase names that slowed A→B beyond the threshold (and the floor).

    A phase under the floor in A — possibly one no sample landed on —
    is measured against the floor instead.
    """
    failing = []
    for row in diff_phase_rows(a, b):
        if row["a_ms"] < FAIL_OVER_FLOOR_MS and row["b_ms"] < FAIL_OVER_FLOOR_MS:
            continue
        base = max(row["a_ms"], FAIL_OVER_FLOOR_MS)
        pct = round(100.0 * row["delta_ms"] / base, 2)
        if pct > fail_over_pct:
            failing.append(f"{row['phase']} (+{pct}%)")
    return failing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro perf",
        description="Record and analyse engine (wall-clock) profiles of "
        "the repro discrete-event simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_rec = sub.add_parser("record", help="profile a registered experiment")
    p_rec.add_argument("--exp", required=True, metavar="ID",
                       help="experiment id, e.g. fig22")
    p_rec.add_argument("--out", default="profiles", metavar="DIR",
                       help="artifact directory (default profiles/)")
    p_rec.add_argument("--faults", default=None, metavar="PLAN",
                       help="inject faults from a JSON fault plan")
    p_sum = sub.add_parser("summary", help="summarise recorded profiles")
    p_sum.add_argument("profiles", nargs="*", metavar="PROFILE",
                       help="profile files (default: profiles/*.profile.json)")
    p_sum.add_argument("--top", type=int, default=10,
                       help="rows per ranking table (default 10)")
    p_flame = sub.add_parser(
        "flame", help="emit flamegraph.pl collapsed stacks from a profile"
    )
    p_flame.add_argument("profile")
    p_flame.add_argument("-o", "--out", default=None, metavar="OUT",
                         help="output file (default: stdout)")
    p_diff = sub.add_parser("diff", help="compare two profiles (A -> B)")
    p_diff.add_argument("profile_a")
    p_diff.add_argument("profile_b")
    p_diff.add_argument("--top", type=int, default=10,
                        help="rows per ranking table (default 10)")
    p_diff.add_argument(
        "--fail-over", type=float, default=None, metavar="PCT",
        help="exit 1 if any phase slowed by more than PCT percent "
        f"(phases under {FAIL_OVER_FLOOR_MS:g} ms are exempt)",
    )
    return parser


def _cmd_record(args: argparse.Namespace) -> int:
    from repro.core.registry import UnknownExperimentError
    from repro.prof.record import record_experiment

    try:
        outcome = record_experiment(args.exp, args.out, faults=args.faults)
    except UnknownExperimentError as exc:
        print(f"repro perf: {exc}", file=sys.stderr)
        return 2
    note = "" if outcome.had_companion else " (analytic driver, no companion)"
    print(
        f"profiled {args.exp}: {outcome.events} events, "
        f"{outcome.samples} samples, "
        f"{outcome.run_wall_ns / 1e6:.3f} ms engine{note}"
    )
    for path in outcome.paths:
        print(f"wrote {path}")
    return 0


def _cmd_summary(args: argparse.Namespace) -> int:
    paths = list(args.profiles)
    if not paths:
        paths = sorted(
            str(p) for p in pathlib.Path("profiles").glob("*.profile.json")
        )
        if not paths:
            print(
                "repro perf: no profiles given and none found under "
                "profiles/ — run `repro perf record --exp ID` first",
                file=sys.stderr,
            )
            return 2
    for i, path in enumerate(paths):
        if i:
            print()
        print(render_summary(load_profile(path), top=args.top, label=path))
    return 0


def _cmd_flame(args: argparse.Namespace) -> int:
    profile = load_profile(args.profile)
    lines = folded_lines(profile["stacks"])
    text = "\n".join(lines) + ("\n" if lines else "")
    if args.out:
        pathlib.Path(args.out).write_text(text)
        print(f"wrote {args.out} ({len(lines)} stacks)", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    a = load_profile(args.profile_a)
    b = load_profile(args.profile_b)
    print(render_diff(a, b, top=args.top))
    if args.fail_over is not None:
        failing = _failing_phases(a, b, args.fail_over)
        if failing:
            print(
                f"FAIL: {len(failing)} phase(s) slowed beyond "
                f"{args.fail_over:g}%: " + ", ".join(failing)
            )
            return 1
        print(f"ok: no phase slowed beyond {args.fail_over:g}%")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "record":
            return _cmd_record(args)
        if args.command == "summary":
            return _cmd_summary(args)
        if args.command == "flame":
            return _cmd_flame(args)
        return _cmd_diff(args)
    except (OSError, ValueError) as exc:
        print(f"repro perf: {exc}", file=sys.stderr)
        return 2
