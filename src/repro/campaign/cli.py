"""``repro campaign`` — crash-tolerant sweeps.

Subcommands::

    repro campaign run --cells fig05,table1 --faults none,plan.json \\
        --workers 2 --id sweep1          # create + drain (resumes if it
                                         # already exists with this spec)
    repro campaign status sweep1         # journal-derived cell table
    repro campaign resume sweep1 -w 4    # pick up exactly where the
                                         # journal left off
    repro campaign report sweep1 --out results-sweep1/
    repro campaign list                  # known campaign ids

``run``/``resume`` fork their ``--workers`` from the coordinator.
``worker`` runs the same drain as a process started by hand: extra
hosts sharing the campaign directory (and the result cache) via a
shared filesystem can join a drain with it.

Exit codes: 0 every cell done; 3 quarantined cells remain; 4 incomplete
(slice budget hit or workers stopped early); 2 usage errors; 130
interrupted (journal consistent — ``resume`` continues).
"""
# Wall-clock reads are deliberate: host-side CLI coordination.
# simlint: ignore-file[SL201]

from __future__ import annotations

import argparse
import json
import pathlib
from typing import Any, Dict, List, Optional, Tuple

from repro.campaign.campaign import (
    DEFAULT_ROOT,
    Campaign,
    CampaignError,
)
from repro.campaign.cells import Cell, build_cells
from repro.campaign.worker import WorkerConfig
from repro.runner.fingerprint import canonical_json, sha256_text

__all__ = ["main"]


def _parse_plans(
    spec: Optional[str],
) -> List[Tuple[str, Optional[Dict[str, Any]]]]:
    """``--faults none,plan.json`` → [(label, plan-dict-or-None), ...]."""
    if not spec:
        return []
    from repro.faults import FaultPlan

    plans: List[Tuple[str, Optional[Dict[str, Any]]]] = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        if token.lower() == "none":
            plans.append(("none", None))
        else:
            plans.append((token, FaultPlan.load(token).to_dict()))
    return plans


def _build_spec(args: argparse.Namespace) -> List[Cell]:
    from repro.core.registry import resolve_ids

    ids = resolve_ids(args.cells.split(",") if args.cells else None)
    return build_cells(ids, _parse_plans(args.faults))


def _auto_id(cells: List[Cell]) -> str:
    blob = canonical_json([c.to_dict() for c in cells])
    return "c-" + sha256_text(blob)[:10]


def _print_summary(campaign: Campaign) -> Dict[str, int]:
    s = campaign.summary()
    print(
        f"campaign {campaign.id}: {s['done']}/{s['total']} done "
        f"({s['warm']} warm), {s['pending']} pending, {s['leased']} leased, "
        f"{s['failed']} failed, {s['quarantined']} quarantined; "
        f"{s['retried']} retries, {s['stolen']} leases stolen"
    )
    return s


def _finish(campaign: Campaign, args: argparse.Namespace) -> int:
    """Shared tail of run/resume/report: merge, report, trace, exit code."""
    from repro.obs import Tracer, write_chrome_trace

    summary = _print_summary(campaign)
    problems: List[str] = []
    if args.out:
        written, problems = campaign.merge(args.out)
        print(f"wrote {len(written)} artifact files to {args.out}/")
        for problem in problems:
            print(f"  unmerged {problem}")
    if args.report:
        pathlib.Path(args.report).write_text(
            json.dumps(campaign.report(), indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote campaign report to {args.report}")
    if args.trace:
        tracer = Tracer(meta={"command": "campaign", "id": campaign.id})
        campaign.publish(tracer)
        write_chrome_trace(tracer, str(args.trace))
        print(f"wrote campaign trace to {args.trace}")
    else:
        campaign.publish()  # installed tracer, if any
    if summary["quarantined"]:
        return 3
    if summary["done"] != summary["total"] or problems:
        return 4
    return 0


def _drain(campaign: Campaign, args: argparse.Namespace) -> Optional[int]:
    """Run the drain phase; returns an exit code on interrupt."""
    workers = args.workers
    if workers <= 0:
        stats = campaign.drain_inline(
            name="w-inline",
            max_cells=args.max_cells,
            max_seconds=args.max_seconds,
            force=args.force,
        )
        print(
            f"inline worker: ran {stats.ran} cells "
            f"({stats.cache_hits} warm, {stats.failed} failed, "
            f"{stats.stolen} stolen) [{stats.outcome}]"
        )
        return None
    procs = campaign.spawn_workers(
        workers,
        max_cells=args.max_cells,
        max_seconds=args.max_seconds,
        force=args.force,
    )
    print(f"forked {len(procs)} worker(s) on campaign {campaign.id}")
    try:
        campaign.wait(procs)
    except KeyboardInterrupt:
        print(
            f"\ninterrupted: workers stopped cleanly; journal is "
            f"consistent. Resume with: repro campaign resume {campaign.id}"
        )
        _print_summary(campaign)
        return 130
    return None


def cmd_run(args: argparse.Namespace) -> int:
    from repro.core.registry import UnknownExperimentError

    try:
        cells = _build_spec(args)
    except (UnknownExperimentError, OSError, ValueError) as exc:
        print(exc)
        return 2
    campaign_id = args.id or _auto_id(cells)
    cfg = WorkerConfig(
        cache_dir=args.cache_dir,
        max_attempts=args.max_attempts,
        cell_timeout_s=args.cell_timeout,
        heartbeat_s=args.heartbeat,
        stale_after_s=(
            args.stale_after
            if args.stale_after is not None
            else 5.0 * args.heartbeat
        ),
        base_backoff_s=args.base_backoff,
        seed=args.seed,
    )
    try:
        campaign = Campaign.create(campaign_id, cells, cfg, root=args.root)
    except CampaignError as exc:
        print(exc)
        return 2
    print(
        f"campaign {campaign.id}: {len(cells)} cells "
        f"under {campaign.dir}"
    )
    code = _drain(campaign, args)
    if code is not None:
        return code
    return _finish(campaign, args)


def cmd_resume(args: argparse.Namespace) -> int:
    try:
        campaign = Campaign.load(args.id, root=args.root)
    except CampaignError as exc:
        print(exc)
        return 2
    if campaign.finished():
        print(f"campaign {campaign.id}: already complete")
        return _finish(campaign, args)
    code = _drain(campaign, args)
    if code is not None:
        return code
    return _finish(campaign, args)


def cmd_status(args: argparse.Namespace) -> int:
    from repro.core.report import render_table

    try:
        campaign = Campaign.load(args.id, root=args.root)
    except CampaignError as exc:
        print(exc)
        return 2
    report = campaign.report()
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    rows = [
        {
            "cell": r["cell_id"],
            "state": r["state"],
            "failures": r["failures"],
            "stolen": r["stolen"],
            "warm": "yes" if r["from_cache"] else "",
            "wall_s": (
                round(r["wall_s"], 3) if r["wall_s"] is not None else ""
            ),
            "error": (r["error"] or "")[:48],
        }
        for r in report["cells"]
    ]
    print(render_table(rows, title=f"campaign {campaign.id}"))
    if report["journal_records_skipped"]:
        print(
            f"note: skipped {report['journal_records_skipped']} torn/corrupt "
            "journal record(s) during replay"
        )
    _print_summary(campaign)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    try:
        campaign = Campaign.load(args.id, root=args.root)
    except CampaignError as exc:
        print(exc)
        return 2
    return _finish(campaign, args)


def cmd_list(args: argparse.Namespace) -> int:
    for campaign_id in Campaign.list_ids(args.root):
        campaign = Campaign.load(campaign_id, root=args.root)
        s = campaign.summary()
        print(
            f"{campaign_id:24s} {s['done']:4d}/{s['total']:<4d} done "
            f"{s['quarantined']:3d} quarantined"
        )
    return 0


def cmd_worker(args: argparse.Namespace) -> int:
    try:
        campaign = Campaign.load(args.id, root=args.root)
    except CampaignError as exc:
        print(exc)
        return 2
    return campaign.worker(
        name=args.name,
        max_cells=args.max_cells,
        max_seconds=args.max_seconds,
        force=args.force,
    ).serve()


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--root", default=DEFAULT_ROOT, metavar="DIR",
        help=f"campaign store (default {DEFAULT_ROOT}/)",
    )


def _add_drain_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers", "-w", type=int, default=1, metavar="N",
        help="worker processes to fork (0 = drain inline in this process)",
    )
    parser.add_argument(
        "--max-cells", type=int, default=None, metavar="N",
        help="per-worker slice budget: stop after N cells (resumable)",
    )
    parser.add_argument(
        "--max-seconds", type=float, default=None, metavar="S",
        help="per-worker slice budget: stop after S wall seconds (resumable)",
    )
    parser.add_argument(
        "--force", action="store_true",
        help="re-execute warm cells and refresh their cache entries",
    )


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--out", metavar="DIR", default=None,
        help="merge done cells' artifacts (csv+txt per cell) into DIR",
    )
    parser.add_argument(
        "--report", metavar="PATH", default=None,
        help="write a JSON campaign report to PATH",
    )
    parser.add_argument(
        "--trace", metavar="PATH", default=None,
        help="write a Perfetto trace of the campaign counters to PATH",
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro campaign",
        description="Crash-tolerant, resumable experiment campaigns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="create a campaign and drain it")
    p_run.add_argument(
        "--id", default=None,
        help="campaign id (default: content hash of the cell spec)",
    )
    p_run.add_argument(
        "--cells", metavar="IDS", default=None,
        help="comma-separated experiment ids (default: all registered)",
    )
    p_run.add_argument(
        "--faults", metavar="PLANS", default=None,
        help="comma-separated fault-plan JSON paths crossed with --cells; "
        "the token 'none' adds the fault-free variant",
    )
    p_run.add_argument(
        "--cache-dir", default=".repro-cache", metavar="DIR",
        help="content-addressed result store shared with `repro all`",
    )
    p_run.add_argument(
        "--max-attempts", type=int, default=3, metavar="K",
        help="failures before a cell is quarantined (default 3)",
    )
    p_run.add_argument(
        "--cell-timeout", type=float, default=None, metavar="S",
        help="per-cell wall-clock timeout; a wedged cell is killed and "
        "counts as a failure",
    )
    p_run.add_argument(
        "--heartbeat", type=float, default=0.5, metavar="S",
        help="lease heartbeat interval (default 0.5s)",
    )
    p_run.add_argument(
        "--stale-after", type=float, default=None, metavar="S",
        help="heartbeat age before a lease is considered stealable "
        "(default 5x heartbeat)",
    )
    p_run.add_argument(
        "--base-backoff", type=float, default=0.25, metavar="S",
        help="base retry backoff; grows exponentially with jitter",
    )
    p_run.add_argument(
        "--seed", type=int, default=None,
        help="seed for the deterministic retry jitter stream",
    )
    _add_common(p_run)
    _add_drain_flags(p_run)
    _add_output_flags(p_run)

    p_resume = sub.add_parser(
        "resume", help="drain an interrupted campaign from its journal"
    )
    p_resume.add_argument("id", help="campaign id")
    _add_common(p_resume)
    _add_drain_flags(p_resume)
    _add_output_flags(p_resume)

    p_status = sub.add_parser("status", help="journal-derived cell table")
    p_status.add_argument("id", help="campaign id")
    p_status.add_argument("--json", action="store_true", help="JSON output")
    _add_common(p_status)

    p_report = sub.add_parser(
        "report", help="merge artifacts and write the campaign report"
    )
    p_report.add_argument("id", help="campaign id")
    _add_common(p_report)
    _add_output_flags(p_report)

    p_list = sub.add_parser("list", help="list known campaigns")
    _add_common(p_list)

    p_worker = sub.add_parser(
        "worker",
        help="drain cells as one worker process (to join a drain by "
        "hand or from another host)",
    )
    p_worker.add_argument("id", help="campaign id")
    p_worker.add_argument("--name", default=None, help="worker name")
    _add_common(p_worker)
    p_worker.add_argument("--max-cells", type=int, default=None)
    p_worker.add_argument("--max-seconds", type=float, default=None)
    p_worker.add_argument("--force", action="store_true")

    args = parser.parse_args(argv)
    handler = {
        "run": cmd_run,
        "resume": cmd_resume,
        "status": cmd_status,
        "report": cmd_report,
        "list": cmd_list,
        "worker": cmd_worker,
    }[args.command]
    return handler(args)
