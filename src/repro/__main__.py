"""Command-line interface: list, run and export the paper's experiments.

Usage::

    python -m repro list
    python -m repro run fig08 [--plot] [--logx]
    python -m repro run fig02 --trace fig02.trace.json   # Perfetto trace
    python -m repro all [--out results/] [--jobs 4] [--force] [--no-cache]
    python -m repro all --profile profiles/              # + engine profiles
    python -m repro campaign run --workers 4             # journaled, resumable
    python -m repro campaign resume <id>                 # pick up after a crash
    python -m repro cache verify [--delete]              # result-store hygiene
    python -m repro cache gc --max-age-days 30
    python -m repro lint src/ tests/                     # simlint passthrough
    python -m repro race fig08 -k 4                      # schedule-race certify
    python -m repro perf record --exp fig22              # engine profiling
    python -m repro trace summary fig02.trace.json       # trace analysis
    python -m repro faults show plan.json                # fault-plan authoring

This is the only entry point: each tool in ``PASSTHROUGH`` runs as
``python -m repro <tool>``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import pathlib
import sys
from typing import List, Optional

from repro.core import get_experiment
from repro.core.registry import (
    UnknownExperimentError,
    driver_module,
    experiment_titles,
)
from repro.core.report import (
    render_ascii_plot,
    render_result,
    write_artifacts,
)
from repro.experiments.common import (
    add_faults_flag,
    add_trace_flag,
    faults_from,
    run_companion,
    tracing_to,
)


#: Subcommands that hand their arguments to another tool's ``main``:
#: ``(module, help)``. The module is imported only when its subcommand
#: runs, so ``repro list`` never pays for it.
PASSTHROUGH = {
    "campaign": ("repro.campaign.cli",
                 "crash-tolerant, journaled sweep runner"),
    "cache": ("repro.runner.cache_cli", "result-store hygiene: verify | gc"),
    "lint": ("repro.lint.cli", "run simlint"),
    "race": ("repro.simrace.cli", "certify drivers schedule-invariant"),
    "perf": ("repro.prof.cli", "engine profiling: record/summary/flame/diff"),
    "trace": ("repro.obs.cli", "summarise and compare simulation traces"),
    "faults": ("repro.faults.cli", "author and inspect fault plans"),
}


def _bad_plan(path: Optional[str], command: str) -> bool:
    """True, after one line on stderr, when ``--faults PATH`` cannot be
    loaded; checked before anything runs or is written."""
    if path is None:
        return False
    from repro.faults import FaultPlan

    try:
        FaultPlan.load(path)
    except (OSError, ValueError) as exc:
        print(f"repro {command}: cannot load fault plan {path}: {exc}",
              file=sys.stderr)
        return True
    return False


def cmd_list(_args: argparse.Namespace) -> int:
    # Titles come from the registry's static table: listing 26
    # experiments imports no driver, let alone runs one.
    for exp_id, title in experiment_titles().items():
        print(f"{exp_id:14s} {title}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    try:
        driver = get_experiment(args.exp_id)
    except UnknownExperimentError as exc:
        print(exc)
        return 2
    if _bad_plan(args.faults, "run"):
        return 2
    companion_report = None
    module = importlib.import_module(driver_module(args.exp_id))
    with faults_from(args.faults), \
            tracing_to(args.trace, exp_id=args.exp_id) as tracer:
        result = driver()
        if tracer is not None:
            companion_report = run_companion(args.exp_id)
    print(render_result(result))
    if args.plot:
        print(render_ascii_plot(result, logx=args.logx))
    if companion_report is not None:
        print(companion_report)
    if args.trace:
        if companion_report is None:
            print(
                f"note: {args.exp_id} is analytic (no DES companion); "
                "the trace carries metadata only"
            )
        print(f"wrote {args.trace} (open at https://ui.perfetto.dev)")
    check = module.shape_checks(result)
    print(check.summary())
    return 0 if check.passed else 1


def cmd_machine(args: argparse.Namespace) -> int:
    from repro.core.report import render_table
    from repro.machine.calibration import audit
    from repro.machine.configs import (
        xt3,
        xt3_dc,
        xt3_xt4_combined,
        xt4,
        xt4_quadcore,
    )
    from repro.machine.io import load_machine, save_machine

    factories = {
        "xt3": xt3,
        "xt3-dc": xt3_dc,
        "xt4": xt4,
        "xt4-qc": xt4_quadcore,
        "xt3/4": xt3_xt4_combined,
    }
    if args.load:
        machine = load_machine(args.load)
    else:
        try:
            machine = factories[args.name.lower()](args.mode)
        except KeyError:
            print(f"unknown machine {args.name!r}; choose from {sorted(factories)}")
            return 2
    from repro.core.analysis import balance_table
    from repro.hpcc import HPCCSuite

    print(render_table(balance_table([machine]), title=str(machine)))
    metrics = HPCCSuite(machine).all_metrics()
    print(render_table([{"metric": k, "value": round(v, 4)} for k, v in metrics.items()]))
    if args.audit:
        print(render_table(audit(), title="calibration register"))
    if args.save:
        save_machine(machine, args.save)
        print(f"wrote {args.save}")
    return 0


def cmd_all(args: argparse.Namespace) -> int:
    from repro.core.registry import resolve_ids
    from repro.obs import Tracer, write_chrome_trace
    from repro.runner import ExperimentRunner, ResultCache

    try:
        ids = resolve_ids(args.only.split(",") if args.only else None)
    except UnknownExperimentError as exc:
        print(exc)
        return 2

    if _bad_plan(args.faults, "all"):
        return 2
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    trace_dir: Optional[str] = None
    tracer: Optional[Tracer] = None
    if args.trace:
        trace_dir = str(pathlib.Path(args.trace))
        pathlib.Path(trace_dir).mkdir(parents=True, exist_ok=True)
        tracer = Tracer(meta={"command": "all"})
    profile_dir: Optional[str] = None
    if args.profile:
        profile_dir = str(pathlib.Path(args.profile))
        pathlib.Path(profile_dir).mkdir(parents=True, exist_ok=True)
    fault_plan = None
    if args.faults is not None:
        from repro.faults import FaultPlan

        fault_plan = FaultPlan.load(args.faults).to_dict()
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    runner = ExperimentRunner(
        cache,
        force=args.force,
        fault_plan=fault_plan,
        trace_dir=trace_dir,
        profile_dir=profile_dir,
        tracer=tracer,
    )
    try:
        outcomes = runner.run(ids, jobs=args.jobs)
    except KeyboardInterrupt:
        # In-flight atomic cache writes were allowed to finish
        # (defer_sigint in ResultCache.put), so the store is
        # consistent: a re-run resumes from whatever completed.
        print(
            "\ninterrupted: cache is consistent; re-run `repro all` to "
            "resume from completed experiments "
            "(or use `repro campaign` for journaled resume)"
        )
        return 130

    failures = 0
    written = 0
    report_rows = []
    for o in outcomes:
        if o.failed:
            failures += 1
            print(f"[FAIL] {o.exp_id:14s} {o.error}")
            report_rows.append(
                {
                    "exp_id": o.exp_id,
                    "cached": False,
                    "wall_s": round(o.wall_s, 6),
                    "status": "FAIL",
                    "key": o.key,
                    "error": o.error,
                }
            )
            continue
        written += len(write_artifacts(o.result, out))
        # The shape-check outcome travels with the result (and its cache
        # entry): a warm run imports no driver to recompute it.
        status = "FAIL" if o.failures else "PASS"
        if o.failures:
            failures += 1
        origin = "cached" if o.from_cache else f"{o.wall_s:6.2f}s"
        print(f"[{status}] {o.exp_id:14s} {origin}")
        report_rows.append(
            {
                "exp_id": o.exp_id,
                "cached": o.from_cache,
                "wall_s": round(o.wall_s, 6),
                "status": status,
                "key": o.key,
            }
        )
    print(
        f"wrote {written} files ({len(outcomes)} experiments) "
        f"to {out}/"
    )
    if cache is not None:
        print(
            f"cache: {runner.hits} hits, {runner.misses} misses "
            f"({args.cache_dir})"
        )
    elif trace_dir is not None or profile_dir is not None:
        print("cache: bypassed (tracing/profiling forces execution)")
    else:
        print("cache: disabled")
    if tracer is not None:
        runner_trace = pathlib.Path(trace_dir) / "runner.trace.json"
        write_chrome_trace(tracer, str(runner_trace))
        print(f"wrote per-experiment traces and {runner_trace}")
    if profile_dir is not None:
        print(
            f"wrote engine profiles to {profile_dir}/ "
            "(inspect with `repro perf summary`)"
        )
    if args.report:
        pathlib.Path(args.report).write_text(
            json.dumps(
                {
                    "experiments": report_rows,
                    "hits": runner.hits,
                    "misses": runner.misses,
                    "jobs": args.jobs,
                },
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )
        print(f"wrote timing report to {args.report}")
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in PASSTHROUGH:
        # Hand the tool its arguments verbatim, so an option in first
        # position (`repro lint --stats`) reaches the tool's parser.
        forwarded = argv[1:]
        if forwarded[:1] == ["--"]:
            forwarded = forwarded[1:]
        module = importlib.import_module(PASSTHROUGH[argv[0]][0])
        return module.main(forwarded)
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the SC'07 Cray XT4 evaluation's tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list registered experiments")
    p_run = sub.add_parser("run", help="run one experiment")
    p_run.add_argument("exp_id", help="artifact id, e.g. fig08")
    p_run.add_argument("--plot", action="store_true", help="ASCII plot")
    p_run.add_argument("--logx", action="store_true", help="log-scale x")
    add_trace_flag(p_run)
    add_faults_flag(p_run)
    p_all = sub.add_parser(
        "all", help="run everything (parallel + cached), write CSV/txt"
    )
    p_all.add_argument("--out", default="results", help="output directory")
    p_all.add_argument(
        "--jobs", "-j", type=int, default=1, metavar="N",
        help="worker processes (default 1 = in-process serial)",
    )
    p_all.add_argument(
        "--only", metavar="IDS",
        help="comma-separated experiment ids to run (default: all)",
    )
    p_all.add_argument(
        "--force", action="store_true",
        help="re-execute even on a cache hit and refresh the entry",
    )
    p_all.add_argument(
        "--no-cache", action="store_true",
        help="disable the result cache entirely (no reads, no writes)",
    )
    p_all.add_argument(
        "--cache-dir", default=".repro-cache", metavar="DIR",
        help="cache location (default .repro-cache/)",
    )
    p_all.add_argument(
        "--report", metavar="PATH",
        help="write a JSON timing/cache report to PATH",
    )
    p_all.add_argument(
        "--trace", metavar="DIR", default=None,
        help="write one Perfetto trace per experiment into DIR "
        "(forces execution: cached results carry no trace)",
    )
    p_all.add_argument(
        "--profile", metavar="DIR", default=None,
        help="run every experiment under the engine profiler and write "
        "profile/flamegraph/metrics artifacts into DIR (forces "
        "execution: cached results carry no profile)",
    )
    add_faults_flag(p_all)
    for name, (_module, help_text) in PASSTHROUGH.items():
        # Listed for `repro --help` only: main() dispatches these first.
        sub.add_parser(
            name, help=f"{help_text} (see `repro {name} --help`)",
            add_help=False,
        )
    p_mach = sub.add_parser("machine", help="inspect or export a machine config")
    p_mach.add_argument("name", nargs="?", default="xt4",
                        help="xt3 | xt3-dc | xt4 | xt4-qc | xt3/4")
    p_mach.add_argument("--mode", default="SN", help="SN or VN")
    p_mach.add_argument("--save", help="write the config as JSON")
    p_mach.add_argument("--load", help="load a JSON config instead of a name")
    p_mach.add_argument("--audit", action="store_true",
                        help="print the calibration register")
    args = parser.parse_args(argv)
    if args.command == "list":
        return cmd_list(args)
    if args.command == "run":
        return cmd_run(args)
    if args.command == "machine":
        return cmd_machine(args)
    return cmd_all(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
